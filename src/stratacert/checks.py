"""Cross-module identity battery.

Each check compares two independently computed routes to the same
quantity (for example, kappa of the bottom level evaluated directly on
the bottom signature versus derived through the prong identity), or pins
a structural fact of the enumerated atlas.  The checks are shared by the
``identities`` command and the acceptance suite.

One deliberate deviation is documented here: the familiar bound
``P <= 2g - 3`` on the prong total fails for exactly one family, the
rational-bottom banana (bottom genus 0, one top vertex, two edges), which
attains ``P = 2g - 2`` at every genus; the battery therefore checks the
corrected statement (``P <= 2g - 2`` with equality exactly on that
family, ``P <= 2g - 3`` off it).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Sequence

from .certify import (
    SixCoefficients,
    s_gamma_affine,
    s_hor_affine,
    six_coefficients,
    y_hor,
)
from .classes import (
    _canonical_coeff,
    _divisor_coeff,
    _divisor_integers,
    kappa_mu,
    kappa_over_2g,
    wplus_w_gamma,
    wplus_w_hor,
    wplus_w_lambda,
)
from .exactq import AffineInY, lcm_list
from .graphs import RBT, GraphInvariants, LevelGraph, graph_invariants, validate

DEFAULT_Y_SAMPLES = (
    Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3),
    Fraction(1, 5), Fraction(3, 20), Fraction(147, 793) + Fraction(1, 100000),
    Fraction(17, 100), Fraction(99, 100),
)


def is_rational_bottom_banana(graph: LevelGraph) -> bool:
    return (graph.bottom_genus == 0 and graph.v_top == 1
            and graph.edge_count == 2)


def graph_identity_failures(graph: LevelGraph, hbb_shape_test: bool = True) -> List[str]:
    """The per-graph identity battery; empty list when everything holds."""
    inv = graph_invariants(graph, hbb_shape_test)
    return _identity_failures(graph, inv, six_coefficients(inv, graph.genus))


def _identity_failures(graph: LevelGraph, inv: GraphInvariants,
                       six: SixCoefficients) -> List[str]:
    # rational comparisons cross-multiply numerators and denominators
    g = graph.genus
    bad = [f"validate: {msg}" for msg in validate(graph)]
    if kappa_mu(graph.bottom_orders()) != inv.kappa_bot:
        bad.append("kappa_bot: direct signature evaluation != prong identity")
    if inv.N_top + inv.N_bot != 2 * g:
        bad.append("N_top + N_bot != 2g")
    if inv.N_bot != 2 * graph.bottom_genus + inv.edges - inv.v_top:
        bad.append("N_bot != 2 g_b + E - v_top")
    if inv.N_top != inv.P + inv.v_top:
        bad.append("N_top != P + v_top")
    b_nc, r_nc = inv.b_NC, inv.R_NC
    if (b_nc.numerator * r_nc.denominator
            != (inv.ell * r_nc.numerator - r_nc.denominator) * b_nc.denominator):
        bad.append("b_NC != ell * R_NC - 1")
    if inv.ell != lcm_list(inv.prongs):
        bad.append("ell != lcm of prongs")
    k_top, p_inv = kappa_mu([p - 1 for p in inv.prongs]), inv.P_minus1
    if (k_top.numerator * p_inv.denominator
            != (inv.P * p_inv.denominator - p_inv.numerator) * k_top.denominator):
        bad.append("kappa_top != P - P_minus1")
    if any(v.genus < 1 for v in graph.top_vertices):
        bad.append("top vertex of genus 0 in a minimal-stratum graph")
    if RBT in inv.edge_classes:
        bad.append("RBT edge in a minimal-stratum graph")
    if is_rational_bottom_banana(graph):
        if inv.P != 2 * g - 2:
            bad.append("rational-bottom banana with P != 2g - 2")
    elif inv.P > 2 * g - 3:
        bad.append("P > 2g - 3 off the rational-bottom banana family")
    # 12 w_Gamma / w_lambda == 12 (w_bar + (g-1)(v_top-1)/(g+11))
    lhs, w_bar = six.w_ratio_term, six.w_bar
    rhs_num = 12 * (w_bar.numerator * (g + 11)
                    + (g - 1) * (inv.v_top - 1) * w_bar.denominator)
    if lhs.numerator * w_bar.denominator * (g + 11) != rhs_num * lhs.denominator:
        bad.append("decomposition 12 w_Gamma / w_lambda != "
                   "12 (w_bar + (g-1)(v_top-1)/(g+11))")
    # T1 + T2 - s_Gamma = d0 + d1 y, with d0 = n0 / m0 and d1 = n1 / m1;
    # it exceeds 0 at y = 0, 1/2 or 1 iff n0, 2 n0 m1 + n1 m0 or
    # n0 m1 + n1 m0 is positive
    s_aff, t1, t2 = six.s_gamma(), six.t1_affine, six.t2_affine
    n0, m0 = _sum_terms((t1.intercept, t2.intercept), s_aff.intercept)
    n1, m1 = _sum_terms((t1.slope, t2.slope), s_aff.slope)
    if n0 > 0 or 2 * n0 * m1 + n1 * m0 > 0 or n0 * m1 + n1 * m0 > 0:
        bad.append("T1 + T2 exceeds s_Gamma")
    return bad


def _sum_terms(terms: Sequence[Fraction], minus: Fraction) -> tuple:
    """(numerator, positive denominator) of sum(terms) - minus, unreduced."""
    num, den = -minus.numerator, minus.denominator
    for x in terms:
        num, den = num * x.denominator + x.numerator * den, den * x.denominator
    return num, den


def _assembly_affine(graph: LevelGraph, inv: GraphInvariants) -> AffineInY:
    """The divisor-class route to ell s_Gamma(y):
        canonical - Q b_NC + 2 b + y (12 ell w_Gamma / w_lambda - 2 b)
    with Q = kappa/2g = (2g-2)/(2g-1), w_lambda = (g+11)/(2g-2), and b the
    coefficient of the effective divisor genus g uses (Brill--Noether for
    odd genus, Hurwitz for even).  Each coefficient is one Fraction over the
    numerators and denominators of the class helpers' values."""
    g = graph.genus
    can = _canonical_coeff(graph, inv)
    w_gamma = wplus_w_gamma(graph)
    b = _divisor_coeff(inv)
    cn, cd = can.numerator, can.denominator
    wn, wd = w_gamma.numerator, w_gamma.denominator
    bn, bd = b.numerator, b.denominator
    nn, nd = inv.b_NC.numerator, inv.b_NC.denominator
    two_g1 = 2 * g - 1
    intercept = Fraction(
        (two_g1 * cn * nd - (2 * g - 2) * nn * cd) * bd + 2 * bn * two_g1 * cd * nd,
        two_g1 * cd * nd * bd)
    slope = Fraction(24 * (g - 1) * inv.ell * wn * bd - 2 * bn * (g + 11) * wd,
                     (g + 11) * wd * bd)
    return AffineInY(intercept, slope)


def _is_ell_times(x: Fraction, y: Fraction, ell: int) -> bool:
    """x == ell y, by cross-multiplication."""
    return x.numerator * y.denominator == ell * y.numerator * x.denominator


def assembly_failures(graph: LevelGraph, *, hbb_shape_test: bool = True) -> List[str]:
    """Check that the assembled boundary coefficient from the divisor-class
    route equals ell * s_Gamma(y) from the certifier route."""
    inv = graph_invariants(graph, hbb_shape_test)
    return _assembly_failures(graph, inv, s_gamma_affine(inv, graph.genus))


def _assembly_failures(graph: LevelGraph, inv: GraphInvariants,
                       s_gamma: AffineInY) -> List[str]:
    via_classes = _assembly_affine(graph, inv)
    ell = inv.ell
    bad = []
    if not (_is_ell_times(via_classes.intercept, s_gamma.intercept, ell)
            and _is_ell_times(via_classes.slope, s_gamma.slope, ell)):
        bad.append(f"assembled boundary coefficient mismatch on {inv.encoding}")
    else:
        # affine equality already implies equality at every sample; spot
        # evaluation guards the affine algebra itself
        for y in DEFAULT_Y_SAMPLES[:3]:
            if not _is_ell_times(via_classes(y), s_gamma(y), ell):
                bad.append(f"assembled coefficient differs at y={y}")
                break
    return bad


def assembly_scalar_failures(g: int) -> List[str]:
    """The graph-independent coordinates of the assembled class: lambda
    cancels exactly and the horizontal coefficient is s_hor(y)."""
    bad = []
    q = kappa_over_2g(g)
    w_lam = wplus_w_lambda(g)
    den, hor, _ = _divisor_integers(g)
    ratio = Fraction(hor, den)
    hor = s_hor_affine(g)
    for y in DEFAULT_Y_SAMPLES:
        lam = 12 - y * Fraction(12) / w_lam * w_lam - (1 - y) * 2 * 6
        if lam != 0:
            bad.append(f"lambda coefficient nonzero at y={y}")
        d_h = -(1 + q) + y * 12 * wplus_w_hor(g) / w_lam + 2 * (1 - y) * ratio
        if d_h != hor(y):
            bad.append(f"horizontal coefficient differs from s_hor at y={y}")
    return bad


def y_hor_root_failures(g_values: Iterable[int]) -> List[str]:
    """y_hor equals the exact root of the Brill--Noether s_hor for odd g."""
    bad = []
    for g in g_values:
        if g % 2 == 0:
            continue
        if y_hor(g) != s_hor_affine(g).root():
            bad.append(f"y_hor({g}) is not the root of s_hor")
    return bad


def identity_suite(graphs: Iterable[LevelGraph], hbb_shape_test: bool = True) -> tuple:
    """Run the battery over a graph collection; returns (checked, failures)."""
    checked = 0
    failures: List[str] = []
    for graph in graphs:
        checked += 1
        # one set of invariants and coefficients serves both batteries
        inv = graph_invariants(graph, hbb_shape_test)
        six = six_coefficients(inv, graph.genus)
        failures.extend(_identity_failures(graph, inv, six))
        failures.extend(_assembly_failures(graph, inv, six.s_gamma()))
        if len(failures) > 20:
            failures.append("... (stopping after 20 failures)")
            break
    return checked, failures
