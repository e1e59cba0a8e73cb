"""Cross-module identity battery.

Each check compares two independently computed routes to the same
quantity (for example, kappa of the bottom level evaluated directly on
the bottom signature versus derived through the prong identity), or pins
a structural fact of the enumerated atlas.  The checks are shared by the
``identities`` command and the acceptance suite.

The per-graph battery runs on integers.  Every rational it reads or
derives is a (numerator, denominator) pair with a positive denominator:
the rational invariants of ``graph_invariants`` (reduced), the
certifier's s_Gamma, w_bar, T1 and T2 (``certify._coefficients``,
``_s_gamma_pairs`` and ``_split_pairs``), the class helpers'
coefficients (``classes._canonical_pair``, ``_w_gamma_pair`` and
``_divisor_numerator``), kappa by direct evaluation (``_kappa_mu_pair``)
and each spot value (``_at``).  Two rationals are compared by
cross-multiplying and a sign is read off the numerator, so the battery
builds no Fraction, its invariants included.  The bottom kappa is
evaluated directly on the bottom signature once per graph, and that one
pair serves the kappa check and both class helpers.  The assembly check
keeps its two routes apart: the class side reads only the class helpers,
which take that direct evaluation, with ell, N_bot, b_NC and delta_H;
the certifier side reads only ``_coefficients``, which takes kappa_bot
from the prong identity in ``graph_invariants``.

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
    _coefficients,
    _s_gamma_pairs,
    _split_pairs,
    s_hor_affine,
    y_hor,
)
from .classes import (
    _canonical_pair,
    _divisor_integers,
    _divisor_numerator,
    _w_gamma_pair,
    kappa_over_2g,
    wplus_w_hor,
    wplus_w_lambda,
)
from .exactq import lcm_list
from .graphs import (
    RBT,
    GraphInvariants,
    LevelGraph,
    _kappa_mu_pair,
    graph_invariants,
    validate,
)

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
    return _identity_failures(graph, inv, _coefficients(inv, graph.genus),
                              _kappa_mu_pair(graph.bottom_orders()))


def _identity_failures(graph: LevelGraph, inv: GraphInvariants,
                       coeffs: tuple, kappa_direct: tuple) -> List[str]:
    """The battery on the invariants, the ``_coefficients`` pairs and the
    bottom kappa by direct signature evaluation."""
    g = graph.genus
    bad = [f"validate: {msg}" for msg in validate(graph)]
    kn, kd = kappa_direct
    an, ad = inv.kappa_bot
    if kn * ad != an * kd:
        bad.append("kappa_bot: direct signature evaluation != prong identity")
    if inv.N_top + inv.N_bot != 2 * g:
        bad.append("N_top + N_bot != 2g")
    if inv.N_bot != 2 * graph.bottom_genus + inv.edges - inv.v_top:
        bad.append("N_bot != 2 g_b + E - v_top")
    if inv.N_top != inv.P + inv.v_top:
        bad.append("N_top != P + v_top")
    (bn, bd), (rn, rd) = inv.b_NC, inv.R_NC
    if bn * rd != (inv.ell * rn - rd) * bd:
        bad.append("b_NC != ell * R_NC - 1")
    if inv.ell != lcm_list(inv.prongs):
        bad.append("ell != lcm of prongs")
    kn, kd = _kappa_mu_pair([p - 1 for p in inv.prongs])
    pn, pd = inv.P_minus1
    if kn * pd != (inv.P * pd - pn) * kd:
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
    r_gamma, c_gamma, w_ratio, b_six = coeffs
    (xn, xd), t1_0, t1_1, t2_0, t2_1 = _split_pairs(inv, g, r_gamma, b_six)
    # 12 w_Gamma / w_lambda == 12 (w_bar + (g-1)(v_top-1)/(g+11))
    wn, wd = w_ratio
    rhs_num = 12 * (xn * (g + 11) + (g - 1) * (inv.v_top - 1) * xd)
    if wn * xd * (g + 11) != rhs_num * wd:
        bad.append("decomposition 12 w_Gamma / w_lambda != "
                   "12 (w_bar + (g-1)(v_top-1)/(g+11))")
    # T1 + T2 - s_Gamma = d0 + d1 y, with d0 = n0 / m0 and d1 = n1 / m1;
    # it exceeds 0 at y = 0, 1/2 or 1 iff n0, 2 n0 m1 + n1 m0 or
    # n0 m1 + n1 m0 is positive
    s_0, s_1 = _s_gamma_pairs(c_gamma, w_ratio, b_six)
    n0, m0 = _sum_terms((t1_0, t2_0), s_0)
    n1, m1 = _sum_terms((t1_1, t2_1), s_1)
    if n0 > 0 or 2 * n0 * m1 + n1 * m0 > 0 or n0 * m1 + n1 * m0 > 0:
        bad.append("T1 + T2 exceeds s_Gamma")
    return bad


def _sum_terms(terms: Sequence[tuple], minus: tuple) -> tuple:
    """(numerator, positive denominator) of sum(terms) - minus, all pairs
    with positive denominators, unreduced."""
    num, den = -minus[0], minus[1]
    for n, d in terms:
        num, den = num * d + n * den, den * d
    return num, den


def _assembly_pairs(graph: LevelGraph, inv: GraphInvariants,
                    kappa_direct: tuple) -> tuple:
    """The divisor-class route to ell s_Gamma(y):
        canonical - Q b_NC + 2 b + y (12 ell w_Gamma / w_lambda - 2 b)
    with Q = kappa/2g = (2g-2)/(2g-1), w_lambda = (g+11)/(2g-2), and b the
    coefficient of the effective divisor genus g uses (Brill--Noether for
    odd genus, Hurwitz for even): the unreduced (numerator, denominator)
    pairs of the intercept and the slope, over the class helpers' pairs,
    which read the bottom kappa by direct signature evaluation."""
    g = graph.genus
    cn, cd = _canonical_pair(inv, kappa_direct)
    wn, wd = _w_gamma_pair(graph, kappa_direct)
    bn, bd = _divisor_numerator(inv), _divisor_integers(g)[0]
    nn, nd = inv.b_NC
    two_g1 = 2 * g - 1
    return (((two_g1 * cn * nd - (2 * g - 2) * nn * cd) * bd + 2 * bn * two_g1 * cd * nd,
             two_g1 * cd * nd * bd),
            (24 * (g - 1) * inv.ell * wn * bd - 2 * bn * (g + 11) * wd,
             (g + 11) * wd * bd))


def _at(affine: tuple, y: Fraction) -> tuple:
    """intercept + slope y of an affine given as the pairs of its intercept
    and slope: an unreduced pair over the product of the three
    denominators."""
    (a, ad), (s, sd) = affine
    yn, yd = y.numerator, y.denominator
    return a * sd * yd + s * yn * ad, ad * sd * yd


def _is_ell_times(x: tuple, y: tuple, ell: int) -> bool:
    """x == ell y for (numerator, denominator) pairs, by cross-multiplication."""
    return x[0] * y[1] == ell * y[0] * x[1]


def assembly_failures(graph: LevelGraph, *, hbb_shape_test: bool = True) -> List[str]:
    """Check that the assembled boundary coefficient from the divisor-class
    route equals ell * s_Gamma(y) from the certifier route."""
    inv = graph_invariants(graph, hbb_shape_test)
    return _assembly_failures(graph, inv, _coefficients(inv, graph.genus),
                              _kappa_mu_pair(graph.bottom_orders()))


def _assembly_failures(graph: LevelGraph, inv: GraphInvariants,
                       coeffs: tuple, kappa_direct: tuple) -> List[str]:
    """The assembly check on the invariants, the ``_coefficients`` pairs
    and the bottom kappa by direct signature evaluation."""
    via_classes = _assembly_pairs(graph, inv, kappa_direct)
    s_gamma = _s_gamma_pairs(*coeffs[1:])
    ell = inv.ell
    bad = []
    if not (_is_ell_times(via_classes[0], s_gamma[0], ell)
            and _is_ell_times(via_classes[1], s_gamma[1], ell)):
        bad.append(f"assembled boundary coefficient mismatch on {inv.encoding}")
    else:
        # affine equality already implies equality at every sample; spot
        # evaluation guards the affine algebra itself
        for y in DEFAULT_Y_SAMPLES[:3]:
            if not _is_ell_times(_at(via_classes, y), _at(s_gamma, y), ell):
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
        # one set of invariants, coefficient pairs and directly evaluated
        # bottom kappa serves both batteries
        inv = graph_invariants(graph, hbb_shape_test)
        coeffs = _coefficients(inv, graph.genus)
        kappa_direct = _kappa_mu_pair(graph.bottom_orders())
        failures.extend(_identity_failures(graph, inv, coeffs, kappa_direct))
        failures.extend(_assembly_failures(graph, inv, coeffs, kappa_direct))
        if len(failures) > 20:
            failures.append("... (stopping after 20 failures)")
            break
    return checked, failures
