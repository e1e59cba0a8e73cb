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

from .certify import SixCoefficients, s_hor_affine, six_coefficients, y_hor
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
    if inv.b_NC != inv.ell * inv.R_NC - 1:
        bad.append("b_NC != ell * R_NC - 1")
    if inv.ell != lcm_list(inv.prongs):
        bad.append("ell != lcm of prongs")
    if inv.kappa_top != inv.P - inv.P_minus1:
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
    lhs = six.w_ratio_term
    rhs = 12 * (six.w_bar + Fraction((g - 1) * (inv.v_top - 1), g + 11))
    if lhs != rhs:
        bad.append("decomposition 12 w_Gamma / w_lambda != "
                    "12 (w_bar + (g-1)(v_top-1)/(g+11))")
    s_aff = six.s_gamma()
    split = six.t1_affine + six.t2_affine
    for y in (Fraction(0), Fraction(1, 2), Fraction(1)):
        if split(y) > s_aff(y):
            bad.append("T1 + T2 exceeds s_Gamma")
            break
    return bad


def _assembly_affine(graph: LevelGraph, inv: GraphInvariants) -> AffineInY:
    # the divisor-class route: Brill--Noether for odd genus, Hurwitz for even
    g = graph.genus
    q = kappa_over_2g(g)
    can = _canonical_coeff(graph, inv)
    w_term = 12 * wplus_w_gamma(graph) * inv.ell / wplus_w_lambda(g)
    b = _divisor_coeff(inv)
    return AffineInY(can - q * inv.b_NC + 2 * b, w_term - 2 * b)


def assembly_failures(graph: LevelGraph, *, hbb_shape_test: bool = True,
                      ys: Sequence[Fraction] = DEFAULT_Y_SAMPLES) -> List[str]:
    """Check that the assembled boundary coefficient from the divisor-class
    route equals ell * s_Gamma(y) from the certifier route."""
    inv = graph_invariants(graph, hbb_shape_test)
    six = six_coefficients(inv, graph.genus)
    return _assembly_failures(graph, inv, six, ys)


def _assembly_failures(graph: LevelGraph, inv: GraphInvariants,
                       six: SixCoefficients,
                       ys: Sequence[Fraction] = DEFAULT_Y_SAMPLES) -> List[str]:
    via_classes = _assembly_affine(graph, inv)
    via_certifier = six.s_gamma().scaled(inv.ell)
    bad = []
    if (via_classes.intercept != via_certifier.intercept
            or via_classes.slope != via_certifier.slope):
        bad.append(f"assembled boundary coefficient mismatch on {inv.encoding}")
    else:
        # affine equality already implies equality at every sample; spot
        # evaluation guards the affine algebra itself
        for y in ys[:3]:
            if via_classes(y) != via_certifier(y):
                bad.append(f"assembled coefficient differs at y={y}")
                break
    return bad


def assembly_scalar_failures(g: int, *,
                             ys: Sequence[Fraction] = DEFAULT_Y_SAMPLES) -> List[str]:
    """The graph-independent coordinates of the assembled class: lambda
    cancels exactly and the horizontal coefficient is s_hor(y)."""
    bad = []
    q = kappa_over_2g(g)
    w_lam = wplus_w_lambda(g)
    den, hor, _ = _divisor_integers(g)
    ratio = Fraction(hor, den)
    hor = s_hor_affine(g)
    for y in ys:
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


def identity_suite(graphs: Iterable[LevelGraph], hbb_shape_test: bool = True,
                   with_assembly: bool = True) -> tuple:
    """Run the battery over a graph collection; returns (checked, failures)."""
    checked = 0
    failures: List[str] = []
    for graph in graphs:
        checked += 1
        # one set of invariants and coefficients serves both batteries
        inv = graph_invariants(graph, hbb_shape_test)
        six = six_coefficients(inv, graph.genus)
        failures.extend(_identity_failures(graph, inv, six))
        if with_assembly:
            failures.extend(_assembly_failures(graph, inv, six))
        if len(failures) > 20:
            failures.append("... (stopping after 20 failures)")
            break
    return checked, failures
