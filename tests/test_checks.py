"""The identity battery: every check fires on a corrupted input, the
integer-pair battery agrees with its Fraction oracle, and a passing graph
builds no Fraction from its invariants on."""

import itertools
from dataclasses import replace
from fractions import Fraction as F

import pytest

from stratacert import checks
from stratacert import classes as classes_module
from stratacert.certify import SixCoefficients, _coefficients
from stratacert.classes import _canonical_coeff, _w_gamma_pair, wplus_class
from stratacert.exactq import AffineInY
from stratacert.graphs import (
    RBT,
    TopVertex,
    _kappa_mu_pair,
    enumerate_level_graphs,
    graph_invariants,
    sample_atlas,
)

import fraction_oracle as oracle
from fraction_oracle import minimal_graph, typed

# ell = 7, two top vertices, bottom genus 1, NCT and OCT edges, delta_H = 0
BASE = minimal_graph(8, 1, [(1, (1, 1, 1)), (4, (7,))])
# a rational-bottom banana: bottom genus 0, one top vertex, two edges
BANANA = minimal_graph(8, 0, [(7, (3, 11))])


def _plus(pair, q):
    """The (numerator, denominator) pair of pair + q, unreduced."""
    n, d = pair
    return n * q.denominator + q.numerator * d, d * q.denominator


def _kappa_direct(graph):
    """The bottom kappa by direct signature evaluation, as the battery's
    callers pass it."""
    return _kappa_mu_pair(graph.bottom_orders())


def _identity_failures(graph, inv, coeffs):
    return checks._identity_failures(graph, inv, coeffs, _kappa_direct(graph))


def _assembly_failures(graph, inv, coeffs):
    return checks._assembly_failures(graph, inv, coeffs, _kappa_direct(graph))


def _identity_cases():
    """(message, graph, invariants, coefficient pairs) with one corruption
    each; a rational invariant is corrupted as its pair."""
    inv = graph_invariants(BASE)
    coeffs = _coefficients(inv, 8)
    b_inv = graph_invariants(BANANA)
    b_coeffs = _coefficients(b_inv, 8)
    r, c, w, b = coeffs
    return [
        ("validate: bottom genus negative",
         replace(BASE, bottom_genus=-1), inv, coeffs),
        ("kappa_bot: direct signature evaluation != prong identity",
         BASE, inv._replace(kappa_bot=_plus(inv.kappa_bot, F(1, 3))), coeffs),
        ("N_top + N_bot != 2g",
         BASE, inv._replace(N_bot=inv.N_bot - 1), coeffs),
        ("N_bot != 2 g_b + E - v_top",
         BASE, inv._replace(N_bot=inv.N_bot + 1), coeffs),
        ("N_top != P + v_top",
         BASE, inv._replace(N_top=inv.N_top + 1), coeffs),
        ("b_NC != ell * R_NC - 1",
         BASE, inv._replace(b_NC=_plus(inv.b_NC, F(1, 2))), coeffs),
        ("ell != lcm of prongs",
         BASE, inv._replace(ell=2 * inv.ell), coeffs),
        ("kappa_top != P - P_minus1",
         BASE, inv._replace(P_minus1=_plus(inv.P_minus1, F(1, 5))), coeffs),
        ("top vertex of genus 0 in a minimal-stratum graph",
         replace(BASE, top_vertices=BASE.top_vertices + (TopVertex(0, (1, 1, 1)),)),
         inv, coeffs),
        ("RBT edge in a minimal-stratum graph",
         BASE, inv._replace(edge_classes=(RBT,) + inv.edge_classes[1:]), coeffs),
        ("rational-bottom banana with P != 2g - 2",
         BANANA, b_inv._replace(P=b_inv.P - 1), b_coeffs),
        ("P > 2g - 3 off the rational-bottom banana family",
         BASE, inv._replace(P=2 * 8 - 2), coeffs),
        # 12 w_Gamma / w_lambda moved off 12 (w_bar + ...); s_Gamma gains
        # y / 7, so T1 + T2 stays below it
        ("decomposition 12 w_Gamma / w_lambda != "
         "12 (w_bar + (g-1)(v_top-1)/(g+11))",
         BASE, inv, (r, c, _plus(w, F(1, 7)), b)),
        # c_Gamma lowered, and with it s_Gamma, below the exact split
        ("T1 + T2 exceeds s_Gamma",
         BASE, inv, (r, _plus(c, F(-1, 9)), w, b)),
    ]


def _shift_spot_values(monkeypatch):
    """Patch the pair evaluator so that its k-th call (from 0) adds k to
    the value it returns."""
    at = checks._at
    calls = itertools.count()

    def shifted(affine, y):
        n, d = at(affine, y)
        return n + next(calls) * d, d
    monkeypatch.setattr(checks, "_at", shifted)


def test_every_identity_check_fires(monkeypatch):
    for graph in (BASE, BANANA):
        inv = graph_invariants(graph)
        assert _identity_failures(graph, inv, _coefficients(inv, 8)) == []
        assert checks.assembly_failures(graph) == []
    cases = _identity_cases()
    assert len({message for message, *_ in cases}) == 14
    for message, graph, inv, coeffs in cases:
        assert message in _identity_failures(graph, inv, coeffs), message

    # the assembly battery: a certifier-side kappa_bot that the
    # divisor-class route (direct evaluation) does not share ...
    real = checks.graph_invariants

    def corrupted(graph, hbb_shape_test=True):
        inv = real(graph, hbb_shape_test)
        return inv._replace(kappa_bot=_plus(inv.kappa_bot, F(1, 3)))

    with monkeypatch.context() as patch:
        patch.setattr(checks, "graph_invariants", corrupted)
        assert checks.assembly_failures(BASE) == [
            f"assembled boundary coefficient mismatch on {real(BASE).encoding}"]
    # ... and a spot evaluation that disagrees with the coefficients
    _shift_spot_values(monkeypatch)
    assert checks.assembly_failures(BASE) == ["assembled coefficient differs at y=0"]


def test_assembly_reads_the_class_side_kappa(monkeypatch):
    # the direct evaluation the class helpers read, off by 1/3; the prong
    # identity in graph_invariants, which the certifier side reads, is
    # left alone, so only the class route moves, and the kappa check sees
    # the two routes part
    inv = graph_invariants(BASE)
    coeffs = _coefficients(inv, 8)
    mismatch = [f"assembled boundary coefficient mismatch on {inv.encoding}"]
    kappa_check = ["kappa_bot: direct signature evaluation != prong identity"]
    off = _plus(_kappa_direct(BASE), F(1, 3))
    assert checks._assembly_failures(BASE, inv, coeffs, off) == mismatch
    assert checks._identity_failures(BASE, inv, coeffs, off) == kappa_check
    # the public batteries and the class builders each evaluate it on the
    # bottom signature; the same 1/3 there moves only their class route
    bottom = BASE.bottom_orders()
    for module in (checks, classes_module):
        real = module._kappa_mu_pair

        def moved(orders, real=real):
            pair = real(orders)
            return _plus(pair, F(1, 3)) if tuple(orders) == bottom else pair
        monkeypatch.setattr(module, "_kappa_mu_pair", moved)
    assert graph_invariants(BASE) == inv
    assert checks.assembly_failures(BASE) == mismatch
    assert checks.graph_identity_failures(BASE) == kappa_check
    # identity_suite's one evaluation for both batteries is the direct one
    assert checks.identity_suite([BASE]) == (1, kappa_check + mismatch)
    # the class helpers move by -ell/3 and w_Gamma by (1/3)(2g/(2g-1))/kappa
    o_inv = oracle.as_fractions(inv)
    assert (_canonical_coeff(BASE, inv)
            == oracle._canonical_coeff(BASE, o_inv) - F(inv.ell, 3))
    w_gamma = oracle.wplus_w_gamma(BASE) + F(1, 3) * F(16, 15) / oracle.kappa_minimal(8)
    assert wplus_class(8, [BASE], form="reduced").boundary[inv.encoding] == -w_gamma * inv.ell


def _oracle_inputs(inv, g, coeffs):
    """The SixCoefficients and s_Gamma the Fraction oracle reads for the
    coefficient pairs ``coeffs``, corrupted or not: w_bar, T1 and T2 by the
    oracle's own split of their R_Gamma and b_Gamma, over the invariants
    ``inv`` with Fraction fields."""
    r, c, w, b = (F(*pair) for pair in coeffs)
    six = SixCoefficients(g, c, r, b, w, *oracle.split(inv, g, r, b))
    return six, oracle.s_gamma_of(six)


def _assert_matches_oracle(graph, inv, coeffs):
    """The integer-pair battery and class helpers against their Fraction
    forms: values, typed values and failure lists."""
    where = (inv.encoding, inv.delta_H)
    o_inv = oracle.as_fractions(inv)
    intercept, slope = checks._assembly_pairs(graph, inv, _kappa_direct(graph))
    want = oracle._assembly_affine(graph, o_inv)
    assert (F(*intercept), F(*slope)) == (want.intercept, want.slope), where
    assert (typed(_canonical_coeff(graph, inv))
            == typed(oracle._canonical_coeff(graph, o_inv))), where
    assert F(*_w_gamma_pair(graph, _kappa_direct(graph))) == oracle.wplus_w_gamma(graph), where
    six, s_gamma = _oracle_inputs(o_inv, graph.genus, coeffs)
    assert (_identity_failures(graph, inv, coeffs)
            == oracle._identity_failures(graph, o_inv, six)), where
    assert (_assembly_failures(graph, inv, coeffs)
            == oracle._assembly_failures(graph, o_inv, s_gamma)), where


def _assert_public_battery_matches_oracle(graph, hbb):
    """The public entry points against the oracle's, each from its own
    invariants."""
    where = (graph, hbb)
    assert (checks.graph_identity_failures(graph, hbb)
            == oracle.graph_identity_failures(graph, hbb)), where
    assert (checks.assembly_failures(graph, hbb_shape_test=hbb)
            == oracle.assembly_failures(graph, hbb)), where


@pytest.mark.parametrize("g", range(2, 11))
def test_battery_matches_fraction_oracle_on_full_atlases(g):
    for graph in enumerate_level_graphs(g):
        for hbb in (True, False):
            inv = graph_invariants(graph, hbb)
            _assert_matches_oracle(graph, inv, _coefficients(inv, g))
            _assert_public_battery_matches_oracle(graph, hbb)


@pytest.mark.parametrize("g", (31, 34))
def test_battery_matches_fraction_oracle_on_samples(g):
    for graph in sample_atlas(g, 200):
        for hbb in (True, False):
            inv = graph_invariants(graph, hbb)
            _assert_matches_oracle(graph, inv, _coefficients(inv, g))
            _assert_public_battery_matches_oracle(graph, hbb)


def test_battery_matches_fraction_oracle_on_corrupted_inputs(monkeypatch):
    for _message, graph, inv, coeffs in _identity_cases():
        _assert_matches_oracle(graph, inv, coeffs)
    inv = graph_invariants(BASE)
    coeffs = _coefficients(inv, 8)
    r, c, w, b = coeffs
    # T1 + T2 - s_Gamma moved to exceed 0 at y = 0 only, 1/2 and 1, 1 only,
    # everywhere, and nowhere: s_Gamma moved by -(d0 + d1 y) through
    # c_Gamma and 12 w_Gamma / w_lambda
    for d0, d1 in ((F(1, 9), -F(2, 9)), (0, F(1, 9)), (-F(1, 9), F(2, 9)),
                   (F(1, 9), 0), (-F(1, 9), 0)):
        _assert_matches_oracle(BASE, inv, (r, _plus(c, -d0), _plus(w, -d1), b))
    # R_Gamma moves T1 alone, b_Gamma moves T1 and s_Gamma alike
    _assert_matches_oracle(BASE, inv, (_plus(r, F(1, 9)), c, w, b))
    _assert_matches_oracle(BASE, inv, (r, c, w, _plus(b, F(1, 9))))
    for field, value in (("kappa_bot", _plus(inv.kappa_bot, F(1, 3))),
                         ("ell", 2 * inv.ell), ("N_bot", inv.N_bot + 1), ("delta_H", 1),
                         ("b_NC", _plus(inv.b_NC, F(1, 2)))):
        bad = inv._replace(**{field: value})
        # the certifier side from the corrupted invariants, so that the
        # assembly battery sees them on both routes
        _assert_matches_oracle(BASE, bad, _coefficients(bad, 8))
        _assert_matches_oracle(BASE, bad, coeffs)
    # a spot evaluation that disagrees with the coefficients, in the
    # package's pair evaluator and in the oracle's Fraction one
    _shift_spot_values(monkeypatch)
    evaluate = AffineInY.__call__
    calls = itertools.count()
    monkeypatch.setattr(AffineInY, "__call__",
                        lambda self, y: evaluate(self, y) + next(calls))
    o_inv = oracle.as_fractions(inv)
    _, s_gamma = _oracle_inputs(o_inv, 8, coeffs)
    assert (_assembly_failures(BASE, inv, coeffs)
            == oracle._assembly_failures(BASE, o_inv, s_gamma)
            == ["assembled coefficient differs at y=0"])


def test_passing_graph_builds_no_fraction_after_invariants(monkeypatch):
    # from graph_invariants on, through both verdicts: the invariants, the
    # coefficient pairs and the direct bottom kappa, as identity_suite
    # computes them once for both batteries
    graphs = list(enumerate_level_graphs(7)) + sample_atlas(31, 20) + [BASE, BANANA]
    for graph in graphs:
        for hbb in (True, False):
            with monkeypatch.context() as patch:
                built = oracle.count_fractions(patch)
                inv = graph_invariants(graph, hbb)
                coeffs = _coefficients(inv, graph.genus)
                kappa = _kappa_mu_pair(graph.bottom_orders())
                bad = (checks._identity_failures(graph, inv, coeffs, kappa)
                       + checks._assembly_failures(graph, inv, coeffs, kappa))
            assert (bad, built) == ([], []), (graph, hbb)
    # the counter sees a construction when there is one
    with monkeypatch.context() as patch:
        built = oracle.count_fractions(patch)
        F(1, 2)
    assert built == [(1, 2)]
