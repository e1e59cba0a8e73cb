"""The identity battery: every check fires on a corrupted input, and the
integer battery agrees with its Fraction oracle."""

import itertools
from dataclasses import replace
from fractions import Fraction as F

import pytest

from stratacert import checks
from stratacert.certify import six_coefficients
from stratacert.classes import _canonical_coeff, wplus_w_gamma
from stratacert.exactq import AffineInY
from stratacert.graphs import (
    RBT,
    TopVertex,
    enumerate_level_graphs,
    graph_invariants,
    minimal_graph,
    sample_atlas,
)

import fraction_oracle as oracle
from fraction_oracle import typed

# ell = 7, two top vertices, bottom genus 1, NCT and OCT edges, delta_H = 0
BASE = minimal_graph(8, 1, [(1, (1, 1, 1)), (4, (7,))])
# a rational-bottom banana: bottom genus 0, one top vertex, two edges
BANANA = minimal_graph(8, 0, [(7, (3, 11))])


def _identity_cases():
    """(message, graph, invariants, coefficients) with one corruption each."""
    inv = graph_invariants(BASE)
    six = six_coefficients(inv, 8)
    b_inv = graph_invariants(BANANA)
    b_six = six_coefficients(b_inv, 8)
    t1 = six.t1_affine
    return [
        ("validate: bottom genus negative",
         replace(BASE, bottom_genus=-1), inv, six),
        ("kappa_bot: direct signature evaluation != prong identity",
         BASE, inv._replace(kappa_bot=inv.kappa_bot + F(1, 3)), six),
        ("N_top + N_bot != 2g",
         BASE, inv._replace(N_bot=inv.N_bot - 1), six),
        ("N_bot != 2 g_b + E - v_top",
         BASE, inv._replace(N_bot=inv.N_bot + 1), six),
        ("N_top != P + v_top",
         BASE, inv._replace(N_top=inv.N_top + 1), six),
        ("b_NC != ell * R_NC - 1",
         BASE, inv._replace(b_NC=inv.b_NC + F(1, 2)), six),
        ("ell != lcm of prongs",
         BASE, inv._replace(ell=2 * inv.ell), six),
        ("kappa_top != P - P_minus1",
         BASE, inv._replace(P_minus1=inv.P_minus1 + F(1, 5)), six),
        ("top vertex of genus 0 in a minimal-stratum graph",
         replace(BASE, top_vertices=BASE.top_vertices + (TopVertex(0, (1, 1, 1)),)),
         inv, six),
        ("RBT edge in a minimal-stratum graph",
         BASE, inv._replace(edge_classes=(RBT,) + inv.edge_classes[1:]), six),
        ("rational-bottom banana with P != 2g - 2",
         BANANA, b_inv._replace(P=b_inv.P - 1), b_six),
        ("P > 2g - 3 off the rational-bottom banana family",
         BASE, inv._replace(P=2 * 8 - 2), six),
        ("decomposition 12 w_Gamma / w_lambda != "
         "12 (w_bar + (g-1)(v_top-1)/(g+11))",
         BASE, inv, replace(six, w_bar=six.w_bar + F(1, 7))),
        ("T1 + T2 exceeds s_Gamma",
         BASE, inv, replace(six, t1_affine=AffineInY(t1.intercept + F(1, 9), t1.slope))),
    ]


def test_every_identity_check_fires(monkeypatch):
    for graph in (BASE, BANANA):
        inv = graph_invariants(graph)
        assert checks._identity_failures(graph, inv, six_coefficients(inv, 8)) == []
        assert checks.assembly_failures(graph) == []
    cases = _identity_cases()
    assert len({message for message, *_ in cases}) == 14
    for message, graph, inv, six in cases:
        assert message in checks._identity_failures(graph, inv, six), message

    # the assembly battery: a certifier-side kappa_bot that the
    # divisor-class route (direct evaluation) does not share ...
    real = checks.graph_invariants

    def corrupted(graph, hbb_shape_test=True):
        inv = real(graph, hbb_shape_test)
        return inv._replace(kappa_bot=inv.kappa_bot + F(1, 3))

    with monkeypatch.context() as patch:
        patch.setattr(checks, "graph_invariants", corrupted)
        assert checks.assembly_failures(BASE) == [
            f"assembled boundary coefficient mismatch on {real(BASE).encoding}"]
    # ... and an affine evaluation that disagrees with the coefficients
    evaluate = AffineInY.__call__
    calls = itertools.count()
    monkeypatch.setattr(AffineInY, "__call__",
                        lambda self, y: evaluate(self, y) + next(calls))
    assert checks.assembly_failures(BASE) == ["assembled coefficient differs at y=0"]


def _assert_matches_oracle(graph, inv, six):
    """The integer battery and class helpers against their Fraction forms:
    typed values and failure lists."""
    where = (inv.encoding, inv.delta_H)
    assert (typed(checks._assembly_affine(graph, inv))
            == typed(oracle._assembly_affine(graph, inv))), where
    assert typed(_canonical_coeff(graph, inv)) == typed(oracle._canonical_coeff(graph, inv)), where
    assert typed(wplus_w_gamma(graph)) == typed(oracle.wplus_w_gamma(graph)), where
    assert (checks._identity_failures(graph, inv, six)
            == oracle._identity_failures(graph, inv, six)), where
    s_gamma = six.s_gamma()
    assert (checks._assembly_failures(graph, inv, s_gamma)
            == oracle._assembly_failures(graph, inv, s_gamma)), where


@pytest.mark.parametrize("g", range(2, 11))
def test_battery_matches_fraction_oracle_on_full_atlases(g):
    for graph in enumerate_level_graphs(g):
        for hbb in (True, False):
            inv = graph_invariants(graph, hbb)
            _assert_matches_oracle(graph, inv, six_coefficients(inv, g))


@pytest.mark.parametrize("g", (31, 34))
def test_battery_matches_fraction_oracle_on_samples(g):
    for graph in sample_atlas(g, 200):
        for hbb in (True, False):
            inv = graph_invariants(graph, hbb)
            _assert_matches_oracle(graph, inv, six_coefficients(inv, g))


def test_battery_matches_fraction_oracle_on_corrupted_inputs(monkeypatch):
    for _message, graph, inv, six in _identity_cases():
        _assert_matches_oracle(graph, inv, six)
    inv = graph_invariants(BASE)
    six = six_coefficients(inv, 8)
    # T1 + T2 - s_Gamma moved to exceed 0 at y = 0 only, 1/2 and 1, 1 only,
    # everywhere, and nowhere
    t1 = six.t1_affine
    for d0, d1 in ((F(1, 9), -F(2, 9)), (0, F(1, 9)), (-F(1, 9), F(2, 9)),
                   (F(1, 9), 0), (-F(1, 9), 0)):
        moved = AffineInY(t1.intercept + d0, t1.slope + d1)
        _assert_matches_oracle(BASE, inv, replace(six, t1_affine=moved))
    for field, value in (("kappa_bot", inv.kappa_bot + F(1, 3)), ("ell", 2 * inv.ell),
                         ("N_bot", inv.N_bot + 1), ("delta_H", 1),
                         ("b_NC", inv.b_NC + F(1, 2))):
        bad = inv._replace(**{field: value})
        # the certifier side from the corrupted invariants, so that the
        # assembly battery sees them on both routes
        _assert_matches_oracle(BASE, bad, six_coefficients(bad, 8))
        _assert_matches_oracle(BASE, bad, six)
    evaluate = AffineInY.__call__
    calls = itertools.count()
    monkeypatch.setattr(AffineInY, "__call__",
                        lambda self, y: evaluate(self, y) + next(calls))
    s_gamma = six.s_gamma()
    assert (checks._assembly_failures(BASE, inv, s_gamma)
            == oracle._assembly_failures(BASE, inv, s_gamma)
            == ["assembled coefficient differs at y=0"])
