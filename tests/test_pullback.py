from fractions import Fraction as F

import pytest

from stratacert.classes import (
    ClassContext,
    DivisorClass,
    reduce_class,
    twist_improvement_bound,
)
from stratacert.graphs import (
    LevelGraph,
    TopVertex,
    canonical_encoding,
    enumerate_level_graphs,
    graph_invariants,
    validate,
)
from stratacert.pullback import (
    GAMMA1,
    class_with_twist_bounds,
    gamma1_graph,
    image_correspondence,
    saturated_alpha,
    surgery_up,
    wplus_derivation_check,
    zeta_pull_class,
    zeta_pull_graph,
)

import fraction_oracle as oracle


def test_gamma1_graph_shape():
    g = 5
    gamma1 = gamma1_graph(g, (g, g))
    assert validate(gamma1) == []
    assert gamma1.genus == g + 1
    inv = graph_invariants(gamma1)
    assert inv.P == 2 * g - 1  # never satisfies P <= 2g - 3
    assert inv.edge_classes == ("EDB",)


def test_pull_graph_rules():
    g = 4
    # the distinguished graph is marked
    assert zeta_pull_graph(gamma1_graph(g, (g, g)), g) is GAMMA1
    # the surgery drops one from the bottom genus and merges the legs
    delta = LevelGraph(g + 1, 2, (g, g), (TopVertex(g - 1, (2 * g - 3,)),))
    image = zeta_pull_graph(delta, g)
    assert image == LevelGraph(g, 1, (2 * g - 2,), (TopVertex(g - 1, (2 * g - 3,)),))
    # a graph whose legs do not total 2g - 2 is refused
    short_legs = LevelGraph(6, 3, (4, 4), (TopVertex(3, (5,)),))
    with pytest.raises(ValueError, match="legs do not total 2g - 2"):
        zeta_pull_graph(short_legs, 5)
    # a leg of order below 1 is refused though the legs total 2g - 2
    negative_leg = LevelGraph(6, 3, (12, -2), (TopVertex(3, (5,)),))
    with pytest.raises(ValueError, match="bottom leg order must be >= 1"):
        zeta_pull_graph(negative_leg, 5)


def test_surgery_is_two_sided_inverse():
    for g in (4, 5, 6):
        mu = (g, g)
        for graph in enumerate_level_graphs(g):
            up = surgery_up(graph, mu)
            assert validate(up) == []
            assert zeta_pull_graph(up, g) == graph
    with pytest.raises(ValueError):
        surgery_up(LevelGraph(4, 1, (6,), (TopVertex(2, (3,)),)), (4, 5))


def test_surgery_is_injective():
    for g in (4, 5, 6):
        images = [canonical_encoding(surgery_up(x, (g, g)))
                  for x in enumerate_level_graphs(g)]
        assert len(set(images)) == len(images)
        gamma1 = canonical_encoding(gamma1_graph(g, (g, g)))
        assert gamma1 not in images


def test_pull_class_rules():
    g = 4
    graphs = image_correspondence(g, (g, g))
    lam = DivisorClass(lam=F(1))
    assert zeta_pull_class(lam, g, graphs) == lam
    psi = DivisorClass(psi=(F(1), F(1)))
    assert zeta_pull_class(psi, g, graphs).is_zero()
    gamma1_enc = canonical_encoding(gamma1_graph(g, (g, g)))
    d_gamma1 = DivisorClass(boundary={gamma1_enc: F(1)})
    assert zeta_pull_class(d_gamma1, g, graphs) == DivisorClass(psi=(F(-1),))
    xi = DivisorClass(xi=F(1))
    assert zeta_pull_class(xi, g, graphs) == xi


@pytest.mark.parametrize("g", (4, 5))
def test_xi_expansion_commutes_with_pullback(g):
    # expand xi with the per-leg relation upstairs, pull back, and compare
    # with the downstairs expansion
    mu = (g, g)
    graphs = image_correspondence(g, mu)
    downstairs = list(enumerate_level_graphs(g))
    for i in (0, 1):
        upstairs = DivisorClass(
            psi=tuple(F(mu[j] + 1) if j == i else F(0) for j in range(2)),
            boundary={enc: F(-graph_invariants(gr).ell)
                      for enc, gr in graphs.items()},
        )
        pulled = zeta_pull_class(upstairs, g, graphs)
        expected = DivisorClass(
            psi=(F(2 * g - 1),),
            boundary={graph_invariants(gr).encoding: F(-graph_invariants(gr).ell)
                      for gr in downstairs},
        )
        assert pulled == expected
        # both expand to the same reduced class
        ctx = ClassContext.from_graphs(g, (2 * g - 2,), downstairs)
        assert reduce_class(pulled, ctx) == reduce_class(expected, ctx)


def test_saturated_alpha():
    assert saturated_alpha((4, 4), 1) == (4, 0)
    assert saturated_alpha((2, 4, 2), 2) == (0, 4, 0)
    with pytest.raises(ValueError):
        saturated_alpha((10, 2), 1)  # m_1 > g


@pytest.mark.parametrize("g", (4, 5, 6))
def test_wplus_derivation_check(g):
    report = wplus_derivation_check(g, (g, g), 1)
    assert report.match
    assert report.coordinate_diffs == {}


def test_wplus_derivation_check_other_signature():
    report = wplus_derivation_check(4, (2, 2, 2, 2), 1)
    assert report.match


@pytest.mark.parametrize("mu", [(3, 3), (4, 3), (9,), (8, 0), (9, -1), ()])
def test_image_correspondence_rejects_a_mu_that_is_no_positive_partition_of_2g(mu):
    # the one rule both entry points reach, stated before any surgery
    for call in (lambda: image_correspondence(4, mu),
                 lambda: wplus_derivation_check(4, mu, 1)):
        with pytest.raises(ValueError, match="mu must be a positive partition of 2g"):
            call()


def test_derivation_rejects_bad_input():
    with pytest.raises(ValueError):
        wplus_derivation_check(4, (4, 3), 1)
    with pytest.raises(ValueError):
        wplus_derivation_check(4, (5, 3), 1)  # m_1 > g


@pytest.mark.parametrize("g", range(4, 8))
def test_class_with_twist_bounds_matches_fraction_oracle(g):
    for mu, k in (((g, g), 1), ((g, g), 2), ((g + 1, g - 1), 2)):
        graphs = image_correspondence(g, mu)
        alpha = saturated_alpha(mu, k)
        got = class_with_twist_bounds(g, mu, alpha, graphs)
        assert got.to_json() == oracle.class_with_twist_bounds(g, alpha, graphs).to_json()
        # the bound itself, at rational alpha_bot and m_bot too
        for graph in graphs.values():
            inv = graph_invariants(graph)
            o_inv = oracle.as_fractions(inv)
            for a, m in ((g, 2 * g), (F(1, 3), F(5, 2)), (F(-7, 4), 3)):
                assert (twist_improvement_bound(inv, a, m)
                        == oracle.twist_improvement_bound(o_inv, a, m))
