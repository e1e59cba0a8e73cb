import copy
import dataclasses
import pickle
import re
from fractions import Fraction as F

import pytest

from stratacert import classes
from stratacert.classes import (
    ClassContext,
    DivisorClass,
    _canonical_coeff,
    bn_class,
    d_nc_class,
    gen_weierstrass_class,
    hur_class,
    kappa_mu,
    reduce_class,
    scaled_canonical_class,
    theta,
    twist_improvement_bound,
    wplus_class,
    wplus_w_hor,
    wplus_w_lambda,
)
from stratacert.graphs import (
    canonical_encoding,
    enumerate_level_graphs,
    graph_invariants,
)
from stratacert.pullback import gamma1_graph, image_correspondence

import fraction_oracle as oracle
from fraction_oracle import minimal_graph

EDB2 = minimal_graph(2, 1, [(1, (1,))])
BANANA2 = minimal_graph(2, 0, [(1, (1, 1))])


def test_kappa_mu_values():
    assert kappa_mu([60]) == F(3720, 61)
    assert kappa_mu([0, 0, 0]) == 0
    assert kappa_mu([2, -2]) == F(8, 3)
    # simple poles are skipped
    assert kappa_mu([2, -1, -1]) == F(8, 3)
    assert oracle.kappa_minimal(31) == F(3720, 61)


def test_theta_values():
    assert theta([4, 4], [0, 0]) == 0
    for g in (3, 5, 8):
        assert theta([g, g], [g, 0]) == F(g, 2)
    assert theta([60], [30]) == F(465, 61)
    with pytest.raises(ValueError):
        theta([2, 2], [1])


def test_scaled_canonical_class_genus2():
    atlas = list(enumerate_level_graphs(2))
    cls = scaled_canonical_class(2, atlas)
    assert cls.lam == 12
    assert cls.d_h == F(-5, 3)
    # EDB coefficient: -(8/3 - (2/3)(2*1 - 1)) = -2, no HBB correction
    assert cls.boundary[canonical_encoding(EDB2)] == F(-2)


def test_canonical_hbb_correction_is_conservative():
    with_h = _canonical_coeff(BANANA2, graph_invariants(BANANA2, True))
    without = _canonical_coeff(BANANA2, graph_invariants(BANANA2, False))
    assert without - with_h == F(2, 3)  # kappa/(2g) at g = 2


def test_d_nc_class_genus2():
    atlas = list(enumerate_level_graphs(2))
    cls = d_nc_class(2, atlas)
    assert cls.boundary[canonical_encoding(EDB2)] == 3
    assert cls.boundary[canonical_encoding(BANANA2)] == 0
    assert cls.lam == 0 and cls.d_h == 0 and cls.xi == 0


def test_bn_class_examples():
    edb31 = minimal_graph(31, 30, [(1, (1,))])
    cls = bn_class(31, [edb31])
    assert cls.lam == 6
    assert cls.d_h == F(-16, 17)
    assert cls.boundary[canonical_encoding(edb31)] == F(-90, 17)
    banana3 = minimal_graph(3, 0, [(2, (2, 2))])
    cls3 = bn_class(3, [banana3])
    assert cls3.boundary[canonical_encoding(banana3)] == F(-4, 3)
    with pytest.raises(ValueError):
        bn_class(4, [])


def test_hur_class_examples():
    assert hur_class(34, []).d_h == F(-645, 707)
    edb6 = minimal_graph(6, 5, [(1, (1,))])
    cls = hur_class(6, [edb6])
    assert cls.lam == 6
    assert cls.boundary[canonical_encoding(edb6)] == F(-330, 119)
    with pytest.raises(ValueError):
        hur_class(7, [])


def test_wplus_scalars():
    assert wplus_w_lambda(31) == F(7, 10)
    assert wplus_w_hor(31) == F(17, 120)
    edb31 = minimal_graph(31, 30, [(1, (1,))])
    assert oracle.wplus_w_gamma(edb31) == 1
    # ell = 1, so the class's coefficient is -w_Gamma
    assert wplus_class(31, [edb31], form="reduced").boundary[canonical_encoding(edb31)] == -1


def test_wplus_raw_psi_coefficient():
    cls = wplus_class(31, [], form="raw")
    assert cls.psi == (F(466),)
    assert cls.lam == -1 and cls.xi == 1


@pytest.mark.parametrize("g", range(4, 9))
def test_wplus_two_forms_agree(g):
    atlas = list(enumerate_level_graphs(g))
    ctx = ClassContext.from_graphs(g, (2 * g - 2,), atlas)
    raw = wplus_class(g, atlas, form="raw")
    red = wplus_class(g, atlas, form="reduced")
    assert reduce_class(raw, ctx) == red
    # idempotence
    assert reduce_class(red, ctx) == red


def test_gen_weierstrass_example():
    # signature (4,4) targets genus 5; alpha = (4,0)
    graphs = list(image_correspondence(4, (4, 4)).values())
    raw = gen_weierstrass_class((4, 4), (4, 0), graphs, form="raw")
    assert raw.psi == (F(10), F(0))
    assert raw.lam == -1 and raw.xi == 1
    red = gen_weierstrass_class((4, 4), (4, 0), graphs, form="reduced")
    kappa = kappa_mu((4, 4))
    v_theta = theta((4, 4), (4, 0))
    assert red.lam == (12 + 12 * v_theta - kappa) / kappa
    ctx = ClassContext.from_graphs(5, (4, 4), graphs)
    assert reduce_class(raw, ctx) == red


@pytest.mark.parametrize("g", range(4, 9))
def test_gen_weierstrass_two_forms_agree(g):
    mu = (g, g)
    graphs = list(image_correspondence(g, mu).values())
    raw = gen_weierstrass_class(mu, (g, 0), graphs, form="raw")
    red = gen_weierstrass_class(mu, (g, 0), graphs, form="reduced")
    ctx = ClassContext.from_graphs(g + 1, mu, graphs)
    assert reduce_class(raw, ctx) == red


def test_gen_weierstrass_validation():
    with pytest.raises(ValueError):
        gen_weierstrass_class((4, 4), (5, -1), [], form="raw")
    with pytest.raises(ValueError):
        gen_weierstrass_class((4, 4), (3, 0), [], form="raw")  # wrong total
    with pytest.raises(ValueError):
        gen_weierstrass_class((4, 3), (4, 0), [], form="raw")  # odd total


def test_twist_improvement_bound():
    for g in (4, 7, 10):
        gamma1 = gamma1_graph(g, (g, g))
        inv = graph_invariants(gamma1)
        bound = twist_improvement_bound(inv, F(g), F(2 * g))
        assert bound == F(g * (g - 1), 2)
    inv2 = graph_invariants(BANANA2)
    assert twist_improvement_bound(inv2, F(1), F(2)) == 0


def test_divisor_class_json_round_trip():
    cls = DivisorClass(lam=F(7, 10), d_h=F(-17, 120), psi=(F(466),),
                       xi=F(1), boundary={"enc": F(-3, 2)})
    assert cls.to_json() == {"lambda": "7/10", "d_h": "-17/120", "psi": "466",
                             "xi": "1", "boundary": {"enc": "-3/2"}}


def test_divisor_class_comparison_reads_coordinates():
    a = DivisorClass(lam=F(1), boundary={"x": F(2)})
    # an empty psi equals (0,), and a missing boundary key an explicit zero
    padded = DivisorClass(lam=F(1), psi=(F(0),), boundary={"x": F(2), "y": F(0)})
    assert a == padded and padded == a
    assert a.coefficient_diffs(padded) == padded.coefficient_diffs(a) == {}
    assert DivisorClass(psi=(F(0), F(0)), boundary={"y": F(0)}).is_zero()
    assert not a.is_zero()
    b = DivisorClass(lam=F(1, 2), d_h=F(3), psi=(F(0), F(5)), xi=F(-1),
                     boundary={"y": F(1, 3)})
    diffs = a.coefficient_diffs(b)
    assert diffs == {"lambda": F(1, 2), "d_h": F(-3), "psi_2": F(-5), "xi": F(1),
                     "x": F(2), "y": F(-1, 3)}
    assert list(diffs) == ["lambda", "d_h", "psi_2", "xi", "x", "y"]
    back = b.coefficient_diffs(a)
    assert back == {k: -v for k, v in diffs.items()}
    assert list(back) == ["lambda", "d_h", "psi_2", "xi", "y", "x"]
    assert a != b and b != a
    assert a.__eq__("a class") is NotImplemented
    assert a != "a class"


def test_kappa_bot_routes_agree():
    for g in range(2, 8):
        for graph in enumerate_level_graphs(g):
            inv = graph_invariants(graph)
            assert kappa_mu(graph.bottom_orders()) == F(*inv.kappa_bot)


def _atlas(g):
    return list(enumerate_level_graphs(g))


# (builder, genus) of every class builder; each takes (g, graphs)
BUILDERS = [
    pytest.param(lambda g, graphs: ClassContext.from_graphs(g, (2 * g - 2,), graphs),
                 6, id="context"),
    pytest.param(scaled_canonical_class, 6, id="canonical"),
    pytest.param(lambda g, graphs: scaled_canonical_class(g, graphs, hbb_shape_test=False),
                 6, id="canonical-no-hbb-shape"),
    pytest.param(d_nc_class, 6, id="dnc"),
    pytest.param(bn_class, 7, id="bn"),
    pytest.param(hur_class, 6, id="hur"),
    pytest.param(lambda g, graphs: wplus_class(g, graphs, form="raw"), 6, id="wplus-raw"),
    pytest.param(lambda g, graphs: wplus_class(g, graphs, form="reduced"),
                 6, id="wplus-reduced"),
    # the minimal signature, so that the genus-g atlas carries its legs
    pytest.param(lambda g, graphs: gen_weierstrass_class((2 * g - 2,), (g - 1,), graphs),
                 6, id="genw"),
]


@pytest.mark.parametrize("build, g", BUILDERS)
def test_builder_rejects_a_graph_of_another_genus(build, g):
    build(g, _atlas(g))
    strays = _atlas(g - 1)[:3]
    # fresh strays, then strays whose invariants memo a builder of their
    # own genus filled; after the genus-g atlas, and alone
    for fill in (False, True):
        if fill:
            d_nc_class(g - 1, strays)
        for graphs in (_atlas(g) + strays[:2], strays):
            stray = next(canonical_encoding(x) for x in graphs if x.genus != g)
            with pytest.raises(ValueError, match=re.escape(stray)):
                build(g, graphs)


def test_class_algebra_computes_each_graphs_invariants_once(monkeypatch):
    """The context and every class of the genus-10 stage read one
    invariants memo per graph, whichever of them reads the graph first."""
    g = 10
    graphs = _atlas(g)
    read = []
    real = classes.graph_invariants

    def counting(graph, *args, **kwargs):
        read.append(graph)
        return real(graph, *args, **kwargs)

    monkeypatch.setattr(classes, "graph_invariants", counting)
    ctx = ClassContext.from_graphs(g, (2 * g - 2,), graphs)
    for hbb in (True, False):
        scaled_canonical_class(g, graphs, hbb)
    d_nc_class(g, graphs)
    hur_class(g, graphs)
    raw = wplus_class(g, graphs, form="raw")
    reduced = wplus_class(g, graphs, form="reduced")
    assert reduce_class(raw, ctx) == reduced
    assert len(read) == len(graphs) == 3363
    assert set(map(id, read)) == set(map(id, graphs))


@pytest.mark.parametrize("g", (6, 9))
def test_shape_off_canonical_class_does_not_depend_on_the_memo(g):
    """The shape-off canonical class reads the shape-on memo with delta_H
    = 0: it equals its fresh-graph result before and after a shape-on
    builder, and the shape-on class after a shape-off one."""
    fresh_on = scaled_canonical_class(g, _atlas(g))
    fresh_off = scaled_canonical_class(g, _atlas(g), hbb_shape_test=False)
    assert fresh_on != fresh_off  # some graph at this genus has delta_H = 1
    for first in (True, False):
        graphs = _atlas(g)
        assert scaled_canonical_class(g, graphs, first) == (fresh_on if first else fresh_off)
        assert scaled_canonical_class(g, graphs, not first) == (fresh_off if first else fresh_on)


def _copies(graph):
    out = [pickle.loads(pickle.dumps(graph, protocol))
           for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    return out + [copy.copy(graph), copy.deepcopy(graph), dataclasses.replace(graph)]


def test_graph_pickles_and_copies_before_and_after_its_memo_is_filled():
    graphs = _atlas(6)
    seen = [(repr(x), hash(x)) for x in graphs]
    for filled in (False, True):
        if filled:
            d_nc_class(6, graphs)
        # the memo takes no part in ==, hash or repr, and does not travel
        assert [(repr(x), hash(x)) for x in graphs] == seen
        assert all(hasattr(x, "_inv") == filled for x in graphs)
        for x in graphs:
            for y in _copies(x):
                assert y == x and hash(y) == hash(x) and repr(y) == repr(x)
                assert not hasattr(y, "_inv")
    assert hur_class(6, [pickle.loads(pickle.dumps(x)) for x in graphs]) == \
        hur_class(6, graphs)


@pytest.mark.parametrize("orders, message", [
    pytest.param((3,), "signature (3,) is not a positive partition of 2g - 2 = 10",
                 id="total"),
    pytest.param((11, -1), "signature (11, -1) is not a positive partition of 2g - 2 = 10",
                 id="negative"),
    pytest.param((4, 6), "has legs (10,), not the signature (4, 6)", id="legs"),
])
def test_class_context_rejects_a_signature_its_graphs_do_not_carry(orders, message):
    graphs = _atlas(6)
    with pytest.raises(ValueError, match=re.escape(message)) as err:
        ClassContext.from_graphs(6, orders, graphs)
    if sum(orders) == 10 and min(orders) > 0:
        assert f"graph {canonical_encoding(graphs[0])} has legs" in str(err.value)


def test_class_context_keeps_the_callers_leg_order():
    graphs = list(image_correspondence(4, (5, 3)).values())
    assert {x.bottom_legs for x in graphs} == {(3, 5)}
    for orders in ((5, 3), (3, 5)):
        assert ClassContext.from_graphs(5, orders, graphs).orders == orders


def test_reduce_class_rejects_more_psi_entries_than_legs():
    ctx = ClassContext.from_graphs(6, (10,), _atlas(6))
    for psi in ((F(1), F(2)), (F(1), F(0))):
        with pytest.raises(ValueError, match="2 psi entries, the context 1 legs"):
            reduce_class(DivisorClass(psi=psi), ctx)


def test_reduce_class_rejects_a_graph_the_context_does_not_hold():
    ctx5 = ClassContext.from_graphs(5, (8,), _atlas(5))
    for form in ("raw", "reduced"):
        cls = wplus_class(6, _atlas(6), form=form)
        with pytest.raises(ValueError, match="the context holds no graph g=6;"):
            reduce_class(cls, ctx5)


@pytest.mark.parametrize("kind, g", oracle.ORACLE_CASES)
def test_class_builders_match_fraction_oracle(kind, g):
    """Every builder, over the graphs of one oracle case, in its genus
    domain; the canonical class in both shape modes."""
    graphs = oracle.oracle_graphs(kind, g)
    g = graphs[0].genus  # an image graph has genus g + 1
    pairs = [(scaled_canonical_class(g, graphs, hbb),
              oracle.scaled_canonical_class(g, graphs, hbb)) for hbb in (True, False)]
    pairs.append((d_nc_class(g, graphs), oracle.d_nc_class(g, graphs)))
    if g % 2 and g >= 3:
        pairs.append((bn_class(g, graphs), oracle.divisor_class(g, graphs)))
    if g % 2 == 0 and g >= 6:
        pairs.append((hur_class(g, graphs), oracle.divisor_class(g, graphs)))
    if g >= 4:
        for form in ("raw", "reduced"):
            pairs.append((wplus_class(g, graphs, form=form),
                          oracle.wplus_class(g, graphs, form)))
    if kind == "image":
        mu = graphs[0].bottom_legs
        for a in (0, 1, mu[0] // 2):
            alpha = (mu[0] - a, a)
            for form in ("raw", "reduced"):
                pairs.append((gen_weierstrass_class(mu, alpha, graphs, form),
                              oracle.gen_weierstrass_class(mu, alpha, graphs, form)))
    for got, want in pairs:
        assert got.to_json() == want.to_json()


@pytest.mark.parametrize("kind, g", oracle.ORACLE_CASES)
def test_reduce_class_matches_fraction_oracle(kind, g):
    """reduce_class on a psi entry per leg and a boundary over every other
    graph, and on the raw W+ class, against the coordinate-at-a-time
    relations."""
    graphs = oracle.oracle_graphs(kind, g)
    g = graphs[0].genus
    orders = graphs[0].bottom_legs
    ctx = ClassContext.from_graphs(g, orders, graphs)
    octx = oracle.class_context(g, orders, graphs)
    assert ctx == octx
    half = {canonical_encoding(graph): F(i, 3) for i, graph in enumerate(graphs) if i % 2}
    classes = [
        DivisorClass(lam=F(1, 3), d_h=F(2), psi=tuple(F(i + 1, 2) for i in range(len(orders))),
                     xi=F(-5, 7), boundary=half),
        DivisorClass(psi=(F(0),) * len(orders), xi=F(3), boundary=half),
        # psi without a net xi: every graph still gains ell psi_1 / (m_1 + 1)
        DivisorClass(psi=(F(1),) + (F(0),) * (len(orders) - 1), xi=-F(1, orders[0] + 1),
                     boundary=half),
        DivisorClass(lam=F(1), boundary=half),
    ]
    if g >= 4:
        classes.append(wplus_class(g, graphs, form="raw"))
    for cls in classes:
        assert reduce_class(cls, ctx).to_json() == oracle.reduce_class(cls, octx).to_json()
