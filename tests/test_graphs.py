import math
import random
import tracemalloc
from functools import lru_cache
from itertools import combinations_with_replacement, groupby, islice
from fractions import Fraction as F

import pytest

from stratacert import graphs as graphs_module
from stratacert.graphs import (
    EDB,
    NCT,
    OCT,
    RBT,
    GraphInvariants,
    LevelGraph,
    TopVertex,
    _unrank_multiset,
    atlas_count,
    atlas_unrank,
    canonical_encoding,
    enumerate_level_graphs,
    graph_invariants,
    iter_atlas,
    kappa_mu,
    parse_canonical_encoding,
    partition_table,
    partition_unrank,
    partitions_exact,
    sample_atlas,
    validate,
    vertex_blocks,
    write_atlas,
)

import fraction_oracle as oracle
from fraction_oracle import minimal_graph
from brute import brute_force_atlas, brute_key_to_encoding

EDB2 = minimal_graph(2, 1, [(1, (1,))])
BANANA2 = minimal_graph(2, 0, [(1, (1, 1))])


def test_genus_two_atlas():
    encodings = [canonical_encoding(g) for g in enumerate_level_graphs(2)]
    assert sorted(encodings) == [
        "g=2;gb=0;legs=2;top=[(1,[1,1])]",
        "g=2;gb=1;legs=2;top=[(1,[1])]",
    ]
    assert atlas_count(2) == 2
    assert atlas_count(2, dimension_filter=False) == 3


def test_rejected_candidate_has_no_bottom_dimension():
    two_tails = minimal_graph(2, 0, [(1, (1,)), (1, (1,))])
    problems = validate(two_tails)
    assert any("N_bot" in p for p in problems)


def test_edb_graph_exists_for_every_genus():
    for g in range(2, 8):
        edb = canonical_encoding(minimal_graph(g, g - 1, [(1, (1,))]))
        assert edb in {canonical_encoding(x) for x in enumerate_level_graphs(g)}
    for g in (12, 20, 31):
        assert validate(minimal_graph(g, g - 1, [(1, (1,))])) == []


def test_canonical_encoding_examples():
    assert canonical_encoding(EDB2) == "g=2;gb=1;legs=2;top=[(1,[1])]"
    assert canonical_encoding(BANANA2) == "g=2;gb=0;legs=2;top=[(1,[1,1])]"
    reordered = LevelGraph(5, 1, (8,), (TopVertex(2, (3,)), TopVertex(1, (1,))))
    reordered2 = LevelGraph(5, 1, (8,), (TopVertex(1, (1,)), TopVertex(2, (3,))))
    assert canonical_encoding(reordered) == canonical_encoding(reordered2)


def test_encoding_round_trip():
    for g in (2, 3, 4, 5):
        for graph in enumerate_level_graphs(g):
            enc = canonical_encoding(graph)
            assert parse_canonical_encoding(enc) == graph


@pytest.mark.parametrize("text", [
    "g=3;gb=0;legs=4;top=[(2,[2,2])junk]",
    "g=3;gb=1;legs=4;top=[(1,[1])(1,[1])]",
    "g=3;gb=0;legs=4;top=[(2,[2,,2])]",
    "g=3;gb=0;legs=,4,;top=[(2,[2,2])]",
])
def test_malformed_encoding_rejected(text):
    with pytest.raises(ValueError, match="bad graph encoding"):
        parse_canonical_encoding(text)


def test_encoding_parts_in_any_order():
    graph = minimal_graph(5, 1, [(2, (1, 3)), (1, (1,))])
    text = "g=5;gb=1;legs=8;top=[(1,[1]),(2,[3,1])]"
    assert canonical_encoding(graph) != text
    assert parse_canonical_encoding(text) == graph


def test_validate_examples():
    assert validate(EDB2) == []
    bad_balance = minimal_graph(2, 0, [(1, (1,))])
    assert "genus balance violated" in validate(bad_balance)
    bad_prongs = LevelGraph(2, 0, (2,), (TopVertex(0, (1, 1, 1)),))
    assert "prong balance violated at top vertex" in validate(bad_prongs)
    # every other balance holds, but the legs total 8, not 2g - 2 = 10
    short_legs = LevelGraph(6, 3, (4, 4), (TopVertex(3, (5,)),))
    assert validate(short_legs) == [
        "degree balance violated at bottom vertex: legs do not total 2g - 2"]
    assert validate(LevelGraph(6, 3, (4, 6), (TopVertex(3, (5,)),))) == []
    # the legs total 2g - 2, but a leg of order below 1 is no zero
    for legs in ((12, -2), (10, 0)):
        assert validate(LevelGraph(6, 3, legs, (TopVertex(3, (5,)),))) == [
            "bottom leg order must be >= 1"], legs


def _valid_by_definition(graph):
    """Membership from the definition: a star of top vertices over one
    bottom vertex that carries the legs, every top vertex joined to it by
    at least one edge.  A top vertex of genus h >= 0 with prongs p >= 1 is
    stable (2h - 2 + d > 0) and holds a holomorphic differential with a
    zero of order p - 1 at each edge (so the orders total 2h - 2); the
    bottom vertex of genus g_b >= 0 is stable and holds a differential with
    a zero of order m >= 1 at each leg and a pole of order p + 1 at each
    edge (so the orders total 2 g_b - 2); the arithmetic genus, the vertex
    genera plus the first Betti number E - V + 1 with V = v_top + 1, is g;
    and both levels are nonempty, N_top = sum(2h - 1 + d) >= 1 and N_bot =
    2 g_b + E - v_top >= 1 (the package's dimension counts, the legs
    standing for the single zero of the minimal stratum)."""
    tops = graph.top_vertices
    prongs = [p for v in tops for p in v.prongs]
    if graph.bottom_genus < 0 or not tops:
        return False
    for v in tops:
        if v.genus < 0 or not v.prongs or min(v.prongs) < 1:
            return False
        if 2 * v.genus - 2 + v.degree <= 0:
            return False
        if sum(p - 1 for p in v.prongs) != 2 * v.genus - 2:
            return False
    legs = graph.bottom_legs
    if any(m < 1 for m in legs):
        return False
    if 2 * graph.bottom_genus - 2 + len(legs) + len(prongs) <= 0:
        return False
    if sum(legs) - sum(p + 1 for p in prongs) != 2 * graph.bottom_genus - 2:
        return False
    betti = len(prongs) - (len(tops) + 1) + 1
    if graph.bottom_genus + sum(v.genus for v in tops) + betti != graph.genus:
        return False
    n_top = sum(2 * v.genus - 1 + v.degree for v in tops)
    n_bot = 2 * graph.bottom_genus + len(prongs) - len(tops)
    return n_top >= 1 and n_bot >= 1


def _sorted_tuples(lo, hi, max_len, min_len=0):
    return [t for n in range(min_len, max_len + 1)
            for t in combinations_with_replacement(range(lo, hi + 1), n)]


def _validation_box(g):
    """Every genus-g graph with bottom genus below g, one or two legs of
    order -1..2g-1, and up to three top vertices of genus 0..2 (at most 2
    in all) with up to three prongs of 0..3 each (at most 3 in all)."""
    types = [TopVertex(h, ps) for h in range(3) for ps in _sorted_tuples(0, 3, 3)]
    tops = [t for n in range(4) for t in combinations_with_replacement(types, n)
            if sum(v.degree for v in t) <= 3 and sum(v.genus for v in t) <= 2]
    for g_b in range(g):
        for legs in _sorted_tuples(-1, 2 * g - 1, 2, 1):
            for top in tops:
                yield LevelGraph(g, g_b, legs, top)


@pytest.mark.parametrize("g", [2, 3])
def test_validate_matches_definition_on_a_box(g):
    single_leg = set()
    for graph in _validation_box(g):
        problems = validate(graph)
        assert (not problems) == _valid_by_definition(graph), (graph, problems)
        assert parse_canonical_encoding(canonical_encoding(graph)) == graph
        if not problems and graph.bottom_legs == (2 * g - 2,):
            single_leg.add(graph)
    # the box holds the whole atlas, and its valid single-leg graphs are
    # exactly the atlas
    assert single_leg == set(enumerate_level_graphs(g))


def test_classify_edges():
    two_tails = minimal_graph(4, 1, [(2, (3,)), (1, (1,))])
    assert validate(two_tails) == []
    # a rational bottom with a single edge is unstable, so no atlas graph
    # has an RBT edge; the rule still names it
    rational_tail = minimal_graph(3, 0, [(3, (5,))])
    assert "bottom stability violated" in validate(rational_tail)
    for graph, classes in ((EDB2, (EDB,)), (BANANA2, (NCT, NCT)),
                           (two_tails, (OCT, OCT)), (rational_tail, (RBT,))):
        assert oracle.classify_edges(graph) == classes
        assert graph_invariants(graph).edge_classes == classes


def test_invariants_edb2():
    inv = graph_invariants(EDB2)
    assert (inv.P, inv.P_minus1, inv.ell) == (1, (1, 1), 1)
    assert (inv.v_top, inv.N_top, inv.N_bot) == (1, 2, 2)
    assert inv.kappa_bot == (8, 3)
    assert inv.R_NC == (4, 1)
    assert inv.b_NC == (3, 1)
    assert inv.delta_H == 0
    assert inv.delta_assignments == (1,)


def test_invariants_banana2():
    inv = graph_invariants(BANANA2)
    assert (inv.P, inv.P_minus1, inv.ell) == (2, (2, 1), 1)
    assert (inv.N_top, inv.N_bot) == (3, 1)
    assert inv.R_NC == (1, 1)
    assert inv.b_NC == (0, 1)
    assert inv.delta_H == 1
    assert inv.delta_assignments == ("irr", "irr")


def test_invariants_edb31():
    inv = graph_invariants(minimal_graph(31, 30, [(1, (1,))]))
    assert inv.kappa_bot == (3720, 61)
    assert inv.P_minus1 == (inv.P, 1)


def test_hbb_shape():
    pair_and_tail = minimal_graph(5, 1, [(2, (2, 2)), (1, (1,))])
    uneven = minimal_graph(3, 0, [(2, (1, 3))])
    for graph, shape in ((BANANA2, True), (EDB2, False), (pair_and_tail, True),
                         (uneven, False)):
        assert oracle.hbb_shape(graph) is shape
        assert graph_invariants(graph).delta_H == shape


def test_hbb_shape_flag_off():
    assert graph_invariants(BANANA2, hbb_shape_test=False).delta_H == 0


def test_kappa_mu_matches_fraction_oracle():
    rng = random.Random(90210)
    cases = [(), (0,), (-1,), (-2,), (-1, -1), (0, -1, -2), (60,), (-61,),
             (4, -2, -1, 0, -3), (-5, 3), (2, -4, -1, -1)]
    while len(cases) < 400:
        cases.append(tuple(rng.randint(-12, 12) for _ in range(rng.randint(1, 7))))
    for orders in cases:
        got = kappa_mu(orders)
        assert type(got) is F
        assert got == oracle.kappa_mu(orders), orders


@pytest.mark.parametrize("kind, g", oracle.ORACLE_CASES)
def test_graph_invariants_match_fraction_oracle(kind, g):
    # each rational invariant is a reduced pair of ints with a positive
    # denominator, equal to the oracle's Fraction; every other field has
    # the oracle's type and value
    for graph in oracle.oracle_graphs(kind, g):
        for hbb in (True, False):
            got = graph_invariants(graph, hbb)
            want = oracle.graph_invariants(graph, hbb)
            for field in GraphInvariants._fields:
                a, b = getattr(got, field), getattr(want, field)
                where = (field, got.encoding, hbb)
                if field in oracle.PAIR_FIELDS:
                    want_pair = ((int, b.numerator), (int, b.denominator))
                    assert oracle.typed(a) == want_pair, where
                    assert a[1] > 0 and math.gcd(*a) == 1, where
                else:
                    assert (type(a), a) == (type(b), b), where


@pytest.mark.parametrize("kind, g", oracle.ORACLE_CASES)
def test_top_vertex_fields_and_encoding_match_from_scratch(kind, g):
    # each vertex's share of the invariants, computed once when it is
    # built, against the per-prong values; and the encoding joined from
    # the vertices' fragments against the one formatted prong by prong
    for graph in oracle.oracle_graphs(kind, g):
        for v in graph.top_vertices:
            lcm = math.lcm(*v.prongs)
            assert (v.encoding, v.lcm, v.shares) == (
                f"({v.genus},[{','.join(map(str, v.prongs))}])",
                lcm, sum(lcm // p for p in v.prongs)), v
        assert canonical_encoding(graph) == oracle.canonical_encoding(graph)


def test_top_vertex_fields_stay_out_of_eq_hash_and_repr():
    v = TopVertex(2, (3, 1))
    assert repr(v) == "TopVertex(genus=2, prongs=(1, 3))"
    assert hash(v) == hash((2, (1, 3)))
    w = TopVertex(2, (1, 3))
    object.__setattr__(w, "encoding", "other")
    assert v == w and hash(v) == hash(w)


@pytest.mark.parametrize("prongs, entry", [((0, 2), 0), ((3, -1), -1)])
def test_vertex_with_a_prong_below_one_constructs(prongs, entry):
    v = TopVertex(1, prongs)
    assert (v.lcm, v.shares) == (0, 0)
    assert v.encoding == f"(1,[{','.join(map(str, sorted(prongs)))}])"
    alone = LevelGraph(3, 1, (4,), (v,))
    behind = LevelGraph(4, 1, (6,), (TopVertex(1, (1,)), v))
    for graph in (alone, behind):
        assert validate(graph) == ["prong must be >= 1 on every edge"]
        with pytest.raises(ValueError,
                           match=f"^lcm_list: non-positive entry {entry}$"):
            graph_invariants(graph)


def test_vertex_without_prongs_constructs():
    v = TopVertex(1, ())
    assert (v.encoding, v.lcm, v.shares) == ("(1,[])", 1, 0)
    alone = LevelGraph(3, 1, (4,), (v,))
    assert validate(alone) == [
        "prong must be >= 1 on every edge", "genus balance violated"]
    beside = LevelGraph(4, 1, (6,), (TopVertex(2, ()), TopVertex(1, (1,))))
    assert validate(beside) == [
        "prong must be >= 1 on every edge",
        "prong balance violated at top vertex", "genus balance violated"]
    # the invariants such graphs had when every sum was taken per prong,
    # each rational as its reduced pair
    assert oracle.typed(tuple(graph_invariants(alone))) == oracle.typed((
        3, "g=3;gb=1;legs=4;top=[(1,[])]", (), 0, (0, 1), 1, 0, 1, 1, 1,
        (24, 5), (), (), (0, 1), (-1, 1), 0))
    assert oracle.typed(tuple(graph_invariants(beside))) == oracle.typed((
        4, "g=4;gb=1;legs=6;top=[(1,[1]),(2,[])]", (1,), 1, (1, 1), 1, 1, 2,
        5, 1, (48, 7), (OCT,), (1,), (2, 1), (1, 1), 0))


@lru_cache(maxsize=None)
def _p_exact(n, k):
    """Oracle: partitions of n into exactly k parts >= 1, by the usual
    recursion (the smallest part is 1, or every part is >= 2)."""
    if k == 0:
        return 1 if n == 0 else 0
    if n < k:
        return 0
    return _p_exact(n - 1, k - 1) + _p_exact(n - k, k)


def test_partition_table_matches_recursion():
    # T[k][n] = P(n, at most k parts) = sum of P(n, exactly j) over j <= k
    at_most = [[sum(_p_exact(n, j) for j in range(k + 1)) for n in range(121)]
               for k in range(61)]
    for g in range(61):
        assert partition_table(g) == [row[:2 * g + 1] for row in at_most[:g + 1]]


def test_partitions_exact_and_unrank():
    parts = list(partitions_exact(7, 3))
    assert parts == sorted(parts)
    assert all(sum(p) == 7 and len(p) == 3 for p in parts)
    table = partition_table(5)
    for i, p in enumerate(parts):
        assert partition_unrank(7, 3, i, table) == p
    for rank in (-1, len(parts)):
        with pytest.raises(IndexError):
            partition_unrank(7, 3, rank, table)
    # every rank of every block of every genus through 12, read from that
    # genus's table, against the listing the stream builds
    for g in range(2, 13):
        table = partition_table(g)
        for blk in vertex_blocks(table):
            n = 2 * blk.genus - 2 + blk.degree
            parts = list(partitions_exact(n, blk.degree))
            assert blk.size == len(parts) == _p_exact(n, blk.degree)
            for rank, p in enumerate(parts):
                assert partition_unrank(n, blk.degree, rank, table) == p
            for rank in (-1, len(parts)):
                with pytest.raises(IndexError):
                    partition_unrank(n, blk.degree, rank, table)


@pytest.mark.parametrize("g", range(2, 7))
def test_brute_force_oracle_small(g):
    expected = {brute_key_to_encoding(g, k) for k in brute_force_atlas(g)}
    got = {canonical_encoding(x) for x in enumerate_level_graphs(g)}
    assert got == expected
    raw_expected = {brute_key_to_encoding(g, k)
                    for k in brute_force_atlas(g, dimension_filter=False)}
    raw_got = {canonical_encoding(x)
               for x in enumerate_level_graphs(g, dimension_filter=False)}
    assert raw_got == raw_expected


@pytest.mark.parametrize("g", range(2, 10))
def test_counts_match_stream(g):
    for flag in (True, False):
        graphs = list(enumerate_level_graphs(g, dimension_filter=flag))
        assert len(graphs) == atlas_count(g, dimension_filter=flag)
        assert len({canonical_encoding(x) for x in graphs}) == len(graphs)


@pytest.mark.parametrize("g", range(2, 10))
def test_unrank_matches_stream(g):
    stream = list(enumerate_level_graphs(g))
    for i, graph in enumerate(stream):
        assert atlas_unrank(g, i) == graph
    with pytest.raises(IndexError):
        atlas_unrank(g, len(stream))


def _partition_count(n):
    """p(n), the number of partitions of n, by the usual coin DP."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


@pytest.mark.parametrize("g", [*range(2, 81), 100, 150, 200])
def test_count_matches_index(g):
    # the count grows one row per weight; the unranking index, one per
    # block, is its oracle.  Raw mode differs only at g_b = 0: the filter
    # drops every multiset of degree-1 types (one type per weight, so p(g)
    # of them), raw mode the single edge alone
    idx = graphs_module._AtlasIndex(g)
    assert atlas_count(g) == sum(idx.count_for_bottom(gb) for gb in range(g))
    assert atlas_count(g, False) - atlas_count(g) == _partition_count(g) - 1


def test_atlas_count_pinned():
    # filtered and raw counts; 31 and 34 are the benchmark's pinned values
    assert atlas_count(31) == 5440744210
    assert atlas_count(31, False) == 5440751051
    assert atlas_count(34) == 35921597179
    assert atlas_count(34, False) == 35921609488
    assert atlas_count(400) == int(
        "171989053242497371829249289834008972781317831804722767903674959651"
        "396269251397091911501157")
    assert atlas_count(400, False) == int(
        "171989053242497371829249289834008972781317831804722767903674959651"
        "396275978487143652543082")


def test_atlas_count_keeps_no_partition_table():
    # the count reads the partition rows as they pass: a kept table would be
    # (g + 1)(2g + 1) big integers, about 28 MB at genus 600
    tracemalloc.start()
    try:
        for flag in (True, False):
            atlas_count(600, dimension_filter=flag)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_finished_stream_keeps_no_partition_lists():
    # each walk keeps its blocks' prong multisets in a table of its own, so
    # a finished stream frees them; the one module-level cache left holds
    # the counting index of the last genus asked, with its partition table
    for g in (10, 11):
        assert sum(1 for _ in enumerate_level_graphs(g)) == atlas_count(g)
    caches = {name for name, obj in vars(graphs_module).items()
              if hasattr(obj, "cache_info")}
    assert caches == {"_atlas_index"}


def test_stream_shares_equal_top_vertices():
    # the walk builds one TopVertex per vertex type and every graph of the
    # stream holds that object, so equal vertices are the same object
    streams = (enumerate_level_graphs(9),
               enumerate_level_graphs(9, dimension_filter=False),
               enumerate_level_graphs(12),
               islice(enumerate_level_graphs(31), 20000))
    for stream in streams:
        vertices = [v for graph in stream for v in graph.top_vertices]
        assert len({id(v) for v in vertices}) == len(set(vertices))


def test_every_enumerated_graph_is_valid():
    for g in range(2, 9):
        for graph in enumerate_level_graphs(g):
            assert validate(graph) == []


def test_sample_atlas_is_deterministic():
    a = sample_atlas(12, 50)
    b = sample_atlas(12, 50)
    assert a == b
    assert len(a) == 50
    assert all(validate(x) == [] for x in a)
    assert sample_atlas(3, 100) == list(enumerate_level_graphs(3))


@pytest.mark.parametrize("g", [4, 9, 31])
def test_sample_atlas_spreads_over_the_counted_atlas(g):
    # the sample takes its total from the unranking index; atlas_count,
    # the other counting route, gives the same ranks: both ends included
    total = atlas_count(g)
    for count in (2, 7, 50):
        if count < total:
            ranks = sorted({i * (total - 1) // (count - 1)
                            for i in range(count)})
            assert sample_atlas(g, count) == [atlas_unrank(g, r)
                                              for r in ranks]
    if g < 31:
        stream = list(enumerate_level_graphs(g))
        assert sample_atlas(g, total) == stream
        assert sample_atlas(g, total - 1) != stream


def test_sample_atlas_count_below_one_rejected():
    assert sample_atlas(12, 1) == [atlas_unrank(12, 0)]
    for count in (0, -3):
        with pytest.raises(ValueError, match="at least 1"):
            sample_atlas(12, count)


def test_unrank_large_genus_spot():
    total = atlas_count(20)
    first = atlas_unrank(20, 0)
    last = atlas_unrank(20, total - 1)
    assert validate(first) == []
    assert validate(last) == []
    assert first.genus == last.genus == 20


def test_atlas_io_round_trip(tmp_path):
    graphs = list(enumerate_level_graphs(4))
    path = tmp_path / "atlas.txt"
    with open(path, "w") as fh:
        write_atlas(graphs, fh, fmt="text")
        fh.write("# trailing comment\n")
    with open(path) as fh:
        back = list(iter_atlas(fh))
    assert back == list(enumerate(graphs, 1))


def test_atlas_csv_and_json(tmp_path):
    import csv as csv_mod
    import io
    import json

    graphs = list(enumerate_level_graphs(3))
    buf = io.StringIO()
    write_atlas(graphs, buf, fmt="csv")
    rows = list(csv_mod.reader(io.StringIO(buf.getvalue())))
    assert rows[0][0] == "encoding"
    assert len(rows) == len(graphs) + 1
    buf = io.StringIO()
    write_atlas(graphs, buf, fmt="json")
    data = json.loads(buf.getvalue())
    assert len(data) == len(graphs)
    assert all("invariants" in row for row in data)


def test_genus_below_two_rejected():
    with pytest.raises(ValueError):
        list(enumerate_level_graphs(1))
    with pytest.raises(ValueError):
        atlas_count(1)
    for g in (1, 0, -3):
        with pytest.raises(ValueError, match="genus must be >= 2"):
            atlas_unrank(g, 0)
        with pytest.raises(ValueError, match="genus must be >= 2"):
            atlas_unrank(g, -1)
        with pytest.raises(ValueError, match="genus must be >= 2"):
            sample_atlas(g, 5)


def test_unrank_matches_stream_prefix_large_genus():
    # long enough to pass the first few thousand graphs, where a stream
    # that recursed once per skipped prong multiset ran out of stack
    prefix = list(islice(enumerate_level_graphs(31), 5000))
    assert len(prefix) == 5000
    for i, graph in enumerate(prefix):
        assert atlas_unrank(31, i) == graph


def test_unrank_multiset_matches_stdlib_order():
    for n in range(1, 8):
        for k in range(1, 6):
            for r, combo in enumerate(combinations_with_replacement(range(n), k)):
                runs = [(i, len(tuple(run))) for i, run in groupby(combo)]
                assert _unrank_multiset(n, k, r) == runs, (n, k, r)
