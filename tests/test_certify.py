import itertools
import json
import math
import random
from dataclasses import fields
from fractions import Fraction as F
from pathlib import Path

import pytest

from stratacert import certify as certify_module
from stratacert import cli
from stratacert import checks as checks_module
from stratacert import graphs as graphs_module
from stratacert.certify import (
    BOUNDS_CONFLICT,
    CERTIFIED,
    INFEASIBLE,
    CertRequest,
    SixCoefficients,
    cert_requests,
    certify_coarse,
    certify_exact,
    certify_exact_streaming,
    certify_request,
    coarse_bounds,
    recipe_y,
    resolve_effdiv,
    s_gamma_affine,
    s_hor_affine,
    scan,
    six_coefficients,
    y_hor,
    _iota_extremes,
    _least_line,
    _MinEngine,
)
from stratacert.checks import (
    DEFAULT_Y_SAMPLES,
    assembly_failures,
    assembly_scalar_failures,
    graph_identity_failures,
)
from stratacert.exactq import AffineInY
from stratacert.graphs import (
    EDB,
    OCT,
    LevelGraph,
    TopVertex,
    atlas_count,
    atlas_unrank,
    canonical_encoding,
    enumerate_level_graphs,
    graph_invariants,
    partitions_exact,
)

import fraction_oracle as oracle
from fraction_oracle import minimal_graph, typed

EXPECTED = Path(__file__).parent / "expected"
EDB31 = minimal_graph(31, 30, [(1, (1,))])
BANANA31 = minimal_graph(31, 0, [(30, (30, 30))])


def test_s_hor_affine_g31():
    aff = s_hor_affine(31)
    assert aff.intercept == F(-105, 1037)
    assert aff.slope == F(65, 119)
    assert aff.root() == F(147, 793)
    # slope building block 12 w_hor / w_lambda = 3(g+3)/(g+11)
    assert F(3 * (31 + 3), 31 + 11) == F(17, 7)


def test_y_hor_values():
    assert y_hor(31) == F(147, 793)
    assert y_hor(47) == F(29, 279)
    assert y_hor(47) == F(47 + 11, 12 * 47 - 6)
    with pytest.raises(ValueError):
        y_hor(5)
    with pytest.raises(ValueError):
        y_hor(6)


@pytest.mark.parametrize("g", range(9, 102, 2))
def test_y_hor_is_the_root_of_s_hor(g):
    assert s_hor_affine(g).root() == y_hor(g)


def test_six_coefficients_edb31():
    six = six_coefficients(graph_invariants(EDB31), 31)
    assert six.r_gamma == 4
    assert six.c_gamma == F(-360, 61)
    assert six.w_ratio_term == F(120, 7)
    assert six.b_gamma_six == F(180, 17)  # 12*1*30/(34*1)


def test_banana31_is_negative_for_every_y_with_shape_test():
    aff = s_gamma_affine(graph_invariants(BANANA31, True), 31)
    assert aff(F(0)) == F(-7, 1037)
    assert aff(F(1)) < 0
    # without the shape correction it is positive near the recipe y
    aff0 = s_gamma_affine(graph_invariants(BANANA31, False), 31)
    assert aff0(recipe_y(31)) > 0
    assert aff0(F(0)) == F(27, 1037)


def test_t1_t2_split_is_a_lower_bound():
    for g in (7, 8, 9, 10):
        for graph in enumerate_level_graphs(g):
            inv = graph_invariants(graph)
            six = six_coefficients(inv, g)
            t1, t2 = six.t1_affine, six.t2_affine
            s_aff = s_gamma_affine(inv, g)
            for y in (F(0), F(1, 3), F(1)):
                assert t1(y) + t2(y) <= s_aff(y)
            # the split is in fact exact
            assert t1.intercept + t2.intercept == s_aff.intercept
            assert t1.slope + t2.slope == s_aff.slope


@pytest.mark.parametrize("kind, g", oracle.ORACLE_CASES)
def test_six_coefficients_match_fraction_oracle(kind, g):
    for graph in oracle.oracle_graphs(kind, g):
        g = graph.genus  # an image graph has genus g + 1
        for hbb in (True, False):
            inv = graph_invariants(graph, hbb)
            o_inv = oracle.as_fractions(inv)
            got, want = six_coefficients(inv, g), oracle.six_coefficients(o_inv, g)
            for field in fields(SixCoefficients):
                assert (typed(getattr(got, field.name))
                        == typed(getattr(want, field.name))), (field.name, inv.encoding)
            assert typed(got.s_gamma()) == typed(oracle.s_gamma_affine(o_inv, g))
            assert typed(s_gamma_affine(inv, g)) == typed(oracle.s_gamma_affine(o_inv, g))


def test_coarse_bounds_g31():
    feas = coarse_bounds(31)
    assert feas.lo == F(147, 793) and feas.lo_open
    assert feas.hi == F(13, 60)
    assert certify_coarse(CertRequest(31, "coarse")).status == CERTIFIED


def test_coarse_examples():
    assert certify_coarse(CertRequest(29, "coarse")).status == INFEASIBLE
    assert certify_coarse(CertRequest(30, "coarse")).status == INFEASIBLE
    assert certify_coarse(CertRequest(32, "coarse")).status == BOUNDS_CONFLICT
    c47 = certify_coarse(CertRequest(47, "coarse"))
    assert c47.status == CERTIFIED and c47.y == F(3, 20)
    c31 = certify_coarse(CertRequest(31, "coarse"))
    assert c31.y == F(147, 793) + F(1, 100000)


def test_coarse_scan_range():
    certs = scan(29, 60, "coarse")
    certified = {c.genus for c in certs if c.status == CERTIFIED}
    assert certified == {31} | set(range(33, 61))
    by_genus = {c.genus: c.status for c in certs}
    assert by_genus[29] == INFEASIBLE
    assert by_genus[30] == INFEASIBLE
    assert by_genus[32] == BOUNDS_CONFLICT


def test_even_coarse_reports_hurwitz_disagreement():
    cert = certify_coarse(CertRequest(34, "coarse"))
    assert cert.status == CERTIFIED
    assert any("hurwitz-substituted" in n and "NOT positive" in n for n in cert.notes)


def test_coarse_certified_y_satisfies_bn_horizontal():
    # the self-contained part of a coarse certificate: s_hor(y*) > 0 in the
    # form that defines y_hor (odd genus); even genus is reported via notes
    for cert in scan(29, 60, "coarse"):
        if cert.status == CERTIFIED and cert.genus % 2 == 1:
            assert s_hor_affine(cert.genus)(cert.y) > 0


def test_coarse_rejects_divisor_of_wrong_parity():
    # both modes reject it, rather than label a certificate with a
    # divisor whose coefficients the genus does not define
    for g, effdiv in ((31, "hur"), (30, "bn"), (4, "bn"), (5, "hur")):
        for mode in ("coarse", "exact"):
            with pytest.raises(ValueError, match="require"):
                certify_request(CertRequest(g, mode, effdiv))
    assert certify_coarse(CertRequest(31, "coarse", "bn")).status == CERTIFIED


def _four_slacks(g, y):
    """Oracle: the smallest slack at y of the four closed-form bounds."""
    upper = (F(g - 5, 4 * g - 4) if g % 2
             else F(g * g - 7 * g, 4 * g * g + 16 * g - 8))
    return min(y - y_hor(g), y - F(g + 11, 12 * g - 6),
               y - F(g + 12, 48 * g - 24), upper - y)


def test_coarse_margin_is_the_least_slack_of_the_four_bounds():
    checked = 0
    for g in range(7, 201):
        for y in [recipe_y(g), F(0), F(1), F(3, 20), F(1, 5)] + _oracle_ys()[3:13]:
            if y is None:
                continue
            cert = certify_coarse(CertRequest(g, "coarse", "auto", y))
            if cert.status != BOUNDS_CONFLICT:
                assert cert.worst_margin == _four_slacks(g, y), (g, y)
                checked += 1
    assert checked > 2500


def test_resolve_effdiv():
    assert resolve_effdiv(31, "auto") == "brill_noether"
    assert resolve_effdiv(34, "auto") == "hurwitz"
    assert resolve_effdiv(31, "bn") == resolve_effdiv(31, "brill_noether") == "brill_noether"
    assert resolve_effdiv(34, "hur") == resolve_effdiv(34, "hurwitz") == "hurwitz"
    with pytest.raises(ValueError):
        resolve_effdiv(31, "nope")
    # the genus decides the divisor; naming the other one is an error
    with pytest.raises(ValueError, match="require odd genus"):
        resolve_effdiv(32, "bn")
    with pytest.raises(ValueError, match="require even genus"):
        resolve_effdiv(31, "hurwitz")


# the two engines may pick different witnesses among graphs tied at the
# minimum, so worst_graph and the notes that name it are not compared
_WITNESS_FIELDS = ("worst_graph", "notes")


# genus 13 is the first _LEMMA_GENUS, where the engine builds degrees 1,
# 2 and w only: the whole-atlas checks of that reduced build are 13 and 14
@pytest.mark.parametrize("g,effdiv", [(7, "bn"), (8, "hur"), (9, "bn"),
                                      (10, "hur"), (11, "bn"), (12, "hur"),
                                      (13, "bn"), (14, "hur")])
def test_engines_agree(g, effdiv):
    for hbb in (True, False):
        req = CertRequest(g, "exact", effdiv, "auto_midpoint", hbb)
        a = certify_exact_streaming(req)
        b = certify_exact(req)
        assert a.status == b.status
        assert a.feasible == b.feasible
        assert a.worst_margin == b.worst_margin
        assert a.graph_count == b.graph_count
        a_json, b_json = a.to_json(), b.to_json()
        for key in _WITNESS_FIELDS:
            del a_json[key], b_json[key]
        assert a_json == b_json


def test_engines_differ_in_witness_at_a_tie_g4():
    # a pinned finding: at the maximum of the minimum both engines reach the
    # same margin through different tied graphs, and only the streaming
    # engine's witness is negative for every y, so only it adds that note
    req = CertRequest(4, "exact", "auto", "auto_midpoint", False)
    a = certify_exact_streaming(req).to_json()
    b = certify_exact(req).to_json()
    assert a["status"] == b["status"] == INFEASIBLE
    assert a["worst_margin"] == b["worst_margin"]
    assert a["worst_graph"] == "g=4;gb=0;legs=6;top=[(1,[1,1,1,1])]"
    assert b["worst_graph"] == "g=4;gb=0;legs=6;top=[(1,[1,1]),(1,[1,1])]"
    negative_note = ("graph with negative coefficient for every y: "
                     "g=4;gb=0;legs=6;top=[(1,[1,1,1,1])]")
    assert a["notes"] == b["notes"] + [negative_note]


def test_fixed_y_policy():
    cert = certify_exact(CertRequest(9, "exact", "bn", F(0)))
    assert cert.status == INFEASIBLE
    assert cert.y == 0


def test_small_genus_exact_is_infeasible():
    # the horizontal threshold exceeds 1 below the certified range
    cert = certify_exact(CertRequest(9, "exact", "bn", "auto_midpoint"))
    assert cert.status == INFEASIBLE
    assert y_hor(9) > 1


def test_identity_battery_small():
    for g in range(2, 8):
        for graph in enumerate_level_graphs(g):
            assert graph_identity_failures(graph) == []
            assert assembly_failures(graph) == []


def test_identity_suite_shares_invariants_across_batteries(monkeypatch):
    calls = {"graph_invariants": 0, "_coefficients": 0}

    def counted(name):
        real = getattr(checks_module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(checks_module, name, counted(name))
    checked, failures = checks_module.identity_suite(enumerate_level_graphs(8))
    assert (checked, failures) == (716, [])
    assert calls == {"graph_invariants": 716, "_coefficients": 716}


def test_assembly_scalars_small():
    for g in range(2, 12):
        assert assembly_scalar_failures(g) == []
    assert len(DEFAULT_Y_SAMPLES) == 10


def test_stale_divisor_argument_fails_loudly():
    # the divisor is no longer a parameter; an old positional divisor must
    # raise rather than bind to the parameter that now follows
    graph = minimal_graph(8, 7, [(1, (1,))])
    inv = graph_invariants(graph)
    for call in (lambda: assembly_failures(graph, "hurwitz"),
                 lambda: assembly_scalar_failures(8, "hurwitz"),
                 lambda: s_hor_affine(8, "hurwitz"),
                 lambda: six_coefficients(inv, 8, "hurwitz"),
                 lambda: s_gamma_affine(inv, 8, "hurwitz"),
                 lambda: _MinEngine(8, "hurwitz"),
                 lambda: scan(8, 8, "exact", "hurwitz"),
                 lambda: cert_requests(8, 8, "exact", "hurwitz")):
        with pytest.raises(TypeError):
            call()


class _Hull:
    """Oracle: the lower envelope of lines (t, u, ref), y -> u + t y, with
    exact integer queries.  Among lines of equal slope it keeps the least
    intercept, the first given on a tie, and at a breakpoint it answers
    with the later line, of lesser slope: the tie rule the engine's
    per-weight minimum and HBB search must reproduce."""

    __slots__ = ("lines", "breaks")

    def __init__(self, lines: list):
        # sort by slope descending (activation order as y grows); among
        # equal slopes only the smallest intercept can ever win
        lines = sorted(lines, key=lambda line: (-line[0], line[1]))
        hull: list = []
        for t, u, ref in lines:
            if hull and hull[-1][0] == t:
                continue
            while len(hull) >= 2:
                t1, u1, _ = hull[-1]
                t2, u2, _ = hull[-2]
                # drop the top line if the new one overtakes it no later
                # than it overtook the one below it
                if (u1 - u) * (t1 - t2) <= (u2 - u1) * (t - t1):
                    hull.pop()
                else:
                    break
            hull.append((t, u, ref))
        self.lines = hull
        self.breaks = [
            (u2 - u1, t1 - t2)  # y-coordinate where line i+1 takes over
            for (t1, u1, _), (t2, u2, _) in zip(hull, hull[1:])
        ]

    def query(self, yn: int, yd: int):
        """(u yd + t yn, ref) of the minimal line at y = yn/yd, yd > 0."""
        lo, hi = 0, len(self.breaks)
        while lo < hi:
            mid = (lo + hi) // 2
            num, den = self.breaks[mid]
            if yn * den >= num * yd:
                lo = mid + 1
            else:
                hi = mid
        t, u, ref = self.lines[lo]
        return u * yd + t * yn, ref


def test_hull_matches_linear_scan():
    rng = random.Random(424242)
    for _ in range(50):
        lines = [(rng.randint(-50, 50), rng.randint(-50, 50), i)
                 for i in range(rng.randint(1, 40))]
        hull = _Hull(lines)
        for _ in range(20):
            yn, yd = rng.randint(0, 16), rng.randint(1, 16)
            got, _ref = hull.query(yn, yd)
            expect = min(u * yd + t * yn for t, u, _ in lines)
            assert got == expect


def _streaming_evaluate(g, hbb, monkeypatch):
    """The evaluate that certify_exact_streaming hands to its analysis."""
    captured = []

    class Recording(certify_module._Analysis):
        def __init__(self, evaluate):
            captured.append(evaluate)
            super().__init__(evaluate)

    with monkeypatch.context() as mp:
        mp.setattr(certify_module, "_Analysis", Recording)
        certify_exact_streaming(CertRequest(g, "exact", "auto", "auto_midpoint", hbb))
    return captured[0]


@pytest.mark.parametrize("g", range(2, 10))
def test_streaming_evaluate_matches_fraction_loop(g, monkeypatch):
    for hbb in (False, True):
        evaluate = _streaming_evaluate(g, hbb, monkeypatch)
        rows = oracle.stream_rows(g, hbb)
        for y in _oracle_ys():
            assert typed(evaluate(y)) == typed(oracle.row_minimum(rows, y)), (g, hbb, y)


@pytest.mark.parametrize("g", (4, 7, 12, 31))
def test_self_check_reads_an_edb_edge_as_compact_type(g):
    # the engine's self-check affine on the two single-edge elliptic
    # dumbbells (top genus 1, and g - 1 over bottom genus 1) is their
    # s_Gamma under the additive model: the edge counted as plain
    # compact type, R_NC = 2/p and b_NC = ell R_NC - 1
    engine = _MinEngine(g)
    for h in (1, g - 1):
        graph = minimal_graph(g, g - h, [(h, (2 * h - 1,))])
        inv = oracle.graph_invariants(graph, hbb_shape_test=False)
        assert inv.edge_classes == (EDB,)
        r_nc = F(2, inv.prongs[0])
        additive = inv._replace(edge_classes=(OCT,), R_NC=r_nc, b_NC=inv.ell * r_nc - 1)
        assert (typed(engine._dp_convention_affine(graph))
                == typed(oracle.s_gamma_affine(additive, g))), (g, h)


def test_streaming_builds_fewer_fractions_than_graphs(monkeypatch):
    # the rows are integer pairs from graph_invariants on; only each
    # query's least row, the analysis and the certificate build Fractions
    graphs = atlas_count(8)
    assert graphs == 716
    for hbb in (True, False):
        req = CertRequest(8, "exact", "auto", "auto_midpoint", hbb)
        with monkeypatch.context() as patch:
            built = oracle.count_fractions(patch)
            cert = certify_exact_streaming(req)
        assert cert.graph_count == graphs
        assert 0 < len(built) < graphs, (hbb, len(built))


def test_streaming_ties_go_to_the_least_encoding():
    # at y = 1/2 the flat and the rising row tie on value, so the least
    # encoding decides, in whatever order the rows come
    flat = AffineInY(F(1, 3), F(0))
    rising = AffineInY(F(0), F(2, 3))
    high = AffineInY(F(5, 7), F(1, 7))  # above both on [0, 1]
    def pair(q):
        return q.numerator, q.denominator

    for names in (("a", "b"), ("b", "a")):
        rows = [(flat, names[0]), (rising, names[1]), (high, "c")]
        for order in itertools.permutations(rows):
            evaluate = certify_module._row_minimum(
                [(pair(aff.intercept), pair(aff.slope), enc) for aff, enc in order])
            for y, winner in ((F(1, 2), "a"), (F(0), names[1]), (F(1), names[0])):
                got = evaluate(y)
                assert got[1] == winner, (order, y)
                assert typed(got) == typed(oracle.row_minimum(order, y)), (order, y)


def _recorded_folds(g, hbb, monkeypatch):
    """(kept, chunk, result) of every fold of one streaming certificate,
    as lists, and the certificate: each fold is one least_rows call on
    the rows the last fold kept followed by one chunk."""
    folds = []
    fold = certify_module.least_rows

    def spy(rows):
        kept = folds[-1][2] if folds else []
        assert rows[:len(kept)] == kept
        result = fold(rows)
        folds.append((kept, rows[len(kept):], list(result)))
        return result

    with monkeypatch.context() as mp:
        mp.setattr(certify_module, "least_rows", spy)
        cert = certify_exact_streaming(CertRequest(g, "exact", "auto", "auto_midpoint", hbb))
    return folds, cert


def _envelope_points(evaluate):
    """0, 1 and every breakpoint of the concave envelope that evaluate
    reads, found from the active lines it returns: two lines that touch
    the envelope at a and b bound it on [a, b], and where they cross
    either the envelope touches both, a breakpoint, or a third line is
    active there and each half is split again."""
    points = {F(0), F(1)}

    def split(fa, fb):
        la, lb = fa[2], fb[2]
        if la == lb:
            return
        y = (lb.intercept - la.intercept) / (la.slope - lb.slope)
        fy = evaluate(y)
        if fy[0] == la(y):
            points.add(y)
        else:
            split(fa, fy)
            split(fy, fb)

    split(evaluate(F(0)), evaluate(F(1)))
    return sorted(points)


@pytest.mark.parametrize("g", range(2, 13))
def test_kept_rows_read_like_every_row(g, monkeypatch):
    # the rows the fold keeps give what every row gives at 0, 1, every
    # breakpoint of the whole-row envelope, every piece midpoint and
    # 200 seeded y, witness and active affine included
    rng = random.Random(36 + g)
    for hbb in (False, True):
        folds, _ = _recorded_folds(g, hbb, monkeypatch)
        every = certify_module._row_minimum([row for _, chunk, _ in folds for row in chunk])
        kept = certify_module._row_minimum(folds[-1][2])
        points = _envelope_points(every)
        ys = points + [(a + b) / 2 for a, b in zip(points, points[1:])]
        for _ in range(200):
            den = rng.randint(1, 10 ** 4)
            ys.append(F(rng.randint(0, den), den))
        for y in ys:
            assert typed(kept(y)) == typed(every(y)), (g, hbb, y)


def _made_up_rows(lines):
    return [((aff.intercept.numerator, aff.intercept.denominator),
             (aff.slope.numerator, aff.slope.denominator), enc)
            for aff, enc in lines]


# each case: (slope, intercept) lines with their encodings, and the least
# row at some y
_TIE_CASES = {
    # three lines through (1/2, 1/3); the middle-slope line has the least
    # encoding, so it is least at y = 1/2 alone
    "three_through_a_point": (
        [((F(1, 3), F(1, 6)), "c"), ((F(0), F(1, 3)), "a"),
         ((F(-1, 3), F(1, 2)), "b"), ((F(1, 7), F(5, 7)), "d")],
        [(F(0), "c"), (F(1, 4), "c"), (F(1, 2), "a"), (F(3, 4), "b"), (F(1), "b")]),
    # two copies of each envelope line; they cross at y = 1/3
    "identical_lines": (
        [((F(1, 4), F(1, 4)), "e"), ((F(1, 4), F(1, 4)), "d"),
         ((F(-1, 2), F(1, 2)), "g"), ((F(-1, 2), F(1, 2)), "f"),
         ((F(0), F(3, 4)), "a")],
        [(F(0), "d"), (F(1, 4), "d"), (F(1, 3), "d"), (F(1, 2), "f"), (F(1), "f")]),
    # two copies of the middle piece's line, whose ends go to lesser
    # encodings: only inside the piece is a copy least
    "identical_lines_inside_a_piece": (
        [((F(1), F(0)), "a"), ((F(0), F(1, 4)), "n"), ((F(0), F(1, 4)), "m"),
         ((F(-1), F(1)), "b"), ((F(0), F(1)), "0")],
        [(F(0), "a"), (F(1, 4), "a"), (F(1, 2), "m"), (F(3, 4), "b"), (F(1), "b")]),
    # a line above each envelope line, parallel to it, with a lesser encoding
    "equal_slopes": (
        [((F(2, 3), F(0)), "b"), ((F(2, 3), F(1, 10)), "a"),
         ((F(0), F(1, 3)), "c"), ((F(0), F(2, 5)), "0")],
        [(F(0), "b"), (F(1, 2), "b"), (F(3, 4), "c"), (F(1), "c")]),
}


@pytest.mark.parametrize("case", sorted(_TIE_CASES))
@pytest.mark.parametrize("chunk", (1, 2, 3))
def test_fold_keeps_the_rows_least_at_ties(case, chunk, monkeypatch):
    lines, winners = _TIE_CASES[case]
    monkeypatch.setattr(certify_module, "_STREAM_CHUNK", chunk)
    affines = [(AffineInY(b, a), enc) for (a, b), enc in lines]
    ys = sorted({y for y, _ in winners} | {F(k, 12) for k in range(13)})
    for order in itertools.permutations(affines):
        rows = _made_up_rows(order)
        kept, n = certify_module._fold_stream(iter(rows))
        assert n == len(rows)
        every = certify_module._row_minimum(list(rows))
        evaluate = certify_module._row_minimum(kept)
        for y in ys:
            assert typed(evaluate(y)) == typed(every(y)), (order, y)
            assert typed(every(y)) == typed(oracle.row_minimum(order, y)), (order, y)
        for y, winner in winners:
            assert evaluate(y)[1] == winner, (order, y)


@pytest.mark.parametrize("g", range(2, 10))
def test_streaming_certificates_do_not_depend_on_the_chunk(g, monkeypatch):
    # the certificate from every row at once, against the folded stream at
    # chunks of 1 and 2 rows, where every row straddles a chunk boundary
    for hbb in (False, True):
        rows = [certify_module._stream_row(graph_invariants(graph, hbb), g)
                for graph in enumerate_level_graphs(g)]
        for policy in ("paper_recipe", "auto_midpoint", F(3, 20), F(1, 2)):
            req = CertRequest(g, "exact", "auto", policy, hbb)
            analysis = certify_module._Analysis(certify_module._row_minimum(list(rows)))
            expect = certify_module._exact_certificate(req, analysis, len(rows)).to_json()
            for chunk in (1, 2):
                monkeypatch.setattr(certify_module, "_STREAM_CHUNK", chunk)
                assert certify_exact_streaming(req).to_json() == expect, (hbb, policy, chunk)


# the envelope of min s_Gamma has few pieces: a probe of genus 2..14 kept
# 1 to 8 rows after any fold, against 256 rows a chunk
_KEPT_AT_MOST = 16


@pytest.mark.parametrize("g", range(8, 14))
def test_streaming_holds_one_chunk_and_a_few_rows(g, monkeypatch):
    # each fold reads the rows the last one kept and one chunk, and keeps
    # a few rows
    for hbb in (False, True):
        folds, cert = _recorded_folds(g, hbb, monkeypatch)
        assert len(folds) == -(-cert.graph_count // certify_module._STREAM_CHUNK)
        for _, chunk, result in folds:
            assert 0 < len(chunk) <= certify_module._STREAM_CHUNK
            assert len(result) <= _KEPT_AT_MOST, (g, hbb, len(result))


def test_scan_rejects_bad_range_and_mode():
    for g_from, g_to in ((40, 30), (1, 2)):
        with pytest.raises(ValueError):
            scan(g_from, g_to)
    with pytest.raises(ValueError):
        scan(31, 31, "precise")


def _full_type_engine(g):
    """Oracle: the minimization engine with lines over every degree 1..w of
    every weight w and, through genus 20, over every vertex type of each
    degree rather than the two iota extremes."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certify_module, "_LEMMA_GENUS", math.inf)
        if g <= 20:
            mp.setattr(certify_module, "_iota_extremes",
                       lambda n, d: tuple(partitions_exact(n, d)))
        return _MinEngine(g)


def _oracle_ys():
    rng = random.Random(20240531)
    ys = [F(0), F(1), F(1, 2)]
    while len(ys) < 43:
        den = rng.randint(1, 500)
        y = F(rng.randint(0, den), den)
        if y not in ys:
            ys.append(y)
    return ys


def _weight_lines(engine):
    """(every, d2): per weight w, the engine's kept lines of every degree,
    the degree-1 line first, and those of degree >= 2, for the weights
    that have any."""
    every, d2 = {}, {}
    for w, (line_d1, lines_d2) in engine.type_lines.items():
        every[w] = [line_d1, *lines_d2]
        if lines_d2:
            d2[w] = list(lines_d2)
    return every, d2


def _lines_on_unit(lines):
    """The lines of the envelope of ``lines`` that _Hull.query answers
    with at some y in [0, 1]: line i answers on [break i - 1, break i),
    where a breakpoint goes to the later line."""
    hull = _Hull(lines)
    ends = [None] + [F(num, den) for num, den in hull.breaks] + [None]
    return [line for line, lo, hi in zip(hull.lines, ends, ends[1:])
            if (lo is None or lo <= 1) and (hi is None or hi > 0)]


@pytest.mark.parametrize("g", [*range(4, 41), 60, 100, 200])
def test_extreme_type_hulls_match_full_type_oracle(g):
    # below genus 13 the engine builds every degree, so the envelopes of
    # its lines equal the oracle's line for line; from 13 on it builds
    # degrees 1, 2 and w only, and the lines that can answer a query in
    # [0, 1] are the same
    engine = _MinEngine(g)
    oracle = _full_type_engine(g)
    same = (lambda lines: _Hull(lines).lines) if g < 13 else _lines_on_unit
    for lines, o_lines in zip(_weight_lines(engine), _weight_lines(oracle)):
        assert lines.keys() == o_lines.keys()
        for w in lines:
            assert same(lines[w]) == same(o_lines[w]), (g, w)
    for y in _oracle_ys():
        for hbb in (True, False):
            value, witness, affine = engine.evaluate(y, hbb)
            o_value, o_witness, o_affine = oracle.evaluate(y, hbb)
            assert value == o_value, (g, y, hbb)
            assert canonical_encoding(witness) == canonical_encoding(o_witness), (g, y, hbb)
            assert typed(affine) == typed(o_affine), (g, y, hbb)


def test_every_degree_is_needed_below_genus_13():
    # at genus 12 a degree-3 type of weight 11 answers queries in [0, 1],
    # so the reduced build would change the least line there
    every, _ = _weight_lines(_MinEngine(12))
    lines = _lines_on_unit(every[11])
    assert (9, (6, 6, 7)) in [ref for _, _, ref in lines]


@pytest.mark.parametrize("g", [*range(2, 41), 60, 100])
def test_weight_minima_match_hull_at_breakpoints(g):
    # the random _oracle_ys rarely land on a breakpoint, where the tie rule
    # decides; at every breakpoint in [0, 1] of the envelope of any weight's
    # lines, and at both ends, every weight's least line over every degree
    # and over degree >= 2 is the one _Hull.query names, value and ref
    engine = _MinEngine(g)
    hulls = [{w: _Hull(lines) for w, lines in by_weight.items()}
             for by_weight in _weight_lines(engine)]
    ys = {F(0), F(1)}
    for by_weight in hulls:
        for hull in by_weight.values():
            ys.update(y for y in (F(num, den) for num, den in hull.breaks) if 0 <= y <= 1)
    for y in sorted(ys):
        yn, yd = y.numerator, y.denominator
        for least, by_weight in zip(engine._weight_minima(yn, yd), hulls):
            assert least.keys() == by_weight.keys()
            for w, hull in by_weight.items():
                value, _, ref = least[w]
                assert (value, ref) == hull.query(yn, yd), (g, y, w)


def test_least_line_tie_rule():
    # a value tie goes to the least slope, and identical lines to the first
    # given, in any order, as _Hull.query has it
    lines = [(3, 0, "a"), (1, 2, "b"), (1, 2, "c"), (5, -1, "d"), (1, 5, "e")]
    assert _least_line(lines, 0, 1) == (-1, 5, "d")
    assert _least_line(lines, 1, 2) == (3, 3, "a")  # ties d, of slope 5
    assert _least_line(lines, 1, 1) == (3, 1, "b")  # ties a and c
    for order in itertools.permutations(lines):
        first = next(ref for _, _, ref in order if ref in ("b", "c"))
        assert _least_line(order, 1, 1) == (3, 1, first)
        for yn, yd in ((0, 1), (1, 6), (1, 5), (1, 4), (1, 2), (2, 3), (1, 1)):
            value, _, ref = _least_line(order, yn, yd)
            assert (value, ref) == _Hull(list(order)).query(yn, yd), (order, yn, yd)


@pytest.mark.parametrize("g", [5, 14])
def test_degree_one_line_wins_an_identical_tie(g):
    # with every type's contribution zero, every line of a weight is the
    # same: the degree-1 type, built first, is the least over every degree,
    # and the first degree >= 2 line built the least over those
    engine = _engine_with_scalars(g, lambda *_: (0, 0))
    best_all, best_d2 = engine._weight_minima(1, 3)
    for w, (_, lines_d2) in engine.type_lines.items():
        assert best_all[w] == (0, 0, (w, (2 * w - 1,))), (g, w)
        if lines_d2:
            assert best_d2[w] == (0, 0, lines_d2[0][2]), (g, w)
    # a degree >= 2 line of equal value wins only on a lesser slope
    for slope_d2, winner in ((-1, "d2"), (0, "d1"), (1, "d1")):
        engine.type_lines = {1: ((0, 0, "d1"), ((slope_d2, -slope_d2, "d2"),))}
        best_all, best_d2 = engine._weight_minima(1, 1)
        assert best_all[1] == (0, min(slope_d2, 0), winner), slope_d2
        assert best_d2[1] == (0, slope_d2, "d2")


def _iota(parts):
    return sum(F(1, p) for p in parts)


def _iota_balanced(w, d):
    """iota of the balanced partition of 2w - d into d parts, in closed form."""
    q = (2 * w - d) // d
    return F(2 * d, q) - F(2 * w, q * (q + 1))


def test_lemma_iota_closed_forms():
    # the two extremes' iota as the lemma writes them, and their convexity
    # in d, for every weight w and degree 2 <= d <= w
    for w in range(2, 121):
        spread = [d - 1 + F(1, 2 * w - 2 * d + 1) for d in range(2, w + 1)]
        balanced = [_iota_balanced(w, d) for d in range(2, w + 1)]
        if w <= 16:
            for d in range(2, w + 1):
                iotas = [_iota(parts) for parts in partitions_exact(2 * w - d, d)]
                assert (balanced[d - 2], spread[d - 2]) == (min(iotas), max(iotas))
        for row in (spread, balanced):
            assert all(a - 2 * b + c >= 0 for a, b, c in zip(row, row[1:], row[2:]))


def _lemma_differences(g, gaps):
    """B + C (iota_bal(3) - iota_bal(2)) for 3 <= w <= g, at both ends of
    [0, min(y_C, 1)], the part of [0, 1] where C >= 0 (the lemma of
    _MinEngine._build_type_lines); built from the divisor's integers, with
    gaps[w] = iota_bal(3) - iota_bal(2) at weight w."""
    _, den, hor, _ = certify_module._divisor(g)
    q, j, beta = F(2 * g - 2, 2 * g - 1), F(12, g + 11), F(hor, den)
    c0, c1 = -q / 2 - 1 + 2 * beta, j - 2 * beta
    assert c0 > 0 > c1
    diffs = []
    for y in (F(0), min(-c0 / c1, F(1))):
        b, c = q - 1 + j * y, c0 + c1 * y
        diffs.extend(b + c * gaps[w] for w in range(3, g + 1))
    return diffs


def test_lemma_inequality_holds_from_genus_13():
    gaps = {w: _iota_balanced(w, 3) - _iota_balanced(w, 2) for w in range(3, 401)}
    for g in range(13, 401):
        assert min(_lemma_differences(g, gaps)) > 0, g
    # at genus 12 it fails, and there the every-degree build is needed
    # (test_every_degree_is_needed_below_genus_13)
    assert min(_lemma_differences(12, gaps)) <= 0


def test_evaluate_refuses_y_outside_the_unit_interval():
    engine = _MinEngine(13)
    for y in (F(-1, 10 ** 9), F(1 + 10 ** 9, 10 ** 9), F(-3), F(2)):
        for hbb in (True, False):
            with pytest.raises(ValueError):
                engine.evaluate(y, hbb)
    for y in (F(0), F(1)):
        for hbb in (True, False):
            engine.evaluate(y, hbb)


def test_iota_extremes_are_argmin_and_argmax():
    for n in range(1, 31):
        for d in range(1, n + 1):
            parts = list(partitions_exact(n, d))
            iotas = [sum(F(1, p) for p in ps) for ps in parts]
            lo, hi = min(iotas), max(iotas)
            argmin = [ps for ps, i in zip(parts, iotas) if i == lo]
            argmax = [ps for ps, i in zip(parts, iotas) if i == hi]
            assert len(argmin) == len(argmax) == 1
            got = _iota_extremes(n, d)
            assert set(got) == {argmin[0], argmax[0]}
            # listed in partitions_exact order, without repeats
            assert list(got) == [ps for ps in parts if ps in got]


def test_g34_shape_test_off_is_infeasible():
    # a pinned finding: coarse mode certifies genus 34, exact mode does not
    cert = certify_exact(CertRequest(34, "exact", "auto", "paper_recipe", False))
    assert cert.status == INFEASIBLE
    assert cert.feasible.lo == F(10365, 41473)
    assert cert.feasible.hi == F(10725, 50317)
    assert cert.feasible.lo > cert.feasible.hi
    assert cert.worst_margin == F(392256, 38532035)
    assert cert.worst_graph == "g=34;gb=0;legs=66;top=[(16,[16,16]),(16,[16,16])]"


@pytest.mark.parametrize("hbb,name", [(True, "scan_2_200_exact.csv"),
                                      (False, "scan_2_200_exact_no_hbb_shape.csv")])
def test_committed_exact_table_rows(hbb, name):
    # each file is the output of `stratacert scan --from 2 --to 200 --mode
    # exact --format csv`, with --no-hbb-shape for the second; a few cheap
    # rows are rebuilt here through the library
    lines = (EXPECTED / name).read_bytes().decode("utf-8").splitlines()
    assert lines[0] == cli._SCAN_COLUMNS
    config = json.loads(lines[-1].removeprefix("# config: "))
    assert (config["g_from"], config["g_to"], config["mode"], config["y"],
            config["no_hbb_shape"]) == (2, 200, "exact", "recipe", not hbb)
    rows = {int(line.split(",")[0]): line for line in lines[1:-1]}
    assert sorted(rows) == list(range(2, 201))
    for g in (2, 27, 31, 34, 39, 60):
        cert = certify_exact(CertRequest(g, "exact", "auto", "paper_recipe", hbb))
        assert cli._scan_row(cert, None) == rows[g], (g, hbb)


def test_genus_below_two_rejected():
    for certify in (certify_coarse, certify_exact, certify_exact_streaming):
        for g in (-1, 0, 1):
            with pytest.raises(ValueError, match="genus must be >= 2"):
                certify(CertRequest(g))


def _hbb_walk_lines(engine):
    """Oracle: one line per shape-HBB graph, from a plain walk over them all.

    Lines come in depth-first order with ns, then np, ascending: the order
    whose first graph the engine names among graphs of one line.
    """
    g, q_num = engine.g, engine.q_num
    singles = {h: engine._type_scalars(h, 1, (2 * h - 1,)) for h in range(1, g + 1)}
    pairs = {h: engine._type_scalars(h, 2, (h, h)) for h in range(1, g + 1)}
    lines = []

    def walk(h, budget, g_b, u_sum, t_sum, ell, have_pair, spec):
        if budget == 0:
            if have_pair:
                u = engine.k0 + 2 * g_b * q_num + u_sum - q_num // ell
                lines.append((engine.k1 + t_sum, u, (g_b, spec)))
            return
        if h > budget:
            return
        us, ts = singles[h]
        up, tp = pairs[h]
        ell_single = math.lcm(ell, 2 * h - 1)
        for ns in range(budget // h + 1):
            rem = budget - ns * h
            ell_s = ell_single if ns else ell
            for np_ in range(rem // (h + 1) + 1):
                ell_p = math.lcm(ell_s, h) if np_ else ell_s
                nspec = spec + ((h, ns, np_),) if (ns or np_) else spec
                walk(h + 1, rem - np_ * (h + 1), g_b,
                     u_sum + ns * us + np_ * up,
                     t_sum + ns * ts + np_ * tp,
                     ell_p, have_pair or np_ > 0, nspec)

    for g_b in range(g):
        walk(1, g - g_b, g_b, 0, 0, 1, False, ())
    return lines


def _hbb_walk_hull(engine):
    """Oracle: the lower envelope of every shape-HBB line.  Its query
    applies the tie rule the engine's HBB minimum must reproduce."""
    return _Hull(_hbb_walk_lines(engine))


def _hbb_memo_hull(engine):
    """Oracle for genera where the walk is too slow: the same envelope from
    a recursion memoized on (h, budget, ell, have_pair).  The only
    non-additive term, -Q / lcm, depends on the path only through ell, and
    children are merged in walk order, so the hull, refs included, is the
    walk's."""
    g = engine.g
    singles = {h: engine._type_scalars(h, 1, (2 * h - 1,)) for h in range(1, g + 1)}
    pairs = {h: engine._type_scalars(h, 2, (h, h)) for h in range(1, g + 1)}
    memo = {}

    def envelope(h, budget, ell, have_pair):
        if budget == 0:
            return [(0, -(engine.q_num // ell), ())] if have_pair else []
        if h > budget:
            return []
        key = (h, budget, ell, have_pair)
        if key in memo:
            return memo[key]
        us, ts = singles[h]
        up, tp = pairs[h]
        ell_single = math.lcm(ell, 2 * h - 1)
        lines = []
        for ns in range(budget // h + 1):
            rem = budget - ns * h
            ell_s = ell_single if ns else ell
            for np_ in range(rem // (h + 1) + 1):
                ell_p = math.lcm(ell_s, h) if np_ else ell_s
                rest = envelope(h + 1, rem - np_ * (h + 1), ell_p,
                                have_pair or np_ > 0)
                dt = ns * ts + np_ * tp
                du = ns * us + np_ * up
                step = ((h, ns, np_),) if (ns or np_) else ()
                lines.extend((t + dt, u + du, step + spec) for t, u, spec in rest)
        memo[key] = result = _Hull(lines).lines
        return result

    lines = []
    for g_b in range(g):
        base = engine.k0 + 2 * g_b * engine.q_num
        lines.extend((engine.k1 + t, base + u, (g_b, spec))
                     for t, u, spec in envelope(1, g - g_b, 1, False))
    return _Hull(lines)


def _knapsack_dp(engine, yn, yd):
    """The knapsack over the envelopes of the engine's per-weight lines, as
    evaluate fills it."""
    every, _ = _weight_lines(engine)
    least = {w: _Hull(lines).query(yn, yd)[0] for w, lines in every.items()}
    dp = [0] * (engine.g + 1)
    for total in range(1, engine.g + 1):
        dp[total] = min(dp[total - w] + least[w] for w in range(1, total + 1))
    return dp


def _hbb_dfs_oracle(engine, yn, yd, dp, limit):
    """Oracle: (scaled value, ref) of the least shape-HBB graph at y = yn/yd
    strictly below ``limit``, or None, by a depth-first search.

    It makes the choices for g_b = 0, 1, ..., then h = 1, 2, ... with
    (ns, np) ascending, and cuts a node whose bound prefix + dp[budget] -
    Q / ell cannot beat the best so far.  Every single and pair is a
    candidate of the per-weight hull of its weight, so the knapsack ``dp``
    bounds the rest, and the lcm ell only grows.  Ties go as in
    _Hull.query: least value, then least slope, then the first found.
    It reads every single and pair of top genus h <= g from
    ``_type_scalars``, those of h = g too, which the engine never builds.
    """
    q_num = engine.q_num
    types = {}
    for h in range(1, engine.g + 1):
        us, ts = engine._type_scalars(h, 1, (2 * h - 1,))
        up, tp = engine._type_scalars(h, 2, (h, h))
        types[h] = us * yd + ts * yn, ts, up * yd + tp * yn, tp
    best = [limit, None, None]  # value, slope, ref
    path = []

    def search(g_b, h, budget, ell, have_pair, value, slope):
        bound = value + dp[budget] - (q_num // ell) * yd
        if bound > best[0] or (bound == best[0] and best[1] is None):
            return
        if budget == 0:
            if have_pair and (bound < best[0] or slope < best[1]):
                spec = tuple(step for step in path if step[1] or step[2])
                best[:] = bound, slope, (g_b, spec)
            return
        if h > budget:
            return
        vs, ts, vp, tp = types[h]
        ell_single = math.lcm(ell, 2 * h - 1)
        for ns in range(budget // h + 1):
            rem = budget - ns * h
            ell_s = ell_single if ns else ell
            for np_ in range(rem // (h + 1) + 1):
                path.append((h, ns, np_))
                search(g_b, h + 1, rem - np_ * (h + 1),
                       math.lcm(ell_s, h) if np_ else ell_s,
                       have_pair or np_ > 0, value + ns * vs + np_ * vp,
                       slope + ns * ts + np_ * tp)
                path.pop()

    const = engine.k0 * yd + engine.k1 * yn
    for g_b in range(engine.g):
        search(g_b, 1, engine.g - g_b, 1, False,
               const + 2 * g_b * q_num * yd, engine.k1)
    return None if best[2] is None else (best[0], best[2])


def _engine_with_scalars(g, scalars):
    """An engine whose per-type contributions (type lines and HBB types alike)
    are ``scalars(engine, h, d, parts)``."""
    engine = _MinEngine.__new__(_MinEngine)
    engine._type_scalars = lambda h, d, parts: scalars(engine, h, d, parts)
    engine.__init__(g)
    return engine


def _above_every_line(lines):
    """(yn, yd) -> a scaled value above every one of the lines at yn/yd."""
    u_max = max(u for _, u, _ in lines)
    t_min, t_max = min(t for t, _, _ in lines), max(t for t, _, _ in lines)
    return lambda yn, yd: u_max * yd + max(t_min * yn, t_max * yn) + 1


def _check_search_against_hull(engine, hull, y, above):
    # with a limit above every line the loop must find the least one; with
    # the least value itself as limit it must find nothing (strict <)
    yn, yd = y.numerator, y.denominator
    expect = hull.query(yn, yd)
    assert engine._hbb_minimum(yn, yd, above(yn, yd)) == expect, (engine.g, y)
    assert engine._hbb_minimum(yn, yd, expect[0]) is None, (engine.g, y)


# (den, hor, sep) of each effective divisor, written out at any genus
_DIVISOR_CONSTANTS = {
    "brill_noether": lambda g: (g + 3, g + 1, 1),
    "hurwitz": lambda g: ((g + 8) * (3 * g - 1), 3 * g * g + 12 * g - 6, 3 * g + 4),
}


@pytest.mark.parametrize("effdiv", ["brill_noether", "hurwitz"])
@pytest.mark.parametrize("g", range(2, 23))
def test_hbb_hull_matches_walk_oracle(g, effdiv, monkeypatch):
    # the genus uses one divisor; an engine built on the other one's
    # constants checks the HBB minimum on a second set of type scalars
    if (g % 2 == 1) == (effdiv == "brill_noether"):
        assert certify_module._divisor(g) == (effdiv,) + _DIVISOR_CONSTANTS[effdiv](g)
    monkeypatch.setattr(certify_module, "_divisor",
                        lambda g: (effdiv,) + _DIVISOR_CONSTANTS[effdiv](g))
    engine = _MinEngine(g)
    lines = _hbb_walk_lines(engine)
    hull = _Hull(lines)
    if g <= 12:  # keep the memo oracle of the larger genera honest
        assert _hbb_memo_hull(engine).lines == hull.lines
    above = _above_every_line(lines)
    for y in _oracle_ys():
        _check_search_against_hull(engine, hull, y, above)


def _type_scalars_per_part(engine, h, d, parts):
    """Oracle: a vertex type's scaled (u, t), with sigma, iota, rho and beta
    each summed over all d parts."""
    g, den = engine.g, engine.den
    sigma = sum(parts)
    iota_den = sum(den // p for p in parts)
    if d == 1:
        p = parts[0]
        rho_den = 2 * (den // p)
        i = min(h, g - h)
        beta_den = 12 * i * (g - i) * engine.bsep * (den // (engine.bden * p))
    else:
        half = den // 2
        rho_den = sum(half // p for p in parts)
        beta_den = sum(2 * engine.bhor * (den // (engine.bden * p)) for p in parts)
    diff_den = sigma * den - iota_den  # (sigma - iota) * DEN
    q_rho = rho_den * (2 * g - 2) // (2 * g - 1)
    u = (d - 1) * engine.q_num - q_rho + diff_den + beta_den
    t = engine.k1 - diff_den // (g + 11) * 12 - beta_den
    return u, t


@pytest.mark.parametrize("effdiv", ["brill_noether", "hurwitz"])
def test_type_scalars_match_per_part_oracle(effdiv, monkeypatch):
    # every vertex type of every (weight, degree) block, not only the iota
    # extremes the engine builds from, and the HBB types the engine keeps
    # apart (h <= g - 1); each genus also under the other divisor's constants
    monkeypatch.setattr(certify_module, "_divisor",
                        lambda g: (effdiv,) + _DIVISOR_CONSTANTS[effdiv](g))
    for g in range(2, 21):
        engine = _MinEngine(g)
        for w in range(1, g + 1):
            for d in range(1, w + 1):
                h = w + 1 - d
                for parts in partitions_exact(2 * h - 2 + d, d):
                    assert engine._type_scalars(h, d, parts) == \
                        _type_scalars_per_part(engine, h, d, parts), (g, h, parts)
        for h, (single, pair) in engine._hbb_types.items():
            assert single == _type_scalars_per_part(engine, h, 1, (2 * h - 1,)), (g, h)
            assert pair == _type_scalars_per_part(engine, h, 2, (h, h)), (g, h)


@pytest.mark.parametrize("g", [23, 25, 28, 31])
def test_hbb_search_matches_memo_oracle(g):
    engine = _MinEngine(g)
    hull = _hbb_memo_hull(engine)
    above = _above_every_line(hull.lines)  # the least line is among them
    for y in _oracle_ys():
        _check_search_against_hull(engine, hull, y, above)


@pytest.mark.parametrize("g", range(4, 13))
def test_hbb_hull_tie_break_matches_walk_oracle(g):
    # graphs with identical lines never tie at the real minima (none at
    # g = 2..22, 25, 28 or 31); value ties between lines of different slope
    # do, at breakpoints (test_hbb_loop_keeps_banana_at_breakpoint_ties).
    # So the tie-break among identical lines is pinned on made-up
    # contributions.  When every vertex type contributes nothing, lines tie
    # whenever two graphs share g_b and the lcm; when each contributes 2 Q
    # per unit of weight, which cancels the 2 Q g_b of the bottom, they tie
    # across g_b as well.  The loop must keep the walk's first.
    for scalars in (lambda *_: (0, 0),
                    lambda engine, h, d, parts: (2 * engine.q_num * (h + d - 1), 0)):
        engine = _engine_with_scalars(g, scalars)
        lines = _hbb_walk_lines(engine)
        hull = _Hull(lines)
        above = _above_every_line(lines)
        for y in _oracle_ys():
            _check_search_against_hull(engine, hull, y, above)


def test_hbb_search_breaks_value_ties_by_least_slope():
    # at a breakpoint of the envelope two lines of different slope tie;
    # _Hull.query names the one of least slope, which Newton's steps rely
    # on.  Seeded per-type contributions make such ties, and the case that
    # matters is the one where the winner comes later in walk order.
    rng = random.Random(8128)
    table = {}

    def scalars(engine, h, d, parts):
        key = (h, d, parts)
        if key not in table:
            table[key] = (rng.randint(-9, 9) * engine.den, rng.randint(-9, 9) * engine.den)
        return table[key]

    later_winners = 0
    for g in range(5, 10):
        table.clear()
        engine = _engine_with_scalars(g, scalars)
        lines = _hbb_walk_lines(engine)
        order = {ref: i for i, (_, _, ref) in reversed(list(enumerate(lines)))}
        hull = _Hull(lines)
        above = _above_every_line(lines)
        for (num, den), left, right in zip(hull.breaks, hull.lines, hull.lines[1:]):
            _check_search_against_hull(engine, hull, F(num, den), above)
            later_winners += order[right[2]] > order[left[2]]
    assert later_winners > 0


def _pair_cancels_lcm(single_one_dear):
    """Made-up contributions: 2 Q per unit of weight, which cancels the
    2 Q g_b of the bottom, and Q/h more on a pair (h, [h, h]).  Every graph
    of one such pair and singles whose prongs divide h then has the same
    line, whatever its g_b.  The pair (g-1, [g-1, g-1]) is dear, so the
    least count vector at g_b = 0 uses singles (2, [3]) and is met after
    the tie at lcm 1.  With the single (1, [1]) dear too, only g_b = 1 ties
    at L = g - 2, with a lesser count vector."""
    def scalars(engine, h, d, parts):
        dear = 100 * engine.q_num
        if d == 2 and parts == (h, h):
            extra = engine.q_num // h if h < engine.g - 1 else dear
            return 2 * engine.q_num * (h + 1) + extra, 0
        extra = dear if single_one_dear and h == 1 else 0
        return 2 * engine.q_num * (h + d - 1) + extra, 0
    return scalars


def _lcm_two_beats_three(engine, h, d, parts):
    # at g = 6, {(2,[2,2]) x 2} (lcm 2) ties {(1,[1]) x 2, (3,[3,3])} (lcm 3)
    # and {(1,[1]) x 3, (2,[2,2])}; every other type is dear
    cheap = {(1, 1, (1,)): 0, (2, 2, (2, 2)): 0, (3, 2, (3, 3)): -(engine.q_num // 6)}
    return cheap.get((h, d, parts), 100 * engine.q_num), 0


def _hbb_lcm(spec):
    """lcm of the prongs of a shape-HBB graph given as ((h, ns, np), ...)."""
    return math.lcm(*(2 * h - 1 if ns else 1 for h, ns, _ in spec),
                    *(h if np_ else 1 for h, _, np_ in spec))


@pytest.mark.parametrize("g, scalars, winner", [
    (8, _pair_cancels_lcm(False), (0, ((2, 2, 0), (3, 0, 1)))),
    (6, _pair_cancels_lcm(True), (0, ((2, 1, 0), (3, 0, 1)))),
    (6, _lcm_two_beats_three, (0, ((2, 0, 2),))),
])
def test_hbb_loop_breaks_ties_across_lcms_by_count_vector(g, scalars, winner):
    # identical lines found at different L: least g_b, then the least count
    # vector wins, whether the loop meets it after the first tied graph or
    # before a later one
    engine = _engine_with_scalars(g, scalars)
    lines = _hbb_walk_lines(engine)
    hull = _Hull(lines)
    above = _above_every_line(lines)
    least = hull.lines[0]
    lcms = {_hbb_lcm(spec) for t, u, (_, spec) in lines if (t, u) == least[:2]}
    assert least[2] == winner and len(lcms) > 1
    for y in _oracle_ys():
        _check_search_against_hull(engine, hull, y, above)


def _recorded_hbb_queries(engine):
    """(yn, yd, limit, result) of every HBB query the shape-on analysis of
    the engine makes, at the limit evaluate passes."""
    calls = []
    loop = engine._hbb_minimum

    def recording(yn, yd, limit):
        found = loop(yn, yd, limit)
        calls.append((yn, yd, limit, found))
        return found

    engine._hbb_minimum = recording
    engine.analysis(True).maximum()
    del engine._hbb_minimum
    return calls


@pytest.mark.parametrize("g", list(range(2, 41)) + [60])
def test_hbb_loop_matches_dfs_oracle_at_analysis_queries(g):
    engine = _MinEngine(g)
    calls = _recorded_hbb_queries(engine)
    assert calls
    for yn, yd, limit, found in calls:
        dp = _knapsack_dp(engine, yn, yd)
        assert found == _hbb_dfs_oracle(engine, yn, yd, dp, limit), (g, yn, yd)
        if found is not None:
            assert engine._hbb_minimum(yn, yd, found[0]) is None
            assert _hbb_dfs_oracle(engine, yn, yd, dp, found[0]) is None


def _hbb_row_oracle(items, g):
    """Oracle: the (free, paired) row of the two-state HBB knapsack keyed
    by (value, slope, counts) tuples.  ``items`` are (prong, weight, value,
    slope, is_pair, index), index the item's place in the engine's search
    order and counts the count of each item in that order; free[b] is the
    least key of a multiset of total weight b and paired[b] that of one
    holding a pair, None where there is none."""
    size = 2 * g + 1
    free, paired = [(0, 0, (0,) * size)] + [None] * g, [None] * (g + 1)
    for _, w, v, t, is_pair, i in items:
        source = free if is_pair else paired
        for b in range(w, g + 1):
            for src, dst in ((free, free), (source, paired)):
                rest = src[b - w]
                if rest is not None:
                    n = rest[2]
                    cand = (rest[0] + v, rest[1] + t, n[:i] + (n[i] + 1,) + n[i + 1:])
                    if dst[b] is None or cand < dst[b]:
                        dst[b] = cand
    return free, paired


def _hbb_items(engine, yn, yd):
    """The HBB items at y = yn/yd in search order, the bottom genus first,
    each as (prong, weight, value, slope, is_pair, index) for the oracle,
    over every top genus h <= g from ``_type_scalars``; and those the
    engine builds (h <= g - 1) as (prong, weight, packed value), packed as
    the engine packs them, count digit included."""
    pack, radix = engine._hbb_pack, engine._hbb_radix
    tuples = [(1, 1, 2 * engine.q_num * yd, 0, False, 0)]
    for h in range(1, engine.g + 1):
        us, ts = engine._type_scalars(h, 1, (2 * h - 1,))
        up, tp = engine._type_scalars(h, 2, (h, h))
        tuples.append((2 * h - 1, h, us * yd + ts * yn, ts, False, 2 * h - 1))
        tuples.append((h, h + 1, up * yd + tp * yn, tp, True, 2 * h))
    packed = [(prong, w, v * pack + t * radix + place)
              for (prong, w, v, t, _, _), (place, _) in zip(tuples, engine._hbb_digits)]
    return tuples, packed


def _unpack(engine, x):
    """(value, slope, counts) of a packed multiset, None for None; counts
    has one entry per item of every top genus h <= g, and the two of h = g,
    which the engine holds no digit for, are 0."""
    if x is None:
        return None
    pack, radix = engine._hbb_pack, engine._hbb_radix
    value = (x + pack // 2) // pack
    low = x - value * pack
    counts = low % radix
    return value, low // radix, tuple(counts // place % base
                                      for place, base in engine._hbb_digits) + (0, 0)


def _least_pair(tuples, packed, row, indices, g):
    """The least x + row[g - w] over the pairs (w, x) among ``indices``
    that fit in weight g: the least multiset of weight g with a pair."""
    return min(packed[i][2] + row[g - tuples[i][1]] for i in indices
               if tuples[i][4] and tuples[i][1] <= g)


@pytest.mark.parametrize("g", range(2, 41))
def test_hbb_rows_grown_from_divisor_equal_fresh_rows(g):
    # every query the shape-on analysis makes, and every L the loop visits
    # at the best value it ends with: L's one-state row, grown in place
    # from the row of L/p, p the least prime factor of L, by the items
    # whose prong divides L but not L/p, decodes to the free row of the
    # two-state tuple-keyed knapsack over L's items, counts and all, and
    # its least pair plus the rest decodes to that knapsack's paired[g].
    # The same holds over every item, for the stop bound K.  The oracle
    # also holds the two items of top genus g, which the engine does not
    # build: the single of weight g enters its free row at weight g only,
    # which no pair reads, and neither item changes paired[g]
    engine = _MinEngine(g)
    queries = _recorded_hbb_queries(engine)
    visited = 0
    for yn, yd, limit, found in queries:
        tuples, packed = _hbb_items(engine, yn, yd)
        scale = engine.q_num * yd
        free, paired = _hbb_row_oracle(tuples, g)
        every = [b * packed[0][2] for b in range(g + 1)]  # the bottom genus alone
        for item in packed[1:]:
            certify_module._hbb_add(every, *item[1:])
        assert [_unpack(engine, x) for x in every[:g]] == free[:g]
        everything = range(len(tuples))
        assert _unpack(engine, _least_pair(tuples, packed, every, everything, g)) == paired[g]
        k_value = engine.k0 * yd + engine.k1 * yn + paired[g][0]
        best = limit if found is None else found[0]
        rows = {}
        L = 0
        while (k_value - best) * (L + 1) <= scale:
            L += 1
            allowed = [i for i, item in enumerate(tuples) if L % item[0] == 0]
            if L == 1:
                row = [b * packed[0][2] for b in range(g + 1)]
                new = allowed[1:]
            else:
                divisor = L // certify_module._least_prime(L)
                row = list(rows[divisor])
                new = [i for i in allowed if divisor % tuples[i][0]]
            for i in new:
                if i < len(packed):
                    certify_module._hbb_add(row, *packed[i][1:])
            rows[L] = row
            free, paired = _hbb_row_oracle([tuples[i] for i in allowed], g)
            assert [_unpack(engine, x) for x in row[:g]] == free[:g], (g, yn, yd, L)
            assert _unpack(engine, _least_pair(tuples, packed, row, allowed, g)) == \
                paired[g], (g, yn, yd, L)
        visited += L
    assert visited or g == 2  # at g = 2 no query's limit lets the loop start


@pytest.mark.parametrize("g", range(3, 9))
def test_hbb_loop_skips_the_pair_that_outweighs_the_genus(g):
    # the pair (g, [g, g]) weighs g + 1, so no graph of genus g holds it;
    # made-up contributions make it by far the cheapest type, and the loop
    # must agree with the search oracle, which still holds it (and the
    # single (g, [2g - 1]), which leaves no room for a pair)
    def scalars(engine, h, d, parts):
        if h == engine.g and parts == (h, h):
            return -100 * engine.q_num, 0
        return 0, 0

    engine = _engine_with_scalars(g, scalars)
    assert engine._type_scalars(g, 2, (g, g)) == (-100 * engine.q_num, 0)
    for y in _oracle_ys()[:8]:
        yn, yd = y.numerator, y.denominator
        dp = _knapsack_dp(engine, yn, yd)
        limit = engine.k0 * yd + engine.k1 * yn + 1
        found = engine._hbb_minimum(yn, yd, limit)
        assert found is not None
        assert found == _hbb_dfs_oracle(engine, yn, yd, dp, limit), (g, y)


@pytest.mark.parametrize("g", [2, 7, 31])
def test_hbb_packing_round_trips_at_the_bounds(g):
    # a packed multiset is value * pack + slope * R + counts, counts the
    # mixed-radix number of its item counts; at |slope| = g max|t| and
    # every count at g // w, packing then decoding gives back (value,
    # slope, g_b, counts), and integer order is tuple order
    engine = _MinEngine(g)
    pack, radix, digits = engine._hbb_pack, engine._hbb_radix, engine._hbb_digits
    # the items are the bottom genus and the single and pair of each top
    # genus h <= g - 1; those of h = g never occur in a genus-g graph
    assert len(digits) == 2 * g - 1
    top = g * max(abs(engine._type_scalars(h, d, parts)[1]) for h in range(1, g)
                  for d, parts in ((1, (2 * h - 1,)), (2, (h, h))))
    full = tuple(base - 1 for _, base in digits)  # g // w per item
    zero = (0,) * len(digits)
    last = zero[:-1] + (1,)  # the banana (g - 1, [g - 1, g - 1]), the last item
    vectors = [zero, full, full[:1] + zero[1:], last, (0, 1) + full[2:]]
    keys = [(value, slope, counts) for value in (-10 ** 40, -1, 0, 1, 10 ** 40)
            for slope in (-top, 1 - top, 0, top - 1, top) for counts in vectors]
    packed = {}
    for value, slope, counts in keys:
        x = value * pack + slope * radix + sum(n * place
                                               for n, (place, _) in zip(counts, digits))
        assert _unpack(engine, x) == (value, slope, counts + (0, 0))
        assert engine._hbb_ref(x - value * pack) == (counts[0], tuple(
            (h, ns, np_) for h, ns, np_ in zip(range(1, g), counts[1::2], counts[2::2])
            if ns or np_))
        packed[(value, slope, counts)] = x
    assert sorted(keys, key=packed.get) == sorted(keys)


def test_least_prime():
    for n in range(2, 400):
        p = certify_module._least_prime(n)
        assert n % p == 0 and all(p % q for q in range(2, p))


@pytest.mark.parametrize("g", range(4, 11))
def test_hbb_packing_orders_value_then_slope_at_large_slopes(g):
    # the knapsack ranks a multiset by value * pack + slope * R + counts;
    # that is the (value, slope, counts) order only while slope * R +
    # counts stays under pack / 2 in size for every multiset of weight
    # <= g.  Made-up contributions with slopes of +-1e6 DEN and intercepts
    # of a few units put multisets whose values differ by a unit and whose
    # slopes differ by up to 2 g max|t| near y = 0, and value ties at the
    # walk hull's breakpoints.  With pack cut to g max|t| R the search
    # fails here at six of these seven genera
    rng = random.Random(1729 + g)
    table = {}

    def scalars(engine, h, d, parts):
        key = (h, d, parts)
        if key not in table:
            table[key] = (rng.randint(-3, 3), rng.choice((-1, 1)) * 10 ** 6 * engine.den)
        return table[key]

    engine = _engine_with_scalars(g, scalars)
    lines = _hbb_walk_lines(engine)
    hull = _Hull(lines)
    above = _above_every_line(lines)
    ys = [F(0), F(1, 10 ** 9)] + _oracle_ys()[:10]
    ys += [F(num, den) for num, den in hull.breaks if 0 <= F(num, den) <= 1]
    for y in ys:
        _check_search_against_hull(engine, hull, y, above)
        yn, yd = y.numerator, y.denominator
        dp = _knapsack_dp(engine, yn, yd)
        found = engine._hbb_minimum(yn, yd, above(yn, yd))
        assert found == _hbb_dfs_oracle(engine, yn, yd, dp, above(yn, yd)), (g, y)


def _hbb_line(engine, ref):
    """(t, u) of the shape-HBB graph ``ref``, scaled like _Hull's lines."""
    g_b, spec = ref
    u, t = engine.k0 + 2 * g_b * engine.q_num, engine.k1
    for h, ns, np_ in spec:
        us, ts = engine._type_scalars(h, 1, (2 * h - 1,))
        up, tp = engine._type_scalars(h, 2, (h, h))
        u += ns * us + np_ * up
        t += ns * ts + np_ * tp
    return t, u - engine.q_num // _hbb_lcm(spec)


@pytest.mark.parametrize("g, rival", [(9, (1, ((1, 0, 4),))),
                                      (13, (1, ((3, 0, 3),))),
                                      (31, (1, ((14, 0, 2),)))])
def test_hbb_loop_keeps_banana_at_breakpoint_ties(g, rival):
    # at the shape-on maximum two bottom-genus-1 graphs of a smaller lcm
    # tie the banana in value with a larger slope.  The loop meets the
    # rival first, and K - Q/L equals the best value just before the
    # banana's L; only a strict stop reaches the banana, which wins on slope
    engine = _MinEngine(g)
    analysis = engine.analysis(True)
    y, _ = certify_module._max_concave(analysis.evaluate, F(0), F(1), *analysis._ends)
    if g == 31:
        assert y == F(152607, 1427522)
    yn, yd = y.numerator, y.denominator
    banana = (0, ((g - 1, 0, 1),))
    (t_b, u_b), (t_r, u_r) = _hbb_line(engine, banana), _hbb_line(engine, rival)
    value = u_b * yd + t_b * yn
    assert u_r * yd + t_r * yn == value and t_r > t_b
    above = value + abs(value) + 1
    assert engine._hbb_minimum(yn, yd, above) == (value, banana)


def test_analysis_evaluates_each_y_once():
    engine = _MinEngine(31)
    ys = []
    evaluate = engine.evaluate

    def recording(y, hbb):
        ys.append(y)
        return evaluate(y, hbb)

    engine.evaluate = recording
    engine.analysis(True).maximum()
    assert ys[:2] == [F(0), F(1)]
    assert len(ys) == len(set(ys))


def test_g60_default_certificate():
    # the genus at which the banana-backbone search gets its widest
    # exercise in the suite; its witness is the equal-prong banana again
    cert = certify_exact(CertRequest(60, "exact"))
    assert cert.status == INFEASIBLE
    assert cert.feasible.is_empty()
    assert cert.worst_margin == F(-11400798, 1258897073)
    assert cert.worst_graph == "g=60;gb=0;legs=118;top=[(59,[59,59])]"


def _cert_policies():
    return ["paper_recipe", "auto_midpoint"] + _oracle_ys()


@pytest.fixture
def fresh_engines():
    """An empty engine cache before the test and after it, so that no other
    test sees an engine this one has altered."""
    certify_module._engine.cache_clear()
    yield
    certify_module._engine.cache_clear()


@pytest.mark.parametrize("g", range(4, 23))
def test_warm_certificate_equals_fresh_engine(g, fresh_engines):
    # the engine keeps its positivity analysis and witness affines across
    # requests; none of that may change a certificate
    for hbb in (False, True):
        reqs = [CertRequest(g, "exact", "auto", policy, hbb)
                for policy in _cert_policies()]
        certify_exact(reqs[-1])  # every certificate below is warm
        warm = [certify_exact(req).to_json() for req in reqs]
        for req, cert in zip(reqs, warm):
            certify_module._engine.cache_clear()
            assert certify_exact(req).to_json() == cert, (g, hbb, req.y_policy)


@pytest.mark.parametrize("hbb", [False, True])
def test_dp_self_check_runs_on_warm_evaluate(hbb, monkeypatch, fresh_engines):
    y = recipe_y(31)
    certify_exact(CertRequest(31, "exact", "auto", y, hbb))
    engine = certify_module._engine(31)  # the engine that certificate used
    engine.evaluate(y, hbb)  # the witness affine is memoized by now
    monkeypatch.setattr(engine, "k0", engine.k0 + 1)
    with pytest.raises(AssertionError, match="minimization engine self-check failed"):
        engine.evaluate(y, hbb)


def test_caches_keep_the_last_genus_only():
    # a scan keeps the state of the genus it is at, not of every genus it
    # has passed, so its memory is bounded by the largest genus
    for g in range(2, 41):
        for hbb in (False, True):
            certify_exact(CertRequest(g, "exact", hbb_shape_test=hbb))
    atlas_unrank(31, 0)
    atlas_unrank(34, 0)
    assert graphs_module._atlas_index.cache_info().currsize <= 1
    assert certify_module._engine.cache_info().currsize <= 1
    # counting keeps no partition counts: each count builds its own table
    for g in range(2, 301):
        atlas_count(g)
    caches = {name for name, obj in vars(graphs_module).items()
              if hasattr(obj, "cache_info")}
    assert caches == {"_atlas_index"}


def test_hbb_self_check_runs_on_warm_evaluate(monkeypatch, fresh_engines):
    y = recipe_y(31)
    certify_exact(CertRequest(31, "exact", "auto", y, True))
    engine = certify_module._engine(31)
    _, witness, _ = engine.evaluate(y, True)
    assert witness == BANANA31  # an HBB witness
    single, (u, t) = engine._hbb_types[30]
    monkeypatch.setitem(engine._hbb_types, 30, (single, (u - 1, t)))
    with pytest.raises(AssertionError, match="HBB family self-check failed"):
        engine.evaluate(y, True)


@pytest.mark.parametrize("g", [10, 31])
def test_engine_shares_witness_vertices(g, monkeypatch):
    # the engine makes a witness vertex the first time its type wins and
    # reuses it after: building the engine makes none, and a repeated
    # evaluate at the same y makes none
    built = []

    def counting_vertex(*args):
        built.append(args)
        return TopVertex(*args)

    monkeypatch.setattr(certify_module, "TopVertex", counting_vertex)
    engine = _MinEngine(g)
    assert built == []
    ys = [F(0), F(1, 5), F(1)] + ([recipe_y(g)] if recipe_y(g) is not None else [])
    for hbb in (False, True):
        for y in ys:
            first = engine.evaluate(y, hbb)
            n_built = len(built)
            again = engine.evaluate(y, hbb)
            assert len(built) == n_built, (g, y, hbb)
            assert again == first
            assert all(a is b for a, b in zip(again[1].top_vertices,
                                              first[1].top_vertices))
    # each vertex type was made once, with the vertex's own fields
    assert len(built) == len(set(built))
    for ref, vertex in engine._vertices.items():
        assert vertex == TopVertex(*ref) and vertex.encoding == TopVertex(*ref).encoding


@pytest.mark.parametrize("g", range(2, 23))
def test_single_edge_scan_matches_fraction_oracle(g):
    engine = _MinEngine(g)
    dp_only = _MinEngine(g)
    dp_only._e1_family = []
    hbb_hull = _hbb_walk_hull(engine)
    family = []
    for h in range(1, g):  # in h order: the first of tied graphs wins
        graph = LevelGraph(g, g - h, (2 * g - 2,), (TopVertex(h, (2 * h - 1,)),))
        family.append((s_gamma_affine(graph_invariants(graph, False), g), graph))
    for y in _oracle_ys():
        for hbb in (False, True):
            value, witness, _ = dp_only.evaluate(y, False)
            for aff, graph in family:
                if aff(y) < value:
                    value, witness = aff(y), graph
            if hbb:
                scaled, ref = hbb_hull.query(y.numerator, y.denominator)
                if F(scaled, engine.den * y.denominator) < value:
                    value = F(scaled, engine.den * y.denominator)
                    witness = engine.hbb_witness(ref)
            got_value, got_witness, _ = engine.evaluate(y, hbb)
            assert got_value == value, (g, y, hbb)
            assert got_witness == witness, (g, y, hbb)


def test_single_edge_scan_keeps_the_first_of_tied_rows():
    # no two single-edge graphs tie at the minimum of a real engine (none
    # at g = 2..22), so the h-order tie-break is pinned on rows made to tie
    engine = _MinEngine(10)
    low = -1000 * engine.den  # far below every other part
    engine._e1_family = [(low, 0, aff, graph)
                         for _, _, aff, graph in engine.e1_family()]
    for y in _oracle_ys():
        value, witness, _ = engine.evaluate(y, False)
        assert value == -1000
        assert witness == engine._e1_family[0][3]


def test_single_edge_family_rejects_non_integral_coefficients(monkeypatch):
    engine = _MinEngine(10)
    monkeypatch.setattr(engine, "den", engine.den + 1)
    with pytest.raises(AssertionError, match="not integral"):
        engine.e1_family()
