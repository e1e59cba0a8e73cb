"""Two-level enhanced boundary graphs and their enumeration.

A graph here is a star: a unique bottom-level vertex carrying the marked
legs, and top-level vertices each joined to the bottom by one or more
edges.  On the minimal stratum the single zero lies on the bottom vertex
of every boundary graph, so a top vertex carries no leg and the canonical
encoding has no place for one.  Every edge carries an enhancement
(prong) ``p_e >= 1`` encoding a zero of order ``p_e - 1`` on its upper
branch and a pole of order ``-p_e - 1`` on its lower branch.  For the
minimal signature ``(2g-2)`` the isomorphism class of such a graph
("coarse type") is exactly the bottom genus together with the multiset
of (top genus, prong multiset) pairs, so canonical forms are obtained by
sorting -- no general graph-isomorphism machinery is needed.

Enumeration is organized around *vertex types*: a type is a pair
``(h, prongs)`` with ``h >= 1`` and ``sum(prongs) = 2h - 2 + len(prongs)``
(the per-vertex prong balance).  A type has weight ``w = h + d - 1`` where
``d = len(prongs)``, and a graph of genus g with bottom genus ``g_b`` is a
multiset of types of total weight ``g - g_b``.  Types of equal ``(w, d)``
form a *block* (the top genus is then ``h = w + 1 - d``), which makes
counting and unranking cheap: the atlas can be counted, streamed in a
fixed deterministic order, or accessed at any index without enumerating
its predecessors.  The stream walks the tree that unranking descends and
enters a branch only where the same counts say it holds a graph, so one
counting index states both the atlas's admissibility and its order.  The
walk builds each vertex type's ``TopVertex`` once, when it first enters
the type's block, and every graph it yields holds those shared vertices.
Every partition count is read from the rows of one table per genus,
P(n, at most k parts) for k <= g and n <= 2g, built one k at a time.
``vertex_blocks`` sizes the blocks from the table; the index (two rows of
g + 1 counts per block, kept for the last genus asked only) keeps it for
``partition_unrank``; ``atlas_count`` keeps no table: it sums each
weight's block sizes as the rows pass, grows one row of g + 1 counts
weight by weight by the same product, and builds no index.

The per-graph invariants are exact rationals whose per-prong sums are
taken on integers: ``graph_invariants`` gives each rational invariant as
a reduced (numerator, denominator) pair over ell = lcm(prongs) (2 ell
for R_NC), with one gcd and no Fraction, and ``kappa_mu`` builds one
Fraction over lcm |m+1| of the orders (``graph_invariants`` reads the
legs' kappa as that integer pair, unreduced).  Each ``TopVertex`` takes
its prongs' lcm, its sum of lcm // p and its encoding fragment once, when
it is built, so a vertex shared by many graphs (the stream's, or the
certify engine's witnesses') gives them all without another pass over
its prongs.  ``graph_invariants`` reads the top vertices in one loop,
which gathers the prongs, N_top, each vertex's share of the prong sums,
the edge classes, the delta targets and the HBB shape together, and
returns a named tuple, which is immutable and cheap to build.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Iterable, Iterator, NamedTuple, Sequence

from .exactq import lcm_list, rational_str, reduced_pair

NCT = "NCT"
RBT = "RBT"
OCT = "OCT"
EDB = "EDB"

DELTA_IRR = "irr"


@dataclass(frozen=True, slots=True)
class TopVertex:
    """A top-level vertex: genus and prong multiset.  It carries no marked
    leg, since every leg of a graph sits on its bottom vertex.

    Construction also computes, once, the vertex's share of every graph
    that holds it: ``encoding``, its fragment ``(h,[p,...])`` of the
    canonical encoding; ``lcm``, the lcm of its prongs (1 with no prong);
    and ``shares``, the sum of lcm // p over its prongs.  A vertex with a
    prong below 1 still constructs, with ``lcm`` and ``shares`` 0, so that
    ``validate`` can report it.  The three are derived from genus and
    prongs and take no part in ``==``, ``hash`` or ``repr``; a stream or an
    engine that shares one vertex per type shares them too."""

    genus: int
    prongs: tuple
    encoding: str = field(init=False, compare=False, repr=False)
    lcm: int = field(init=False, compare=False, repr=False)
    shares: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        ps = tuple(sorted(self.prongs))
        setattr_ = object.__setattr__
        setattr_(self, "prongs", ps)
        setattr_(self, "encoding", f"({self.genus},[{','.join(map(str, ps))}])")
        if ps and ps[0] < 1:  # sorted, so the least prong decides
            lcm = shares = 0
        else:
            lcm = math.lcm(*ps)
            shares = sum([lcm // p for p in ps])
        setattr_(self, "lcm", lcm)
        setattr_(self, "shares", shares)

    @property
    def degree(self) -> int:
        return len(self.prongs)

    def sort_key(self):
        return (self.genus, self.prongs)


@dataclass(frozen=True, slots=True)
class LevelGraph:
    """A two-level enhanced level graph with a unique bottom vertex.

    ``_inv`` is the divisor-class side's memo of the graph's
    ``graph_invariants`` with the shape test on.  Construction leaves it
    unset; the first class builder (or ``ClassContext.from_graphs``) that
    reads the graph fills it, and every later one reads it, so a
    whole-atlas class algebra computes each graph's invariants once.  It
    holds the shape-on invariants only: the shape test changes ``delta_H``
    alone, so a shape-off reader derives its invariants from the memo with
    ``delta_H = 0``.  The memo takes no part in ``==``, ``hash`` or
    ``repr``, and it does not travel: a pickled or copied graph is rebuilt
    from its four fields."""

    genus: int
    bottom_genus: int
    bottom_legs: tuple
    top_vertices: tuple
    _inv: GraphInvariants = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "bottom_legs", tuple(sorted(self.bottom_legs)))
        tops = tuple(sorted(self.top_vertices, key=TopVertex.sort_key))
        object.__setattr__(self, "top_vertices", tops)

    def __reduce__(self):
        # the frozen-slots pickle state reads every field, the unset memo too
        return (type(self), (self.genus, self.bottom_genus, self.bottom_legs,
                             self.top_vertices))

    @property
    def edge_count(self) -> int:
        return sum(v.degree for v in self.top_vertices)

    @property
    def v_top(self) -> int:
        return len(self.top_vertices)

    def prongs(self) -> tuple:
        """All prongs, in canonical (vertex, prong) order."""
        return tuple([p for v in self.top_vertices for p in v.prongs])

    def bottom_orders(self) -> tuple:
        """Leg orders on the bottom plus a pole of order -p-1 per edge."""
        return self.bottom_legs + tuple([-p - 1 for v in self.top_vertices
                                         for p in v.prongs])


# ---------------------------------------------------------------------------
# canonical encoding


def canonical_encoding(graph: LevelGraph) -> str:
    """Bit-exact canonical text form; equality iff coarse-type isomorphism.

    It joins the fragments each ``TopVertex`` formats once, when it is
    built, so a vertex shared by many graphs is formatted once for all."""
    legs = ",".join(map(str, graph.bottom_legs))
    tops = ",".join([v.encoding for v in graph.top_vertices])
    return f"g={graph.genus};gb={graph.bottom_genus};legs={legs};top=[{tops}]"


def _list_re(item: str) -> str:
    """A comma-separated list of ``item``: possibly empty, no empty item."""
    return f"(?:{item}(?:,{item})*)?"


_PRONGS = _list_re("[0-9]+")
_TOP_RE = re.compile(r"\(([0-9]+),\[(" + _PRONGS + r")\]\)")
_ENC_RE = re.compile(
    r"g=([0-9]+);gb=([0-9]+);legs=(" + _list_re("-?[0-9]+") + r");top=\["
    + "(" + _list_re(r"\([0-9]+,\[" + _PRONGS + r"\]\)") + r")\]")


def parse_canonical_encoding(text: str) -> LevelGraph:
    """The graph a canonical encoding names.  The whole text must match:
    every vertex and every list item, comma-separated with none empty;
    vertices and prongs may come in any order."""
    m = _ENC_RE.fullmatch(text.strip())
    if not m:
        raise ValueError(f"bad graph encoding: {text!r}")
    g, gb = int(m.group(1)), int(m.group(2))
    legs = tuple(int(x) for x in m.group(3).split(",") if x)
    tops = tuple(
        TopVertex(int(h), tuple(int(p) for p in ps.split(",") if p))
        for h, ps in _TOP_RE.findall(m.group(4))
    )
    return LevelGraph(g, gb, legs, tops)


# ---------------------------------------------------------------------------
# validation


def validate(graph: LevelGraph) -> list:
    """Check the full invariant battery; return the violated invariants.

    One loop reads each top vertex once: its own checks, in vertex order,
    and the edge count, top genus and N_top the graph's balances need."""
    problems = []
    g = graph.genus
    g_b = graph.bottom_genus
    tops = graph.top_vertices
    v_top = len(tops)
    if g_b < 0:
        problems.append("bottom genus negative")
    if v_top < 1:
        problems.append("no top-level vertex")
    e = top_genus = n_top = 0
    for v in tops:
        h = v.genus
        d = len(v.prongs)
        if h < 0:
            problems.append("top vertex genus negative")
        # lcm is 0 on a vertex with a prong below 1
        if not v.lcm or d < 1:
            problems.append("prong must be >= 1 on every edge")
        if sum(v.prongs) != 2 * h - 2 + d:
            problems.append("prong balance violated at top vertex")
        if h == 0 and d < 3:
            problems.append("unstable genus-0 top vertex")
        e += d
        top_genus += h
        n_top += 2 * h - 1 + d
    if g_b + top_genus + e - v_top != g:
        problems.append("genus balance violated")
    legs = graph.bottom_legs
    # with the prong and genus balances, the bottom vertex's degree balance
    if sum(legs) != 2 * g - 2:
        problems.append("degree balance violated at bottom vertex: "
                        "legs do not total 2g - 2")
    # every leg is a zero of the differential; legs are sorted
    if legs and legs[0] < 1:
        problems.append("bottom leg order must be >= 1")
    if g_b == 0 and len(legs) + e < 3:
        problems.append("bottom stability violated")
    if n_top < 1:
        problems.append("nonemptiness violated: N_top < 1")
    if 2 * g_b + e - v_top < 1:
        problems.append("nonemptiness violated: N_bot < 1")
    return problems


# ---------------------------------------------------------------------------
# invariants


def _kappa_mu_pair(orders: Sequence[int]) -> tuple:
    """kappa_mu(orders) as an unreduced (numerator, denominator) pair.

    The sum is taken on integers over L = lcm |m+1|: each term is
    m(m+2) (L // (m+1)), exact for negative m+1 too.
    """
    # lcm() of nothing is 1, and it takes absolute values
    big = math.lcm(*[m + 1 for m in orders if m != -1])
    num = 0
    for m in orders:
        if m != -1:
            num += m * (m + 2) * (big // (m + 1))
    return num, big


def kappa_mu(orders: Sequence[int]) -> Fraction:
    """sum of m(m+2)/(m+1) over entries m != -1 (simple poles excluded)."""
    return Fraction(*_kappa_mu_pair(orders))


class GraphInvariants(NamedTuple):
    """Derived per-graph quantities used by the divisor-class formulas.

    A named tuple: immutable and hashable like a frozen dataclass, but
    built in one tuple allocation instead of a setattr per field.  The
    rational invariants P_minus1, kappa_bot, R_NC and b_NC are reduced
    (numerator, denominator) integer pairs with a positive denominator;
    their readers take the integers, and only outputs build a Fraction."""

    genus: int
    encoding: str
    prongs: tuple
    P: int
    P_minus1: tuple
    ell: int
    edges: int
    v_top: int
    N_top: int
    N_bot: int
    kappa_bot: tuple
    edge_classes: tuple
    delta_assignments: tuple
    R_NC: tuple
    b_NC: tuple
    delta_H: int


# twice the R_NC weight of each edge class, so that the NCT weight 1/2 is
# an integer
_RNC_WEIGHT2 = {NCT: 1, RBT: 2, OCT: 4, EDB: 8}


def graph_invariants(graph: LevelGraph, hbb_shape_test: bool = True) -> GraphInvariants:
    """Compute all derived invariants of a valid graph.

    ``hbb_shape_test=False`` forces ``delta_H = 0`` (sensitivity switch;
    the HBB correction then drops out of every downstream class).

    One loop over the top vertices gathers the prongs, N_top, each edge's
    class and delta target, and the HBB shape.  An edge at a top vertex of
    degree >= 2 is non-separating (NCT).  A separating edge is EDB when it
    is the graph's unique edge and one of its ends has genus 1, RBT when
    the component below it is a single rational vertex, and OCT otherwise.
    The HBB shape holds when every top vertex is joined to the bottom by
    one edge or by a pair of edges with equal prong, and at least one pair
    occurs; the hyperelliptic-membership and prong-matching conditions of
    the full definition are deliberately not tested, a conservative
    overestimate that can only lower the certified coefficients.  The
    per-prong sums are taken on integers over
    ell = lcm(prongs), with share ell // p per prong, and summed vertex by
    vertex from what each ``TopVertex`` computed once when it was built: a
    vertex of prong lcm l_v and shares s_v = sum(l_v // p) holds the share
    (ell // l_v) s_v, and all its edges have one class.  So P_{-1} =
    sum(shares) / ell, and R_NC = S / (2 ell) with S the sum of twice each
    edge class's weight times its share, so b_NC = ell R_NC - 1 = (S - 2) /
    2.  Each of P_minus1, kappa_bot, R_NC and b_NC is a reduced
    (numerator, denominator) pair with a positive denominator, divided by
    one gcd; no Fraction is built.  A prong below 1 raises ValueError, as
    :func:`lcm_list` words it.
    """
    g = graph.genus
    g_b = graph.bottom_genus
    tops = graph.top_vertices
    v_top = len(tops)
    # lcm() of nothing is 1; a vertex with a prong below 1 has lcm 0
    ell = math.lcm(*[v.lcm for v in tops])
    if not ell:
        lcm_list(graph.prongs())  # raises, naming the first prong below 1
    prongs = []
    classes = []
    deltas = []
    n_top = share_sum = twice_rnc = 0
    # HBB shape: every vertex has one edge or an equal-prong pair, and at
    # least one has the pair
    shape = True
    has_pair = False
    for v in tops:
        ps = v.prongs
        d = len(ps)
        h = v.genus
        prongs += ps
        n_top += 2 * h - 1 + d
        share = ell // v.lcm * v.shares
        share_sum += share
        if d == 1:
            # separating: EDB only as the graph's unique edge
            if v_top > 1:
                cls = OCT
            elif h == 1 or g_b == 1:
                cls = EDB
            elif g_b == 0:
                cls = RBT
            else:
                cls = OCT
            classes.append(cls)
            deltas.append(min(h, g - h))
        else:
            cls = NCT
            classes += (NCT,) * d
            deltas += (DELTA_IRR,) * d
            if d == 2 and ps[0] == ps[1]:
                has_pair = True
            else:
                shape = False
        twice_rnc += _RNC_WEIGHT2[cls] * share
    p_sum = sum(prongs)
    e = len(prongs)
    # kappa of the bottom level via the prong identity kappa_legs - (P -
    # P_{-1}); the direct signature evaluation lives in the divisor-class
    # module and the two routes are compared by the identity suite.
    legs_num, legs_den = _kappa_mu_pair(graph.bottom_legs)
    kappa_bot = reduced_pair(legs_num * ell - legs_den * (p_sum * ell - share_sum),
                             legs_den * ell)
    return GraphInvariants(
        genus=g,
        encoding=canonical_encoding(graph),
        prongs=tuple(prongs),
        P=p_sum,
        P_minus1=reduced_pair(share_sum, ell),
        ell=ell,
        edges=e,
        v_top=v_top,
        N_top=n_top,
        N_bot=2 * g_b + e - v_top,
        kappa_bot=kappa_bot,
        edge_classes=tuple(classes),
        delta_assignments=tuple(deltas),
        R_NC=reduced_pair(twice_rnc, 2 * ell),
        b_NC=reduced_pair(twice_rnc - 2, 2),
        delta_H=1 if (hbb_shape_test and shape and has_pair) else 0,
    )


# ---------------------------------------------------------------------------
# partitions into exactly k parts (nondecreasing tuples, lexicographic)


def partition_rows(g: int) -> Iterator[list]:
    """T[0], ..., T[g], one new list each, where T[k][n] = P(n, at most k
    parts) = P(n, parts <= k) for n <= 2g; P(n, exactly k parts) =
    T[k][n - k].  Row k is grown from row k - 1."""
    row = [1] + [0] * (2 * g)
    yield row
    for k in range(1, g + 1):
        row = list(row)
        for n in range(k, 2 * g + 1):
            row[n] += row[n - k]
        yield row


def partition_table(g: int) -> list:
    """The table T[k][n] of :func:`partition_rows`, every row kept."""
    return list(partition_rows(g))


def partitions_exact(n: int, k: int, min_part: int = 1) -> Iterator[tuple]:
    """Yield partitions of n into exactly k nondecreasing parts, lex order."""
    if k == 0:
        if n == 0:
            yield ()
        return
    if k == 1:
        if n >= min_part:
            yield (n,)
        return
    for p in range(min_part, n // k + 1):
        for rest in partitions_exact(n - p, k - 1, p):
            yield (p,) + rest


def partition_unrank(n: int, k: int, rank: int, table: list) -> tuple:
    """The rank-th partition (0-based) in the order of partitions_exact,
    counted from a :func:`partition_table` with n <= 2g and k <= g: those
    of first part p and the rest >= p number P(n - k p, at most k - 1)."""
    if not 0 <= rank < (table[k][n - k] if n >= k else 0):
        raise IndexError("partition rank out of range")
    parts = []
    p = 1
    while k > 1:
        c = table[k - 1][n - k * p]
        if rank >= c:
            rank -= c
            p += 1
            continue
        parts.append(p)
        n, k = n - p, k - 1
    return (*parts, n) if k else ()


# ---------------------------------------------------------------------------
# vertex-type blocks


@dataclass(frozen=True)
class Block:
    """All vertex types of one (weight, degree); their genus is fixed."""

    weight: int
    degree: int
    genus: int
    size: int


def vertex_blocks(table: list) -> tuple:
    """Every block of weight <= g, sized from ``partition_table(g)``: its
    types are the partitions of 2w - d into d parts, P(2w - 2d, at most d)."""
    return tuple(Block(w, d, w + 1 - d, table[d][2 * (w - d)])
                 for w in range(1, len(table)) for d in range(1, w + 1))


# ---------------------------------------------------------------------------
# counting, enumeration, unranking
#
# Graphs of genus g with bottom genus g_b are multisets of vertex types of
# total weight W = g - g_b.  Constraints:
#   * dimension filter: N_bot = 2 g_b + E - v >= 1; automatic for
#     g_b >= 1, for g_b = 0 it requires some type of degree >= 2;
#   * raw mode (filter off) keeps only bottom stability: for g_b = 0 the
#     unique single-edge multiset {one degree-1 type of weight W} is out.
#     Raw mode is streamed and counted only; unranking and sampling read
#     the filtered atlas.


def _multiset_count(n: int, k: int) -> int:
    if k == 0:
        return 1
    return math.comb(n + k - 1, k)


def _grow(row: list, weight: int, size: int, g: int) -> list:
    """``row`` times (1 - x^weight)^(-size), cut off above x^g: multisets
    counted by total weight, with ``size`` more types of that weight."""
    out = list(row)
    for k in range(1, g // weight + 1):
        ways = _multiset_count(size, k)
        shift = k * weight
        out[shift:] = [a + ways * b for a, b in zip(out[shift:], row)]
    return out


class _AtlasIndex:
    """Counting tables over blocks for one genus, and its partition table.

    Both block tables are filled iteratively from the last block backwards so
    that no recursion depth scales with the number of blocks (~g^2/2).
    """

    def __init__(self, g: int):
        if g < 2:
            raise ValueError("genus must be >= 2")
        self.g = g
        self.table = partition_table(g)
        self.blocks = vertex_blocks(self.table)
        # any[b][budget] = number of multisets from blocks[b:] of that
        # total weight; d1 restricts to degree-1 blocks
        any_row = d1_row = [1] + [0] * g
        self._any = [any_row]
        self._d1 = [d1_row]
        for blk in reversed(self.blocks):
            any_row = _grow(any_row, blk.weight, blk.size, g)
            if blk.degree == 1:
                d1_row = _grow(d1_row, blk.weight, blk.size, g)
            self._any.append(any_row)
            self._d1.append(d1_row)
        self._any.reverse()
        self._d1.reverse()

    def count(self, budget: int, b: int, need_d2: bool = False) -> int:
        """Multisets of types from blocks[b:] with total weight = budget;
        with ``need_d2``, only those holding a type of degree >= 2."""
        total = self._any[b][budget]
        return total - self._d1[b][budget] if need_d2 else total

    def count_for_bottom(self, g_b: int) -> int:
        """Graphs of the filtered atlas with bottom genus ``g_b`` < g."""
        return self.count(self.g - g_b, 0, need_d2=g_b == 0)


_atlas_index = lru_cache(maxsize=1)(_AtlasIndex)


def atlas_count(g: int, dimension_filter: bool = True) -> int:
    """Number of coarse types in the genus-g atlas (exact).  It keeps no
    partition table and builds no index: the blocks of one weight act as
    one, and it grows one row of g + 1 counts."""
    if g < 2:
        raise ValueError("genus must be >= 2")
    # sizes[w]: the types of weight w; row d adds the size of block (w, d),
    # as vertex_blocks reads it, to every weight w >= d (row 0 adds only
    # to the unused weight 0)
    sizes = [0] * (g + 1)
    for d, row in enumerate(partition_rows(g)):
        sizes[d:] = [s + t for s, t in zip(sizes[d:], row[::2])]
    any_row = [1] + [0] * g
    for w in range(1, g + 1):
        any_row = _grow(any_row, w, sizes[w], g)
    # any_row[budget] graphs per bottom genus g - budget; at g_b = 0 the
    # filter drops the degree-1-only multisets, raw mode the single edge.
    # There is one degree-1 type per weight, so those multisets are the
    # partitions of g: p(g) = T[g][g], read from the last row.
    return sum(any_row[1:]) - (row[g] if dimension_filter else 1)


def _unrank_multiset(n: int, k: int, rank: int) -> list:
    """rank-th k-multiset of indices in [0, n) as ((index, mult), ...) runs,
    in the order of ``combinations_with_replacement(range(n), k)``."""
    out = []
    i = 0
    while k > 0:
        for m in range(k, 0, -1):
            c = _multiset_count(n - i - 1, k - m)
            if rank < c:
                out.append((i, m))
                k -= m
                i += 1
                break
            rank -= c
        else:
            i += 1
    return out


def enumerate_level_graphs(g: int, dimension_filter: bool = True) -> Iterator[LevelGraph]:
    """Stream the genus-g atlas, one graph per coarse type.

    The stream is a depth-first walk of the tree :func:`atlas_unrank`
    descends, and a branch is entered only when the same counts that
    unranking reads say it holds a graph; so the filtered stream matches
    :func:`atlas_unrank` index-for-index, and no stream builds a dead-end
    choice.
    Order: bottom genus ascending, then multisets of vertex types in block
    order (per block: multiplicity zero first, then ascending, prong
    multisets lexicographically).  The graphs of one stream share one
    TopVertex per vertex type.
    """
    idx = _atlas_index(g)
    blocks = idx.blocks
    # block index -> one TopVertex per prong multiset, for this walk; every
    # graph of the walk shares these vertices
    partitions: dict = {}

    # The tree at block b holds the subtree that skips b first, then
    # multiplicities 1, 2, ... of b.  Unrolled, the first *used* block is
    # visited in descending order; iterating that way keeps the generator
    # depth at the number of used blocks (<= g) instead of the number of
    # blocks (~g^2/2), which would overflow the stack.
    def walk(b: int, budget: int, need_d2: bool, chosen):
        if budget == 0:
            yield chosen
            return
        for bi in range(len(blocks) - 1, b - 1, -1):
            blk = blocks[bi]
            if blk.weight > budget:
                continue
            need_after = need_d2 and blk.degree == 1
            parts = None
            for k in range(1, budget // blk.weight + 1):
                rest = budget - k * blk.weight
                if not idx.count(rest, bi + 1, need_after):
                    continue
                if parts is None:  # built only for a block the walk enters
                    parts = partitions.get(bi)
                    if parts is None:
                        parts = partitions[bi] = tuple(
                            TopVertex(blk.genus, pr) for pr in partitions_exact(
                                2 * blk.genus - 2 + blk.degree, blk.degree))
                for combo in combinations_with_replacement(parts, k):
                    yield from walk(bi + 1, rest, need_after, chosen + combo)

    legs = (2 * g - 2,)
    for g_b in range(g):
        raw_bottom = g_b == 0 and not dimension_filter
        for chosen in walk(0, g - g_b, g_b == 0 and dimension_filter, ()):
            graph = LevelGraph(g, g_b, legs, chosen)
            # bottom stability: a rational bottom needs two edges
            if not raw_bottom or graph.edge_count >= 2:
                yield graph


def atlas_unrank(g: int, rank: int) -> LevelGraph:
    """The graph at a given index of the (filtered) stream, without
    enumerating predecessors."""
    idx = _atlas_index(g)
    if rank < 0:
        raise IndexError("negative atlas rank")
    for g_b in range(g):
        n_here = idx.count_for_bottom(g_b)
        if rank >= n_here:
            rank -= n_here
            continue
        return LevelGraph(g, g_b, (2 * g - 2,),
                          _unrank_choice(idx, g - g_b, rank, g_b == 0))
    raise IndexError("atlas rank out of range")


def _unrank_choice(idx: _AtlasIndex, budget: int, rank: int, need_d2: bool):
    """The rank-th multiset of total weight ``budget`` as a tuple of
    TopVertex, one per vertex as the walk builds it; while ``need_d2`` is
    set, only multisets that still take a degree >= 2 type count."""
    blocks = idx.blocks
    chosen = ()
    b = 0
    while budget > 0:
        blk = blocks[b]
        skip = idx.count(budget, b + 1, need_d2)
        if rank < skip:
            b += 1
            continue
        rank -= skip
        need_after = need_d2 and blk.degree == 1
        parts_total = 2 * blk.genus - 2 + blk.degree
        for k in range(1, budget // blk.weight + 1):
            suffix = idx.count(budget - k * blk.weight, b + 1, need_after)
            ways = _multiset_count(blk.size, k)
            if suffix and rank < ways * suffix:
                combo_rank, rank = divmod(rank, suffix)
                for j, m in _unrank_multiset(blk.size, k, combo_rank):
                    prongs = partition_unrank(parts_total, blk.degree, j,
                                              idx.table)
                    chosen += (TopVertex(blk.genus, prongs),) * m
                budget -= k * blk.weight
                need_d2 = need_after
                b += 1
                break
            rank -= ways * suffix
        else:
            raise AssertionError("unranking walked off the block list")
    return chosen


def sample_atlas(g: int, count: int) -> list:
    """Deterministic spread sample of the (filtered) atlas: ``count`` >= 1
    graphs at evenly spaced ranks."""
    if count < 1:
        raise ValueError(f"sample count must be at least 1, got {count}")
    idx = _atlas_index(g)  # unranking's index; the atlas is counted once
    total = sum([idx.count_for_bottom(g_b) for g_b in range(g)])
    if count >= total:
        return list(enumerate_level_graphs(g))
    if count == 1:
        ranks = [0]
    else:
        ranks = sorted({(i * (total - 1)) // (count - 1) for i in range(count)})
    return [atlas_unrank(g, r) for r in ranks]


# ---------------------------------------------------------------------------
# atlas export


_CSV_COLUMNS = (
    "encoding", "P", "P_inv", "ell", "v_top", "N_bot",
    "kappa_bot", "b_NC", "delta_H", "edge_classes",
)


def write_atlas(graphs: Iterable[LevelGraph], out, fmt: str = "text",
                hbb_shape_test: bool = True) -> None:
    """Write an atlas to a file object as text, json, or csv; a rational
    invariant's pair is written as one Fraction's ``p/q``."""
    def rational(pair):
        return rational_str(Fraction(*pair))

    if fmt == "text":
        for graph in graphs:
            out.write(canonical_encoding(graph) + "\n")
    elif fmt == "json":
        rows = []
        for graph in graphs:
            inv = graph_invariants(graph, hbb_shape_test)
            rows.append({
                "encoding": inv.encoding,
                "invariants": {
                    "P": inv.P,
                    "P_inv": rational(inv.P_minus1),
                    "ell": inv.ell,
                    "v_top": inv.v_top,
                    "N_top": inv.N_top,
                    "N_bot": inv.N_bot,
                    "kappa_bot": rational(inv.kappa_bot),
                    "R_NC": rational(inv.R_NC),
                    "b_NC": rational(inv.b_NC),
                    "delta_H": inv.delta_H,
                    "edge_classes": list(inv.edge_classes),
                },
            })
        json.dump(rows, out, indent=1)
        out.write("\n")
    elif fmt == "csv":
        writer = csv.writer(out)
        writer.writerow(_CSV_COLUMNS)
        for graph in graphs:
            inv = graph_invariants(graph, hbb_shape_test)
            writer.writerow([
                inv.encoding, inv.P, rational(inv.P_minus1), inv.ell,
                inv.v_top, inv.N_bot, rational(inv.kappa_bot),
                rational(inv.b_NC), inv.delta_H,
                "|".join(inv.edge_classes),
            ])
    else:
        raise ValueError(f"unknown atlas format: {fmt}")


def iter_atlas(lines: Iterable[str]) -> Iterator[tuple]:
    """(line number, graph) for each encoding line of a text atlas;
    blank lines and ``#`` comments are skipped.  A line that is not a
    canonical encoding raises ValueError naming its line number."""
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if line and not line.startswith("#"):
            try:
                graph = parse_canonical_encoding(line)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            yield lineno, graph
