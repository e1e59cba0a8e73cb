"""Positivity certificates for the boundary coefficients of the perturbed
canonical class.

The certified object is the convex combination

    (kappa/2g) (K - D_NC)  -  y (12/w_lambda) [W+]  -  (1-y) 2 [BN or Hur]

whose lambda part cancels identically and whose horizontal and boundary
coefficients are the affine functions s_hor(y) and s_Gamma(y).  A genus is
certified by a rational y in [0,1] making s_hor and every s_Gamma strictly
positive.

Two exact engines are provided.

* A streaming engine that enumerates the atlas and intersects positivity
  intervals graph by graph; its time grows with the atlas.  Each graph's
  s_Gamma is stated once on integer (numerator, denominator) pairs:
  ``_coefficients`` sums its terms on integers (the divisor term over
  den * ell, den the divisor's denominator), ``_s_gamma_pairs`` combines
  them into the pairs of the intercept and the slope, and
  ``s_gamma_affine`` builds one Fraction from each of the two (the
  identity battery reads the same pairs and builds none).  The engine
  reads the same pairs, each reduced by one gcd and none made a
  Fraction, and folds them a chunk at a time into the few rows that are
  least at some y in [0, 1], so that it holds one chunk and those rows.
  A fold scales its rows to integers over the lcm of their
  denominators, its own denominator, and compares integers; so does each
  query, over the kept rows, and only its least row becomes Fractions.

* A minimization engine that computes min_Gamma s_Gamma(y) at any rational
  y without touching individual graphs.  s_Gamma is additive over the
  top-vertex types of the graph, so the minimum over all graphs of a given
  genus is an unbounded-knapsack optimum over per-weight minima of
  per-type affine contributions.  Within a (weight, degree) block a type's
  contribution is affine in iota = sum of its reciprocal prongs, so only
  the two types that extremise iota (the balanced partition and
  (1, ..., 1, n-d+1)) can attain the block minimum; the engine never
  enumerates the other vertex types.  Two small families escape the
  additive model and are handled on their own: the two single-edge graphs
  whose edge is an elliptic dumbbell rather than plain compact type are
  listed, and the banana-backbone shapes (their delta_H correction
  carries a non-additive -Q/lcm) are minimised at each queried y by a
  short loop over candidate lcms L, one small knapsack row per L, grown
  from the row of L/p (p the least prime factor of L) and kept only while
  a later L can still read it; the best multiset with a pair is one pair
  plus the row's entry at the remaining weight.
  The bottom genus is one of its items, and one packed integer per
  multiset carries the value, the slope and the item counts, so the
  least entry names its graph as well.  Both
  deviations only lower s_Gamma, so the true minimum is the minimum of
  the three parts.  The positivity interval of the concave lower envelope
  is then located by exact Newton steps on active pieces, once per engine
  and delta_H mode.

The engines give the same status, y, feasible set, worst margin and graph
count; the test suite checks this on full atlases at small genus.  Among
graphs tied at the minimum they may name different witnesses, and with
them the notes that quote the witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count
from typing import Callable, Dict, Iterable, Optional, Union

from .exactq import (
    EMPTY,
    UNIT,
    AffineInY,
    RationalInterval,
    affine_positivity_interval,
    least_rows,
    rational_str,
    reduced_pair,
)
from .classes import kappa_over_2g
from .graphs import (
    DELTA_IRR,
    EDB,
    OCT,
    GraphInvariants,
    LevelGraph,
    TopVertex,
    atlas_count,
    canonical_encoding,
    enumerate_level_graphs,
    graph_invariants,
)

BRILL_NOETHER = "brill_noether"
HURWITZ = "hurwitz"

CERTIFIED = "certified"
INFEASIBLE = "infeasible"
BOUNDS_CONFLICT = "coarse_bounds_conflict"

RECIPE_EPS = Fraction(1, 100000)


def _divisor(g: int) -> tuple:
    """(name, den, hor, sep) of the effective divisor genus g uses.

    The genus decides it: Brill--Noether for odd g, Hurwitz for even g.
    Its horizontal ratio is hor / den, and a boundary edge with prong p
    contributes 2 hor / (den p) when non-separating and
    12 i (g - i) sep / (den p) when it separates genus i from g - i.
    """
    if g % 2:
        return BRILL_NOETHER, g + 3, g + 1, 1
    return HURWITZ, (g + 8) * (3 * g - 1), 3 * g * g + 12 * g - 6, 3 * g + 4


def resolve_effdiv(g: int, effdiv: str) -> str:
    """The divisor genus g uses, checked against the one a request names:
    ``auto`` (or None), ``bn``/``brill_noether`` for odd g, or
    ``hur``/``hurwitz`` for even g."""
    if effdiv not in ("auto", None, "bn", BRILL_NOETHER, "hur", HURWITZ):
        raise ValueError(f"unknown effective divisor choice: {effdiv!r}")
    name = _divisor(g)[0]
    if effdiv in ("bn", BRILL_NOETHER) and name != BRILL_NOETHER:
        raise ValueError("Brill--Noether coefficients require odd genus")
    if effdiv in ("hur", HURWITZ) and name != HURWITZ:
        raise ValueError("Hurwitz coefficients require even genus")
    return name


def _check_request(req: CertRequest) -> str:
    """The divisor name of a request, after checking its genus and divisor."""
    if req.genus < 2:
        raise ValueError("genus must be >= 2")
    return resolve_effdiv(req.genus, req.effective_divisor)


def s_hor_affine(g: int) -> AffineInY:
    """The horizontal coefficient of the assembled class as a function of y.

    The slope term 12 w_hor / w_lambda simplifies to 3(g+3)/(g+11); the
    effective divisor contributes its horizontal ratio with weight 2 - 2y.
    """
    _, den, hor, _ = _divisor(g)
    ratio = Fraction(hor, den)
    slope_w = Fraction(3 * (g + 3), g + 11)
    return AffineInY(-1 - kappa_over_2g(g) + 2 * ratio, slope_w - 2 * ratio)


def y_hor(g: int) -> Fraction:
    """The horizontal positivity threshold (7g+77)/(2g^2-11g+5)."""
    den = 2 * g * g - 11 * g + 5
    if g < 7 or den <= 0:
        raise ValueError("y_hor requires g >= 7 (positive denominator)")
    return Fraction(7 * g + 77, den)


# ---------------------------------------------------------------------------
# per-graph coefficient data


@dataclass(frozen=True)
class SixCoefficients:
    """The per-graph coefficient data of the convex combination."""

    genus: int
    c_gamma: Fraction
    r_gamma: Fraction
    b_gamma_six: Fraction
    w_ratio_term: Fraction  # 12 w_Gamma / w_lambda
    w_bar: Fraction
    t1_affine: AffineInY
    t2_affine: AffineInY

    def s_gamma(self) -> AffineInY:
        """s_Gamma(y) = c_Gamma + y (12 w_Gamma / w_lambda) + (1-y) b_Gamma."""
        c, w, b = self.c_gamma, self.w_ratio_term, self.b_gamma_six
        return _affine(*_s_gamma_pairs((c.numerator, c.denominator),
                                       (w.numerator, w.denominator),
                                       (b.numerator, b.denominator)))


def _affine(intercept: tuple, slope: tuple) -> AffineInY:
    """The AffineInY of (numerator, denominator) pairs, one Fraction each."""
    return AffineInY(Fraction(*intercept), Fraction(*slope))


def _coefficients(inv: GraphInvariants, g: int) -> tuple:
    """(R_Gamma, c_Gamma, 12 w_Gamma / w_lambda, b_Gamma) of one graph, each
    an integer (numerator, denominator) pair with a positive, not
    necessarily reduced, denominator; the callers that need Fractions
    build them.

    With Q = (2g-2)/(2g-1), and the invariants' pairs kappa_bot = a/b and
    b_NC = bn/bd:
      R_Gamma = (b_NC + 1 + delta_H) / ell, over bd ell;
      c_Gamma = Q (N_bot - R_Gamma) - kappa_bot, over (2g-1) bd ell b;
      12 w_Gamma / w_lambda = 12 (kappa_bot - Q + (g-1)(v_top-1)) / (g+11),
        over (g+11)(2g-1) b, because w_lambda = (g+11)/(2g-2) and
        w_Gamma = (kappa_bot / kappa) (2g/(2g-1)) - 1/(2g-1) + (v_top-1)/2
        with kappa = 4g(g-1)/(2g-1);
      b_Gamma = sum over prongs of (2 hor, or 12 i (g-i) sep) (ell // p),
        over den ell, with (den, hor, sep) the divisor's integers.
    """
    ell = inv.ell
    a, b = inv.kappa_bot
    bn, bd = inv.b_NC
    two_g1 = 2 * g - 1
    r_num, r_den = bn + (1 + inv.delta_H) * bd, bd * ell
    c_gamma = ((2 * g - 2) * (inv.N_bot * r_den - r_num) * b - two_g1 * r_den * a,
               two_g1 * r_den * b)
    w_ratio = (12 * (two_g1 * (a + (g - 1) * (inv.v_top - 1) * b) - (2 * g - 2) * b),
               (g + 11) * two_g1 * b)
    _, den, hor, sep = _divisor(g)
    b_sum = 0
    for p, target in zip(inv.prongs, inv.delta_assignments):
        coeff = 2 * hor if target == DELTA_IRR else 12 * target * (g - target) * sep
        b_sum += coeff * (ell // p)
    return (r_num, r_den), c_gamma, w_ratio, (b_sum, den * ell)


def _s_gamma_pairs(c_gamma: tuple, w_ratio: tuple, b_six: tuple) -> tuple:
    """s_Gamma(y) = c_Gamma + y (12 w_Gamma / w_lambda) + (1-y) b_Gamma as
    the (numerator, denominator) pairs of its intercept and slope, from
    those of its three terms, unreduced with positive denominators; the
    one place the formula is written."""
    (cn, cd), (wn, wd), (bn, bd) = c_gamma, w_ratio, b_six
    return (cn * bd + bn * cd, cd * bd), (wn * bd - bn * wd, wd * bd)


def _split_pairs(inv: GraphInvariants, g: int, r_gamma: tuple, b_six: tuple) -> tuple:
    """(w_bar, T1 intercept, T1 slope, T2 intercept, T2 slope) of one graph
    from its R_Gamma and b_Gamma pairs, each an unreduced (numerator,
    denominator) pair with a positive denominator.

    With Q = (2g-2)/(2g-1), P_{-1} = pn/pd, R_Gamma = rn/rd and b_Gamma =
    bn/bd:
      w_bar = (2g-2 - P + P_{-1}) / (g+11), over (g+11) pd;
      T1 = -Q (v_top-1) + b_Gamma - P_{-1} - Q R_Gamma
           + y (12 (g-1)(v_top-1)/(g+11) - b_Gamma), over (2g-1) bd pd rd
           and (g+11) bd;
      T2 = P/(2g-1) - Q + 12 w_bar y, over 2g-1 and (g+11) pd.
    """
    (rn, rd), (bn, bd) = r_gamma, b_six
    pn, pd = inv.P_minus1
    v1 = inv.v_top - 1
    w_bar_num = (2 * g - 2 - inv.P) * pd + pn
    return ((w_bar_num, (g + 11) * pd),
            ((2 * g - 1) * (bn * pd - pn * bd) * rd
             - (2 * g - 2) * (v1 * rd + rn) * bd * pd,
             (2 * g - 1) * bd * pd * rd),
            (12 * (g - 1) * v1 * bd - (g + 11) * bn, (g + 11) * bd),
            (inv.P - 2 * g + 2, 2 * g - 1),
            (12 * w_bar_num, (g + 11) * pd))


def six_coefficients(inv: GraphInvariants, g: int) -> SixCoefficients:
    """c_Gamma, R_Gamma, the normalized effective-divisor coefficient, the
    ratio 12 w_Gamma / w_lambda, and the two-term split of s_Gamma: the
    pairs of ``_coefficients`` and ``_split_pairs``, one Fraction each."""
    r_gamma, c_gamma, w_ratio, b_six = _coefficients(inv, g)
    w_bar, t1_0, t1_1, t2_0, t2_1 = _split_pairs(inv, g, r_gamma, b_six)
    return SixCoefficients(g, Fraction(*c_gamma), Fraction(*r_gamma),
                           Fraction(*b_six), Fraction(*w_ratio), Fraction(*w_bar),
                           _affine(t1_0, t1_1), _affine(t2_0, t2_1))


def s_gamma_affine(inv: GraphInvariants, g: int) -> AffineInY:
    """s_Gamma(y) = c_Gamma + y (12 w_Gamma / w_lambda) + (1-y) b_Gamma."""
    _, c_gamma, w_ratio, b_six = _coefficients(inv, g)
    return _affine(*_s_gamma_pairs(c_gamma, w_ratio, b_six))


# ---------------------------------------------------------------------------
# requests and certificates


@dataclass(frozen=True)
class CertRequest:
    """What to certify.

    The genus alone decides the effective divisor: Brill--Noether for odd
    genus, Hurwitz for even.  ``effective_divisor`` stays a field so that
    requests built positionally keep their meaning; it accepts ``auto`` or
    the divisor the genus uses (``bn``/``brill_noether`` for odd genus,
    ``hur``/``hurwitz`` for even), and every certifier raises ValueError
    for any other value.
    """

    genus: int
    mode: str = "exact"  # "coarse" | "exact"
    effective_divisor: str = "auto"
    y_policy: Union[str, Fraction] = "auto_midpoint"  # or "paper_recipe" / fixed
    hbb_shape_test: bool = True


@dataclass(frozen=True)
class Certificate:
    genus: int
    mode: str
    effective_divisor: str
    y: Optional[Fraction]
    feasible: RationalInterval
    graph_count: int
    worst_graph: str
    worst_margin: Optional[Fraction]
    status: str
    notes: tuple = ()

    def to_json(self) -> dict:
        return {
            "genus": self.genus,
            "mode": self.mode,
            "effective_divisor": self.effective_divisor,
            "y": None if self.y is None else rational_str(self.y),
            "feasible": self.feasible.to_json(),
            "graph_count": self.graph_count,
            "worst_graph": self.worst_graph,
            "worst_margin": (None if self.worst_margin is None
                             else rational_str(self.worst_margin)),
            "status": self.status,
            "notes": list(self.notes),
        }


def recipe_y(g: int) -> Optional[Fraction]:
    """The closed-form y of the large-genus strategy; None below genus 31."""
    if g >= 47:
        return Fraction(3, 20)
    if 31 <= g <= 46:
        return y_hor(g) + RECIPE_EPS
    return None


def _choose_y(g: int, req: CertRequest, feasible: RationalInterval):
    if isinstance(req.y_policy, Fraction):
        y = req.y_policy
    elif req.y_policy == "paper_recipe":
        y = recipe_y(g)
    elif req.y_policy == "auto_midpoint":
        y = feasible.interior_point()
        if y is None and not feasible.is_empty():
            y = recipe_y(g)
    else:
        raise ValueError(f"unknown y policy: {req.y_policy!r}")
    if y is None:
        return None, INFEASIBLE
    return y, (CERTIFIED if feasible.contains(y) else INFEASIBLE)


# ---------------------------------------------------------------------------
# coarse mode


def coarse_bounds(g: int) -> RationalInterval:
    """[0,1] cut by the four closed-form threshold inequalities.

    Lower bounds: the horizontal threshold y_hor (strict), the positivity
    of the coefficient of v_top - 1, and the critical reciprocal-sum case;
    the parity-dependent upper bound makes the remaining top-level term
    positive via a previously published estimate (not re-derived here).
    """
    one = Fraction(1)
    out = UNIT.intersect(RationalInterval(y_hor(g), one, True, False))
    out = out.intersect(RationalInterval(Fraction(g + 11, 12 * g - 6), one, False, False))
    out = out.intersect(RationalInterval(Fraction(g + 12, 48 * g - 24), one, False, False))
    if g % 2:
        hi = Fraction(g - 5, 4 * g - 4)
    else:
        hi = Fraction(g * g - 7 * g, 4 * g * g + 16 * g - 8)
    return out.intersect(RationalInterval(Fraction(0), hi, False, False))


def certify_coarse(req: CertRequest) -> Certificate:
    """The closed-form certificate of the large-genus strategy.

    Certifies exactly when the recipe defines a y (genus >= 31, or an
    explicit fixed y) and that y satisfies the four bounds.
    """
    g = req.genus
    effdiv = _check_request(req)
    if g < 7:
        return Certificate(
            genus=g, mode="coarse", effective_divisor=effdiv, y=None,
            feasible=EMPTY, graph_count=0, worst_graph="", worst_margin=None,
            status=INFEASIBLE,
            notes=("the horizontal threshold is undefined below genus 7",))
    feasible = coarse_bounds(g)
    # the closed-form bounds justify only the published recipe y; an
    # arbitrary midpoint is not backed by the external estimate
    y = req.y_policy if isinstance(req.y_policy, Fraction) else recipe_y(g)
    notes = [
        "coarse mode: the upper bound on y encodes a previously published "
        "estimate for the non-compact-type term; exact mode is self-contained",
    ]
    if y is None:
        status = INFEASIBLE
        margin = None
        notes.append("no recipe y is defined below genus 31")
    elif feasible.is_empty():
        status = BOUNDS_CONFLICT
        margin = None
    else:
        status = CERTIFIED if feasible.contains(y) else INFEASIBLE
        # the four bounds lie inside [0, 1], so the nearer end of feasible
        # gives their smallest slack at y
        margin = min(y - feasible.lo, feasible.hi - y)
    if status == CERTIFIED and g % 2 == 0:
        value = s_hor_affine(g)(y)
        sign = "positive" if value > 0 else "NOT positive"
        notes.append(
            "hurwitz-substituted horizontal coefficient at the chosen y is "
            f"{sign} ({rational_str(value)}); reported, not patched")
    return Certificate(
        genus=g, mode="coarse", effective_divisor=effdiv, y=y,
        feasible=feasible, graph_count=0, worst_graph="",
        worst_margin=margin, status=status, notes=tuple(notes))


# ---------------------------------------------------------------------------
# exact mode: streaming reference engine


def _hbb_note(hbb: bool) -> str:
    if hbb:
        return ("delta_H from the conservative shape test (banana backbones "
                "counted whether or not the hyperelliptic and spin conditions hold)")
    return "delta_H forced to 0 (shape test disabled; sensitivity run)"


# the streaming engine holds this many rows besides the ones it keeps
_STREAM_CHUNK = 256


def certify_exact_streaming(req: CertRequest) -> Certificate:
    """Reference implementation: enumerate every graph.

    Its time grows with the atlas, about 3 s per delta_H mode at genus 15
    (129,448 graphs) and 10-15 s at genus 17 (525,906) on a 2-core container
    with Python 3.11.7; its memory does not.  The rows are collected
    _STREAM_CHUNK at a time, and each full chunk is folded with the rows
    kept so far into the few that are least at some y in [0, 1]
    (``exactq.least_rows``), so the engine holds one chunk and those
    rows, never the atlas.

    Agrees with :func:`certify_exact` on everything but the witness: the
    status, y, feasible set, worst margin and graph count are equal, while
    worst_graph and the notes that name it may differ where graphs tie at
    the minimum.  The test suite relies on the agreement.
    """
    g = req.genus
    _check_request(req)
    kept, graph_count = _fold_stream(
        _stream_row(graph_invariants(graph, req.hbb_shape_test), g)
        for graph in enumerate_level_graphs(g))
    return _exact_certificate(req, _Analysis(_row_minimum(kept)), graph_count)


def _stream_row(inv: GraphInvariants, g: int) -> tuple:
    """One graph's row as ``_row_minimum`` takes it."""
    intercept, slope = _s_gamma_pairs(*_coefficients(inv, g)[1:])
    return reduced_pair(*intercept), reduced_pair(*slope), inv.encoding


def _fold_stream(rows: Iterable) -> tuple:
    """(the rows that are least at some y in [0, 1], the number of rows)
    of an iterable of rows, folded _STREAM_CHUNK at a time."""
    kept, chunk, n = [], [], 0
    for n, row in enumerate(rows, 1):
        chunk.append(row)
        if len(chunk) == _STREAM_CHUNK:
            kept, chunk = least_rows(kept + chunk), []
    if chunk:
        kept = least_rows(kept + chunk)
    return kept, n


def _row_minimum(rows: list) -> Callable:
    """evaluate(y) -> (least row value at y, its encoding, its affine) over
    a nonempty list of (intercept, slope, encoding) rows, the intercept and
    slope of each s_Gamma as reduced (numerator, denominator) integer
    pairs; ties go to the least encoding.

    The rows are rewritten in place as integers (u, t, encoding) over den,
    the lcm of every row's denominators, so that u + t y = s_Gamma(y) den;
    a query compares u yd + t yn at y = yn / yd and builds Fractions for
    the winner only.  den comes from the rows alone, not from the
    minimization engine, so that the two engines stay independent.
    """
    den = 1
    for (_, ad), (_, sd), _ in rows:
        den = math.lcm(den, ad, sd)
    for i, ((an, ad), (sn, sd), enc) in enumerate(rows):
        rows[i] = (an * (den // ad), sn * (den // sd), enc)

    def evaluate(y: Fraction):
        yn, yd = y.numerator, y.denominator
        best = best_row = None
        for row in rows:
            u, t, enc = row
            value = u * yd + t * yn
            if best is None or value < best or (value == best and enc < best_row[2]):
                best, best_row = value, row
        u, t, enc = best_row
        return (Fraction(best, den * yd), enc,
                AffineInY(Fraction(u, den), Fraction(t, den)))

    return evaluate


# ---------------------------------------------------------------------------
# exact mode: minimization engine
#
# Scaled-integer model.  Fix g, and with it the effective divisor; write
#   Q = (2g-2)/(2g-1),  kappa = 4g(g-1)/(2g-1),  J = 12/(g+11).
# A graph with bottom genus g_b and vertex-type multiplicities m_k has
#   s(y) = C(y) + 2 Q g_b + sum_k m_k (u_k + t_k y)
# where, with sigma = sum of the type's prongs, iota = sum of their
# reciprocals, rho = its R_NC contribution under the generic edge classes
# (NCT for degree >= 2, OCT for degree 1) and beta = its normalized
# effective-divisor coefficient:
#   u_k = Q (d_k - 1) - Q rho_k + (sigma_k - iota_k) + beta_k
#   t_k = J (g - 1) - J (sigma_k - iota_k) - beta_k
#   C(y) = -kappa + y J (g - 1).
# Everything is an integer over DEN = 2 (2g-1) (g+11) B Lambda, with
# Lambda = lcm(1..2g-1) and B the effective divisor's denominator.
# Within a (weight, degree) block (u_k, t_k) is affine in iota_k, so the
# per-weight lines are built from the two types of extreme iota only
# (_iota_extremes says why that suffices), and from genus 13 on of
# degrees 1, 2 and w only (_MinEngine._build_type_lines says why).
# _type_scalars takes sigma = 2h - 2 + d from the prong balance, and rho
# and beta as multiples of iota, whose one sum runs over the type's
# distinct parts (at most two in either extreme).

_LEMMA_GENUS = 13


def _iota_extremes(n: int, d: int) -> tuple:
    """The partitions of n into d parts that minimise and maximise
    iota = sum of reciprocals, in the order of ``partitions_exact``.

    They are the only vertex types of a (weight, degree) block that can
    attain the block's minimum.  For d >= 2, sigma = n is fixed by the
    block, rho = iota / 2 and beta = irr iota / B, so every line u + t y of
    the block is affine in iota; at any y the line of a type with iota
    strictly between the extremes is a convex combination of the two
    extreme lines and never lies below both.  Since 1/p is convex, iota is Schur-convex
    (Marshall--Olkin, Inequalities: Theory of Majorization), so its range is
    spanned by the balanced partition (minimum) and (1, ..., 1, n-d+1)
    (maximum).  For d = 1 both are (n,).
    """
    q, r = divmod(n, d)
    spread = (1,) * (d - 1) + (n - d + 1,)
    balanced = (q,) * (d - r) + (q + 1,) * r
    return (spread,) if spread == balanced else (spread, balanced)


def _hbb_add(row: list, w: int, x: int) -> None:
    """Add an HBB item of weight ``w`` and packed value ``x`` to the
    knapsack row in place, in any number of copies.

    row[b] is the least packed value of a multiset of total weight b.  The
    bottom genus, of weight 1, starts every row, so no entry is empty.  A
    row is a minimum over multisets, so it does not depend on the order in
    which its items were added.
    """
    for b in range(w, len(row)):
        cand = row[b - w] + x
        if cand < row[b]:
            row[b] = cand


def _least_prime(n: int) -> int:
    """The least prime factor of n >= 2."""
    for p in range(2, math.isqrt(n) + 1):
        if n % p == 0:
            return p
    return n


def _least_line(lines, yn: int, yd: int) -> tuple:
    """(u yd + t yn, t, ref) of the least of ``lines``, each (t, u, ref),
    at y = yn/yd, yd > 0: least value, then least slope, then the first
    given.  At a breakpoint the least slope is the line that stays least
    just right of it."""
    lines = iter(lines)
    best_t, u, best_ref = next(lines)
    best = u * yd + best_t * yn
    for t, u, ref in lines:
        value = u * yd + t * yn
        if value < best or (value == best and t < best_t):
            best, best_t, best_ref = value, t, ref
    return best, best_t, best_ref


class _MinEngine:
    """Exact minimum of s_Gamma(y) over the full genus-g atlas."""

    def __init__(self, g: int):
        self.g = g
        self.graph_count = atlas_count(g)
        self.lam = math.lcm(*range(1, 2 * g))
        _, self.bden, self.bhor, self.bsep = _divisor(g)
        self.den = 2 * (2 * g - 1) * (g + 11) * self.bden * self.lam
        self.q_num = (2 * g - 2) * (self.den // (2 * g - 1))  # Q * DEN
        self.k0 = -4 * g * (g - 1) * (self.den // (2 * g - 1))  # -kappa * DEN
        self.k1 = 12 * (g - 1) * (self.den // (g + 11))  # J (g-1) * DEN
        self._build_type_lines()
        # (single, pair) scalars per top genus h < g for the HBB search: the
        # pair (g, [g, g]) weighs g + 1, and the single (g, [2g - 1]) leaves
        # no weight for the pair every HBB graph holds
        self._hbb_types = {h: (self._type_scalars(h, 1, (2 * h - 1,)),
                               self._type_scalars(h, 2, (h, h)))
                           for h in range(1, g)}
        # The HBB knapsack ranks a multiset by one integer,
        #   value * pack + slope * R + counts,
        # where counts is the mixed-radix number whose digits are the item
        # counts in search order, g_b first: an item of weight w occurs at
        # most g // w times, and R is the product of the radices.  A
        # multiset of weight <= g has at most g items, so |slope| <= g max|t|
        # and slope * R + counts stays under pack / 2 in size: integer order
        # is the order of (value, slope, g_b, ns_1, np_1, ns_2, ...).
        # _hbb_digits holds (place value, radix) per item in search order.
        weights = [1] + [w for h in range(1, g) for w in (h, h + 1)]
        self._hbb_digits = []
        place = 1
        for w in reversed(weights):
            self._hbb_digits.append((place, g // w + 1))
            place *= g // w + 1
        self._hbb_digits.reverse()
        self._hbb_radix = place  # R
        self._hbb_pack = (2 * g * max(abs(t) for types in self._hbb_types.values()
                                      for _, t in types) + 3) * place
        self._e1_family = None
        # one TopVertex per witness vertex type (h, parts), made the first
        # time a witness holds it (_vertex)
        self._vertices: Dict[tuple, TopVertex] = {}
        self._dp_affines: Dict[LevelGraph, AffineInY] = {}
        self._analyses: Dict[bool, _Analysis] = {}

    # -- per-type contributions ------------------------------------------

    def _type_scalars(self, h: int, d: int, parts: tuple):
        g, den = self.g, self.den
        iota_den = sum(parts.count(p) * (den // p) for p in set(parts))
        if d == 1:
            i = min(h, g - h)
            rho_den = 2 * iota_den
            beta_den = 12 * i * (g - i) * self.bsep * iota_den // self.bden
        else:
            rho_den = iota_den // 2
            beta_den = 2 * self.bhor * iota_den // self.bden
        diff_den = (2 * h - 2 + d) * den - iota_den  # (sigma - iota) * DEN
        q_rho = rho_den * (2 * g - 2) // (2 * g - 1)
        u = (d - 1) * self.q_num - q_rho + diff_den + beta_den
        t = self.k1 - diff_den // (g + 11) * 12 - beta_den
        return u, t

    def _build_type_lines(self):
        """type_lines[w] = (line_d1, lines_d2): the line (t, u, ref) of the
        one weight-w vertex type of degree 1, ref = (w, (2w - 1,)), and a
        tuple of lines of the weight-w types of degree >= 2, ref = (h,
        parts), empty for w = 1.

        Below genus 13 (_LEMMA_GENUS) each degree d = 2..w gives its two
        iota extremes.  From genus 13 on only d = 2 and d = w (the one
        type h = 1 with every prong 1) do, on this lemma: for 3 <= d < w
        both lines of degree d lie strictly above the degree-2 and
        degree-w lines' envelope at every y in [0, 1].  So at every y in
        [0, 1], the only y ``evaluate`` accepts, no dropped line reaches
        the least kept line, and the least line, ties included, is the
        same as over every degree.

        Proof.  A type of degree d >= 2 and weight w has h = w + 1 - d and
        sigma = 2w - d, so with beta = hor / den its value at y is
            V = A(y) + B(y) d + C(y) iota,
            B = Q - 1 + J y,   C = -Q/2 - 1 + 2 beta + (J - 2 beta) y,
        with A depending on w and y only.  C falls with y (2 beta > J) and
        C(0) > 0, so C >= 0 exactly for y <= y_C, its root.
        * Where C < 0, each degree's least line is its spread extreme, of
          iota d - 1 + 1/(2w - 2d + 1), which is strictly convex in d; so V
          is strictly concave in d and least only at d = 2 or d = w.
        * Where C >= 0, each degree's least line is its balanced extreme,
          of iota 2d/q - 2w/(q (q + 1)) with q = (2w - d) // d, which is
          convex and piecewise linear in d; so V is convex in d, and d = 2
          is its strict minimum once V(3) - V(2) =
          B + C (iota_bal(3) - iota_bal(2)) > 0.  That is affine in y, so
          it holds on all of [0, min(y_C, 1)] once it holds at both ends.
        The test suite checks both ends exactly for 13 <= g <= 400 and
        3 <= w <= g, and that they fail at g = 12.  For g > 400: beta >=
        1 - 11/(3g) for either divisor, so C(0) > 0.48; by HM-AM
        iota_bal(3) >= 9/(2w - 3), and iota_bal(2) = 2/(w - 1), so
        iota_bal(3) - iota_bal(2) >= (5w - 3)/((2w - 3)(w - 1)) > 5/(2g).
        At y = 0 the difference is then above -1/(2g - 1) + 1.2/g > 0; at
        min(y_C, 1) it is at least B, positive because y_C > 0.48/2 lies
        above B's root (g + 11)/(12 (2g - 1)) < 1/20.
        """
        g = self.g
        self.type_lines: Dict[int, tuple] = {}
        for w in range(1, g + 1):
            u, t = self._type_scalars(w, 1, (2 * w - 1,))
            line_d1 = (t, u, (w, (2 * w - 1,)))
            degrees = (2, w) if g >= _LEMMA_GENUS and w > 3 else range(2, w + 1)
            lines_d2 = []
            for d in degrees:
                h = w + 1 - d
                for parts in _iota_extremes(2 * h - 2 + d, d):
                    u, t = self._type_scalars(h, d, parts)
                    lines_d2.append((t, u, (h, parts)))
            self.type_lines[w] = line_d1, tuple(lines_d2)

    # -- exhaustively enumerated special families --------------------------

    def e1_family(self) -> list:
        """The single-edge graphs whose edge is an elliptic dumbbell (EDB).

        Those are the top genus h = 1 and h = g - 1 (one graph at g = 2).
        For 2 <= h <= g - 2 the edge is plain compact type with bottom
        genus at least 2, so the graph's s_Gamma is exactly the additive
        model's, which the knapsack already bounds; under evaluate's
        strict < such a row could never win, so none is built.

        Rows are (u, t, affine, graph) in h order, where u + t y is
        s_Gamma(y) * DEN; building the rows checks that both are integers.
        """
        if self._e1_family is None:
            g = self.g
            rows = []
            for h in sorted({1, g - 1}):
                graph = LevelGraph(g, g - h, (2 * g - 2,),
                                   (self._vertex((h, (2 * h - 1,))),))
                inv = graph_invariants(graph, hbb_shape_test=False)
                aff = s_gamma_affine(inv, g)
                u, t = aff.intercept * self.den, aff.slope * self.den
                if u.denominator != 1 or t.denominator != 1:
                    raise AssertionError("single-edge coefficients are not "
                                         "integral over the engine denominator")
                rows.append((u.numerator, t.numerator, aff, graph))
            self._e1_family = rows
        return self._e1_family

    def _hbb_minimum(self, yn: int, yd: int, limit: int):
        """(scaled value, ref) of the least shape-HBB graph at y = yn/yd
        strictly below ``limit``, or None.

        The family is a multiset of single-edge vertices (h, [2h-1]) and
        equal-prong pairs (h, [h, h]) with at least one pair.  Its per-type
        contributions match the generic additive model (OCT / NCT edge
        classes arise automatically); only the correction -Q / lcm(prongs)
        is graph-global.  The minimum is a loop over candidate lcms
        L = 1, 2, ... on this lemma.  Let K_L be the least additive value,
        bottom term 2 g_b Q included, of a multiset with a pair whose
        singles have 2h-1 | L and whose pairs have h | L.  A graph with
        prong lcm ell | L has value A - Q/ell <= A - Q/L, with equality at
        L = ell; so the minimum is min over L of K_L - Q/L.

        Each L has one unbounded-knapsack row (``_hbb_add``) over the items
        whose prong divides L: the bottom genus (prong 1, weight 1, 2 Q per
        unit, slope 0), the singles and the pairs of top genus h <= g - 1
        (``_hbb_types`` says why h = g never occurs).  A multiset with a
        pair is one pair plus any multiset of the remaining weight, so K_L
        is the least x + row[g - w] over the pairs (w, x) whose prong
        divides L.  L = 1's row holds the items of prong 1, and each later
        L's row is grown from the row of L/p, p the least prime factor of
        L, by the items whose prong divides L but not L/p.  With K the same
        minimum over every item, K - Q/L bounds every L' >= L from below,
        so the loop stops at the first L where it exceeds the best value.
        The stop is strict: at a breakpoint a later L can tie in value and
        win on slope.  The row of L is read only to grow some L p >= 2 L,
        and the best value only falls, so the row is kept only while K -
        Q/(2 L) does not exceed the best value; otherwise the loop stops
        before 2 L.

        An L that is not the lcm ell of its items needs no test.  Its row
        is ell's, and ell divides lcm(1, ..., 2g-1), which divides the
        scaled Q; so its candidate, with scale // L <= scale / L <
        scale // ell, is strictly worse than ell's, which the loop met
        first.

        Ties go as in a depth-first search over g_b, then h = 1, 2, ...
        with (ns, np) ascending: least value, then least slope, then least
        g_b, then the count vector (ns_1, np_1, ns_2, np_2, ...) least in
        lexicographic order.  The rows rank a multiset by one packed
        integer that holds its counts too (``_hbb_pack``), and the packed
        integer of a multiset does not depend on which of its pairs is
        singled out; so each L gives one key, (value - Q/L, the rest of the
        packed integer), and only the best key is decoded into a graph.
        """
        g, pack, radix = self.g, self._hbb_pack, self._hbb_radix
        digits = self._hbb_digits
        half = pack // 2
        # (prong, weight, packed value) of each single and pair in search
        # order
        items = []
        for (h, ((us, ts), (up, tp))), (place_s, _), (place_p, _) in zip(
                self._hbb_types.items(), digits[1::2], digits[2::2]):
            items.append((2 * h - 1, h, (us * yd + ts * yn) * pack + ts * radix + place_s))
            items.append((h, h + 1, (up * yd + tp * yn) * pack + tp * radix + place_p))
        pairs = items[1::2]
        const = self.k0 * yd + self.k1 * yn
        bottom = 2 * self.q_num * yd * pack + digits[0][0]
        row = [b * bottom for b in range(g + 1)]  # the bottom genus alone
        every = list(row)
        for _, w, x in items:
            _hbb_add(every, w, x)
        k_value = const + (min(x + every[g - w] for _, w, x in pairs) + half) // pack
        for prong, w, x in items:
            if prong == 1:
                _hbb_add(row, w, x)
        # L -> the row over the items whose prong divides L, kept while a
        # later L * p may still read it
        rows = {}
        scale = self.q_num * yd  # Q / L at y, scaled, is scale // L
        best = limit, -pack  # below the key of any multiset of value limit
        for L in count(1):
            if (k_value - best[0]) * L > scale:
                break
            if L > 1:
                divisor = L // _least_prime(L)
                row = list(rows[divisor])
                for prong, w, x in items:
                    if L % prong == 0 and divisor % prong:
                        _hbb_add(row, w, x)
            key = min(x + row[g - w] for prong, w, x in pairs if L % prong == 0)
            value = (key + half) // pack
            best = min(best, (const + value - scale // L, key - value * pack))
            if (k_value - best[0]) * 2 * L <= scale:
                rows[L] = row
        return None if best[0] == limit else (best[0], self._hbb_ref(best[1]))

    def _hbb_ref(self, low: int) -> tuple:
        """(g_b, ((h, ns, np), ...)) over the h used, of the HBB multiset
        whose packed integer has ``low`` below its value."""
        counts = low % self._hbb_radix
        g_b, *digits = (counts // place % base for place, base in self._hbb_digits)
        return g_b, tuple((h, ns, np_) for h, ns, np_ in
                          zip(count(1), digits[::2], digits[1::2]) if ns or np_)

    def hbb_witness(self, ref) -> LevelGraph:
        """The HBB graph an ``_hbb_ref`` names, over the engine's shared
        vertices (``_vertex``)."""
        g_b, spec = ref
        vertex = self._vertex
        tops = []
        for h, ns, np_ in spec:
            if ns:
                tops += (vertex((h, (2 * h - 1,))),) * ns
            if np_:
                tops += (vertex((h, (h, h))),) * np_
        return LevelGraph(self.g, g_b, (2 * self.g - 2,), tuple(tops))

    def _vertex(self, ref: tuple) -> TopVertex:
        """The engine's one TopVertex of type ref = (h, parts), made the
        first time a witness holds it and shared by every later witness,
        so its encoding fragment, lcm and shares are computed once per
        engine.  Types no witness holds get none: building every type's
        vertex with the type lines would slow the cold certificate."""
        found = self._vertices.get(ref)
        if found is None:
            found = self._vertices[ref] = TopVertex(*ref)
        return found

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, y: Fraction, hbb: bool):
        """(min over the atlas of s_Gamma(y), witness graph, active affine).

        The minimum has three parts: the knapsack over the per-weight least
        lines, the single-edge EDB family, and, with the shape test on, the
        HBB family.
        An HBB graph whose prong lcm ell divides L is worth at most its
        additive value minus Q/L, with equality at L = ell, so the HBB
        minimum is min over L of (least additive value with prongs dividing
        L) - Q/L (``_hbb_minimum``).  It replaces the other parts' witness
        only when strictly lower, and its witness is checked against the
        per-graph pipeline.

        From genus 13 on the kept per-weight lines give the least line only
        on [0, 1] (``_build_type_lines``), so y outside it raises
        ValueError."""
        g = self.g
        yn, yd = y.numerator, y.denominator
        if yd <= 0:
            raise ValueError("denominator must be positive")
        if not 0 <= yn <= yd:
            raise ValueError("y must lie in [0, 1], where the kept type lines are exact")
        best_all, best_d2 = self._weight_minima(yn, yd)
        # unbounded knapsack over weights
        dp = [0] * (g + 1)
        choice = [0] * (g + 1)
        for total in range(1, g + 1):
            best = None
            pick = 0
            for w in range(1, total + 1):
                cand = dp[total - w] + best_all[w][0]
                if best is None or cand < best:
                    best, pick = cand, w
            dp[total] = best
            choice[total] = pick
        const = self.k0 * yd + self.k1 * yn
        best_value = None
        best_plan = None
        for w, entry in best_d2.items():  # g_b = 0 needs a degree >= 2 type
            cand = const + entry[0] + dp[g - w]
            if best_value is None or cand < best_value:
                best_value, best_plan = cand, (0, w)
        for g_b in range(1, g):
            cand = const + 2 * g_b * self.q_num * yd + dp[g - g_b]
            if best_value is None or cand < best_value:
                best_value, best_plan = cand, (g_b, None)
        scale = self.den * yd
        witness = self._reconstruct(best_plan, best_all, best_d2, choice)
        affine = self._dp_convention_affine(witness)
        if affine(y) != Fraction(best_value, scale):
            raise AssertionError("minimization engine self-check failed")
        for u, t, aff, graph in self.e1_family():
            scaled = u * yd + t * yn
            if scaled < best_value:
                best_value, witness, affine = scaled, graph, aff
        if hbb:
            found = self._hbb_minimum(yn, yd, best_value)
            if found is not None:
                best_value, ref = found
                witness = self.hbb_witness(ref)
                affine = s_gamma_affine(graph_invariants(witness), g)
                if affine(y) != Fraction(best_value, scale):
                    raise AssertionError("HBB family self-check failed")
        return Fraction(best_value, scale), witness, affine

    def _weight_minima(self, yn: int, yd: int):
        """(best_all, best_d2) at y = yn/yd: per weight w, the least line,
        as ``_least_line`` gives it, over the weight-w types of any degree,
        and for w >= 2 over those of degree >= 2.  The degree >= 2 lines
        are scanned once; the degree-1 line counts as given first, so it
        wins an exact tie with their least."""
        best_all, best_d2 = {}, {}
        for w, ((t, u, ref), lines_d2) in self.type_lines.items():
            best = u * yd + t * yn, t, ref
            if lines_d2:
                least = best_d2[w] = _least_line(lines_d2, yn, yd)
                if least[:2] < best[:2]:
                    best = least
            best_all[w] = best
        return best_all, best_d2

    def _reconstruct(self, plan, best_all, best_d2, choice) -> LevelGraph:
        """The knapsack's witness graph, over the engine's shared vertices
        (``_vertex``): the line refs (h, parts) name its vertex types."""
        g_b, d2_weight = plan
        vertex = self._vertex
        tops = []
        rest = self.g - g_b
        if d2_weight is not None:
            tops.append(vertex(best_d2[d2_weight][2]))
            rest -= d2_weight
        while rest:
            w = choice[rest]
            tops.append(vertex(best_all[w][2]))
            rest -= w
        return LevelGraph(self.g, g_b, (2 * self.g - 2,), tuple(tops))

    def _dp_convention_affine(self, graph: LevelGraph) -> AffineInY:
        """s_Gamma under the additive-model conventions (plain compact type
        on single-edge graphs, delta_H = 0); engine self-check only.

        Memoized per witness graph: the affine does not depend on y, and
        the few witnesses recur across evaluate calls."""
        affine = self._dp_affines.get(graph)
        if affine is None:
            inv = graph_invariants(graph, hbb_shape_test=False)
            if inv.edges == 1 and EDB in inv.edge_classes:
                # the OCT weight: R_NC = 2/p, and b_NC = ell R_NC - 1 = 1
                # since ell = p
                inv = inv._replace(edge_classes=(OCT,),
                                   R_NC=reduced_pair(2, inv.prongs[0]), b_NC=(1, 1))
            affine = self._dp_affines[graph] = s_gamma_affine(inv, self.g)
        return affine

    # -- y-independent analysis ----------------------------------------------

    def analysis(self, hbb: bool) -> "_Analysis":
        """The positivity analysis of min s_Gamma in one delta_H mode.

        It depends only on (g, hbb), so it is made once per engine
        and mode and shared by every certificate asked of the engine.
        """
        found = self._analyses.get(hbb)
        if found is None:
            def evaluate(y: Fraction):
                value, witness, affine = self.evaluate(y, hbb)
                return value, canonical_encoding(witness), affine

            found = self._analyses[hbb] = _Analysis(evaluate)
        return found


# ---------------------------------------------------------------------------
# concave envelope analysis


def _max_concave(evaluate: Callable, lo: Fraction, hi: Fraction, fa, fb):
    """Exact maximum on [lo, hi] of a concave piecewise-affine function.

    ``evaluate(y) -> (value, witness, affine)`` where the affine is the
    active piece at y (a global upper bound, tight at y); ``fa`` and ``fb``
    are its results at lo and hi, which the caller already holds.
    """
    best_y, best = (lo, fa) if fa[0] >= fb[0] else (hi, fb)
    a, b = lo, hi
    for _ in range(10000):
        sa, sb = fa[2].slope, fb[2].slope
        if sa <= 0:
            return (a, fa) if fa[0] >= best[0] else (best_y, best)
        if sb >= 0:
            return (b, fb) if fb[0] >= best[0] else (best_y, best)
        y = (fb[2].intercept - fa[2].intercept) / (sa - sb)
        upper = fa[2](y)
        fy = evaluate(y)
        if fy[0] > best[0]:
            best_y, best = y, fy
        if fy[0] == upper:
            return y, fy
        if fy[2].slope > 0:
            a, fa = y, fy
        elif fy[2].slope < 0:
            b, fb = y, fy
        else:
            return y, fy
    raise AssertionError("concave maximization did not converge")


def _root_from_outside(evaluate: Callable, outer: Fraction, f_outer):
    """Exact zero of a concave piecewise-affine F, approached from a point
    with F(outer) <= 0 toward the positive region."""
    b, fb = outer, f_outer
    for _ in range(10000):
        if fb[0] == 0:
            return b
        aff = fb[2]
        if aff.slope == 0:
            raise AssertionError("constant active piece at a negative point")
        r = aff.root()
        fr = evaluate(r)
        if fr[0] > 0:
            raise AssertionError("Newton step crossed the root")
        if fr[0] == 0:
            return r
        b, fb = r, fr
    raise AssertionError("root finding did not converge")


class _Analysis:
    """The y-independent part of an exact certificate.

    For a concave piecewise-affine F on [0, 1], given by
    ``evaluate(y) -> (F(y), witness encoding, active affine)``: the
    positivity interval {y in [0,1] : F(y) > 0}, found when the analysis
    is made, and F's maximum, found the first time it is asked for.  F is
    evaluated once at each end of [0, 1], for both.
    """

    def __init__(self, evaluate: Callable):
        self.evaluate = evaluate
        self._ends = evaluate(Fraction(0)), evaluate(Fraction(1))
        self._maximum = None
        self.interval = self._positivity_interval()

    def maximum(self):
        """(value, witness, affine) of evaluate at the maximum of F."""
        if self._maximum is None:
            _, self._maximum = _max_concave(
                self.evaluate, Fraction(0), Fraction(1), *self._ends)
        return self._maximum

    def _positivity_interval(self) -> RationalInterval:
        evaluate = self.evaluate
        zero, one = Fraction(0), Fraction(1)
        f0, f1 = self._ends
        if f0[0] > 0 and f1[0] > 0:
            # concavity: positive at both ends means positive throughout
            return UNIT
        if f0[0] <= 0 and f1[0] <= 0 and self.maximum()[0] <= 0:
            return EMPTY
        if f0[0] > 0:
            lo, lo_open = zero, False
        else:
            lo, lo_open = _root_from_outside(evaluate, zero, f0), True
        if f1[0] > 0:
            hi, hi_open = one, False
        else:
            hi, hi_open = _root_from_outside(evaluate, one, f1), True
        return RationalInterval(lo, hi, lo_open, hi_open)


# ---------------------------------------------------------------------------
# the public exact certifier


_engine = lru_cache(maxsize=1)(_MinEngine)


def _exact_certificate(req: CertRequest, analysis: _Analysis,
                       graph_count: int) -> Certificate:
    """Shared assembly of an exact-mode certificate.

    ``analysis`` is that of y -> min s_Gamma(y) in the request's delta_H
    mode.  The feasible set is the positivity region of the concave
    minimum, intersected with the horizontal constraint; for an infeasible
    result the reported margin is the best achievable minimum over [0, 1].
    """
    g = req.genus
    f_interval = analysis.interval
    feasible = f_interval.intersect(
        affine_positivity_interval(s_hor_affine(g), UNIT))
    y, status = _choose_y(g, req, feasible)
    notes = [_hbb_note(req.hbb_shape_test)]
    if status == CERTIFIED:
        margin, worst, _ = analysis.evaluate(y)
    else:
        margin, worst, aff = analysis.maximum()
        if max(aff(Fraction(0)), aff(Fraction(1))) < 0:
            notes.append(f"graph with negative coefficient for every y: {worst}")
        if not f_interval.is_empty() and y is not None and not feasible.contains(y):
            notes.append("boundary coefficients admit positive y but the "
                         "chosen y or the horizontal constraint fails")
    return Certificate(
        genus=g, mode="exact", effective_divisor=_divisor(g)[0], y=y,
        feasible=feasible, graph_count=graph_count, worst_graph=worst,
        worst_margin=margin, status=status, notes=tuple(notes))


def certify_exact(req: CertRequest) -> Certificate:
    """Exact full-atlas certificate via the minimization engine.

    Equivalent to intersecting the positivity intervals of s_hor and of
    every enumerated graph's s_Gamma; the minimum over graphs is found by
    weight-indexed optimization instead of per-graph streaming, so the
    runtime is polynomial in the genus.  The engine, with the atlas count
    and its positivity analysis for each delta_H mode, is kept for the last
    genus asked, so a later request for it costs about one evaluate call.
    """
    _check_request(req)
    engine = _engine(req.genus)
    analysis = engine.analysis(req.hbb_shape_test)
    return _exact_certificate(req, analysis, engine.graph_count)


def cert_requests(g_from: int, g_to: int, mode: str = "coarse", *,
                  y_policy: Union[str, Fraction] = "paper_recipe",
                  hbb_shape_test: bool = True) -> list:
    """One request per genus in [g_from, g_to]."""
    if not 2 <= g_from <= g_to:
        raise ValueError("need 2 <= g_from <= g_to")
    return [CertRequest(g, mode, y_policy=y_policy, hbb_shape_test=hbb_shape_test)
            for g in range(g_from, g_to + 1)]


def certify_request(req: CertRequest) -> Certificate:
    """The certificate of a request, in its mode."""
    if req.mode == "coarse":
        return certify_coarse(req)
    if req.mode == "exact":
        return certify_exact(req)
    raise ValueError(f"unknown certification mode: {req.mode!r}")


def scan(g_from: int, g_to: int, mode: str = "coarse", *,
         y_policy: Union[str, Fraction] = "paper_recipe",
         hbb_shape_test: bool = True) -> list:
    """One certificate per genus in [g_from, g_to]."""
    return [certify_request(req) for req in cert_requests(
        g_from, g_to, mode, y_policy=y_policy, hbb_shape_test=hbb_shape_test)]
