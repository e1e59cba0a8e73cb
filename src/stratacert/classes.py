"""Divisor classes in the Picard basis (lambda, psi, xi, D_h, {D_Gamma})
and their exact conversion to the reduced basis (lambda, D_h, {D_Gamma}).

Boundary coordinates are keyed by canonical graph encodings.  The class
vector ``DivisorClass`` holds coordinates and does no arithmetic on them:
two classes are compared coordinate by coordinate (``coefficient_diffs``,
``==``), a missing psi entry or boundary key reading as zero.  Each class
builder reads its boundary coefficients from a per-graph helper, so that
large atlases can be processed streaming without materializing the full
boundary map.  Every boundary coefficient a builder emits (the
generalized Weierstrass class's too), and every coordinate
``reduce_class`` updates, is one Fraction built from integer numerators
and denominators: no per-graph sum, product or negation runs on
Fractions.  The rational invariants of ``graph_invariants`` (P_{-1},
kappa_bot, R_NC, b_NC) are reduced integer pairs, read here as integers;
``d_nc_class`` makes its b_NC pair the coordinate's one Fraction.  A
builder of genus g raises ValueError on a graph of another genus, naming
its encoding.

The kappa value of a bottom level is evaluated here directly on the full
bottom signature (legs plus a pole of order -p-1 per edge); the graph
module derives the same quantity through the prong identity
``kappa_bot = kappa_legs - (P - P_{-1})``, and the identity suite checks
that the two routes agree on every enumerated graph.  The pair helpers
``_canonical_pair`` and ``_w_gamma_pair`` take that direct evaluation
from their caller as an integer pair, so the identity battery evaluates
it once per graph for its kappa check and both helpers.

A whole-atlas class algebra (the context and the six classes over one
graph list) computes each graph's invariants once: ``_invariants`` keeps
the shape-on ``graph_invariants`` in the graph's memo slot
(``LevelGraph._inv``) on the first read, and every later builder reads
the memo, still checking the genus on every read.  The shape test changes
``delta_H`` alone, so the shape-off canonical class reads the memo with
``delta_H = 0``.  Every boundary dict is keyed by the memo's encoding, so
the classes of one atlas share one string per graph.  The class side's
direct bottom kappa is not memoized: it is evaluated from the bottom
signature wherever a formula reads it, so the identity suite's two kappa
routes stay independent.  ``checks``, ``certify`` and ``pullback`` call
``graph_invariants`` directly and leave the memo alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import zip_longest
from typing import Dict, Iterable, Mapping, Sequence

from .exactq import rational_str
from .graphs import (
    DELTA_IRR,
    GraphInvariants,
    LevelGraph,
    _kappa_mu_pair,
    graph_invariants,
    kappa_mu,
)

def theta(orders: Sequence[int], alpha: Sequence[int]) -> Fraction:
    """sum of a(a+1)/(2(m+1)) over paired entries of the two partitions."""
    if len(orders) != len(alpha):
        raise ValueError("theta: signature and alpha have different lengths")
    total = Fraction(0)
    for m, a in zip(orders, alpha):
        total += Fraction(a * (a + 1), 2 * (m + 1))
    return total


def kappa_over_2g(g: int) -> Fraction:
    """The recurring scale kappa_{(2g-2)} / 2g; equals (2g-2)/(2g-1)."""
    return Fraction(2 * g - 2, 2 * g - 1)


# ---------------------------------------------------------------------------
# the class vector


@dataclass(frozen=True)
class DivisorClass:
    """A divisor class with exact rational coordinates.

    ``psi`` is a tuple: length one on a single-marked-point stratum, one
    entry per marked point otherwise, empty when the class has no psi
    part.  ``boundary`` maps canonical graph encodings to coefficients.
    """

    lam: Fraction = Fraction(0)
    d_h: Fraction = Fraction(0)
    psi: tuple = ()
    xi: Fraction = Fraction(0)
    boundary: Mapping[str, Fraction] = field(default_factory=dict)

    def coefficient_diffs(self, other: "DivisorClass") -> dict:
        """Nonzero coordinates of self - other, keyed by symbol name, in one
        walk: lambda, d_h, psi_i (the shorter psi padded with zeros), xi,
        then the boundary keys, self's first and then the other's."""
        zero = Fraction(0)
        out = {}

        def put(name, a, b):
            if a != b:
                out[name] = a - b

        put("lambda", self.lam, other.lam)
        put("d_h", self.d_h, other.d_h)
        for i, (a, b) in enumerate(zip_longest(self.psi, other.psi, fillvalue=zero)):
            put(f"psi_{i + 1}", a, b)
        put("xi", self.xi, other.xi)
        for k, v in self.boundary.items():
            put(k, v, other.boundary.get(k, zero))
        for k, v in other.boundary.items():
            if k not in self.boundary:
                put(k, zero, v)
        return out

    def is_zero(self) -> bool:
        return not self.coefficient_diffs(DivisorClass())

    def __eq__(self, other) -> bool:
        if not isinstance(other, DivisorClass):
            return NotImplemented
        return not self.coefficient_diffs(other)

    def to_json(self) -> dict:
        psi: object
        if not self.psi:
            psi = "0"
        elif len(self.psi) == 1:
            psi = rational_str(self.psi[0])
        else:
            psi = [rational_str(a) for a in self.psi]
        return {
            "lambda": rational_str(self.lam),
            "d_h": rational_str(self.d_h),
            "psi": psi,
            "xi": rational_str(self.xi),
            "boundary": {k: rational_str(v) for k, v in sorted(self.boundary.items())},
        }


@dataclass(frozen=True)
class ClassContext:
    """Everything reduce() needs: the stratum signature and, per graph,
    the enhancement scale and the bottom-level kappa.

    The marked legs sit on the bottom vertex of every graph (a
    ``TopVertex`` carries none), so the bottom-level kappa is that of the
    bottom signature, and each psi_i relation runs over every graph.
    ``orders`` keeps the caller's order, which the psi entries follow.
    """

    genus: int
    orders: tuple
    ell: Mapping[str, int]
    kappa_bot: Mapping[str, Fraction]

    @classmethod
    def from_graphs(cls, genus: int, orders: Sequence[int],
                    graphs: Iterable[LevelGraph]) -> "ClassContext":
        """The context of a positive signature of total 2g - 2 over graphs
        whose bottom legs are that signature; anything else raises
        ValueError, naming the first graph whose legs differ."""
        orders = tuple(orders)
        if any(m < 1 for m in orders) or sum(orders) != 2 * genus - 2:
            raise ValueError(f"signature {orders} is not a positive partition "
                             f"of 2g - 2 = {2 * genus - 2}")
        legs = tuple(sorted(orders))
        ell: Dict[str, int] = {}
        kb: Dict[str, Fraction] = {}
        for graph in graphs:
            inv = _invariants(genus, graph)
            if graph.bottom_legs != legs:
                raise ValueError(f"graph {inv.encoding} has legs {graph.bottom_legs}, "
                                 f"not the signature {orders}")
            ell[inv.encoding] = inv.ell
            kb[inv.encoding] = kappa_mu(graph.bottom_orders())
        return cls(genus, orders, ell, kb)

    @property
    def kappa(self) -> Fraction:
        return kappa_mu(self.orders)


def reduce_class(c: DivisorClass, ctx: ClassContext) -> DivisorClass:
    """Eliminate psi and xi, leaving (lambda, D_h, boundary) coordinates.

    Uses, in order, the per-leg relation
        psi_i = (xi + sum_Gamma ell_Gamma D_Gamma) / (m_i + 1)
    and the tautological relation
        kappa_mu * xi = 12 lambda - D_h - sum_Gamma ell_Gamma kappa_bot D_Gamma.
    So with S = sum_i psi_i / (m_i + 1) and X = (xi + S) / kappa_mu, every
    boundary coordinate the context holds gains ell_Gamma (S - kappa_bot X):
    one Fraction per coordinate over the integer parts of its old value, S,
    X and kappa_bot.  Idempotent: a class with no psi/xi part is returned
    unchanged.  A class with more psi entries than the context has legs,
    or with a boundary graph the context does not hold, raises ValueError.
    """
    if len(c.psi) > len(ctx.orders):
        raise ValueError(f"reduce_class: the class has {len(c.psi)} psi entries, "
                         f"the context {len(ctx.orders)} legs")
    strays = c.boundary.keys() - ctx.ell.keys()
    if strays:
        raise ValueError(f"reduce_class: the context holds no graph {min(strays)}")
    boundary = dict(c.boundary)
    s = sum((coeff / (m + 1) for coeff, m in zip(c.psi, ctx.orders) if coeff),
            Fraction(0))
    xi = c.xi + s
    if not any(c.psi) and not xi:
        return DivisorClass(c.lam, c.d_h, (), Fraction(0), boundary)
    x = xi / ctx.kappa
    sn, sd = s.numerator, s.denominator
    xn, xd = x.numerator, x.denominator
    den = sd * xd
    zero = Fraction(0)
    for enc, ell in ctx.ell.items():
        kb = ctx.kappa_bot[enc]
        kn, kd = kb.numerator, kb.denominator
        old = boundary.get(enc, zero)
        od = old.denominator
        boundary[enc] = Fraction(
            old.numerator * den * kd + ell * od * (sn * xd * kd - xn * kn * sd),
            od * den * kd)
    return DivisorClass(c.lam + 12 * x, c.d_h - x, (), Fraction(0), boundary)


# ---------------------------------------------------------------------------
# per-graph boundary coefficients (streaming-friendly)


# The helpers below take the graph's invariants from the caller, so one
# graph_invariants call can serve every coefficient of the assembly check.
# Only the canonical coefficient reads delta_H, the one invariant that
# depends on the shape test.  Each coefficient is one Fraction built from
# integer numerators and denominators: the builders below negate or scale
# a helper's integer pair, not its Fraction, and the assembly check reads
# the pairs and builds none.


def _invariants(g: int, graph: LevelGraph, hbb_shape_test: bool = True) -> GraphInvariants:
    """graph_invariants of a graph a genus-g class is built over, read
    from the graph's memo (filled here on the first read, with the shape
    test on); a graph of another genus raises ValueError naming its
    encoding, on every read."""
    try:
        inv = graph._inv
    except AttributeError:
        inv = graph_invariants(graph)
        object.__setattr__(graph, "_inv", inv)
    if inv.genus != g:
        raise ValueError(f"graph {inv.encoding} has genus {inv.genus}, "
                         f"not the class's genus {g}")
    # delta_H is the one field the shape test changes
    return inv if hbb_shape_test else inv._replace(delta_H=0)


def _canonical_pair(inv: GraphInvariants, kappa_bot: tuple) -> tuple:
    """-(ell kappa_bot - Q (ell N_bot - 1)) - delta_H Q, Q = kappa/2g =
    (2g-2)/(2g-1), as an unreduced (numerator, denominator) pair, with
    kappa_bot = a/b the caller's pair by direct signature evaluation
    (``_kappa_mu_pair`` of the bottom orders): over (2g-1) b."""
    g = inv.genus
    a, b = kappa_bot
    return ((2 * g - 2) * (inv.ell * inv.N_bot - 1 - inv.delta_H) * b
            - (2 * g - 1) * inv.ell * a,
            (2 * g - 1) * b)


def _canonical_coeff(graph: LevelGraph, inv: GraphInvariants) -> Fraction:
    """The canonical coefficient (see ``_canonical_pair``), one Fraction."""
    return Fraction(*_canonical_pair(inv, _kappa_mu_pair(graph.bottom_orders())))


def _divisor_integers(g: int) -> tuple:
    """(den, hor, sep) of the effective divisor genus g uses:
    Brill--Noether for odd g, Hurwitz for even g.  Its D_h coefficient is
    -hor / den, and a boundary edge with prong p contributes hor / (den p)
    when non-separating and 6 i (g - i) sep / (den p) when it separates
    genus i from g - i."""
    if g % 2:
        return g + 3, g + 1, 1
    return (g + 8) * (3 * g - 1), 3 * g * g + 12 * g - 6, 3 * g + 4


def _divisor_numerator(inv: GraphInvariants) -> int:
    """den times b_Gamma (odd genus) or h_Gamma (even genus): ell times the
    sum of the per-edge contributions, summed on integers."""
    g = inv.genus
    _, hor, sep = _divisor_integers(g)
    total = 0
    for p, target in zip(inv.prongs, inv.delta_assignments):
        coeff = hor if target == DELTA_IRR else 6 * target * (g - target) * sep
        total += coeff * (inv.ell // p)
    return total


def wplus_w_lambda(g: int) -> Fraction:
    return Fraction(g + 11, 2 * g - 2)


def wplus_w_hor(g: int) -> Fraction:
    return Fraction(g + 3, 8 * g - 8)


def _w_gamma_pair(graph: LevelGraph, kappa_bot: tuple) -> tuple:
    """w_Gamma of the reduced form of the extra-vanishing Weierstrass class
    as an unreduced (numerator, denominator) pair: (kappa_bot / kappa) (1 +
    1/(2g-1)) - 1/(2g-1) + (v_top-1)/2 with kappa = 4g(g-1)/(2g-1), whose
    first term is a / (2(g-1) b) for kappa_bot = a/b the caller's pair by
    direct signature evaluation; over 2(g-1)(2g-1) b."""
    g = graph.genus
    a, b = kappa_bot
    return ((2 * g - 1) * (a + (g - 1) * (graph.v_top - 1) * b) - (2 * g - 2) * b,
            (2 * g - 2) * (2 * g - 1) * b)


# ---------------------------------------------------------------------------
# class builders


def scaled_canonical_class(g: int, graphs: Iterable[LevelGraph],
                           hbb_shape_test: bool = True) -> DivisorClass:
    """(kappa_{(2g-2)}/2g) c1(K) in the reduced basis.

    The HBB correction is carried on the same D_Gamma coordinate, guarded
    by the delta_H shape test.
    """
    if g < 2:
        raise ValueError("genus must be >= 2")
    boundary = {}
    for graph in graphs:
        inv = _invariants(g, graph, hbb_shape_test)
        boundary[inv.encoding] = _canonical_coeff(graph, inv)
    return DivisorClass(lam=Fraction(12), d_h=-(1 + kappa_over_2g(g)), boundary=boundary)


def d_nc_class(g: int, graphs: Iterable[LevelGraph]) -> DivisorClass:
    """The non-canonical compensation divisor: b_NC per graph, no other parts."""
    boundary = {}
    for graph in graphs:
        inv = _invariants(g, graph)
        boundary[inv.encoding] = Fraction(*inv.b_NC)
    return DivisorClass(boundary=boundary)


def _divisor_class(g: int, graphs: Iterable[LevelGraph]) -> DivisorClass:
    """The pullback of the effective divisor genus g uses."""
    den, hor, _ = _divisor_integers(g)
    boundary = {}
    for graph in graphs:
        inv = _invariants(g, graph)
        boundary[inv.encoding] = Fraction(-_divisor_numerator(inv), den)
    return DivisorClass(lam=Fraction(6), d_h=-Fraction(hor, den), boundary=boundary)


def bn_class(g: int, graphs: Iterable[LevelGraph]) -> DivisorClass:
    """The pullback Brill--Noether divisor class; odd genus >= 3 only."""
    if g < 3 or g % 2 == 0:
        raise ValueError("Brill--Noether class requires odd genus >= 3")
    return _divisor_class(g, graphs)


def hur_class(g: int, graphs: Iterable[LevelGraph]) -> DivisorClass:
    """The pullback Hurwitz divisor class; even genus >= 6 only."""
    if g < 6 or g % 2 == 1:
        raise ValueError("Hurwitz class requires even genus >= 6")
    return _divisor_class(g, graphs)


def wplus_class(g: int, graphs: Iterable[LevelGraph], form: str = "reduced") -> DivisorClass:
    """The extra-vanishing Weierstrass class on the even-spin minimal stratum.

    ``form="raw"`` is the psi/lambda/xi expression with the twist and
    vanishing-order boundary corrections; ``form="reduced"`` the
    (w_lambda, w_hor, w_Gamma) expression.  reduce_class(raw) equals
    reduced coordinate-by-coordinate.
    """
    if g < 4:
        raise ValueError("extra-vanishing Weierstrass class requires genus >= 4")
    if form == "raw":
        psi0 = Fraction(g * (g - 1) + 2, 2)
        boundary = {}
        for graph in graphs:
            # -((P - P_{-1}) / 8 + (v_top - 1) / 2) ell, P_{-1} = pn / pd
            inv = _invariants(g, graph)
            pn, pd = inv.P_minus1
            boundary[inv.encoding] = Fraction(
                -inv.ell * ((inv.P + 4 * (inv.v_top - 1)) * pd - pn), 8 * pd)
        return DivisorClass(lam=Fraction(-1), psi=(psi0,), xi=Fraction(1),
                            boundary=boundary)
    if form == "reduced":
        boundary = {}
        for graph in graphs:
            inv = _invariants(g, graph)
            num, den = _w_gamma_pair(graph, _kappa_mu_pair(graph.bottom_orders()))
            boundary[inv.encoding] = Fraction(-inv.ell * num, den)
        return DivisorClass(lam=wplus_w_lambda(g), d_h=-wplus_w_hor(g),
                            boundary=boundary)
    raise ValueError(f"unknown form: {form!r}")


def validate_weierstrass_alpha(orders: Sequence[int], alpha: Sequence[int]) -> int:
    """Check the (signature, alpha) pair of a generalized Weierstrass class.

    Requires a positive signature with even total 2g' - 2, entries
    0 <= alpha_i <= m_i, and sum(alpha) = g' - 1.  Returns g'.
    """
    if len(orders) != len(alpha):
        raise ValueError("alpha and signature have different lengths")
    if any(m < 1 for m in orders):
        raise ValueError("signature entries must be positive")
    total = sum(orders)
    if total % 2:
        raise ValueError("signature total must be even")
    g_prime = total // 2 + 1
    if any(a < 0 or a > m for a, m in zip(alpha, orders)):
        raise ValueError("alpha entries must satisfy 0 <= alpha_i <= m_i")
    if sum(alpha) != g_prime - 1:
        raise ValueError("alpha must be a partition of g' - 1")
    return g_prime


def gen_weierstrass_class(orders: Sequence[int], alpha: Sequence[int],
                          graphs: Iterable[LevelGraph], form: str = "reduced") -> DivisorClass:
    """The generalized Weierstrass class for a stratum of signature
    ``orders`` (a positive partition of 2g' - 2) and twist data ``alpha``.

    ``form="raw"`` is the psi/lambda/xi expression and reads no graph.
    ``form="reduced"`` sums over the supplied graph set, each of genus g'
    and carrying the signature legs on its bottom vertex.  The bottom
    level's theta, over those legs with their alpha and the edge legs with
    0, is then theta = theta(orders, alpha) itself, so with kappa =
    kappa_mu(orders) and kappa_bot = a/b by direct signature evaluation
    the coefficient -ell (kappa_bot (1 + theta) / kappa - theta) is one
    Fraction per graph.
    """
    g_prime = validate_weierstrass_alpha(orders, alpha)
    if form == "raw":
        psi = tuple(Fraction(a * (a + 1), 2) for a in alpha)
        return DivisorClass(lam=Fraction(-1), psi=psi, xi=Fraction(1))
    if form != "reduced":
        raise ValueError(f"unknown form: {form!r}")
    kappa = kappa_mu(orders)
    v_theta = theta(orders, alpha)
    kn, kd = kappa.numerator, kappa.denominator
    tn, td = v_theta.numerator, v_theta.denominator
    legs = tuple(sorted(orders))
    boundary = {}
    for graph in graphs:
        inv = _invariants(g_prime, graph)
        if graph.bottom_legs != legs:
            raise ValueError("graph legs do not match the signature")
        a, b = _kappa_mu_pair(graph.bottom_orders())
        boundary[inv.encoding] = Fraction(
            -inv.ell * (a * kd * (td + tn) - tn * kn * b), b * kn * td)
    lam = (12 + 12 * v_theta - kappa) / kappa
    d_h = -(1 + v_theta) / kappa
    return DivisorClass(lam=lam, d_h=d_h, boundary=boundary)


def _twist_pair(inv: GraphInvariants, alpha_bot, m_bot) -> tuple:
    """The twist improvement bound (ell // 2)(alpha_bot - m_bot / 2) + (ell
    / 8)(P - P_{-1}) as an unreduced (numerator, denominator) pair, over 8
    pd ad md for P_{-1} = pn / pd and the integers or Fractions alpha_bot =
    an / ad, m_bot = mn / md."""
    an, ad = alpha_bot.numerator, alpha_bot.denominator
    mn, md = m_bot.numerator, m_bot.denominator
    pn, pd = inv.P_minus1
    return (4 * pd * (inv.ell // 2) * (2 * an * md - mn * ad)
            + ad * md * inv.ell * (inv.P * pd - pn),
            8 * pd * ad * md)


def twist_improvement_bound(inv: GraphInvariants, alpha_bot, m_bot) -> Fraction:
    """Guaranteed coefficient gain of the twisted Weierstrass divisor."""
    return Fraction(*_twist_pair(inv, Fraction(alpha_bot), Fraction(m_bot)))
