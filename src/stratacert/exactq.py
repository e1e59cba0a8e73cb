"""Exact scalar arithmetic: rationals, affine functions of the mixing
parameter y, and rational intervals.

Everything downstream of this module is built on `fractions.Fraction`
and on integer (numerator, denominator) pairs; no floating point is used
anywhere in the certification pipeline.  Intervals
support open/closed endpoints because positivity of the boundary
coefficients is a strict inequality: a certificate must exhibit a rational
y strictly inside the feasible set.  Their endpoints are finite: the
mixing parameter lives in [0, 1], and every interval is cut to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

RationalLike = Union[Fraction, int]


def rational_str(x: RationalLike) -> str:
    """Serialize a rational as ``"p/q"``, omitting ``q`` when it is 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def reduced_pair(num: int, den: int) -> tuple:
    """num/den as its reduced (numerator, denominator) pair, for den > 0:
    one gcd, and the denominator stays positive."""
    k = math.gcd(num, den)
    return num // k, den // k


def lcm_list(values: Sequence[int]) -> int:
    """Least common multiple of a sequence of positive integers.

    The empty sequence returns 1 (the identity of lcm).  Non-positive
    entries are rejected: enhancements of level-graph edges are >= 1.
    """
    for v in values:
        if v < 1:
            raise ValueError(f"lcm_list: non-positive entry {v}")
    return math.lcm(*values) if values else 1


@dataclass(frozen=True)
class AffineInY:
    """An exact degree-1 polynomial ``intercept + slope * y``."""

    intercept: Fraction
    slope: Fraction

    def __call__(self, y: RationalLike) -> Fraction:
        """intercept + slope y as one Fraction over the product of the
        three denominators (an int has numerator itself and denominator 1)."""
        a, s = self.intercept, self.slope
        ad, sd, yd = a.denominator, s.denominator, y.denominator
        return Fraction(a.numerator * sd * yd + s.numerator * y.numerator * ad,
                        ad * sd * yd)

    def root(self) -> Fraction:
        """The unique zero; requires slope != 0."""
        if self.slope == 0:
            raise ZeroDivisionError("constant affine function has no root")
        return -self.intercept / self.slope


@dataclass(frozen=True)
class RationalInterval:
    """An interval with rational endpoints and openness flags.

    The interval is empty iff lo > hi, or lo == hi with either endpoint
    open.  Every interval the package builds lies inside [0, 1].
    """

    lo: Fraction
    hi: Fraction
    lo_open: bool = True
    hi_open: bool = True

    def is_empty(self) -> bool:
        return self.lo > self.hi or (
            self.lo == self.hi and (self.lo_open or self.hi_open))

    def contains(self, y: RationalLike) -> bool:
        y = Fraction(y)
        return ((self.lo < y or (y == self.lo and not self.lo_open))
                and (y < self.hi or (y == self.hi and not self.hi_open)))

    def intersect(self, other: "RationalInterval") -> "RationalInterval":
        """The larger lower and the smaller upper end; an end is open when
        it is an open end of either interval."""
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        return RationalInterval(
            lo, hi,
            (self.lo_open and self.lo == lo) or (other.lo_open and other.lo == lo),
            (self.hi_open and self.hi == hi) or (other.hi_open and other.hi == hi))

    def interior_point(self) -> Optional[Fraction]:
        """The midpoint, or None when no rational lies strictly inside."""
        return (self.lo + self.hi) / 2 if self.lo < self.hi else None

    def to_json(self) -> dict:
        return {
            "lo": rational_str(self.lo),
            "hi": rational_str(self.hi),
            "lo_open": self.lo_open,
            "hi_open": self.hi_open,
        }

    def __str__(self) -> str:
        left = "(" if self.lo_open else "["
        right = ")" if self.hi_open else "]"
        return f"{left}{rational_str(self.lo)}, {rational_str(self.hi)}{right}"


EMPTY = RationalInterval(Fraction(1), Fraction(0))
UNIT = RationalInterval(Fraction(0), Fraction(1), lo_open=False, hi_open=False)


def least_rows(rows: list) -> list:
    """The rows of a nonempty list that are least at some y in [0, 1],
    by value and then by key.

    A row is (intercept, slope, key): an affine function of y, its
    intercept and slope as integer (numerator, denominator) pairs with
    positive denominators, and a key that orders rows of equal value.
    Over the rows returned, the least row at every y in [0, 1] is the
    least row over all of them.

    Those are the least rows at y = 0, at y = 1 and at each breakpoint of
    the lower envelope, and inside each piece the least-key row on the
    piece's line: at a y inside a piece only rows on its line reach the
    envelope, since two distinct lines there make a breakpoint.  The rows
    are scaled to integers (u, t) over the lcm of their denominators.  A
    row whose values at both ends of [0, 1] exceed the larger end value
    of some row is above that row throughout and is dropped.  The
    envelope is then walked from y = 0: the line leaving a point is the
    least-slope line at the least value there, and the next point is the
    nearest crossing of that line by one of smaller slope, each y an
    integer pair yn / yd.  A line of greater slope than the one leaving
    a point, or of the same slope and off it, is above it from there on
    and is dropped.
    """
    den = 1
    for (_, ad), (_, sd), _ in rows:
        den = math.lcm(den, ad, sd)
    lines = []
    cap = None
    for row in rows:
        (an, ad), (sn, sd), key = row
        u, t = an * (den // ad), sn * (den // sd)
        lines.append((t, key, u, row))
        high = u + t if t > 0 else u
        if cap is None or high < cap:
            cap = high
    lines = [line for line in lines if min(line[2], line[2] + line[0]) <= cap]
    keep = {}
    yn, yd = 0, 1
    while True:
        values = [u * yd + t * yn for t, _, u, _ in lines]
        low = min(values)
        at = [line for line, value in zip(lines, values) if value == low]
        keep[min((key, row) for _, key, _, row in at)[1]] = None
        if yn == yd:
            return list(keep)
        # least slope, then least key: the line leaving y, and its least row
        ta, _, ua, row = min(at)
        keep[row] = None
        lines = [line for line in lines if line[0] < ta or line[0] == ta and line[2] == ua]
        yn, yd = 1, 1
        for t, _, u, _ in lines:
            if t < ta and (u - ua) * yd < yn * (ta - t):
                yn, yd = u - ua, ta - t


def affine_positivity_interval(f: AffineInY, domain: RationalInterval) -> RationalInterval:
    """The subset of ``domain`` where ``f(y) > 0``, as an interval.

    The positivity condition is strict, so the endpoint at the root of f is
    always open; endpoints inherited from the domain keep its openness.
    """
    if domain.is_empty():
        raise ValueError("affine_positivity_interval: empty domain")
    if f.slope == 0:
        return domain if f.intercept > 0 else EMPTY
    r = f.root()
    if f.slope > 0:
        half = RationalInterval(r, domain.hi, True, domain.hi_open)
    else:
        half = RationalInterval(domain.lo, r, domain.lo_open, True)
    return domain.intersect(half)
