"""Exact scalar arithmetic: rationals, affine functions of the mixing
parameter y, and rational intervals.

Everything downstream of this module is built on `fractions.Fraction`; no
floating point is used anywhere in the certification pipeline.  Intervals
support open/closed endpoints because positivity of the boundary
coefficients is a strict inequality: a certificate must exhibit a rational
y strictly inside the feasible set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

Rational = Fraction

RationalLike = Union[Fraction, int]


def rational_str(x: RationalLike) -> str:
    """Serialize a rational as ``"p/q"``, omitting ``q`` when it is 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse the output of :func:`rational_str` (also accepts ``"p"``)."""
    return Fraction(text.strip())


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

    def __add__(self, other: "AffineInY") -> "AffineInY":
        return AffineInY(self.intercept + other.intercept, self.slope + other.slope)

    def scaled(self, c: RationalLike) -> "AffineInY":
        c = Fraction(c)
        return AffineInY(self.intercept * c, self.slope * c)


@dataclass(frozen=True)
class RationalInterval:
    """An interval with rational (or infinite) endpoints and openness flags.

    ``lo is None`` means -oo and ``hi is None`` means +oo; infinite
    endpoints are always open.  The interval is empty iff lo > hi, or
    lo == hi with either endpoint open.
    """

    lo: Optional[Fraction] = None
    hi: Optional[Fraction] = None
    lo_open: bool = True
    hi_open: bool = True

    def __post_init__(self):
        if self.lo is None and not self.lo_open:
            object.__setattr__(self, "lo_open", True)
        if self.hi is None and not self.hi_open:
            object.__setattr__(self, "hi_open", True)

    def is_empty(self) -> bool:
        if self.lo is None or self.hi is None:
            return False
        if self.lo > self.hi:
            return True
        return self.lo == self.hi and (self.lo_open or self.hi_open)

    def contains(self, y: RationalLike) -> bool:
        y = Fraction(y)
        if self.lo is not None:
            if y < self.lo or (y == self.lo and self.lo_open):
                return False
        if self.hi is not None:
            if y > self.hi or (y == self.hi and self.hi_open):
                return False
        return True

    def intersect(self, other: "RationalInterval") -> "RationalInterval":
        if self.lo is None:
            lo, lo_open = other.lo, other.lo_open
        elif other.lo is None:
            lo, lo_open = self.lo, self.lo_open
        elif self.lo > other.lo:
            lo, lo_open = self.lo, self.lo_open
        elif self.lo < other.lo:
            lo, lo_open = other.lo, other.lo_open
        else:
            lo, lo_open = self.lo, self.lo_open or other.lo_open
        if self.hi is None:
            hi, hi_open = other.hi, other.hi_open
        elif other.hi is None:
            hi, hi_open = self.hi, self.hi_open
        elif self.hi < other.hi:
            hi, hi_open = self.hi, self.hi_open
        elif self.hi > other.hi:
            hi, hi_open = other.hi, other.hi_open
        else:
            hi, hi_open = self.hi, self.hi_open or other.hi_open
        return RationalInterval(lo, hi, lo_open, hi_open)

    def interior_point(self) -> Optional[Fraction]:
        """A rational strictly inside the interval, or None if empty.

        Bounded intervals use the midpoint; half-bounded ones step one unit
        away from the finite endpoint; the unbounded interval returns 0.
        """
        if self.is_empty():
            return None
        if self.lo is not None and self.hi is not None:
            if self.lo == self.hi:
                # only possible when both endpoints are closed
                return None
            return (self.lo + self.hi) / 2
        if self.lo is not None:
            return self.lo + 1
        if self.hi is not None:
            return self.hi - 1
        return Fraction(0)

    def to_json(self) -> dict:
        return {
            "lo": "-inf" if self.lo is None else rational_str(self.lo),
            "hi": "inf" if self.hi is None else rational_str(self.hi),
            "lo_open": self.lo_open,
            "hi_open": self.hi_open,
        }

    @classmethod
    def from_json(cls, data: dict) -> "RationalInterval":
        lo = None if data["lo"] == "-inf" else parse_rational(data["lo"])
        hi = None if data["hi"] == "inf" else parse_rational(data["hi"])
        return cls(lo, hi, bool(data["lo_open"]), bool(data["hi_open"]))

    def __str__(self) -> str:
        left = "(" if self.lo_open else "["
        right = ")" if self.hi_open else "]"
        lo = "-inf" if self.lo is None else rational_str(self.lo)
        hi = "inf" if self.hi is None else rational_str(self.hi)
        return f"{left}{lo}, {hi}{right}"


UNBOUNDED = RationalInterval()
EMPTY = RationalInterval(Fraction(1), Fraction(0))
UNIT = RationalInterval(Fraction(0), Fraction(1), lo_open=False, hi_open=False)


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
        half = RationalInterval(lo=r, hi=None, lo_open=True)
    else:
        half = RationalInterval(lo=None, hi=r, hi_open=True)
    return domain.intersect(half)


def intersect_all(intervals: Iterable[RationalInterval]) -> RationalInterval:
    """Exact intersection; the empty input yields the unbounded interval."""
    acc = UNBOUNDED
    for iv in intervals:
        acc = acc.intersect(iv)
    return acc
