import random
from fractions import Fraction as F
from functools import reduce

import pytest

from stratacert.exactq import (
    EMPTY,
    UNIT,
    AffineInY,
    RationalInterval,
    affine_positivity_interval,
    lcm_list,
    rational_str,
)


def test_rational_str_round_trip():
    assert rational_str(F(3, 4)) == "3/4"
    assert rational_str(F(5)) == "5"
    assert rational_str(F(-7, 2)) == "-7/2"


def test_lcm_list():
    assert lcm_list((1, 1)) == 1
    assert lcm_list((3, 5)) == 15
    assert lcm_list((61,)) == 61
    assert lcm_list(()) == 1
    with pytest.raises(ValueError):
        lcm_list((0, 2))


def test_affine_eval_and_root():
    f = AffineInY(F(-105, 1037), F(65, 119))
    assert f.root() == F(147, 793)
    assert f(F(147, 793)) == 0
    assert f(0) == F(-105, 1037)
    with pytest.raises(ZeroDivisionError):
        AffineInY(F(1), F(0)).root()


def test_affine_eval_matches_fraction_arithmetic():
    rng = random.Random(1414)

    def rational():
        return F(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))

    cases = [(F(0), F(0), 0), (3, -2, 5), (F(1, 2), 7, -3), (-4, F(5, 6), F(-1, 9)),
             (F(-105, 1037), F(65, 119), F(147, 793))]
    while len(cases) < 500:
        intercept = rng.choice((rational(), rng.randint(-50, 50)))
        slope = rng.choice((rational(), rng.randint(-50, 50)))
        y = rng.choice((rational(), rng.randint(-50, 50), -abs(rational())))
        cases.append((intercept, slope, y))
    for intercept, slope, y in cases:
        got = AffineInY(intercept, slope)(y)
        want = intercept + slope * F(y)
        assert (type(got), got) == (type(want), want), (intercept, slope, y)


def test_positivity_interval_examples():
    # f = y on [0,1] -> (0, 1]
    got = affine_positivity_interval(AffineInY(F(0), F(1)), UNIT)
    assert got == RationalInterval(F(0), F(1), lo_open=True, hi_open=False)
    # the horizontal coefficient at genus 31 -> (147/793, 1]
    got = affine_positivity_interval(AffineInY(F(-105, 1037), F(65, 119)), UNIT)
    assert got == RationalInterval(F(147, 793), F(1), lo_open=True, hi_open=False)
    # constant positive -> whole domain
    assert affine_positivity_interval(AffineInY(F(1), F(0)), UNIT) == UNIT
    # constant zero is not strictly positive
    assert affine_positivity_interval(AffineInY(F(0), F(0)), UNIT).is_empty()
    # a falling function keeps the domain's open lower end
    half_open = RationalInterval(F(0), F(1), lo_open=True, hi_open=False)
    got = affine_positivity_interval(AffineInY(F(1), F(-2)), half_open)
    assert got == RationalInterval(F(0), F(1, 2), lo_open=True, hi_open=True)
    # a root outside the domain: all of it, or nothing
    assert affine_positivity_interval(AffineInY(F(2), F(-1)), UNIT) == UNIT
    assert affine_positivity_interval(AffineInY(F(-2), F(1)), UNIT).is_empty()


def test_positivity_never_contains_nonpositive_points():
    rng = random.Random(7)
    for _ in range(100):
        f = AffineInY(F(rng.randint(-9, 9), rng.randint(1, 7)),
                      F(rng.randint(-9, 9), rng.randint(1, 7)))
        got = affine_positivity_interval(f, UNIT)
        for _ in range(10):
            y = F(rng.randint(0, 64), 64)
            if f(y) <= 0:
                assert not got.contains(y)
            else:
                assert got.contains(y)


def _intersect_all(intervals):
    return reduce(RationalInterval.intersect, intervals, UNIT)


def test_intersection_examples():
    a = RationalInterval(F(0), F(1), lo_open=False, hi_open=False)
    b = RationalInterval(F(1, 2), F(1), lo_open=True, hi_open=False)
    assert a.intersect(b) == b.intersect(a) == b
    c = RationalInterval(F(0), F(1, 3))
    d = RationalInterval(F(1, 4), F(1))
    assert c.intersect(d) == RationalInterval(F(1, 4), F(1, 3))
    # an end shared by both is open when either has it open
    e = RationalInterval(F(1, 4), F(1, 3), lo_open=False, hi_open=False)
    assert e.intersect(c) == RationalInterval(F(1, 4), F(1, 3), lo_open=False)
    assert _intersect_all([]) == UNIT


def test_intersection_permutation_invariance():
    rng = random.Random(20240317)
    for _ in range(200):
        intervals = []
        for _ in range(rng.randint(0, 5)):
            lo = F(rng.randint(-8, 8), rng.randint(1, 5))
            hi = F(rng.randint(-8, 8), rng.randint(1, 5))
            intervals.append(RationalInterval(lo, hi, rng.random() < 0.5,
                                              rng.random() < 0.5))
        shuffled = intervals[:]
        rng.shuffle(shuffled)
        a = _intersect_all(intervals)
        b = _intersect_all(shuffled)
        assert a.is_empty() == b.is_empty()
        if not a.is_empty():
            assert a == b
        for _ in range(10):
            y = F(rng.randint(-8, 8), rng.randint(1, 5))
            assert a.contains(y) == all(iv.contains(y) for iv in [UNIT] + intervals)


def test_emptiness_rules():
    assert RationalInterval(F(1), F(0)).is_empty()
    assert RationalInterval(F(1), F(1), lo_open=True, hi_open=False).is_empty()
    assert not RationalInterval(F(1), F(1), lo_open=False, hi_open=False).is_empty()
    assert not UNIT.is_empty()
    assert EMPTY.is_empty()


def test_interior_point():
    assert UNIT.interior_point() == F(1, 2)
    assert RationalInterval(F(1, 4), F(1, 3)).interior_point() == F(7, 24)
    # a closed single point is not empty, but nothing lies strictly inside
    assert RationalInterval(F(1), F(1), lo_open=False, hi_open=False).interior_point() is None
    assert EMPTY.interior_point() is None


def test_addition_is_exact():
    rng = random.Random(5)
    for _ in range(100):
        a = F(rng.randint(-10**9, 10**9), rng.randint(1, 10**6))
        b = F(rng.randint(-10**9, 10**9), rng.randint(1, 10**6))
        assert (a + b) - b == a


def test_interval_serialization_round_trip():
    iv = RationalInterval(F(147, 793), F(1), lo_open=True, hi_open=False)
    assert iv.to_json() == {"lo": "147/793", "hi": "1", "lo_open": True,
                            "hi_open": False}
    assert str(iv) == "(147/793, 1]"
