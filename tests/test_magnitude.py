"""Log-domain magnitude arithmetic."""

import math

import pytest
from hypothesis import given, strategies as st

from chaincert import LogMag, lm_min

finite_pos = st.floats(min_value=1e-8, max_value=1e8)


def test_of_and_value_roundtrip():
    assert LogMag.of(2.0).value == pytest.approx(2.0)
    assert LogMag.of(0.0).is_zero
    assert LogMag.of(0.0).value == 0.0
    assert LogMag.of(math.inf).is_inf
    with pytest.raises(ValueError):
        LogMag.of(-1.0)


def test_zero_times_inf_is_zero():
    zero = LogMag.of(0.0)
    inf = LogMag.of(math.inf)
    assert (zero * inf).is_zero
    assert (inf * zero).is_zero


def test_add_with_extremes():
    zero = LogMag.of(0.0)
    inf = LogMag.of(math.inf)
    two = LogMag.of(2.0)
    assert (zero + two).value == pytest.approx(2.0)
    assert (inf + two).is_inf
    assert (zero + zero).is_zero


def test_overflow_stays_representable():
    big = LogMag.of(1e300)
    prod = big * big * big  # would overflow float multiplication
    assert prod.lg == pytest.approx(3 * math.log(1e300))
    assert prod.value == math.inf  # value saturates, the log does not


@given(finite_pos, finite_pos)
def test_mul_matches_float(a, b):
    got = (LogMag.of(a) * LogMag.of(b)).value
    assert got == pytest.approx(a * b, rel=1e-12)


@given(finite_pos, finite_pos)
def test_add_matches_float(a, b):
    got = (LogMag.of(a) + LogMag.of(b)).value
    assert got == pytest.approx(a + b, rel=1e-12)


@given(finite_pos, finite_pos)
def test_order_matches_float(a, b):
    assert (LogMag.of(a) < LogMag.of(b)) == (a < b)
    assert lm_min(LogMag.of(a), LogMag.of(b)).value == pytest.approx(min(a, b))
