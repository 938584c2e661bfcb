"""Log-domain magnitude arithmetic."""

import math

import pytest
from hypothesis import given, strategies as st

from chaincert import LogMag, lm_min
from chaincert.magnitude import log_add, log_mul

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


# logs of zero, infinity, tiny and huge magnitudes, and of ordinary ones
logs = st.one_of(st.sampled_from([-math.inf, math.inf, 0.0, -0.0, 5e-324, -5e-324,
                                  1e-300, -1e-300, 1e300, -1e300, 700.0, -745.0]),
                 st.floats(allow_nan=False))


def _ref_mul(a, b):
    return -math.inf if a == -math.inf or b == -math.inf else a + b


def _ref_add(a, b):
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    if math.inf in (a, b):
        return math.inf
    hi, lo = max(a, b), min(a, b)
    return hi + math.log1p(math.exp(lo - hi))


@given(logs, logs)
def test_arithmetic_equals_reference_formulas(a, b):
    x, y = LogMag(a), LogMag(b)
    assert (x * y).lg == _ref_mul(a, b)
    assert (x + y).lg == _ref_add(a, b)
    # both operations are symmetric, and every result is a LogMag
    assert (y * x).lg == (x * y).lg and (y + x).lg == (x + y).lg
    assert type(x * y) is LogMag and type(x + y) is LogMag


@given(logs, logs)
def test_equality_and_hash_follow_the_log(a, b):
    x, y = LogMag(a), LogMag(b)
    assert (x == y) == (a == b)
    assert x == LogMag(a) and hash(x) == hash(LogMag(a))
    if a == b:
        assert hash(x) == hash(y)


@given(logs)
def test_zero_annihilates_every_magnitude_and_logs_are_frozen(a):
    zero, x = LogMag(-math.inf), LogMag(a)
    assert (zero * x).lg == (x * zero).lg == -math.inf
    assert (zero * LogMag(math.inf)).lg == (LogMag(math.inf) * zero).lg == -math.inf
    with pytest.raises(AttributeError):
        x.lg = 0.0
    assert x.lg == a


@given(logs, logs)
def test_kernels_are_the_operators_bitwise(a, b):
    # the float kernels own the arithmetic; the operators only box their results
    x, y = LogMag(a), LogMag(b)
    assert log_mul(a, b).hex() == (x * y).lg.hex() == _ref_mul(a, b).hex()
    assert log_add(a, b).hex() == (x + y).lg.hex() == _ref_add(a, b).hex()
    assert log_mul(-math.inf, math.inf) == log_mul(math.inf, -math.inf) == -math.inf
