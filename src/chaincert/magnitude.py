"""Log-domain arithmetic for nonnegative magnitudes.

Layer-wise constant propagation multiplies many per-layer factors, so a deep
chain easily produces bounds far outside float range (a 16-layer vision stack
exceeds 1e80).  All propagation code therefore works on natural logarithms of
nonnegative values and converts back only for display.

Conventions: ``-inf`` encodes the value 0, ``+inf`` encodes an infinite
constant (e.g. the smoothness bound of a piecewise-linear map).  The product
``0 * inf`` is defined as 0: a factor of exactly zero always comes from a
structurally vanishing term (a zero radius, a zero curvature), so the whole
term is absent regardless of the other factor.

The arithmetic has one owner, the two float kernels ``log_mul`` and
``log_add``.  The propagation recursions call them on raw logs and box only
their results; ``LogMag``'s operators call them too.  They are also the
place for outward rounding (rounding every log product and sum upward, Rump,
Acta Numerica 2010), which would keep each bound above its exact value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["LogMag", "lm_min"]

_INF = math.inf


def log_mul(a: float, b: float) -> float:
    """The log of a product of the magnitudes with logs ``a`` and ``b``; 0 * inf = 0."""
    return -_INF if a == -_INF or b == -_INF else a + b


def log_add(a: float, b: float) -> float:
    """The log of a sum of the magnitudes with logs ``a`` and ``b``."""
    if a == -_INF:
        return b
    if b == -_INF:
        return a
    if a == _INF or b == _INF:
        return _INF
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


@dataclass(frozen=True, slots=True)
class LogMag:
    """A nonnegative magnitude stored as its natural log; assigning ``lg`` raises."""

    lg: float

    @classmethod
    def of(cls, v: float) -> "LogMag":
        if not v >= 0:
            raise ValueError(f"magnitude must be nonnegative, got {v}")
        return _make(-_INF if v == 0 else math.log(v))

    @property
    def value(self) -> float:
        """The plain-float magnitude; overflows to inf for huge logs."""
        try:
            return math.exp(self.lg)
        except OverflowError:
            return math.inf

    @property
    def is_zero(self) -> bool:
        return self.lg == -math.inf

    @property
    def is_inf(self) -> bool:
        return self.lg == math.inf

    def __mul__(self, other: "LogMag") -> "LogMag":
        return _make(log_mul(self.lg, other.lg))

    def __add__(self, other: "LogMag") -> "LogMag":
        return _make(log_add(self.lg, other.lg))

    def __lt__(self, other: "LogMag") -> bool:
        return self.lg < other.lg

    def __le__(self, other: "LogMag") -> bool:
        return self.lg <= other.lg

    def __repr__(self) -> str:
        return f"LogMag(log={self.lg:.6g})"


_new = object.__new__
_set_lg = LogMag.__dict__["lg"].__set__


def _make(lg: float) -> LogMag:
    """``LogMag(lg)`` without the frozen ``__init__`` (which goes through
    ``object.__setattr__``): fill the slot directly."""
    out = _new(LogMag)
    _set_lg(out, lg)
    return out


def lm_min(a: LogMag, b: LogMag) -> LogMag:
    return a if a.lg <= b.lg else b
