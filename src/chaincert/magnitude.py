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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["LogMag", "lm_min"]


@dataclass(frozen=True)
class LogMag:
    """A nonnegative magnitude stored as its natural log."""

    lg: float

    @classmethod
    def of(cls, v: float) -> "LogMag":
        if v < 0:
            raise ValueError(f"magnitude must be nonnegative, got {v}")
        if v == 0:
            return cls(-math.inf)
        return cls(math.log(v))

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
        # 0 * inf = 0, see module docstring.
        if self.is_zero or other.is_zero:
            return LogMag(-math.inf)
        return LogMag(self.lg + other.lg)

    def __add__(self, other: "LogMag") -> "LogMag":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.is_inf or other.is_inf:
            return LogMag(math.inf)
        return LogMag(_logaddexp(self.lg, other.lg))

    def __lt__(self, other: "LogMag") -> bool:
        return self.lg < other.lg

    def __le__(self, other: "LogMag") -> bool:
        return self.lg <= other.lg

    def __repr__(self) -> str:
        return f"LogMag(log={self.lg:.6g})"


def _logaddexp(a: float, b: float) -> float:
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


def lm_min(a: LogMag, b: LogMag) -> LogMag:
    return a if a.lg <= b.lg else b
