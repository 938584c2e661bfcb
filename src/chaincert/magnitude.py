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

_INF = math.inf


@dataclass(frozen=True, slots=True)
class LogMag:
    """A nonnegative magnitude stored as its natural log.

    Propagating the constants of a deep chain makes hundreds of products
    and sums, so the arithmetic is kept lean: ``*`` and ``+`` read the raw
    ``lg`` floats once and test them directly instead of going through
    ``is_zero``/``is_inf``, and results are made by ``_make``, which fills
    the slot without the frozen dataclass's ``__init__`` (that goes through
    ``object.__setattr__``, about as costly as the arithmetic itself).  The
    formulas are unchanged, so every result is bitwise what the plain form
    gives.  Instances stay immutable: assigning ``lg`` raises.
    """

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
        a, b = self.lg, other.lg
        out = _new(LogMag)  # the hottest constructor: _make, inlined
        # 0 * inf = 0, see module docstring.
        _set_lg(out, -_INF if a == -_INF or b == -_INF else a + b)
        return out

    def __add__(self, other: "LogMag") -> "LogMag":
        a, b = self.lg, other.lg
        if a == -_INF:
            return other
        if b == -_INF:
            return self
        if a == _INF or b == _INF:
            return _make(_INF)
        if a < b:
            a, b = b, a
        return _make(a + math.log1p(math.exp(b - a)))

    def __lt__(self, other: "LogMag") -> bool:
        return self.lg < other.lg

    def __le__(self, other: "LogMag") -> bool:
        return self.lg <= other.lg

    def __repr__(self) -> str:
        return f"LogMag(log={self.lg:.6g})"


_new = object.__new__
_set_lg = LogMag.__dict__["lg"].__set__


def _make(lg: float) -> LogMag:
    """``LogMag(lg)`` without the frozen ``__init__``: fill the slot directly."""
    out = _new(LogMag)
    _set_lg(out, lg)
    return out


def lm_min(a: LogMag, b: LogMag) -> LogMag:
    return a if a.lg <= b.lg else b
