"""Scalar activation functions with derivatives and global constants.

Each entry records, for the scalar map applied coordinate-wise:

* ``lip``: sup |a'| (slope bound),
* ``smooth``: sup |a''| (curvature bound, inf for kinked maps),
* ``bound``: sup |a| (inf when unbounded),
* ``val0``: a(0),
* ``slope0``: an upper bound on |a'(0)| used by ball refinements.

``softplus-centered`` is log(1+e^x) - log 2: identical derivatives to softplus
but zero at zero, which keeps output-magnitude certificates offset-free. The
smooth network fixtures use it for exactly that reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["ScalarActivation", "get_activation"]

LOG2 = float(np.log(2.0))


def _softplus(x: np.ndarray) -> np.ndarray:
    # stable: log(1+e^x) = max(x,0) + log1p(e^{-|x|}), worked in one buffer
    # (``out`` makes it an array even for a 0-d x)
    x = np.asarray(x, dtype=float)
    t = np.abs(x, out=np.empty_like(x))
    np.negative(t, out=t)
    np.exp(t, out=t)
    np.log1p(t, out=t)
    return np.add(np.maximum(x, 0.0), t, out=t)


def _softplus_centered(x: np.ndarray) -> np.ndarray:
    t = _softplus(x)
    t -= LOG2
    return t


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Branch-free and stable: with e = exp(-|x|) <= 1 this is 1/(1+e) for
    # x >= 0 and e/(1+e) below, so the far negative tail keeps its relative
    # accuracy (the form 0.5(1 + tanh(x/2)) underflows to 0 below about -37).
    # The numerator exp(min(x, 0)) is bitwise 1 or e, with no select.  fmin
    # takes 0 for a NaN x, so a NaN result gets e's sign bit, as before.
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))
    e += 1.0
    s = np.exp(np.fmin(x, 0.0))
    s /= e
    return s


def _sigmoid_d1(x: np.ndarray) -> np.ndarray:
    s = _sigmoid(x)
    return s * (1.0 - s)


def _sigmoid_d2(x: np.ndarray) -> np.ndarray:
    s = _sigmoid(x)
    return s * (1.0 - s) * (1.0 - 2.0 * s)


@dataclass(frozen=True)
class ScalarActivation:
    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray], np.ndarray]
    d2: Callable[[np.ndarray], np.ndarray] | None
    lip: float
    smooth: float
    bound: float
    val0: float
    slope0: float

    @property
    def second_order(self) -> bool:
        return self.d2 is not None


ACTIVATIONS: dict[str, ScalarActivation] = {}


def _register(act: ScalarActivation) -> ScalarActivation:
    ACTIVATIONS[act.name] = act
    return act


IDENTITY = _register(
    ScalarActivation(
        name="identity",
        fn=lambda x: np.asarray(x, dtype=float).copy(),
        d1=lambda x: np.ones_like(x, dtype=float),
        d2=lambda x: np.zeros_like(x, dtype=float),
        lip=1.0,
        smooth=0.0,
        bound=np.inf,
        val0=0.0,
        slope0=1.0,
    )
)

# ReLU'(0) = 0 by convention; no second derivative anywhere we expose it.
RELU = _register(
    ScalarActivation(
        name="relu",
        fn=lambda x: np.maximum(x, 0.0),
        d1=lambda x: (np.asarray(x) > 0).astype(float),
        d2=None,
        lip=1.0,
        smooth=np.inf,
        bound=np.inf,
        val0=0.0,
        slope0=1.0,
    )
)

SOFTPLUS = _register(
    ScalarActivation(
        name="softplus",
        fn=_softplus,
        d1=_sigmoid,
        d2=_sigmoid_d1,
        lip=1.0,
        smooth=0.25,
        bound=np.inf,
        val0=LOG2,
        slope0=0.5,
    )
)

SOFTPLUS_CENTERED = _register(
    ScalarActivation(
        name="softplus-centered",
        fn=_softplus_centered,
        d1=_sigmoid,
        d2=_sigmoid_d1,
        lip=1.0,
        smooth=0.25,
        bound=np.inf,
        val0=0.0,
        slope0=0.5,
    )
)

# |sigma''| peaks at 1/(6*sqrt(3)) ~ 0.0962; 1/10 is the cataloged bound.
SIGMOID = _register(
    ScalarActivation(
        name="sigmoid",
        fn=_sigmoid,
        d1=_sigmoid_d1,
        d2=_sigmoid_d2,
        lip=0.25,
        smooth=0.1,
        bound=1.0,
        val0=0.5,
        slope0=0.25,
    )
)


def get_activation(name: str) -> ScalarActivation:
    try:
        return ACTIVATIONS[name]
    except KeyError:
        raise KeyError(
            f"unknown activation {name!r}; known: {sorted(ACTIVATIONS)}"
        ) from None
