"""Terminal objectives and parameter regularizers.

Supervised losses (squared, logistic) average per-sample terms over the
batch; the convex clustering objective is the Moreau envelope of the
pairwise group norm and is left unnormalized.  Chain outputs arrive flat in
sample-major order and are viewed as (n, q).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np

from .chain import ParamVector
from .errors import DimensionMismatch, IterationLimit, SecondOrderUnavailable

__all__ = [
    "eval_squared",
    "eval_logistic",
    "eval_convex_cluster",
    "Objective",
    "squared_objective",
    "logistic_objective",
    "cluster_objective",
    "Regularizer",
    "ZeroReg",
    "BlockRidge",
]

_CLUSTER_CAP = 200_000


def _as_rows(yhat, y):
    yhat = np.asarray(yhat, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.ndim != 2:
        raise DimensionMismatch(f"targets must be (n, q), got shape {y.shape}")
    if yhat.shape == y.shape:
        return yhat, y
    if yhat.shape == (y.size,):
        return yhat.reshape(y.shape), y
    raise DimensionMismatch(f"predictions {yhat.shape} vs targets {y.shape}")


def eval_squared(yhat, y):
    """Batch-averaged squared loss: mean over samples of half squared error."""
    yh, y = _as_rows(yhat, y)
    n = y.shape[0]
    r = yh - y
    return 0.5 * float(np.sum(r * r)) / n, (r / n).ravel()


def _softmax_rows(z):
    zs = z - z.max(axis=1, keepdims=True)
    e = np.exp(zs)
    return e / e.sum(axis=1, keepdims=True)


def eval_logistic(yhat, y):
    """Batch-averaged multinomial logistic loss against one-hot targets."""
    yh, y = _as_rows(yhat, y)
    n, _ = y.shape
    zmax = yh.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(yh - zmax).sum(axis=1))
    val = float(np.sum(lse - np.sum(y * yh, axis=1))) / n
    grad = (_softmax_rows(yh) - y) / n
    return val, grad.ravel()


def _pair_ops(n: int):
    pairs = list(combinations(range(n), 2))
    i = np.array([p[0] for p in pairs], dtype=int)
    j = np.array([p[1] for p in pairs], dtype=int)
    return i, j


def eval_convex_cluster(yhat: np.ndarray, tol: float):
    """Moreau envelope of the sum of pairwise difference norms.

    ``yhat`` is (n, q).  Returns (envelope value, envelope gradient (n, q)).
    The inner problem ``min_y 0.5 ||y - yhat||^2 + sum_{i<j} ||y_i - y_j||``
    is solved through its dual: projected gradient ascent over per-pair ball
    constraints, which is proximal gradient with group projections on the
    difference parametrization.  Stops when successive primal values differ
    by at most ``tol``.
    """
    yhat = np.asarray(yhat, dtype=float)
    if yhat.ndim != 2:
        raise DimensionMismatch(f"clustering input must be (n, q), got {yhat.shape}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    n, q = yhat.shape
    if n == 1:
        return 0.0, np.zeros_like(yhat)
    I, J = _pair_ops(n)
    # Dense incidence matrix of the pair graph: D^T v is one small GEMM.
    Dt = np.zeros((n, len(I)))
    Dt[I, np.arange(len(I))] = 1.0
    Dt[J, np.arange(len(I))] = -1.0

    def primal(y, diffs):
        return 0.5 * float(np.sum((y - yhat) ** 2)) + float(
            np.sqrt((diffs * diffs).sum(axis=1)).sum())

    # ||D^T D|| = n for the complete pair graph, so 1/n is a safe dual step.
    # Each iterate's primal point y and its differences D y serve both the
    # stopping test and the next dual update.
    v = np.zeros((len(I), q))
    y = yhat
    diffs = y[I] - y[J]
    prev = primal(y, diffs)
    for _ in range(_CLUSTER_CAP):
        v = v + diffs / n
        norms = np.sqrt((v * v).sum(axis=1, keepdims=True))
        v = v / np.maximum(norms, 1.0)
        y = yhat - Dt @ v
        diffs = y[I] - y[J]
        cur = primal(y, diffs)
        if abs(cur - prev) <= tol:
            return cur, yhat - y
        prev = cur
    raise IterationLimit(f"clustering inner solve: no convergence in {_CLUSTER_CAP} steps")


@dataclass(eq=False)
class Objective:
    """A terminal objective over flat chain outputs.

    ``kind`` is "squared", "logistic" or "convex-cluster"; supervised kinds
    carry one label row per sample.
    """

    kind: str
    n: int
    q: int
    y: Optional[np.ndarray] = None
    tol: float = 1e-10

    def __post_init__(self):
        if self.kind not in ("squared", "logistic", "convex-cluster"):
            raise ValueError(f"unknown objective kind '{self.kind}'")
        if self.kind in ("squared", "logistic"):
            self.y = np.asarray(self.y, dtype=float)
            if self.y.shape != (self.n, self.q):
                raise DimensionMismatch(
                    f"labels shape {self.y.shape}, expected ({self.n}, {self.q})")
            if self.kind == "logistic":
                onehot = np.all(np.isin(self.y, (0.0, 1.0))) and \
                    np.all(self.y.sum(axis=1) == 1.0)
                if not onehot:
                    raise ValueError("logistic labels must be one-hot rows")

    @property
    def dim(self) -> int:
        return self.n * self.q

    @property
    def decomposable(self) -> bool:
        return self.kind in ("squared", "logistic")

    def _rows(self, yhat) -> np.ndarray:
        yhat = np.asarray(yhat, dtype=float)
        if yhat.shape != (self.dim,):
            raise DimensionMismatch(
                f"output shape {yhat.shape}, expected ({self.dim},)")
        return yhat.reshape(self.n, self.q)

    def value_grad(self, yhat):
        if self.kind == "squared":
            return eval_squared(self._rows(yhat), self.y)
        if self.kind == "logistic":
            return eval_logistic(self._rows(yhat), self.y)
        val, g = eval_convex_cluster(self._rows(yhat), self.tol)
        return val, g.ravel()

    def value(self, yhat) -> float:
        return self.value_grad(yhat)[0]

    def grad_hess(self, yhat):
        """Gradient and dense Hessian, for quadratic-model oracles."""
        yh = self._rows(yhat)
        if self.kind == "squared":
            _, g = eval_squared(yh, self.y)
            return g, np.eye(self.dim) / self.n
        if self.kind == "logistic":
            _, g = eval_logistic(yh, self.y)
            H = np.zeros((self.dim, self.dim))
            s = _softmax_rows(yh)
            for i in range(self.n):
                blk = (np.diag(s[i]) - np.outer(s[i], s[i])) / self.n
                sl = slice(i * self.q, (i + 1) * self.q)
                H[sl, sl] = blk
            return g, H
        raise SecondOrderUnavailable(
            "the clustering envelope has no second-order model here")

    def grad_minibatch(self, yhat, idx) -> np.ndarray:
        """Gradient of the minibatch average, embedded at full output size."""
        if not self.decomposable:
            raise ValueError("minibatch gradients need a per-sample decomposable objective")
        idx = np.asarray(idx, dtype=int)
        if idx.size == 0:
            raise ValueError("empty minibatch")
        yh = self._rows(yhat)
        out = np.zeros((self.n, self.q))
        if self.kind == "squared":
            out[idx] = (yh[idx] - self.y[idx]) / idx.size
        else:
            out[idx] = (_softmax_rows(yh[idx]) - self.y[idx]) / idx.size
        return out.ravel()

    def lip_bound(self, rho_out: float) -> float:
        """Gradient-norm bound over outputs of norm at most ``rho_out``."""
        if self.kind == "squared":
            return (rho_out + float(np.linalg.norm(self.y))) / self.n
        if self.kind == "logistic":
            return 2.0 / np.sqrt(self.n)
        return self.n * (self.n - 1) / 2.0

    def smooth_bound(self) -> float:
        if self.kind == "squared":
            return 1.0 / self.n
        if self.kind == "logistic":
            return 2.0 / self.n
        return 1.0


def squared_objective(y: np.ndarray) -> Objective:
    y = np.asarray(y, dtype=float)
    return Objective("squared", y.shape[0], y.shape[1], y)


def logistic_objective(y: np.ndarray) -> Objective:
    y = np.asarray(y, dtype=float)
    return Objective("logistic", y.shape[0], y.shape[1], y)


def cluster_objective(n: int, q: int, tol: float = 1e-10) -> Objective:
    return Objective("convex-cluster", n, q, None, tol)


# regularizers ------------------------------------------------------------

class Regularizer:
    """Decomposable parameter penalty: value, gradient, per-block curvature.

    The Hessian of block t is the constant ``alpha_t I``; ``curvatures``
    gives the scales ``alpha_t``, and no dense Hessian is ever formed.
    """

    def value(self, u: ParamVector) -> float:
        raise NotImplementedError

    def grad(self, u: ParamVector) -> ParamVector:
        raise NotImplementedError

    def curvatures(self, dims) -> np.ndarray:
        """Hessian scale ``alpha_t`` of each block, shape (len(dims),)."""
        raise NotImplementedError

    @property
    def smooth(self) -> float:
        raise NotImplementedError


class ZeroReg(Regularizer):
    def value(self, u):
        return 0.0

    def grad(self, u):
        return ParamVector([np.zeros(d) for d in u.dims])

    def curvatures(self, dims):
        return np.zeros(len(dims))

    @property
    def smooth(self):
        return 0.0


class BlockRidge(Regularizer):
    """Quadratic penalty ``sum_t alpha_t/2 ||u_t||^2``."""

    def __init__(self, alphas):
        self.alphas = alphas

    def _alpha(self, k: int):
        if np.isscalar(self.alphas):
            return [float(self.alphas)] * k
        al = [float(a) for a in self.alphas]
        if len(al) != k:
            raise DimensionMismatch(f"{len(al)} penalties for {k} blocks")
        return al

    def value(self, u):
        al = self._alpha(len(u.blocks))
        return 0.5 * float(sum(a * float(b @ b) for a, b in zip(al, u.blocks)))

    def grad(self, u):
        al = self._alpha(len(u.blocks))
        return ParamVector([a * b for a, b in zip(al, u.blocks)])

    def curvatures(self, dims):
        return np.array(self._alpha(len(dims)))

    @property
    def smooth(self):
        if np.isscalar(self.alphas):
            return float(self.alphas)
        return float(max(self.alphas)) if len(list(self.alphas)) else 0.0
