"""Terminal objectives and parameter regularizers.

Supervised losses (squared, logistic) average per-sample terms over the
batch; the convex clustering objective is the Moreau envelope of the
pairwise group norm and is left unnormalized.  Chain outputs arrive flat in
sample-major order and are viewed as (n, q).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Optional

import numpy as np

from .chain import ParamVector
from .errors import DimensionMismatch, IterationLimit, NumericError, SecondOrderUnavailable
from .stages import _softmax_rows

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


def eval_logistic(yhat, y):
    """Batch-averaged multinomial logistic loss against one-hot targets."""
    yh, y = _as_rows(yhat, y)
    n, _ = y.shape
    zmax = yh.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(yh - zmax).sum(axis=1))
    val = float(np.sum(lse - np.sum(y * yh, axis=1))) / n
    grad = (_softmax_rows(yh) - y) / n
    return val, grad.ravel()


@lru_cache(maxsize=8)
def _incidence_t(n: int) -> np.ndarray:
    """Transposed incidence matrix ``D^T`` (n, n(n-1)/2) of the complete pair
    graph, pairs ``i < j`` in row-major order; read-only, shared per n."""
    I, J = np.triu_indices(n, 1)
    cols = np.arange(len(I))
    Dt = np.zeros((n, len(I)))
    Dt[I, cols] = 1.0
    Dt[J, cols] = -1.0
    Dt.flags.writeable = False
    return Dt


def eval_convex_cluster(yhat: np.ndarray, tol: float):
    """Moreau envelope of the sum of pairwise difference norms.

    ``yhat`` is (n, q).  Returns (envelope value, envelope gradient (n, q)).
    The inner problem ``min_y P(y) = 0.5 ||y - yhat||^2 + sum_{i<j}
    ||y_i - y_j||`` is solved through its dual ``max_{||v_ij|| <= 1}
    <v, D yhat> - 0.5 ||D^T v||^2``, D the pair-difference operator, by
    FISTA with per-pair ball projections, step 1/n and gradient-based
    adaptive restart (Beck & Teboulle, 2009; O'Donoghue & Candes, 2015).

    It stops when the duality gap at ``y = yhat - D^T v`` is at most
    ``tol``.  With ``d = D y`` that gap is ``sum_ij ||d_ij|| - <v_ij, d_ij>``,
    a sum of nonnegative terms.  ``P`` is 1-strongly convex, so ``tol``
    certifies the result: the returned value lies in ``[P*, P* + tol]`` and
    the returned gradient ``yhat - y`` is within ``sqrt(2 tol)`` of the true
    envelope gradient ``yhat - y*``, both up to rounding.  Raises
    ``IterationLimit``, with the iteration count and the last gap, when
    ``_CLUSTER_CAP`` iterations do not close the gap, and ``NumericError``
    before any iteration when ``yhat`` has a NaN or inf entry (its gap
    would be NaN at every iteration).

    The computed gap has a rounding floor that grows with the number of
    pairs and the scale of the points, about 4e-13 at n = 16 on unit-scale
    data.  A ``tol`` at or below that floor cannot be certified: the solve
    runs all ``_CLUSTER_CAP`` iterations, seconds of work, and then raises.
    """
    yhat = np.asarray(yhat, dtype=float)
    if yhat.ndim != 2:
        raise DimensionMismatch(f"clustering input must be (n, q), got {yhat.shape}")
    if not np.isfinite(yhat).all():
        raise NumericError("clustering input has a NaN or inf entry")
    if not tol > 0:
        raise ValueError("tol must be positive")
    n, q = yhat.shape
    if n == 1:
        return 0.0, np.zeros_like(yhat)
    Dt = _incidence_t(n)
    rowdot = partial(np.einsum, "ij,ij->i")

    # ||D D^T|| = n for the complete pair graph, so 1/n is a safe dual step.
    # The dual gradient D y(v) is affine in v, so the extrapolated point w
    # carries its own gradient dw, moved with the same momentum as v: the
    # only products per iteration are y = yhat - D^T v+ and D y.
    v = np.zeros((Dt.shape[1], q))
    d = Dt.T @ yhat
    w, dw, t = v, d, 1.0
    gap = np.inf
    for _ in range(_CLUSTER_CAP):
        vn = w + dw / n
        s = rowdot(vn, vn)
        vn /= np.sqrt(np.maximum(s, 1.0, out=s), out=s)[:, None]
        y = yhat - Dt @ vn
        dn = Dt.T @ y
        norms = np.sqrt(rowdot(dn, dn))
        gap = float((norms - rowdot(vn, dn)).sum())
        if gap <= tol:
            r = yhat - y
            return 0.5 * float(np.vdot(r, r)) + float(norms.sum()), r
        step = vn - v
        # gradient restart: drop the momentum once it opposes the step
        if np.vdot(w - vn, step) > 0.0:
            w, dw, t = vn, dn, 1.0
        else:
            tn = 0.5 * (1.0 + (1.0 + 4.0 * t * t) ** 0.5)
            beta = (t - 1.0) / tn
            w = vn + beta * step
            dw = dn + beta * (dn - d)
            t = tn
        v, d = vn, dn
    raise IterationLimit(
        f"clustering inner solve: duality gap {gap:.3g} above tol {tol:.3g} "
        f"after {_CLUSTER_CAP} iterations")


@dataclass(eq=False)
class Objective:
    """A terminal objective over flat chain outputs.

    ``kind`` is "squared", "logistic" or "convex-cluster"; supervised kinds
    carry one label row per sample.  ``value_grad`` gives the value and
    gradient.  The supervised losses are sums of per-sample terms, so their
    Hessian is block-diagonal: ``grad_hess_blocks`` reports its (n, q, q)
    stack of per-sample blocks and ``grad_hess`` the dense matrix built from
    it.  The clustering envelope has neither.
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
                onehot = np.all((self.y == 0.0) | (self.y == 1.0)) and \
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

    def grad_hess_blocks(self, yhat):
        """Gradient and the Hessian's per-sample diagonal blocks, shape (n, q, q).

        A decomposable loss has a block-diagonal Hessian, one (q, q) block per
        sample; the squared loss's blocks are one read-only broadcast view.
        """
        yh = self._rows(yhat)
        if self.kind == "squared":
            _, g = eval_squared(yh, self.y)
            return g, np.broadcast_to(np.eye(self.q) / self.n, (self.n, self.q, self.q))
        if self.kind == "logistic":
            _, g = eval_logistic(yh, self.y)
            s = _softmax_rows(yh)
            blocks = -s[:, :, None] * s[:, None, :]
            diag = np.arange(self.q)
            blocks[:, diag, diag] += s
            blocks /= self.n
            return g, blocks
        raise SecondOrderUnavailable(
            "the clustering envelope has no second-order model here")

    def grad_hess(self, yhat):
        """Gradient and dense Hessian, the block-diagonal matrix of ``grad_hess_blocks``."""
        g, blocks = self.grad_hess_blocks(yhat)
        H = np.zeros((self.n, self.q, self.n, self.q))
        i = np.arange(self.n)
        H[i, :, i, :] = blocks
        return g, H.reshape(self.dim, self.dim)

    def grad_minibatch(self, yhat, idx) -> np.ndarray:
        """Gradient of the average over the distinct samples ``idx``, at full output size."""
        if not self.decomposable:
            raise ValueError("minibatch gradients need a per-sample decomposable objective")
        idx = np.asarray(idx, dtype=int)
        if idx.size == 0:
            raise ValueError("empty minibatch")
        if idx.ndim != 1 or idx.min() < 0 or idx.max() >= self.n or \
                len(set(idx.tolist())) < idx.size:
            raise DimensionMismatch(
                f"minibatch indices must be distinct and in [0, {self.n}), got {idx.tolist()}")
        loss = eval_squared if self.kind == "squared" else eval_logistic
        out = np.zeros((self.n, self.q))
        out[idx] = loss(self._rows(yhat)[idx], self.y[idx])[1].reshape(idx.size, self.q)
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


class _LabelsOnRead(Objective):
    """A supervised objective whose labels ``y(n, q)`` builds when first read.

    For labels that are valid by construction, so they are not checked:
    ``archfile``'s synthetic targets, which certification never reads.
    """

    def __post_init__(self):
        self._make = self.__dict__.pop("y")

    @cached_property
    def y(self) -> np.ndarray:
        return self._make(self.n, self.q)


def _labelled(kind: str, y) -> Objective:
    y = np.asarray(y, dtype=float)
    if y.ndim != 2:
        raise DimensionMismatch(f"labels must be (n, q), got shape {y.shape}")
    return Objective(kind, y.shape[0], y.shape[1], y)


def squared_objective(y: np.ndarray) -> Objective:
    return _labelled("squared", y)


def logistic_objective(y: np.ndarray) -> Objective:
    return _labelled("logistic", y)


def cluster_objective(n: int, q: int, tol: float = 1e-10) -> Objective:
    """Convex-clustering envelope over ``n`` points in R^q.

    ``tol`` bounds the duality gap of the inner solve (see
    :func:`eval_convex_cluster`): each value is within ``tol`` above the true
    envelope and each gradient within ``sqrt(2 tol)`` of the true gradient.
    Keep ``tol`` well above the gap's rounding floor (about 4e-13 at n = 16),
    which no number of iterations gets below.
    """
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
    """Quadratic penalty ``sum_t alpha_t/2 ||u_t||^2``; ``alphas`` is one float
    or one per block (any iterable, read once), of either sign."""

    def __init__(self, alphas):
        self.alphas = float(alphas) if np.isscalar(alphas) else tuple(float(a) for a in alphas)

    def _alpha(self, k: int):
        if isinstance(self.alphas, float):
            return [self.alphas] * k
        if len(self.alphas) != k:
            raise DimensionMismatch(f"{len(self.alphas)} penalties for {k} blocks")
        return list(self.alphas)

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
        """``max_t |alpha_t|``: the Lipschitz constant of the gradient ``(alpha_t u_t)_t``."""
        if isinstance(self.alphas, float):
            return abs(self.alphas)
        return max(map(abs, self.alphas), default=0.0)
