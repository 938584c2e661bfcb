"""Nonlinear layer stages: the a_t in phi_t = a_t o b_t, possibly composed.

A stage maps the full (batch-inclusive) state to the next one. Per-sample
stages act on contiguous per-sample blocks; batch-norm couples the batch.

Cost accounting: applying a stored operator is charged one unit per nonzero
of that operator (a multiply-accumulate ceiling), and a scalar nonlinearity
one unit per coordinate. Structured shortcuts may execute fewer scalar ops
than they are charged; the charge is the cost model the counters report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .activations import ScalarActivation
from .biaffine import _charge, _join_blocks, _split_blocks
from .errors import DimensionMismatch, SecondOrderUnavailable

__all__ = ["StageConstants", "StageLin", "Stage", "ElementwiseStage", "SoftmaxStage",
           "AvgPoolStage", "MaxPoolStage", "BatchNormStage", "BlockStage"]


@dataclass(frozen=True)
class StageConstants:
    """Global constants of a stage as a map between full states.

    m_a: sup ||a(z)|| (inf when unbounded); lip: Lipschitz bound; smooth:
    gradient-Lipschitz bound; a0_norm: ||a(0)||; slope0: upper bound on the
    operator norm of the Jacobian at 0.
    """

    m_a: float
    lip: float
    smooth: float
    a0_norm: float
    slope0: float


class StageLin:
    """Linearization of a stage at a point: adjoint/forward products.

    A linearisation keeps its ``stage`` and defines three things: ``vjp``,
    ``jvp`` and ``hess_contract``.  ``vjp`` and ``jvp`` also take a (k, d)
    stack of vectors and return one row per vector, charged k times the
    units of a single call; a single vector runs the single-call arithmetic
    unchanged.  ``dense_jacobian`` is derived here from one stacked ``jvp``
    on the identity; ``hess_contract`` cannot be derived from first-order
    products, so every linearisation writes its own.  A linearisation exists
    only at a numeric point, so none of them is symbolic.
    """

    def vjp(self, lam, count=None):  # grad(a) @ lam, input-dim result
        raise NotImplementedError

    def jvp(self, dz, count=None):  # Jacobian @ dz, output-dim result
        raise NotImplementedError

    def dense_jacobian(self):
        """Jacobian (out, in) at the linearisation point; column k is ``jvp(e_k)``."""
        return self.jvp(np.eye(self.stage.in_total)).T

    def hess_contract(self, lam):  # sum_k lam_k hess(a_k), (in, in)
        raise NotImplementedError


class Stage:
    in_total: int
    out_total: int
    second_order: bool
    name: str

    def value(self, z, count=None):
        raise NotImplementedError

    def linearize(self, z) -> StageLin:
        raise NotImplementedError

    def constants(self) -> StageConstants:
        raise NotImplementedError

    def grad_sparsity(self) -> int:
        """Nonzero count of the stored Jacobian operator (the s_a figure)."""
        raise NotImplementedError

    def _check(self, z):
        z = np.asarray(z, dtype=float)
        if z.shape != (self.in_total,):
            raise DimensionMismatch(
                f"stage {self.name}: expected ({self.in_total},), got {z.shape}"
            )
        return z


# ---------------------------------------------------------------------------
# element-wise activations


class ElementwiseStage(Stage):
    def __init__(self, act: ScalarActivation, dim_total: int):
        self.act = act
        self.in_total = self.out_total = int(dim_total)
        self.second_order = act.second_order
        self.name = act.name

    def value(self, z, count=None):
        z = self._check(z)
        _charge(count, self.in_total)
        return self.act.fn(z)

    def linearize(self, z):
        z = self._check(z)
        return _ElementwiseLin(self, z)

    def constants(self) -> StageConstants:
        n = self.in_total
        rootn = math.sqrt(n)
        a = self.act
        return StageConstants(
            m_a=a.bound * rootn if math.isfinite(a.bound) else np.inf,
            lip=a.lip,
            smooth=a.smooth,
            a0_norm=abs(a.val0) * rootn,
            slope0=a.slope0,
        )

    def grad_sparsity(self) -> int:
        return self.in_total


class _ElementwiseLin(StageLin):
    def __init__(self, stage: ElementwiseStage, z):
        self.stage = stage
        self.z = z
        self.d1 = stage.act.d1(z)

    def vjp(self, lam, count=None):
        _charge(count, self.stage.in_total, lam)
        return self.d1 * lam

    def jvp(self, dz, count=None):
        _charge(count, self.stage.in_total, dz)
        return self.d1 * dz

    def hess_contract(self, lam):
        if not self.stage.second_order:
            raise SecondOrderUnavailable(
                f"stage {self.stage.name} has no second derivative"
            )
        return np.diag(self.stage.act.d2(self.z) * lam)


# ---------------------------------------------------------------------------
# softmax, per sample


def _softmax_rows(z):
    """Softmax of each row of a 2-d array, shifted by the row maximum; the losses share it."""
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


class SoftmaxStage(Stage):
    def __init__(self, batch: int, classes: int):
        self.batch = int(batch)
        self.classes = int(classes)
        self.in_total = self.out_total = self.batch * self.classes
        self.second_order = True
        self.name = "softmax"

    def _rows(self, z):
        return z.reshape(self.batch, self.classes)

    def value(self, z, count=None):
        z = self._check(z)
        _charge(count, 2 * self.in_total)
        return _softmax_rows(self._rows(z)).ravel()

    def linearize(self, z):
        s = self._rows(self.value(z))
        return _SoftmaxLin(self, s)

    def constants(self) -> StageConstants:
        m, q = self.batch, self.classes
        return StageConstants(
            m_a=float(np.sqrt(m)),
            lip=2.0,
            smooth=4.0,
            a0_norm=float(np.sqrt(m / q)),
            slope0=1.0 / q,
        )

    def grad_sparsity(self) -> int:
        return self.batch * self.classes**2


class _SoftmaxLin(StageLin):
    def __init__(self, stage: SoftmaxStage, s):
        self.stage = stage
        self.s = s  # (batch, q) softmax rows

    def _apply(self, v, count):
        # (diag(s) - s s^T) v, symmetric so vjp == jvp
        _charge(count, self.stage.grad_sparsity(), v)
        rows = v.reshape(v.shape[:-1] + (self.stage.batch, self.stage.classes))
        sv = (self.s * rows).sum(axis=-1, keepdims=True)
        return (self.s * rows - self.s * sv).reshape(v.shape)

    def vjp(self, lam, count=None):
        return self._apply(lam, count)

    def jvp(self, dz, count=None):
        return self._apply(dz, count)

    def hess_contract(self, lam):
        m, q = self.stage.batch, self.stage.classes
        rows = lam.reshape(m, q)
        out = np.zeros((m * q, m * q))
        eye = np.eye(q)
        for i in range(m):
            s, lm = self.s[i], rows[i]
            block = -float(s @ lm) * (np.diag(s) - np.outer(s, s))
            diff = eye - s[None, :]  # row k is (e_k - s)^T
            block += (diff.T * (lm * s)) @ diff
            out[i * q : (i + 1) * q, i * q : (i + 1) * q] = block
        return out


# ---------------------------------------------------------------------------
# pooling, per sample and channel


class _PoolBase(Stage):
    def __init__(self, batch: int, channels: int, spatial_in: int, patches: np.ndarray):
        patches = np.asarray(patches, dtype=int)
        if patches.ndim != 2:
            raise DimensionMismatch("patch index set must be (n_out, patch_size)")
        if patches.size and (patches.min() < 0 or patches.max() >= spatial_in):
            raise DimensionMismatch("patch indices out of range")
        self._shape(batch, channels, spatial_in, *patches.shape)
        self._patches = patches

    @classmethod
    def _deferred(cls, batch, channels, spatial_in, n_out, patch_size, table):
        """A stage whose window table ``table()`` is built on first numeric use.

        ``table`` must return an in-range (n_out, patch_size) integer table,
        as a valid window sweep does.  Constants and sizes need no table, so
        a chain that is only certified never builds one; at fixture scale a
        table takes tens of megabytes.
        """
        self = cls.__new__(cls)
        self._shape(batch, channels, spatial_in, n_out, patch_size)
        self._patches = None
        self._table = table
        return self

    def _shape(self, batch, channels, spatial_in, n_out, patch_size):
        self.batch = int(batch)
        self.channels = int(channels)
        self.spatial_in = int(spatial_in)
        self.n_out, self.patch_size = int(n_out), int(patch_size)
        self.in_total = self.batch * self.channels * self.spatial_in
        self.out_total = self.batch * self.channels * self.n_out
        self._window_index = None

    @property
    def patches(self) -> np.ndarray:
        """Flat spatial input indices of every window, as (n_out, patch_size)."""
        if self._patches is None:
            self._patches = self._table()
            self._table = None
        return self._patches

    def _view(self, z):
        return z.reshape(z.shape[:-1] + (self.batch, self.channels, self.spatial_in))

    def _index(self):
        """Flat input coordinate of every window entry, as (out_total, patch_size).

        Row ``(b, c, o)`` lists the inputs that output ``o`` of sample ``b``,
        channel ``c`` reads.  Built on first use, never by the
        constructor.
        """
        if self._window_index is None:
            rows = np.arange(self.batch * self.channels, dtype=np.intp) * self.spatial_in
            self._window_index = (rows[:, None, None] + self.patches).reshape(
                self.out_total, self.patch_size)
        return self._window_index

    def _scatter(self, index, weights):
        """Adjoint of a gather: add ``weights`` into the input coordinates ``index``.

        A (k, len(index)) stack of weights scatters one row per call, as k
        single vectors (k may be 0).
        """
        if weights.ndim == 2:
            rows = [self._scatter(index, v) for v in weights]
            return np.array(rows).reshape(len(weights), self.in_total)
        return np.bincount(index, weights=weights, minlength=self.in_total)


class AvgPoolStage(_PoolBase):
    second_order = True
    name = "avgpool"

    def value(self, z, count=None):
        z = self._check(z)
        _charge(count, self.out_total * self.patch_size)
        return self._view(z)[:, :, self.patches].mean(axis=-1).ravel()

    def linearize(self, z):
        self._check(z)
        return _AvgPoolLin(self)

    def constants(self) -> StageConstants:
        # treated as a nonexpansive projection; slope-at-zero kept at the
        # Lipschitz bound 1 (a valid upper bound on the true 1/sqrt(patch))
        return StageConstants(m_a=np.inf, lip=1.0, smooth=0.0, a0_norm=0.0, slope0=1.0)

    def grad_sparsity(self) -> int:
        return self.out_total * self.patch_size


class _AvgPoolLin(StageLin):
    def __init__(self, stage: AvgPoolStage):
        self.stage = stage

    def vjp(self, lam, count=None):
        st = self.stage
        _charge(count, st.grad_sparsity(), lam)
        return st._scatter(st._index().ravel(),
                           np.repeat(lam / st.patch_size, st.patch_size, axis=-1))

    def jvp(self, dz, count=None):
        st = self.stage
        _charge(count, st.grad_sparsity(), dz)
        return st._view(dz)[..., st.patches].mean(axis=-1).reshape(
            dz.shape[:-1] + (st.out_total,))

    def hess_contract(self, lam):
        n = self.stage.in_total
        return np.zeros((n, n))


class MaxPoolStage(_PoolBase):
    second_order = False
    name = "maxpool"

    def value(self, z, count=None):
        z = self._check(z)
        _charge(count, self.out_total)
        return self._view(z)[:, :, self.patches].max(axis=-1).ravel()

    def linearize(self, z):
        z = self._check(z)
        gathered = self._view(z)[:, :, self.patches]
        # argmax returns the first maximum: ties break toward lowest index
        arg = gathered.argmax(axis=-1).ravel()
        return _MaxPoolLin(self, self._index()[np.arange(self.out_total), arg])

    def constants(self) -> StageConstants:
        return StageConstants(m_a=np.inf, lip=1.0, smooth=np.inf, a0_norm=0.0, slope0=1.0)

    def grad_sparsity(self) -> int:
        return self.out_total


class _MaxPoolLin(StageLin):
    def __init__(self, stage: MaxPoolStage, winners):
        self.stage = stage
        self.winners = winners  # flat input coordinate each output reads

    def vjp(self, lam, count=None):
        st = self.stage
        _charge(count, st.out_total, lam)
        return st._scatter(self.winners, lam)

    def jvp(self, dz, count=None):
        _charge(count, self.stage.out_total, dz)
        return dz.reshape(dz.shape[:-1] + (self.stage.in_total,))[..., self.winners]

    def hess_contract(self, lam):
        raise SecondOrderUnavailable("maxpool has no second derivative")


# ---------------------------------------------------------------------------
# batch normalization (couples the batch)


class BatchNormStage(Stage):
    """Center each feature over the batch, then scale rows to sigma^2/(sigma^2+eps).

    State layout is per-sample blocks; internally rows are features across the
    batch. No learned scale/offset.
    """

    second_order = True
    name = "batchnorm"

    def __init__(self, batch: int, features: int, eps: float):
        if not eps > 0:
            raise ValueError("batch-norm eps must be positive")
        self.batch = int(batch)
        self.features = int(features)
        self.eps = float(eps)
        self.in_total = self.out_total = self.batch * self.features

    def _rows(self, z):
        # (features, batch): row i = feature i across samples, per row of a stack
        return z.reshape(z.shape[:-1] + (self.batch, self.features)).swapaxes(-1, -2)

    def _centred(self, z):
        """``(xc, f)``: the checked ``z`` as (features, batch) rows centred over
        the batch, and the scale of each row."""
        x = self._rows(self._check(z))
        xc = x - x.mean(axis=1, keepdims=True)
        return xc, np.sqrt(self.eps + (xc**2).sum(axis=1) / self.batch)

    def value(self, z, count=None):
        xc, f = self._centred(z)
        _charge(count, self.grad_sparsity())
        return (xc / f[:, None]).T.ravel()

    def linearize(self, z):
        return _BatchNormLin(self, *self._centred(z))

    def constants(self) -> StageConstants:
        # Each output row is xc/f with ||xc/f||^2 = m ||xc||^2 / (m eps + ||xc||^2)
        # < m, so summed over the features ||a(z)|| < sqrt(features m); the
        # bound is approached as ||xc|| grows.
        m, eps = self.batch, self.eps
        return StageConstants(
            m_a=float(np.sqrt(self.features * m)),
            lip=2.0 / np.sqrt(eps),
            smooth=2.0 / (np.sqrt(m) * eps),
            a0_norm=0.0,
            slope0=1.0 / np.sqrt(eps),
        )

    def grad_sparsity(self) -> int:
        return self.features * self.batch**2


class _BatchNormLin(StageLin):
    def __init__(self, stage: BatchNormStage, xc, f):
        self.stage = stage
        self.xc = xc  # (features, batch), centered
        self.f = f  # (features,)

    def _center(self, rows):
        return rows - rows.mean(axis=-1, keepdims=True)

    def _g_apply(self, rows):
        # per row: (I/f - x x^T/(m f^3)) v   (symmetric)
        m = self.stage.batch
        inner = (self.xc * rows).sum(axis=-1, keepdims=True)
        return rows / self.f[:, None] - self.xc * inner / (m * self.f**3)[:, None]

    def vjp(self, lam, count=None):
        _charge(count, self.stage.grad_sparsity(), lam)
        rows = self.stage._rows(lam)
        return self._center(self._g_apply(rows)).swapaxes(-1, -2).reshape(lam.shape)

    def jvp(self, dz, count=None):
        _charge(count, self.stage.grad_sparsity(), dz)
        rows = self.stage._rows(dz)
        return self._g_apply(self._center(rows)).swapaxes(-1, -2).reshape(dz.shape)

    def hess_contract(self, lam):
        st = self.stage
        m, d = st.batch, st.features
        P = np.eye(m) - np.ones((m, m)) / m
        rows = st._rows(lam)
        out = np.zeros((m * d, m * d))
        eye = np.eye(m)
        for i in range(d):
            x, lm, f = self.xc[i], rows[i], self.f[i]
            xl = float(x @ lm)
            H = 3.0 * xl * np.outer(x, x) / (m**2 * f**5)
            H -= (np.outer(x, lm) + np.outer(lm, x) + xl * eye) / (m * f**3)
            idx = np.arange(m) * d + i
            out[np.ix_(idx, idx)] = P @ H @ P
        return out


# ---------------------------------------------------------------------------
# residual pass-through wrapper


class BlockStage(Stage):
    """Apply an inner stage to the leading block of each sample, pass the rest.

    Realizes the augmented activation of the residual reformulation:
    a_bar(w1, w2) = (a(w1), w2).
    """

    def __init__(self, inner: Stage, batch: int, pass_per_sample: int):
        self.inner = inner
        self.batch = int(batch)
        self.pass_dim = int(pass_per_sample)
        if inner.in_total % self.batch or inner.out_total % self.batch:
            raise DimensionMismatch("inner stage dims must split over the batch")
        self.inner_in = inner.in_total // self.batch
        self.inner_out = inner.out_total // self.batch
        self.in_total = self.batch * (self.inner_in + self.pass_dim)
        self.out_total = self.batch * (self.inner_out + self.pass_dim)
        self.second_order = inner.second_order
        self.name = f"residual({inner.name})"

    def value(self, z, count=None):
        z = self._check(z)
        left, right = _split_blocks(z, self.batch, self.inner_in)
        return _join_blocks(self.inner.value(left, count), right, self.batch)

    def linearize(self, z):
        z = self._check(z)
        left, _ = _split_blocks(z, self.batch, self.inner_in)
        return _BlockLin(self, self.inner.linearize(left))

    def constants(self) -> StageConstants:
        c = self.inner.constants()
        return replace(c, m_a=np.inf, lip=max(1.0, c.lip), slope0=max(1.0, c.slope0))

    def grad_sparsity(self) -> int:
        return self.inner.grad_sparsity() + self.batch * self.pass_dim


class _BlockLin(StageLin):
    def __init__(self, stage: BlockStage, inner_lin: StageLin):
        self.stage = stage
        self.inner_lin = inner_lin

    def vjp(self, lam, count=None):
        st = self.stage
        left, right = _split_blocks(lam, st.batch, st.inner_out)
        _charge(count, st.batch * st.pass_dim, lam)
        return _join_blocks(self.inner_lin.vjp(left, count), right, st.batch)

    def jvp(self, dz, count=None):
        st = self.stage
        left, right = _split_blocks(dz, st.batch, st.inner_in)
        _charge(count, st.batch * st.pass_dim, dz)
        return _join_blocks(self.inner_lin.jvp(left, count), right, st.batch)

    def hess_contract(self, lam):
        st = self.stage
        left, _ = _split_blocks(lam, st.batch, st.inner_out)
        hin = self.inner_lin.hess_contract(left)
        out = np.zeros((st.in_total, st.in_total))
        # inner coordinate i of sample s sits at s * (inner_in + pass_dim) + i
        rows = np.arange(st.batch)[:, None] * (st.inner_in + st.pass_dim) + np.arange(st.inner_in)
        out[np.ix_(rows.ravel(), rows.ravel())] = hin
        return out
