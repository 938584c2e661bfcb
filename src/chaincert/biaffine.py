"""Bi-affine maps: the parameter-bearing half of every layer.

A map ``b(x, u) = beta(x, u) + beta_u(u) + beta_x(x) + beta_0`` with ``beta``
bilinear and the other pieces affine.  Each part knows its exact operation
counts (one unit per scalar add or multiply of an applied stored operator)
and its own norm constants:

* ``L_b``   smoothness of the bilinear term,
* ``l_u``   norm of the parameter Jacobian at the origin,
* ``l_x``   norm of the state Jacobian at the origin,
* ``beta0_norm``  norm of the offset ``b(0, 0) = beta_0``.

State layout is sample-major throughout: a batch of ``m`` samples with
per-sample dimension ``d`` is the C-order ravel of an ``(m, d)`` array, and
per-sample layout is ``(channels, spatial)`` for convolutional maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, SymbolicOnlyError

__all__ = [
    "BiAffineConstants",
    "BiAffinePart",
    "DenseBiAffinePart",
    "FCPart",
    "ConvPart",
    "SymbolicConvPart",
    "IdentityPart",
    "ResidualPart",
    "operator_norm",
]


def _charge(count, n: int, stack=None) -> None:
    """Add ``n`` units to ``count``, ``k n`` if ``stack`` is a (k, d) stack."""
    if count is not None and n:
        count.add(n if stack is None or np.ndim(stack) == 1 else len(stack) * n)


def _split_blocks(z, m: int, first: int):
    """Each of ``m`` samples' leading ``first`` entries and the rest, flat per row of a stack.

    ``z`` is sample-major, a (d,) vector or a (k, d) stack (k may be 0).
    """
    lead = z.shape[:-1]
    view = z.reshape(lead + (m, z.shape[-1] // m))
    return (view[..., :first].reshape(lead + (m * first,)),
            view[..., first:].reshape(lead + (z.shape[-1] - m * first,)))


def _join_blocks(left, right, m: int):
    """Per sample, ``left``'s block then ``right``'s: the inverse of ``_split_blocks``."""
    lead = left.shape[:-1]
    lv = left.reshape(lead + (m, left.shape[-1] // m))
    rv = right.reshape(lead + (m, right.shape[-1] // m))
    return np.concatenate([lv, rv], axis=-1).reshape(lead + (left.shape[-1] + right.shape[-1],))


def operator_norm(m: np.ndarray) -> float:
    """Largest singular value ``||m||_{2,2}``; 0 for an empty matrix."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


class _PartLin:
    """A part at one checked point, calling its public methods."""

    __slots__ = ("part", "x", "u")

    def __init__(self, part, x, u):
        self.part, self.x, self.u = part, x, u

    def value(self, count=None):
        return self.part.value(self.x, self.u, count)

    def vjp_x(self, w, count=None):
        return self.part.vjp_x(self.u, w, count)

    def vjp_u(self, w, count=None):
        return self.part.vjp_u(self.x, w, count)

    def vjp_u_samples(self, w, count=None):
        return self.part.vjp_u_samples(self.x, w, count)

    def jvp(self, dx, du, count=None):
        return self.part.jvp(self.x, self.u, dx, du, count)


@dataclass(frozen=True)
class BiAffineConstants:
    """Norm data of one bi-affine map, all plain nonnegative floats."""

    L_b: float
    l_u: float
    l_x: float
    beta0_norm: float


class BiAffinePart:
    """Interface shared by all bi-affine maps.

    A part defines five things: ``value``, ``vjp_x``, ``vjp_u``, ``jvp`` and
    ``constants``, all on single vectors, except that ``vjp_x(u, W)`` also
    takes a (k, d_out) stack of cotangents: it returns one row per stacked
    vector (k may be 0) and charges k times the units of a single call.  A
    stack of k vectors is k single sweeps (vector reverse mode, Griewank &
    Walther, *Evaluating Derivatives*, 2nd ed., ch. 3-4), so a part with no
    stacked kernel answers it one row at a time (``_rows``).

    Everything else is derived here, each from one identity stack: the dense
    Jacobians ``dense_jx``/``dense_ju`` are the adjoints of the identity
    cotangents, and ``second_cross`` follows from ``vjp_u`` at the identity
    points by bilinearity.  ``dense_ju`` and ``second_cross`` loop single
    ``vjp_u`` calls through ``_rows``, the one place that builds a
    many-vector ``vjp_u``.  Each checks ``numeric`` before it builds an
    identity stack.  No part overrides them; for ``FCPart`` the stacked
    ``vjp_x`` of ``dense_jx`` is a single GEMM.

    Subclasses set ``d_in``, ``d_out``, ``p`` and the four sparsity figures
    ``s_beta``, ``s_beta_u``, ``s_beta_x``, ``s_beta0`` (stored nonzeros of
    the bilinear, parameter-affine, state-affine and constant pieces).
    ``numeric`` is False for parts that carry constants and dimensions only;
    they refuse numeric work with ``SymbolicOnlyError(refusal)``.
    """

    d_in: int
    d_out: int
    p: int
    s_beta: int
    s_beta_u: int
    s_beta_x: int
    s_beta0: int
    numeric: bool = True
    refusal = "this part carries constants and dimensions only"

    def value(self, x: np.ndarray, u: np.ndarray, count=None) -> np.ndarray:
        raise NotImplementedError

    def vjp_x(self, u: np.ndarray, w: np.ndarray, count=None) -> np.ndarray:
        """Transposed state Jacobian applied to ``w``, or to each row of a stack."""
        raise NotImplementedError

    def vjp_u(self, x: np.ndarray, w: np.ndarray, count=None) -> np.ndarray:
        """Transposed parameter Jacobian at ``x`` applied to ``w``."""
        raise NotImplementedError

    # Parts whose samples stay apart also define ``vjp_u_samples(x, w,
    # count)``: the (m, p) per-sample terms of ``vjp_u``, one row per sample,
    # summing to it and charged as it is.  Parts that mix samples leave it
    # out, and so does the parameter-free identity.

    def jvp(self, x, u, dx, du, count=None) -> np.ndarray:
        """Directional derivative at ``(x, u)`` along ``(dx, du)``."""
        raise NotImplementedError

    def linearize(self, x: np.ndarray, u: np.ndarray):
        """The part at ``(x, u)`` for the sweeps of one tape, ``x`` and ``u`` checked here.

        It has ``value``, ``vjp_x``, ``vjp_u``, ``jvp`` (and ``vjp_u_samples``
        where the part has it) under the part's own stack contract, and holds
        views of ``x`` and ``u`` only, never a gathered copy.  This one calls
        the public methods, whose checks cost well under 1% of a convolution;
        ``FCPart``, where checks and splitting took a third of a call,
        overrides it with ``_FCLin``, the only copy of its arithmetic.
        """
        self._require_numeric()
        return _PartLin(self, self._check_x(x), self._check_u(u))

    def dense_jx(self, u: np.ndarray) -> np.ndarray:
        """State Jacobian at ``u``, shape (d_out, d_in); row k is ``vjp_x(u, e_k)``."""
        self._require_numeric()
        return self.vjp_x(self._check_u(u), np.eye(self.d_out))

    def dense_ju(self, x: np.ndarray) -> np.ndarray:
        """Parameter Jacobian at ``x``, shape (d_out, p); row k is ``vjp_u(x, e_k)``."""
        self._require_numeric()
        return self._rows(self.vjp_u, self._check_x(x), np.eye(self.d_out), self.p, None)

    def second_cross(self, w: np.ndarray) -> np.ndarray:
        """Cross second derivative contracted with ``w``, shape (d_in, p).

        The bilinear term is the only second-order piece of a bi-affine map;
        pure state-state and parameter-parameter blocks vanish.  ``vjp_u`` is
        affine in ``x``, so row i is ``vjp_u(e_i, w) - vjp_u(0, w)``.
        """
        self._require_numeric()
        w = self._check_w(w)
        cross = self._rows(self.vjp_u, np.eye(self.d_in), w, self.p, None)
        cross -= self.vjp_u(np.zeros(self.d_in), w)
        return cross

    def kron_factor(self, x: np.ndarray):
        """Input factor of a Kronecker parameter Jacobian at ``x``, or None.

        A part whose outputs are sample-major, the C-order ravel of an (m, g)
        array, with row (s, f) of ``Ju`` equal to ``Pi (e_f kron X[:, s])``
        returns ``(X, bias)``; ``X`` has shape (n, m) with ``g n = p``.  ``Pi``
        orders the parameters as the C-order ravel of a (g, n) array or, with
        ``bias``, of a (g, n - 1) array followed by the g entries of the last
        column (a fully-connected layer, as in K-FAC, Martens & Grosse, 2015).
        Other parts return None.
        """
        return None

    def constants(self) -> BiAffineConstants:
        raise NotImplementedError

    @staticmethod
    def _rows(method, a, b, width: int, count) -> np.ndarray:
        """(k, width) rows of ``method(a, b, count)``, one call per row of the stack ``a`` or ``b``.

        Each call charges its own units, so the stack is charged k times one call.
        """
        out = np.empty((len(b) if b.ndim == 2 else len(a), width))
        for r in range(len(out)):
            out[r] = method(a, b[r], count) if b.ndim == 2 else method(a[r], b, count)
        return out

    # shape guards -----------------------------------------------------

    def _require_numeric(self) -> None:
        if not self.numeric:
            raise SymbolicOnlyError(self.refusal)

    def _check(self, v, n: int, what: str, stack: bool = False) -> np.ndarray:
        """``v`` as a float (n,) vector or, with ``stack``, also a (k, n) stack."""
        v = np.asarray(v, dtype=float)
        if v.shape != (n,) and not (stack and v.ndim == 2 and v.shape[1] == n):
            expected = f"({n},) or (k, {n})" if stack else f"({n},)"
            raise DimensionMismatch(
                f"{type(self).__name__}: {what} has shape {v.shape}, expected {expected}")
        return v

    def _check_x(self, x) -> np.ndarray:
        return self._check(x, self.d_in, "state")

    def _check_u(self, u) -> np.ndarray:
        return self._check(u, self.p, "parameter vector")

    def _check_w(self, w, stack: bool = False) -> np.ndarray:
        return self._check(w, self.d_out, "cotangent", stack)


class DenseBiAffinePart(BiAffinePart):
    """Explicitly stored bi-affine map, mainly for small problems and tests.

    ``bil`` has shape (d_out, d_in, p); ``mu`` (d_out, p); ``mx``
    (d_out, d_in); ``b0`` (d_out,).  Operation counts charge one unit per
    stored nonzero of each applied piece.
    """

    def __init__(self, bil: np.ndarray, mu: Optional[np.ndarray] = None,
                 mx: Optional[np.ndarray] = None, b0: Optional[np.ndarray] = None):
        bil = np.asarray(bil, dtype=float)
        if bil.ndim != 3:
            raise DimensionMismatch(f"bilinear tensor must be rank 3, got shape {bil.shape}")
        self.bil = bil
        self.d_out, self.d_in, self.p = bil.shape
        self.mu = np.zeros((self.d_out, self.p)) if mu is None else np.asarray(mu, dtype=float)
        self.mx = np.zeros((self.d_out, self.d_in)) if mx is None else np.asarray(mx, dtype=float)
        self.b0 = np.zeros(self.d_out) if b0 is None else np.asarray(b0, dtype=float)
        if self.mu.shape != (self.d_out, self.p) or self.mx.shape != (self.d_out, self.d_in) \
                or self.b0.shape != (self.d_out,):
            raise DimensionMismatch("affine piece shapes do not match the bilinear tensor")
        self.s_beta = int(np.count_nonzero(bil))
        self.s_beta_u = int(np.count_nonzero(self.mu))
        self.s_beta_x = int(np.count_nonzero(self.mx))
        self.s_beta0 = int(np.count_nonzero(self.b0))

    def value(self, x, u, count=None):
        x, u = self._check_x(x), self._check_u(u)
        _charge(count, self.s_beta + self.s_beta_u + self.s_beta_x + self.s_beta0)
        return (np.einsum("kij,i,j->k", self.bil, x, u)
                + self.mu @ u + self.mx @ x + self.b0)

    def vjp_x(self, u, w, count=None):
        u, w = self._check_u(u), self._check_w(w, stack=True)
        _charge(count, self.s_beta + self.s_beta_x, w)
        return np.einsum("kij,...k,j->...i", self.bil, w, u) + w @ self.mx

    def vjp_u(self, x, w, count=None):
        x, w = self._check_x(x), self._check_w(w)
        _charge(count, self.s_beta + self.s_beta_u)
        return np.einsum("kij,k,i->j", self.bil, w, x) + w @ self.mu

    def jvp(self, x, u, dx, du, count=None):
        x, u = self._check_x(x), self._check_u(u)
        dx, du = self._check_x(dx), self._check_u(du)
        _charge(count, 2 * self.s_beta + self.s_beta_u + self.s_beta_x)
        return (np.einsum("kij,i,j->k", self.bil, dx, u)
                + np.einsum("kij,i,j->k", self.bil, x, du)
                + self.mx @ dx + self.mu @ du)

    def constants(self):
        # Valid bilinear norm bound: min over the three unfoldings' spectral
        # norms, each of which dominates the (2,2,2) norm.
        t = self.bil
        cands = [
            operator_norm(t.reshape(self.d_out, -1)),
            operator_norm(np.moveaxis(t, 1, 0).reshape(self.d_in, -1)),
            operator_norm(np.moveaxis(t, 2, 0).reshape(self.p, -1)),
        ]
        return BiAffineConstants(
            L_b=min(cands),
            l_u=operator_norm(self.mu),
            l_x=operator_norm(self.mx),
            beta0_norm=float(np.linalg.norm(self.b0)),
        )


class FCPart(BiAffinePart):
    """Batched fully-connected map: per sample ``x_s -> W x_s + bias``.

    Parameters are the C-order ravel of ``W`` with shape
    (out_features, in_features), followed by the bias if present.  The
    bilinear constant is exactly 1 and the bias replication across the batch
    gives ``l_u = sqrt(m)``.
    """

    def __init__(self, batch: int, in_features: int, out_features: int, bias: bool = True):
        if batch < 1 or in_features < 1 or out_features < 1:
            raise DimensionMismatch("fully-connected dimensions must be positive")
        self.m = batch
        self.nin = in_features
        self.nout = out_features
        self.bias = bias
        self.d_in = batch * in_features
        self.d_out = batch * out_features
        self.p = out_features * in_features + (out_features if bias else 0)
        self.s_beta = batch * out_features * in_features
        self.s_beta_u = batch * out_features if bias else 0
        self.s_beta_x = 0
        self.s_beta0 = 0

    def _split(self, u):
        w = u[: self.nout * self.nin].reshape(self.nout, self.nin)
        b = u[self.nout * self.nin:] if self.bias else np.zeros(self.nout)
        return w, b

    def linearize(self, x, u):
        return _FCLin(self, self._check_x(x), self._check_u(u))

    # The public methods check their arguments, then run the arithmetic of
    # an ``_FCLin`` that holds only the half of the point they read.

    def value(self, x, u, count=None):
        return self.linearize(x, u).value(count)

    def vjp_x(self, u, w, count=None):
        return _FCLin(self, u=self._check_u(u)).vjp_x(self._check_w(w, stack=True), count)

    def vjp_u(self, x, w, count=None):
        return _FCLin(self, self._check_x(x)).vjp_u(self._check_w(w), count)

    def vjp_u_samples(self, x, w, count=None):
        """Row s is sample s's outer product ``w_s x_s^T``, then ``w_s`` for the bias."""
        return _FCLin(self, self._check_x(x)).vjp_u_samples(self._check_w(w), count)

    def jvp(self, x, u, dx, du, count=None):
        return self.linearize(x, u).jvp(self._check_x(dx), self._check_u(du), count)

    def kron_factor(self, x):
        """Augmented inputs ``[x_s; 1]`` as columns (``x_s`` alone without bias).

        Row (s, f) of ``Ju`` holds sample s's augmented input in output f's
        weights and bias, so g = out_features.
        """
        xt = self._check_x(x).reshape(self.m, self.nin).T
        return (np.vstack([xt, np.ones((1, self.m))]) if self.bias else xt), self.bias

    # the derived forms, named here because perfbench's tracer wraps FCPart.__dict__ entries
    dense_jx = BiAffinePart.dense_jx
    dense_ju = BiAffinePart.dense_ju

    def constants(self):
        return BiAffineConstants(
            L_b=1.0,
            l_u=float(np.sqrt(self.m)) if self.bias else 0.0,
            l_x=0.0,
            beta0_norm=0.0,
        )


class _FCLin:
    """An ``FCPart`` at one checked point, and the only copy of its arithmetic.

    It holds the (m, n_in) input view ``xv`` and the split weights ``W`` and
    bias ``b``, so a sweep runs with no check or split per call; a tangent
    ``du`` is split per call, as it changes.  A public ``FCPart`` method
    builds one that holds only the half it reads, the other left None.
    """

    __slots__ = ("part", "xv", "W", "b")

    def __init__(self, part: FCPart, x=None, u=None):
        self.part = part
        self.xv = None if x is None else x.reshape(part.m, part.nin)
        self.W, self.b = (None, None) if u is None else part._split(u)

    def value(self, count=None):
        fc = self.part
        _charge(count, fc.s_beta + fc.s_beta_u)
        return (self.xv @ self.W.T + self.b).ravel()

    def vjp_x(self, w, count=None):
        """``W^T`` applied to ``w`` or, in one GEMM, to each row of a (k, d_out) stack."""
        fc = self.part
        _charge(count, fc.s_beta, w)
        return (w.reshape(-1, fc.nout) @ self.W).reshape(w.shape[:-1] + (fc.d_in,))

    def vjp_u(self, w, count=None):
        fc = self.part
        _charge(count, fc.s_beta + fc.s_beta_u)
        wv = w.reshape(fc.m, fc.nout)
        out = np.empty(fc.p)  # the weight and bias gradients written in place, no concatenation
        np.matmul(wv.T, self.xv, out=out[:fc.nout * fc.nin].reshape(fc.nout, fc.nin))
        if fc.bias:
            wv.sum(axis=0, out=out[fc.nout * fc.nin:])
        return out

    def vjp_u_samples(self, w, count=None):
        fc = self.part
        _charge(count, fc.s_beta + fc.s_beta_u)
        wv = w.reshape(fc.m, fc.nout)
        gw = (wv[:, :, None] * self.xv[:, None, :]).reshape(fc.m, -1)
        return np.concatenate([gw, wv], axis=1) if fc.bias else gw

    def jvp(self, dx, du, count=None):
        fc = self.part
        _charge(count, 2 * fc.s_beta + fc.s_beta_u)
        dW, db = fc._split(du)
        return (dx.reshape(fc.m, fc.nin) @ self.W.T + self.xv @ dW.T + db).ravel()


class _ConvGeometry(BiAffinePart):
    """Dimensions, sparsity figures and constants of a batched convolution.

    Shared by the numeric and the symbolic convolution; subclasses supply
    ``_multiplicity``, the most windows any spatial position is read by.
    """

    def __init__(self, batch: int, channels: int, spatial: int, n_patches: int,
                 patch_len: int, n_filters: int, bias: bool, kernel_shape, stride):
        self.m = batch
        self.C = channels
        self.n_sp = spatial
        self.n_p = int(n_patches)
        self.k_sp = int(patch_len)
        self.n_f = n_filters
        self.bias = bias
        self.kernel_shape = tuple(int(k) for k in kernel_shape)
        self.stride = tuple(int(s) for s in stride)
        self.d_in = batch * channels * spatial
        self.d_out = batch * n_filters * self.n_p
        self.p = n_filters * channels * self.k_sp + (n_filters if bias else 0)
        self.s_beta = batch * self.n_p * n_filters * channels * self.k_sp
        self.s_beta_u = batch * n_filters * self.n_p if bias else 0
        self.s_beta_x = 0
        self.s_beta0 = 0

    def _multiplicity(self) -> int:
        raise NotImplementedError

    def constants(self):
        return BiAffineConstants(
            L_b=math.sqrt(self._multiplicity()),
            l_u=math.sqrt(self.m * self.n_p) if self.bias else 0.0,
            l_x=0.0,
            beta0_norm=0.0,
        )


class ConvPart(_ConvGeometry):
    """Batched cross-correlation over an explicit patch table.

    ``patches`` has shape (n_patches, patch_len) and lists, per output
    position, the flat spatial input indices it reads; this covers any
    dimensionality, stride and padding scheme that keeps indices in range.
    Parameters are the ravel of filters (n_filters, channels, patch_len),
    then the per-filter bias if present.
    """

    def __init__(self, batch: int, channels: int, spatial: int, patches: np.ndarray,
                 n_filters: int, bias: bool = False,
                 kernel_shape: tuple = (), stride: tuple = ()):
        patches = np.asarray(patches)
        if patches.ndim != 2 or not np.issubdtype(patches.dtype, np.integer):
            raise DimensionMismatch("patch table must be a 2-d integer array")
        if patches.size and (patches.min() < 0 or patches.max() >= spatial):
            raise DimensionMismatch("patch indices out of spatial range")
        super().__init__(batch, channels, spatial, *patches.shape, n_filters, bias,
                         kernel_shape, stride)
        self.patches = patches
        self._cols_index = None

    def _split(self, u):
        nfil = self.n_f * self.C * self.k_sp
        F = u[:nfil].reshape(self.n_f, self.C, self.k_sp)
        b = u[nfil:] if self.bias else np.zeros(self.n_f)
        return F, b

    def _index(self):
        """Flat im2col index (n_patches, channels * patch_len), built on first use.

        Column ``(c, j)`` of window ``p`` reads ``c * n_sp + patches[p, j]`` of
        one sample's ``(channels, spatial)`` block.  It is never built by the
        constructor, so a large conv that is only inspected allocates nothing.
        """
        if self._cols_index is None:
            offsets = np.arange(self.C, dtype=np.intp)[None, :, None] * self.n_sp
            self._cols_index = (offsets + self.patches[:, None, :]).reshape(
                self.n_p, self.C * self.k_sp)
        return self._cols_index

    def _cols(self, x):
        """im2col matrix (m, n_patches, channels * patch_len) of ``x``, per row of a stack."""
        return np.take(x.reshape(x.shape[:-1] + (self.m, self.C * self.n_sp)), self._index(),
                       axis=-1)

    def _apply(self, F, cols):
        """Filters applied to gathered windows, as (m, n_filters, n_patches).

        One GEMM per sample: a single tall GEMM over the whole batch was no
        faster and, with OpenBLAS on two threads, raised the peak memory of
        the benchmark CNN by about 7 MB (14%).
        """
        out = np.matmul(cols, F.reshape(self.n_f, self.C * self.k_sp).T)
        return out.transpose(0, 2, 1)

    def value(self, x, u, count=None):
        x, u = self._check_x(x), self._check_u(u)
        F, b = self._split(u)
        _charge(count, self.s_beta + self.s_beta_u)
        out = self._apply(F, self._cols(x))
        if self.bias:
            out = out + b[None, :, None]
        return out.ravel()

    def vjp_x(self, u, w, count=None):
        u, w = self._check_u(u), self._check_w(w, stack=True)
        if w.ndim == 2:
            return self._rows(self.vjp_x, u, w, self.d_in, count)
        F, _ = self._split(u)
        wv = w.reshape(-1, self.n_f, self.n_p)
        _charge(count, self.s_beta)
        F2 = F.reshape(self.n_f, self.C * self.k_sp)
        index = self._index().ravel()
        width = self.C * self.n_sp
        # col2im: each window column adds back into the input it read
        gx = np.empty((self.m, width))
        for s in range(self.m):
            gx[s] = np.bincount(index, weights=(wv[s].T @ F2).ravel(), minlength=width)
        return gx.ravel()

    def _filter_terms(self, x, w):
        """Per-sample filter gradients ``w_s cols(x_s)`` (m, n_f, K) and ``w`` as (m, n_f, n_p)."""
        wv = w.reshape(self.m, self.n_f, self.n_p)
        return np.matmul(wv, self._cols(x)), wv

    def vjp_u(self, x, w, count=None):
        x, w = self._check_x(x), self._check_w(w)
        _charge(count, self.s_beta + self.s_beta_u)
        gF, wv = self._filter_terms(x, w)
        gF = gF.sum(axis=0)
        if self.bias:
            return np.concatenate([gF.ravel(), wv.sum(axis=(0, 2))])
        return gF.ravel()

    def vjp_u_samples(self, x, w, count=None):
        """Row s is sample s's filter gradient, then its bias sums."""
        x, w = self._check_x(x), self._check_w(w)
        _charge(count, self.s_beta + self.s_beta_u)
        gF, wv = self._filter_terms(x, w)
        gF = gF.reshape(self.m, -1)
        if self.bias:
            return np.concatenate([gF, wv.sum(axis=2)], axis=1)
        return gF

    def jvp(self, x, u, dx, du, count=None):
        x, u = self._check_x(x), self._check_u(u)
        dx, du = self._check_x(dx), self._check_u(du)
        F, _ = self._split(u)
        dF, db = self._split(du)
        _charge(count, 2 * self.s_beta + self.s_beta_u)
        cols = self._cols(np.stack([dx, x]))  # one gather for both windows
        out = self._apply(F, cols[0]) + self._apply(dF, cols[1])
        if self.bias:
            out = out + db[None, :, None]
        return out.ravel()

    def _multiplicity(self):
        if not self.patches.size:
            return 0
        return int(np.bincount(self.patches.ravel(), minlength=self.n_sp).max())


class SymbolicConvPart(_ConvGeometry):
    """Convolution declared by hyperparameters only, without a patch table.

    Used for architectures whose stated patch counts do not correspond to a
    materialisable index table here (e.g. padded convolutions declared by
    output size alone).  Constants, dimensions and sparsity figures are
    available; numeric evaluation is not.
    """

    numeric = False
    refusal = ("this convolution is declared symbolically (patch count only); "
               "numeric evaluation needs an explicit patch table")

    def __init__(self, batch: int, channels: int, spatial: int, n_patches: int,
                 kernel_shape: tuple, stride: tuple, n_filters: int, bias: bool = False):
        if len(kernel_shape) != len(stride):
            raise DimensionMismatch("kernel and stride ranks differ")
        super().__init__(batch, channels, spatial, n_patches, int(math.prod(kernel_shape)),
                         n_filters, bias, kernel_shape, stride)

    def _no_numeric(self, *args, **kwargs):
        raise SymbolicOnlyError(self.refusal)

    value = vjp_x = vjp_u = jvp = _no_numeric

    def _multiplicity(self):
        # A spatial position is read by at most ceil(k/s) windows per axis,
        # for any padding scheme.
        mult = 1
        for k, s in zip(self.kernel_shape, self.stride):
            mult *= -(-k // s)
        return mult


class IdentityPart(BiAffinePart):
    """Parameter-free identity; carries pure-nonlinearity layers."""

    def __init__(self, dim: int):
        self.d_in = dim
        self.d_out = dim
        self.p = 0
        self.s_beta = 0
        self.s_beta_u = 0
        self.s_beta_x = 0
        self.s_beta0 = 0

    def value(self, x, u, count=None):
        x = self._check_x(x)
        self._check_u(u)
        return x.copy()

    def vjp_x(self, u, w, count=None):
        self._check_u(u)
        return self._check_w(w, stack=True).copy()

    def vjp_u(self, x, w, count=None):
        self._check_x(x), self._check_w(w)
        return np.zeros(0)

    def jvp(self, x, u, dx, du, count=None):
        self._check_x(x), self._check_u(u), self._check_u(du)
        return self._check_x(dx).copy()

    def constants(self):
        return BiAffineConstants(L_b=0.0, l_u=0.0, l_x=1.0, beta0_norm=0.0)


class ResidualPart(BiAffinePart):
    """Skip wrapper around an inner part.

    Per sample, the input stacks the inner input ``x1`` and a carried block
    ``x2`` of the inner's per-sample output size; the output is
    ``(b(x1, u) + x2, x1)``, again stacked per sample so the state stays
    sample-major.  Routing additions are charged honestly, on top of the
    inner part's stored-operator figures.
    """

    def __init__(self, inner: BiAffinePart, batch: int):
        if inner.d_in % batch or inner.d_out % batch:
            raise DimensionMismatch("inner part dimensions must split over the batch")
        self.inner = inner
        self.m = batch
        self.da = inner.d_in // batch
        self.db = inner.d_out // batch
        self.d_in = inner.d_in + inner.d_out
        self.d_out = inner.d_out + inner.d_in
        self.p = inner.p
        self.s_beta = inner.s_beta
        self.s_beta_u = inner.s_beta_u
        self.s_beta_x = inner.s_beta_x
        self.s_beta0 = inner.s_beta0
        self.numeric = inner.numeric
        self.refusal = inner.refusal

    def value(self, x, u, count=None):
        x1, x2 = _split_blocks(self._check_x(x), self.m, self.da)
        top = self.inner.value(x1, u, count) + x2
        _charge(count, self.m * self.db)
        return _join_blocks(top, x1, self.m)

    def vjp_x(self, u, w, count=None):
        w = self._check_w(w, stack=True)
        w1, w2 = _split_blocks(w, self.m, self.db)
        g1 = self.inner.vjp_x(u, w1, count) + w2
        _charge(count, self.m * self.da, w)
        return _join_blocks(g1, w1, self.m)

    def _inner_adjoint_args(self, x, w):
        """The inner part's input and cotangent at ``(x, w)``."""
        return (_split_blocks(self._check_x(x), self.m, self.da)[0],
                _split_blocks(self._check_w(w), self.m, self.db)[0])

    def vjp_u(self, x, w, count=None):
        return self.inner.vjp_u(*self._inner_adjoint_args(x, w), count)

    def vjp_u_samples(self, x, w, count=None):
        return self.inner.vjp_u_samples(*self._inner_adjoint_args(x, w), count)

    def jvp(self, x, u, dx, du, count=None):
        x1, _ = _split_blocks(self._check_x(x), self.m, self.da)
        dx1, dx2 = _split_blocks(self._check_x(dx), self.m, self.da)
        top = self.inner.jvp(x1, u, dx1, du, count) + dx2
        _charge(count, self.m * self.db)
        return _join_blocks(top, dx1, self.m)

    def constants(self):
        c = self.inner.constants()
        # The state Jacobian at the origin stacks the inner one with two
        # identity blocks; its norm is at most l_x + 1.
        return replace(c, l_x=c.l_x + 1.0)
