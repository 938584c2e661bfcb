"""Step oracles on chain-structured quadratic models.

``build_lq`` extracts a layered linear-quadratic model from a recorded
forward pass (transposed Jacobians stored per layer, curvature contracted
against the running adjoint).  The solvers then compute steps three ways:

* a plain gradient step (one extra adjoint recursion),
* an exact dynamic-programming sweep for the full quadratic model,
* a dual conjugate-gradient method for the prox-linear (Gauss-Newton)
  model that touches the chain only through adjoint and tangent calls,
  with a call budget that holds whenever CG stops before ``d_tau``
  iterations and is reported otherwise.

A dense reference solver materialises the whole model for cross-checking
on small instances.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .autodiff import Tape, backward, jvp
from .chain import ParamVector
from .errors import DimensionMismatch, InfeasibleModel, InvalidBasis, NumericError
from .layers import layer_second_contract
from .objectives import Regularizer, ZeroReg

__all__ = [
    "LQProblem",
    "OracleStep",
    "build_lq",
    "solve_gradient_step",
    "solve_newton_dp",
    "solve_gauss_newton_dual",
    "solve_dense_reference",
]

_DOUBLING_CAP = 60
_PIVOT_EPS = 1e-12
_DENSE_CAP = 2000
_BASIS_TOL = 1e-8


class _Basis:
    """Orthonormal parameter basis ``Pi (I_g kron Q)``, kept as an operator.

    ``Q`` (n, k) has orthonormal columns and the basis has shape
    (g n, g k).  ``Pi`` orders the parameters as the C-order ravel of a
    (g, n) array or, with ``bias``, of a (g, n - 1) array followed by the g
    entries of the last column: the (weights, bias) layout of a
    fully-connected part (see ``BiAffinePart.kron_factor``).  A dense
    orthonormal (p, r) array is the case g = 1 without bias.  ``apply`` and
    ``apply_T`` take a vector or a matrix of columns and cost O(g n k) per
    column; ``dense()`` forms the (p, r) array.  Both work on the rows of
    the transposed input, so a transposed C-order array is their fast case.
    """

    def __init__(self, Q, groups: int = 1, bias: bool = False):
        self.Q = np.asarray(Q, dtype=float)
        self.g, self.bias = groups, bias
        n, k = self.Q.shape
        self.shape = (groups * n, groups * k)
        # C-order copies: numpy's matmul takes a slow path on strided operands
        self._Qw = np.ascontiguousarray(self.Q[:-1] if bias else self.Q)
        self._QwT = np.ascontiguousarray(self._Qw.T)
        self._nw = groups * self._Qw.shape[0]

    def apply(self, Z):
        """``U Z`` for Z of shape (r,) or (r, c)."""
        rows = np.atleast_2d(np.asarray(Z, dtype=float).T)
        c, (n_w, k) = rows.shape[0], self._Qw.shape
        if not self.bias:
            out = (rows.reshape(c * self.g, k) @ self._QwT).reshape(c, self.shape[0])
        else:
            blocks = rows.reshape(c, self.g, k)
            out = np.empty((c, self.shape[0]))
            np.matmul(blocks, self._QwT, out=out[:, :self._nw].reshape(c, self.g, n_w))
            np.matmul(blocks, self.Q[-1], out=out[:, self._nw:])
        return out.T.reshape((self.shape[0],) + np.shape(Z)[1:])

    def apply_T(self, Y):
        """``U^T Y`` for Y of shape (p,) or (p, c)."""
        rows = np.atleast_2d(np.asarray(Y, dtype=float).T)
        c, n_w = rows.shape[0], self._Qw.shape[0]
        if not self.bias:
            out = rows.reshape(c * self.g, n_w) @ self._Qw
        else:
            out = np.matmul(rows[:, :self._nw].reshape(c, self.g, n_w), self._Qw)
            out += rows[:, self._nw:, None] * self.Q[-1]
        return out.reshape(c, self.shape[1]).T.reshape((self.shape[1],) + np.shape(Y)[1:])

    def dense(self) -> np.ndarray:
        return self.apply(np.eye(self.shape[1]))

    def gram_error(self) -> float:
        """Largest entry of ``U^T U - I``; that of ``Q^T Q - I``, as the blocks repeat."""
        return float(np.abs(self.Q.T @ self.Q - np.eye(self.Q.shape[1])).max(initial=0.0))


class _KronCross:
    """Out-of-basis part ``E = X_c (I - U U^T)`` of a Kronecker layer's cross block.

    Row (s, i) of ``X_c = second_cross(w)`` is ``Pi (W[s] kron e_i)``, ``W``
    the (m, g) cotangent (``BiAffinePart.kron_factor`` orders the outputs
    sample-major), so in ``U = Pi (I_g kron Q)`` row (s, i) of ``E`` is
    ``Pi (W[s] kron P[i])``, ``P = I - Q Q^T``.  It acts as that (d, p) array
    under ``@``, and ``gram() = kron(W W^T, P[:n_in, :n_in])`` is ``E E^T``.
    """

    __array_ufunc__ = None  # so that ``y @ E`` for an array ``y`` calls ``__rmatmul__``

    def __init__(self, U: _Basis, W: np.ndarray):
        self.U, self.W, self.shape = U, W, (W.shape[0] * len(U._Qw), U.shape[0])

    def gram(self):
        return np.kron(self.W @ self.W.T, np.eye(len(self.U._Qw)) - self.U._Qw @ self.U._QwT)

    def __matmul__(self, q):
        """``E q``: row (s, i) is ``W[s] . (Q_m P)[:, i]``, ``Q_m`` the (g, n) ``q``."""
        g, (n_in, k) = self.U.g, self.U._Qw.shape
        QmP = q[:g * n_in].reshape(g, n_in) - self.U.apply_T(q).reshape(g, k) @ self.U._QwT
        return (self.W @ QmP).ravel()

    def __rmatmul__(self, y):
        """``y E = Pi vec(W^T Y P[:n_in])``, or the rows ``Y E`` of a (c, d) stack."""
        Y = np.reshape(y, (-1, self.W.shape[0], len(self.U._Qw)))
        WtY = np.matmul(self.W.T, Y)
        out = -self.U.apply((WtY @ self.U._Qw).reshape(len(Y), -1).T).T
        out[:, :WtY[0].size] += WtY.reshape(len(Y), -1)  # X_c^T y, zero in the bias
        return out.reshape(np.shape(y)[:-1] + (self.shape[1],))


@dataclass(eq=False)
class LQProblem:
    """Layered quadratic model around one trajectory.

    ``A[t]`` (d_{t-1}, d_t) is the transposed state Jacobian of layer ``t``,
    ``q[t]`` the parameter linear term; ``P``/``p`` hold the state
    quadratic/linear terms at indices 0..tau (terminal at tau).

    Each layer's parameter side is kept in a basis ``U[t]``, a (p_t, r_t)
    operator with orthonormal columns (``apply``, ``apply_T``, ``dense()``;
    :class:`_Basis`; a dense array is wrapped once) or None for the identity.
    In it ``B[t]`` (r_t, d_t) holds the transposed parameter Jacobian
    ``U_t B_t``, ``S[t]`` (r_t, r_t) the curvature
    ``Q_t = alpha_t I + U_t S_t U_t^T``, ``R[t]`` (d_{t-1}, r_t) the cross
    block ``R_t U_t`` and ``E[t]`` its rest ``R_t (I - U_t U_t^T)``: an
    array with ``E_t U_t = 0``, a :class:`_KronCross` (from :func:`build_lq`)
    or None where it is zero, as for ``U_t = None``.  With ``E[t]`` None and
    r_t < p_t, a full (d_{t-1}, p_t) ``R[t]`` is split here once.  ``U`` and
    ``alpha`` default to the identity and zero, so dense ``B_t``, ``Q_t``,
    ``R_t`` are the model itself; ``dense_B``, ``dense_Q``, ``dense_R`` lift them back.
    """

    A: List[np.ndarray]
    B: List[np.ndarray]
    P: List[np.ndarray]
    p: List[np.ndarray]
    S: List[np.ndarray]
    q: List[np.ndarray]
    R: List[np.ndarray]
    kappa: float
    U: Optional[list] = None
    alpha: Optional[np.ndarray] = None
    E: Optional[list] = None

    def __post_init__(self):
        tau = len(self.A)
        self.U = [None] * tau if self.U is None else list(self.U)
        self.E, self.R = [None] * tau if self.E is None else list(self.E), list(self.R)
        self.alpha = np.zeros(tau) if self.alpha is None else np.asarray(self.alpha, float)
        if not (len(self.B) == len(self.S) == len(self.q) == len(self.R) == len(self.U)
                == len(self.E) == tau):
            raise DimensionMismatch("per-layer lists must share one length")
        if self.alpha.shape != (tau,):
            raise DimensionMismatch(f"alpha has shape {self.alpha.shape}, expected ({tau},)")
        if not (len(self.P) == len(self.p) == tau + 1):
            raise DimensionMismatch("state terms must have tau + 1 entries")
        if not self.kappa > 0:
            raise ValueError("kappa must be positive")
        for t in range(tau):
            d_prev, d_cur = self.A[t].shape
            pt = self.q[t].shape[0]
            rt = self._check_basis(t, pt)
            U, R, E = self.U[t], self.R[t], self.E[t]
            if E is None and rt < pt and R.shape == (d_prev, pt):  # a full block
                self.R[t] = U.apply_T(R.T).T
                self.E[t] = R - U.apply(self.R[t].T).T
            if self.R[t].shape != (d_prev, rt):
                raise DimensionMismatch(f"R[{t}] shape {self.R[t].shape} != ({d_prev}, {rt})")
            if E is not None and (U is None or E.shape != (d_prev, pt)):
                raise DimensionMismatch(f"E[{t}] is not a ({d_prev}, {pt}) out-of-basis part")
            if isinstance(E, np.ndarray) and not (np.linalg.norm(U.apply_T(E.T)) <= _BASIS_TOL
                                                  * (np.linalg.norm(E) + np.linalg.norm(R))):
                raise InvalidBasis(f"E[{t}] is not outside the basis U[{t}]")
            if self.B[t].shape != (rt, d_cur):
                raise DimensionMismatch(f"B[{t}] shape {self.B[t].shape} != ({rt}, {d_cur})")
            if self.S[t].shape != (rt, rt) or self.q[t].shape != (pt,):
                raise DimensionMismatch(
                    f"S/q[{t}] shapes inconsistent with r_t={rt}, p_t={pt}")
            if self.P[t].shape != (d_prev, d_prev) or self.p[t].shape != (d_prev,):
                raise DimensionMismatch(f"P/p[{t}] shapes inconsistent with d={d_prev}")
        d_tau = self.A[-1].shape[1]
        if self.P[tau].shape != (d_tau, d_tau) or self.p[tau].shape != (d_tau,):
            raise DimensionMismatch("terminal P/p shapes inconsistent")

    def _check_basis(self, t: int, pt: int) -> int:
        """Check that ``U[t]`` is an orthonormal (p_t, r_t) basis; return r_t.

        A dense array is wrapped in a :class:`_Basis` here, once.
        """
        U = self.U[t]
        if U is None:
            return pt
        if not isinstance(U, _Basis):
            U = np.asarray(U, dtype=float)
            if U.ndim == 2:
                U = self.U[t] = _Basis(U)
        if len(U.shape) != 2 or U.shape[0] != pt or U.shape[1] > pt:
            raise DimensionMismatch(f"U[{t}] shape {U.shape} is not ({pt}, r) with r <= {pt}")
        gram_err = U.gram_error()
        if not gram_err <= _BASIS_TOL:
            raise InvalidBasis(f"U[{t}] columns are not orthonormal (error {gram_err:.2e})")
        return U.shape[1]

    @property
    def tau(self) -> int:
        return len(self.A)

    @property
    def param_dims(self) -> tuple:
        return tuple(q.shape[0] for q in self.q)

    def dense_B(self, t: int) -> np.ndarray:
        """Transposed parameter Jacobian ``U_t B_t``, shape (p_t, d_t)."""
        U = self.U[t]
        return self.B[t] if U is None else U.apply(self.B[t])

    def dense_Q(self, t: int) -> np.ndarray:
        """Parameter curvature ``alpha_t I + U_t S_t U_t^T``, shape (p_t, p_t)."""
        U, S = self.U[t], self.S[t]
        if U is not None:
            D = U.dense()
            S = D @ S @ D.T
        return self.alpha[t] * np.eye(self.q[t].shape[0]) + S

    def dense_R(self, t: int) -> np.ndarray:
        """Cross block ``R[t] U_t^T + E[t]``, shape (d_{t-1}, p_t)."""
        R = self.R[t] if self.U[t] is None else self.U[t].apply(self.R[t].T).T
        return R if self.E[t] is None else R + np.eye(len(R)) @ self.E[t]


@dataclass(eq=False)
class OracleStep:
    v: ParamVector
    diagnostics: dict = field(default_factory=dict)


def _layer_blocks(tape: Tape, t: int):
    """``(A_t, B_t, U_t, F_t, kron)`` of layer ``t``.

    ``A_t`` is the transposed state Jacobian and ``Ju^T = U_t F_t``
    (:func:`_part_basis`, also ``kron``).  Each stage applies its ``jvp`` to
    the rows of ``A_t`` and ``F_t`` as one stack, so no dense Jacobian is formed.
    The stages act on the output side, so the layer's transposed parameter
    Jacobian is ``U_t B_t`` for ``B_t`` the stages applied to ``F_t``.
    """
    part, x = tape.chain.layers[t].part, tape.states[t]
    U, F, kron = _part_basis(part, x)
    A, B = part.dense_jx(tape.u.blocks[t]).T, F
    for lin in tape.stage_lins[t]:
        A = lin.jvp(A)
        B = lin.jvp(B)
    _require_finite(tape, t, A, B, F)
    return A, B, U, F, kron


def _part_basis(part, x: np.ndarray):
    """``(U, F, kron)`` with ``Ju^T = U F``: an orthonormal basis of the range
    of the part's transposed parameter Jacobian at input ``x``.

    With no fewer outputs than parameters a basis would span every
    parameter, so ``U`` is None and ``F = Ju^T``.  Otherwise a part with a
    Kronecker parameter Jacobian (``kron_factor``) gets ``Pi (I_g kron Q_x)``
    from the thin QR ``Q_x R_x`` of its (n, m) input factor, in O(n m^2), and
    ``F = I_g kron R_x`` in the factor's sample-major output order, with
    ``kron`` True.  Other parts, a residual-wrapped one among them, get the
    thin QR ``U F`` of the tall ``Ju^T = dense_ju(x)^T``.
    """
    factor = part.kron_factor(x)
    if part.d_out >= part.p:  # for a Kronecker part, m >= n
        return None, part.dense_ju(x).T, False
    if factor is None:
        U, F = np.linalg.qr(part.dense_ju(x).T)
        return _Basis(U), F, False
    (X, bias), g = factor, part.p // factor[0].shape[0]
    Q, Rx = np.linalg.qr(X)
    F = np.einsum("fh,as->fash", np.eye(g), Rx)  # F[(f, a), (s, h)] = [f == h] R_x[a, s]
    return _Basis(Q, g, bias), F.reshape(g * len(Rx), -1), True


def _cross_block(part, U, F, kron: bool, JxH: np.ndarray, w: np.ndarray):
    """``(R_t U_t, E_t)`` for ``R_t = JxH Ju + X_c``, ``X_c = second_cross(w)``.

    ``JxH Ju U_t = JxH F^T`` and ``JxH Ju`` has its rows in the range of
    ``U_t``, so for ``kron`` (:func:`_part_basis`) ``E_t = X_c (I - U_t U_t^T)``,
    with the sample-major cotangent ``w`` read as an (m, g) array.
    """
    if not kron:  # the full block, split by LQProblem
        return JxH @ (F if U is None else U.apply(F)).T + part.second_cross(w), None
    E = _KronCross(U, w.reshape(-1, U.g))
    return JxH @ F.T + np.einsum("sf,ia->sifa", E.W, U._Qw).reshape(E.shape[0], -1), E


def _require_finite(tape: Tape, t: int, *blocks) -> None:
    """Refuse non-finite model blocks of layer ``t`` (``tau``: the output)."""
    if not all(np.isfinite(blk).all() for blk in blocks):
        where = (f"layer {t} ({tape.chain.layers[t].kind})" if t < tape.chain.tau
                 else "the chain output")
        raise NumericError(f"non-finite quadratic model block at {where}")


def build_lq(tape: Tape, h, r: Optional[Regularizer], kind: str, kappa: float) -> LQProblem:
    """Assemble the layered quadratic model of one of three kinds.

    "gradient" keeps only linear terms; "gauss-newton" adds the loss
    curvature at the output and the regularizer curvature; "newton" also
    contracts each layer's second derivatives against the adjoint.  The
    parameter side stays in the basis ``U_t`` of :func:`_part_basis` (see
    :class:`LQProblem`): the regularizer gives ``alpha_t``, the layer term
    ``Ju^T H Ju`` becomes ``S_t = F_t H F_t^T`` and the cross block
    ``R_t U_t = JxH F_t^T + X_c U_t`` (:func:`_cross_block`), in closed form
    from the QR of a fully-connected part's input factor, so no array with a
    p_t-sized axis besides ``q_t`` is formed.  Layers are visited once, last
    to first; for "newton" each visit makes one call of
    ``layer_second_contract``, the one curvature routine, which gives
    ``P_t = Hxx``, ``JxH``, ``H`` and ``w``.  A non-finite block raises
    ``NumericError`` naming its layer.
    """
    if kind not in ("gradient", "gauss-newton", "newton"):
        raise ValueError(f"unknown model kind '{kind}'")
    if not kappa > 0:
        raise ValueError("kappa must be positive")
    r = r if r is not None else ZeroReg()
    chain = tape.chain
    tau = chain.tau
    dims = [chain.d0] + [l.d_out for l in chain.layers]

    A, B, U, S, R, E = ([None] * tau for _ in range(6))
    q = [b.copy() for b in r.grad(tape.u).blocks]
    P = [None] * (tau + 1)
    p = [np.zeros(d) for d in dims]
    if kind == "gradient":
        P[tau] = np.zeros((dims[tau], dims[tau]))
        p[tau] = np.asarray(h.value_grad(tape.output)[1], dtype=float)
        _require_finite(tape, tau, p[tau])
    else:
        gh, Hh = h.grad_hess(tape.output)
        P[tau] = np.asarray(Hh, dtype=float)
        p[tau] = np.asarray(gh, dtype=float)
        _require_finite(tape, tau, P[tau], p[tau])

    lam = p[tau]
    for t in range(tau - 1, -1, -1):
        A[t], B[t], U[t], F, kron = _layer_blocks(tape, t)
        if kind == "newton":
            P[t], JxH, H, w = layer_second_contract(tape, t, lam)
            R[t], E[t] = _cross_block(chain.layers[t].part, U[t], F, kron, JxH, w)
            S[t] = F @ H @ F.T
            _require_finite(tape, t, P[t], R[t], S[t])
            lam = A[t] @ lam
        else:
            P[t] = np.zeros((dims[t], dims[t]))
            R[t] = np.broadcast_to(0.0, (dims[t], F.shape[0]))
            S[t] = np.zeros((F.shape[0], F.shape[0]))
    alpha = r.curvatures(chain.param_dims) if kind != "gradient" else None
    return LQProblem(A, B, P, p, S, q, R, kappa, U, alpha, E)


def solve_gradient_step(lq: LQProblem, gamma: float) -> OracleStep:
    """Scaled steepest-descent step from the linear model terms."""
    if not gamma > 0:
        raise ValueError("step size must be positive")
    lam = lq.p[lq.tau].copy()
    blocks = [None] * lq.tau
    for t in range(lq.tau - 1, -1, -1):
        blocks[t] = -gamma * (lq.q[t] + lq.dense_B(t) @ lam)
        lam = lq.p[t] + lq.A[t] @ lam
    return OracleStep(ParamVector(blocks), {"kind": "gradient", "gamma": gamma})


def _check_finite(v: ParamVector, solver: str) -> None:
    if not np.all(np.isfinite(v.flat())):
        raise NumericError(f"{solver} produced a non-finite step")


def _chol_pd(N: np.ndarray, tail: Optional[float] = None):
    """Cholesky factor if N passes the pivot threshold, else None.

    ``tail`` is the scalar of an identity block that completes N to a
    block-diagonal stage cost; it must pass the same threshold, on the
    scale of the whole matrix.
    """
    try:
        L = np.linalg.cholesky(N)
    except np.linalg.LinAlgError:
        return None
    pivots = np.diag(L) ** 2
    diag = np.abs(np.diag(N))
    if tail is not None:
        pivots = np.append(pivots, tail)
        diag = np.append(diag, abs(tail))
    scale = max(1.0, float(diag.max(initial=0.0)))
    if not float(pivots.min(initial=np.inf)) > _PIVOT_EPS * scale:
        return None
    return L


def _stage_terms(lq: LQProblem, t: int):
    """The kappa-independent terms of stage ``t``: ``(UtY0, RZ0)``.

    With ``Y0 = [R_t^T | q_t]``: ``UtY0 = U^T Y0 = [R[t]^T | U^T q]`` and, for
    ``Z0 = (I - U U^T) Y0``, ``RZ0 = R Z0 = [E E^T | E q]`` (None for ``E[t]`` None).
    """
    U, R, q, E = lq.U[t], lq.R[t], lq.q[t], lq.E[t]
    UtY0 = np.column_stack((R.T, q if U is None else U.apply_T(q)))
    if E is None:
        return UtY0, None
    return UtY0, np.column_stack((E @ E.T if isinstance(E, np.ndarray) else E.gram(), E @ q))


def solve_newton_dp(lq: LQProblem) -> OracleStep:
    """Exact minimizer of the layered quadratic model by two sweeps.

    A backward value-function recursion produces feedback gains; a forward
    rollout emits the step.  If any stage cost fails the positive-definite
    test, the whole backward sweep restarts with the proximal weight
    doubled, up to a cap.

    The stage cost ``N_t = kappa I + Q_t + U_t B_t C B_t^T U_t^T`` is
    solved in the basis ``U_t`` of :class:`LQProblem`, which holds ``B_t``.
    With ``s_t = kappa + alpha_t`` it is
    ``s_t (I - U_t U_t^T) + U_t T_t U_t^T`` for the (r_t, r_t) matrix
    ``T_t = s_t I + S_t + B_t C B_t^T``, so it is positive definite when
    ``T_t`` is and, if r_t < p_t, ``s_t`` is too.  The right-hand side
    ``Y = [M^T | q + U B c]`` with ``M = R + A C B^T U^T`` is
    ``Y0 + U B [C A^T | c]`` for ``Y0 = [R^T | q]``, so only ``U^T Y``
    depends on the stage:

    * ``U^T Y = U^T Y0 + [B C A^T | B c]``,
    * ``N^{-1} Y = Z0 / s + U T^{-1} U^T Y``, ``Z0 = (I - U U^T) Y0``,
    * ``M N^{-1} Y = R Z0 / s + (U^T Y)[:, :-1]^T T^{-1} U^T Y``.

    ``U^T Y0`` and ``R Z0`` depend neither on kappa nor on ``C``, so they
    are computed once per model (:func:`_stage_terms`), and each stage
    visit costs O(r_t d^2) for d = d_{t-1} + d_t in (r_t, d) products
    instead of O(p_t r_t d); stage tau - 1 sees ``C = P_tau`` in every sweep
    and forms its products once per call.  The gains stay factored as
    ``(T^{-1} U^T Y, s)``; the rollout forms ``Z0 [y; 1] = E^T y + q - U U^T q``,
    one p_t-sized product per layer; ``U_t = None`` is the dense stage itself.

    Diagnostics: ``kappa_used``, ``doublings``, ``iterations`` (backward
    sweeps started, ``doublings + 1``), ``stage_visits`` (stage costs
    formed and tested, over all sweeps), ``seconds``, ``converged`` and
    ``exit_reason``.
    """
    start = time.perf_counter()
    tau = lq.tau
    kappa = lq.kappa
    terms = [_stage_terms(lq, t) for t in range(tau)]
    A, B, C = lq.A[-1], lq.B[-1], lq.P[tau]
    CA = C @ A.T
    last = (B @ (C @ B.T), terms[-1][0] + B @ np.column_stack((CA, lq.p[tau])), A @ CA)
    visits = 0
    for doubling in range(_DOUBLING_CAP + 1):
        C = lq.P[tau]
        c = lq.p[tau]
        gains = [None] * tau
        feasible = True
        for t in range(tau - 1, -1, -1):
            visits += 1
            A, B, (UtY0, RZ0) = lq.A[t], lq.B[t], terms[t]
            s = kappa + lq.alpha[t]
            r = B.shape[0]
            T = s * np.eye(r) + lq.S[t] + (last[0] if t == tau - 1 else B @ (C @ B.T))
            T = 0.5 * (T + T.T)
            L = _chol_pd(T, s if r < lq.q[t].shape[0] else None)
            if L is None:
                if not (np.all(np.isfinite(T)) and np.isfinite(s)):
                    raise NumericError(f"Newton-DP stage cost {t} is non-finite")
                feasible = False
                break
            if t == tau - 1:  # formed only once T is known to factor
                UtY, ACA = last[1:]
            else:
                CA = C @ A.T
                UtY, ACA = UtY0 + B @ np.column_stack((CA, c)), A @ CA
            # one factorisation of T serves the gain and the offset
            W = np.linalg.solve(T, UtY)
            MNY = UtY[:, :-1].T @ W
            if RZ0 is not None:
                MNY += RZ0 / s
            gains[t] = (W, s)
            Cn = lq.P[t] + ACA - MNY[:, :-1]
            C = 0.5 * (Cn + Cn.T)
            c = lq.p[t] + A @ c - MNY[:, -1]
        if feasible:
            y = np.zeros(lq.A[0].shape[0])
            blocks = []
            for t in range(tau):
                (W, s), (UtY0, _), U, E = gains[t], terms[t], lq.U[t], lq.E[t]
                w = W @ np.append(y, 1.0)
                # v = -(Z0 [y; 1] / s + U w), Z0 [y; 1] = E^T y + q - U U^T q
                Ety = 0.0 if E is None else y @ E
                blocks.append(-w if U is None else
                              -((Ety + lq.q[t]) / s + U.apply(w - UtY0[:, -1] / s)))
                # U^T Z0 = 0, so (U B)^T v = -B^T w
                y = lq.A[t].T @ y - lq.B[t].T @ w
            step = ParamVector(blocks)
            _check_finite(step, "Newton-DP")
            return OracleStep(step,
                              {"kind": "newton-dp", "kappa_used": kappa,
                               "doublings": doubling, "iterations": doubling + 1,
                               "stage_visits": visits,
                               "seconds": time.perf_counter() - start,
                               "converged": True, "exit_reason": "exact"})
        kappa = 2.0 * kappa
    raise InfeasibleModel(
        f"stage costs stayed indefinite after {_DOUBLING_CAP} proximal doublings")


def solve_dense_reference(lq: LQProblem) -> OracleStep:
    """Materialise the quadratic model and solve it directly.

    Intended for cross-checking the structured solvers on small problems;
    refuses instances whose total size exceeds a fixed cap.
    """
    tau = lq.tau
    pdims = list(lq.param_dims)
    dims = [lq.A[0].shape[0]] + [a.shape[1] for a in lq.A]
    if sum(pdims) + sum(dims) > _DENSE_CAP:
        raise ValueError("dense reference solver is capped to small instances")
    ptot = sum(pdims)
    offs = np.cumsum([0] + pdims)

    Y_prev = np.zeros((dims[0], ptot))
    H = np.zeros((ptot, ptot))
    g = np.zeros(ptot)
    for t in range(tau):
        sl = slice(offs[t], offs[t + 1])
        E = np.zeros((pdims[t], ptot))
        E[:, sl] = np.eye(pdims[t])
        H[sl, sl] += lq.dense_Q(t) + lq.kappa * np.eye(pdims[t])
        g[sl] += lq.q[t]
        H += Y_prev.T @ lq.P[t] @ Y_prev
        g += Y_prev.T @ lq.p[t]
        cross = Y_prev.T @ lq.dense_R(t) @ E
        H += cross + cross.T
        Y_prev = lq.A[t].T @ Y_prev + lq.dense_B(t).T @ E
    H += Y_prev.T @ lq.P[tau] @ Y_prev
    g += Y_prev.T @ lq.p[tau]
    H = 0.5 * (H + H.T)
    v = np.linalg.solve(H, -g)
    return OracleStep(ParamVector([v[offs[t]:offs[t + 1]] for t in range(tau)]),
                      {"kind": "dense", "H": H, "g": g})


def solve_gauss_newton_dual(tape: Tape, h, r: Optional[Regularizer], kappa: float,
                            tol: float = 1e-10, compute_gap: bool = False) -> OracleStep:
    """Prox-linear step through the dual, metered in chain-derivative calls.

    ``h`` gives ``grad_hess_blocks(y) -> (g, blocks)``: the loss gradient and
    its Hessian as an (n, q, q) stack of diagonal blocks with n q = d_tau
    (``Objective.grad_hess_blocks``); a dense (d_tau, d_tau) Hessian is the
    one-block stack ``H[None]``.  ``value(y)`` is read only for the gap.
    The quadratic loss model must be convex and every shifted regularizer
    curvature ``alpha_t + kappa`` positive (both checked before any
    derivative call, refused otherwise).  Convexity is tested with
    ``eigvalsh`` on the blocks, whose spectra together are the Hessian's,
    and the Hessian is applied block by block, so no (d_tau, d_tau) array is
    formed from per-sample blocks.  The regularizer Hessian is ``alpha_t I``
    per block, so its shifted inverse is a division and no parameter-sized
    matrix is formed; the CG loop keeps the parameter side flat and updates
    it in place.  The dual reduces to a positive-definite system in an
    output-sized variable, solved by conjugate gradients where each
    iteration costs one adjoint and one tangent call; the primal step is
    recovered for free from accumulated CG data.  Diagnostics report the exact number of
    adjoint/tangent calls, which is at most ``2 d_tau + 1`` whenever CG
    stops before ``d_tau`` full iterations (one call short of the cap).
    ``exit_reason`` says why CG stopped: ``"tolerance"``, ``"zero_gradient"``
    (nothing to solve), ``"nonpositive_curvature"`` or ``"iteration_cap"``
    (``d_tau`` iterations ran and the residual is still above ``tol``);
    ``converged`` is True for the first two only.  Beside ``ad_calls``,
    ``cg_iterations`` (equal to ``iterations``), ``budget`` and
    ``budget_ok``, the diagnostics carry the keys every solver shares:
    ``iterations`` (CG iterations), ``residual`` (the final CG residual
    norm), ``seconds``, ``converged`` and ``exit_reason``.
    ``"nonpositive_curvature"`` is reachable only through rounding: the
    system matrix is ``A = H + H J W^-1 J^T H`` with ``H`` symmetric PSD,
    the right-hand side and ``A``'s range lie in ``range(H)``, so CG keeps
    ``p`` there and ``p^T A p >= p^T H p > 0`` for every nonzero ``p``.
    A non-finite step raises ``NumericError``.
    """
    start = time.perf_counter()
    if not kappa > 0:
        raise ValueError("kappa must be positive")
    if not tol >= 0:
        raise ValueError("tol must be nonnegative")
    r = r if r is not None else ZeroReg()
    chain = tape.chain
    pdims = chain.param_dims
    d_tau = chain.d_out
    calls0 = tape.ad_calls
    shift = r.curvatures(pdims) + kappa
    if not np.all(shift > 0.0):
        raise InfeasibleModel(
            f"regularizer curvature plus kappa is {float(shift.min()):g} in some "
            "block; the duality route needs it positive")

    y = tape.output
    g, Hb = h.grad_hess_blocks(y)
    Hb = np.asarray(Hb, dtype=float)
    if Hb.ndim != 3 or Hb.shape[1] != Hb.shape[2] or Hb.shape[0] * Hb.shape[1] != d_tau:
        raise DimensionMismatch(
            f"loss Hessian blocks have shape {Hb.shape}, expected (n, q, q) with n q = {d_tau}")
    # The spectrum of a block-diagonal matrix is the union of its blocks'
    # spectra; a broadcast stack (the squared loss's) repeats one block.
    distinct = Hb[:1] if Hb.strides[0] == 0 else Hb
    evals = np.linalg.eigvalsh(0.5 * (distinct + distinct.swapaxes(1, 2)))
    scale = max(1.0, float(np.abs(evals).max()))
    if float(evals.min()) < -1e-10 * scale:
        raise InfeasibleModel(
            "loss quadratic model is not convex; the duality route needs a "
            "convex model")
    n_blk, q_blk = Hb.shape[:2]

    def H(v):  # the loss Hessian applied block by block
        return np.matmul(Hb, v.reshape(n_blk, q_blk, 1)).reshape(d_tau)

    # The parameter side is kept flat: the shifted regularizer inverse is a
    # division by ``shift`` repeated over each block, and each jvp reads
    # views of one flat array.
    shift_flat = np.repeat(shift, pdims)
    bounds = list(zip(np.cumsum((0,) + pdims[:-1]), np.cumsum(pdims)))

    def as_params(flat):
        return ParamVector([flat[a:b] for a, b in bounds])

    def diagnostics(iters, residual, exit_reason):
        ad_calls, budget = tape.ad_calls - calls0, 2 * d_tau + 1
        return {"ad_calls": ad_calls, "cg_iterations": iters, "budget": budget,
                "budget_ok": ad_calls <= budget, "iterations": iters, "residual": residual,
                "seconds": time.perf_counter() - start,
                "converged": exit_reason in ("tolerance", "zero_gradient"),
                "exit_reason": exit_reason}

    base = backward(tape, g) + r.grad(tape.u)
    if base.norm() == 0.0:
        return OracleStep(ParamVector.zeros(pdims), diagnostics(0, 0.0, "zero_gradient"))

    base = base.flat()
    c0 = base / shift_flat
    rhs = -H(jvp(tape, as_params(c0)))
    zeta = np.zeros(len(base))
    w = np.zeros(d_tau)
    res = rhs.copy()
    rr = float(res @ res)
    tol_abs = tol * (1.0 + float(np.linalg.norm(rhs)))
    iters = 0
    p = res.copy()
    exit_reason = "tolerance"
    while np.sqrt(rr) > tol_abs:
        if iters >= d_tau:
            exit_reason = "iteration_cap"
            break
        t1 = H(p)
        t2 = backward(tape, t1).flat()
        Ap = H(jvp(tape, as_params(t2 / shift_flat)))
        Ap += t1
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            exit_reason = "nonpositive_curvature"
            break
        alpha = rr / pAp
        w += alpha * p
        t2 *= alpha
        zeta += t2
        Ap *= alpha
        res -= Ap
        rr_new = float(res @ res)
        iters += 1
        p *= rr_new / rr
        p += res
        rr = rr_new

    v = ParamVector.from_flat(pdims, -1.0 * (c0 + zeta / shift_flat))
    _check_finite(v, "Gauss-Newton dual")
    diags = diagnostics(iters, float(np.sqrt(rr)), exit_reason)

    if compute_gap:
        # Extra derivative calls below are diagnostic only and excluded
        # from the metered count reported above.
        h_val = h.value(y)
        r_val = r.value(tape.u)
        s = base + zeta
        dual_val = (h_val + r_val - 0.5 * float(w @ H(w))
                    - 0.5 * as_params(s).dot(as_params(s / shift_flat)))
        jv = jvp(tape, v)
        prim_h = h_val + float(g @ jv) + 0.5 * float(jv @ H(jv))
        rv = r.grad(tape.u).dot(v)
        vWv = sum(s * float(b @ b) for s, b in zip(shift, v.blocks))
        prim_val = prim_h + r_val + rv + 0.5 * vWv
        diags["dual_value"] = dual_val
        diags["primal_model_value"] = prim_val
        diags["gap"] = prim_val - dual_val
    return OracleStep(v, diags)
