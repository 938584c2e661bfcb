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
_QR_TOL = 1e-13


@dataclass(eq=False)
class LQProblem:
    """Layered quadratic model around one trajectory.

    ``A[t]`` is the transposed state Jacobian of layer ``t`` with shape
    (d_{t-1}, d_t); ``B[t]`` the transposed parameter Jacobian, shape
    (p_t, d_t).  ``P``/``p`` hold state quadratic/linear terms at indices
    0..tau (terminal at tau), ``q`` the parameter linear terms per layer and
    ``R[t]`` the state-parameter cross block, shape (d_{t-1}, p_t).

    The parameter curvature is kept factored,
    ``Q_t = alpha_t I + U_t S_t U_t^T``: ``U[t]`` has shape (p_t, r_t) with
    orthonormal columns whose range contains that of ``B[t]``, or is None
    for the identity basis (r_t = p_t); ``S[t]`` is (r_t, r_t) and
    ``alpha[t]`` a scalar.  ``U`` and ``alpha`` default to the identity and
    zero, so a dense ``Q_t`` passed as ``S[t]`` is the model itself.
    ``dense_Q(t)`` materialises ``Q_t``.
    """

    A: List[np.ndarray]
    B: List[np.ndarray]
    P: List[np.ndarray]
    p: List[np.ndarray]
    S: List[np.ndarray]
    q: List[np.ndarray]
    R: List[np.ndarray]
    kappa: float
    U: Optional[List[Optional[np.ndarray]]] = None
    alpha: Optional[np.ndarray] = None

    def __post_init__(self):
        tau = len(self.A)
        if self.U is None:
            self.U = [None] * tau
        self.alpha = np.zeros(tau) if self.alpha is None else np.asarray(self.alpha, float)
        if not (len(self.B) == len(self.S) == len(self.q) == len(self.R) == len(self.U)
                == tau):
            raise DimensionMismatch("per-layer lists must share one length")
        if self.alpha.shape != (tau,):
            raise DimensionMismatch(f"alpha has shape {self.alpha.shape}, expected ({tau},)")
        if not (len(self.P) == len(self.p) == tau + 1):
            raise DimensionMismatch("state terms must have tau + 1 entries")
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        for t in range(tau):
            d_prev, d_cur = self.A[t].shape
            pt = self.B[t].shape[0]
            if self.B[t].shape[1] != d_cur:
                raise DimensionMismatch(f"B[{t}] col dim {self.B[t].shape[1]} != {d_cur}")
            if self.R[t].shape != (d_prev, pt):
                raise DimensionMismatch(f"R[{t}] shape {self.R[t].shape} != ({d_prev}, {pt})")
            rt = self._check_basis(t, pt)
            if self.S[t].shape != (rt, rt) or self.q[t].shape != (pt,):
                raise DimensionMismatch(
                    f"S/q[{t}] shapes inconsistent with r_t={rt}, p_t={pt}")
            if self.P[t].shape != (d_prev, d_prev) or self.p[t].shape != (d_prev,):
                raise DimensionMismatch(f"P/p[{t}] shapes inconsistent with d={d_prev}")
        d_tau = self.A[-1].shape[1]
        if self.P[tau].shape != (d_tau, d_tau) or self.p[tau].shape != (d_tau,):
            raise DimensionMismatch("terminal P/p shapes inconsistent")

    def _check_basis(self, t: int, pt: int) -> int:
        """Validate ``U[t]`` against ``B[t]``; return the rank r_t."""
        U, B = self.U[t], self.B[t]
        if U is None:
            return pt
        if U.ndim != 2 or U.shape[0] != pt or U.shape[1] > pt:
            raise DimensionMismatch(f"U[{t}] shape {U.shape} is not ({pt}, r) with r <= {pt}")
        gram_err = np.abs(U.T @ U - np.eye(U.shape[1])).max(initial=0.0)
        if not gram_err <= _BASIS_TOL:
            raise InvalidBasis(f"U[{t}] columns are not orthonormal (error {gram_err:.2e})")
        miss = float(np.linalg.norm(B - U @ (U.T @ B)))
        if not miss <= _BASIS_TOL * float(np.linalg.norm(B)):
            raise InvalidBasis(f"B[{t}] has a component of norm {miss:.2e} outside U[{t}]")
        return U.shape[1]

    @property
    def tau(self) -> int:
        return len(self.A)

    @property
    def param_dims(self) -> tuple:
        return tuple(b.shape[0] for b in self.B)

    def dense_Q(self, t: int) -> np.ndarray:
        """Parameter curvature ``alpha_t I + U_t S_t U_t^T``, shape (p_t, p_t)."""
        U, S = self.U[t], self.S[t]
        low = S if U is None else U @ S @ U.T
        return self.alpha[t] * np.eye(self.B[t].shape[0]) + low


@dataclass(eq=False)
class OracleStep:
    v: ParamVector
    diagnostics: dict = field(default_factory=dict)


def _layer_blocks(tape: Tape, t: int):
    """``(A_t, B_t, U_t, F_t)`` of layer ``t``.

    ``A_t``/``B_t`` are the transposed layer Jacobians.  ``F_t`` factors the
    part's transposed parameter Jacobian as ``Ju^T = U_t F_t``: a thin QR
    (:func:`_range_basis`) when the part has fewer outputs than parameters,
    else ``U_t = None`` (the identity) and ``F_t = Ju^T``.  The stages act
    on the output side, so the range of ``B_t`` lies in that of ``U_t``.
    """
    part = tape.chain.layers[t].part
    Jx = part.dense_jx(tape.u.blocks[t])
    Ju = part.dense_ju(tape.states[t])
    U, F = _range_basis(Ju.T) if part.d_out < part.p else (None, Ju.T)
    for lin in tape.stage_lins[t]:
        Js = lin.dense_jacobian()
        Jx = Js @ Jx
        Ju = Js @ Ju
    _require_finite(tape, t, Jx, Ju, F)
    return Jx.T, Ju.T, U, F


def _range_basis(J: np.ndarray):
    """``(U, F)`` with orthonormal columns in ``U`` and ``J = U F``, J tall.

    Two passes of Cholesky QR cost a few products of J's size.  Householder
    QR, several times slower at these shapes, takes over when they break
    down or miss either property, as J far from full rank can make them.
    """
    U, F = J, np.eye(J.shape[1])
    try:
        for _ in range(2):
            L = np.linalg.cholesky(U.T @ U)
            U = U @ np.linalg.inv(L).T
            F = L.T @ F
    except np.linalg.LinAlgError:
        return np.linalg.qr(J)
    ortho_err = np.abs(U.T @ U - np.eye(U.shape[1])).max()
    factor_err = np.abs(U @ F - J).max()
    if not (ortho_err <= _QR_TOL and factor_err <= _QR_TOL * np.abs(J).max()):
        return np.linalg.qr(J)
    return U, F


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
    parameter curvature stays factored (see :class:`LQProblem`): the
    regularizer gives ``alpha_t``, and the layer term ``Ju^T H Ju`` becomes
    ``S_t = F_t H F_t^T`` in the basis ``U_t``, so no (p_t, p_t) array is
    formed when the part has fewer outputs than parameters.  A non-finite
    block raises ``NumericError`` naming its layer.
    """
    if kind not in ("gradient", "gauss-newton", "newton"):
        raise ValueError(f"unknown model kind '{kind}'")
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    r = r if r is not None else ZeroReg()
    chain = tape.chain
    tau = chain.tau
    dims = [chain.d0] + [l.d_out for l in chain.layers]
    pdims = chain.param_dims

    layer_blocks = [_layer_blocks(tape, t) for t in range(tau)]
    A, B, U, F = (list(column) for column in zip(*layer_blocks))
    S = [np.zeros((f.shape[0], f.shape[0])) for f in F]
    q = [b.copy() for b in r.grad(tape.u).blocks]
    R = [np.zeros((dims[t], pdims[t])) for t in range(tau)]
    P = [np.zeros((d, d)) for d in dims]
    p = [np.zeros(d) for d in dims]

    if kind == "gradient":
        p[tau] = np.asarray(h.value_grad(tape.output)[1], dtype=float)
        _require_finite(tape, tau, p[tau])
        return LQProblem(A, B, P, p, S, q, R, kappa, U)

    gh, Hh = h.grad_hess(tape.output)
    P[tau] = np.asarray(Hh, dtype=float)
    p[tau] = np.asarray(gh, dtype=float)
    _require_finite(tape, tau, P[tau], p[tau])
    if kind == "newton":
        lam = p[tau]
        for t in range(tau - 1, -1, -1):
            P[t], R[t], H = layer_second_contract(tape, t, lam)
            S[t] = F[t] @ H @ F[t].T
            _require_finite(tape, t, P[t], R[t], S[t])
            lam = A[t] @ lam
    return LQProblem(A, B, P, p, S, q, R, kappa, U, r.curvatures(pdims))


def solve_gradient_step(lq: LQProblem, gamma: float) -> OracleStep:
    """Scaled steepest-descent step from the linear model terms."""
    if gamma <= 0:
        raise ValueError("step size must be positive")
    lam = lq.p[lq.tau].copy()
    blocks = [None] * lq.tau
    for t in range(lq.tau - 1, -1, -1):
        blocks[t] = -gamma * (lq.q[t] + lq.B[t] @ lam)
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


def solve_newton_dp(lq: LQProblem) -> OracleStep:
    """Exact minimizer of the layered quadratic model by two sweeps.

    A backward value-function recursion produces feedback gains; a forward
    rollout emits the step.  If any stage cost fails the positive-definite
    test, the whole backward sweep restarts with the proximal weight
    doubled, up to a cap.

    The stage cost ``N_t = kappa I + Q_t + B_t C B_t^T`` is solved in the
    basis ``U_t`` of :class:`LQProblem`.  With ``s_t = kappa + alpha_t`` and
    ``Bt_t = U_t^T B_t`` it is ``s_t (I - U_t U_t^T) + U_t T_t U_t^T`` for
    the (r_t, r_t) matrix ``T_t = s_t I + S_t + Bt_t C Bt_t^T``, so it is
    positive definite when ``T_t`` is and, if r_t < p_t, ``s_t`` is too,
    and ``N_t^{-1} Y = Y / s_t + U_t (T_t^{-1} U_t^T Y - U_t^T Y / s_t)``.
    A stage then costs O(p_t r_t d) for d = d_{t-1} + d_t instead of the
    O(p_t^3) of a dense factorisation; the identity basis (``U_t = None``)
    is the dense stage itself.
    """
    tau = lq.tau
    kappa = lq.kappa
    Bt = [B if U is None else U.T @ B for U, B in zip(lq.U, lq.B)]
    for doubling in range(_DOUBLING_CAP + 1):
        C = lq.P[tau].copy()
        c = lq.p[tau].copy()
        K = [None] * tau
        k = [None] * tau
        feasible = True
        for t in range(tau - 1, -1, -1):
            A, B, Rt, U = lq.A[t], lq.B[t], lq.R[t], lq.U[t]
            s = kappa + lq.alpha[t]
            r = Bt[t].shape[0]
            CB = C @ B.T
            CBt = CB if U is None else C @ Bt[t].T
            T = s * np.eye(r) + lq.S[t] + Bt[t] @ CBt
            T = 0.5 * (T + T.T)
            L = _chol_pd(T, s if r < B.shape[0] else None)
            if L is None:
                if not (np.all(np.isfinite(T)) and np.isfinite(s)):
                    raise NumericError(f"Newton-DP stage cost {t} is non-finite")
                feasible = False
                break
            M = Rt + A @ CB
            Bc = lq.q[t] + B @ c
            # one factorisation of T serves the gain and the offset
            Y = np.column_stack((M.T, Bc))
            if U is None:
                sol = np.linalg.solve(T, Y)
            else:
                UtY = U.T @ Y
                sol = Y / s + U @ (np.linalg.solve(T, UtY) - UtY / s)
            Ninv_Mt, Ninv_bc = sol[:, :-1], sol[:, -1]
            K[t] = -Ninv_Mt
            k[t] = -Ninv_bc
            Cn = lq.P[t] + A @ C @ A.T - M @ Ninv_Mt
            C = 0.5 * (Cn + Cn.T)
            c = lq.p[t] + A @ c - M @ Ninv_bc
        if feasible:
            y = np.zeros(lq.A[0].shape[0])
            blocks = []
            for t in range(tau):
                v = K[t] @ y + k[t]
                blocks.append(v)
                y = lq.A[t].T @ y + lq.B[t].T @ v
            step = ParamVector(blocks)
            _check_finite(step, "Newton-DP")
            return OracleStep(step,
                              {"kind": "newton-dp", "kappa_used": kappa,
                               "doublings": doubling, "converged": True,
                               "exit_reason": "exact"})
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
        cross = Y_prev.T @ lq.R[t] @ E
        H += cross + cross.T
        Y_prev = lq.A[t].T @ Y_prev + lq.B[t].T @ E
    H += Y_prev.T @ lq.P[tau] @ Y_prev
    g += Y_prev.T @ lq.p[tau]
    H = 0.5 * (H + H.T)
    v = np.linalg.solve(H, -g)
    return OracleStep(ParamVector([v[offs[t]:offs[t + 1]] for t in range(tau)]),
                      {"kind": "dense", "H": H, "g": g})


def solve_gauss_newton_dual(tape: Tape, h, r: Optional[Regularizer], kappa: float,
                            tol: float = 1e-10, max_iter: Optional[int] = None,
                            compute_gap: bool = False) -> OracleStep:
    """Prox-linear step through the dual, metered in chain-derivative calls.

    The quadratic loss model must be convex and every shifted regularizer
    curvature ``alpha_t + kappa`` positive (both checked before any
    derivative call, refused otherwise).  The regularizer Hessian is
    ``alpha_t I`` per block, so its shifted inverse is a per-block division
    and no parameter-sized matrix is formed.  The dual reduces to a
    positive-definite system in an output-sized variable, solved by
    conjugate gradients where each iteration costs one adjoint and one
    tangent call; the primal step is recovered for free from accumulated
    CG data.  Diagnostics report the exact number of
    adjoint/tangent calls, which is at most ``2 d_tau + 1`` whenever CG
    stops before ``d_tau`` full iterations (one call short of the cap).
    ``exit_reason`` says why CG stopped: ``"tolerance"``, ``"zero_gradient"``
    (nothing to solve), ``"nonpositive_curvature"`` or ``"iteration_cap"``;
    ``converged`` is True for the first two only.  ``"nonpositive_curvature"``
    is reachable only through rounding: the system matrix is
    ``A = H + H J W^-1 J^T H`` with ``H`` symmetric PSD, the right-hand side
    and ``A``'s range lie in ``range(H)``, so CG keeps ``p`` there and
    ``p^T A p >= p^T H p > 0`` for every nonzero ``p``.  A non-finite step
    raises ``NumericError``.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
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
    g, H = h.grad_hess(y)
    evals = np.linalg.eigvalsh(0.5 * (H + H.T))
    scale = max(1.0, float(np.abs(evals).max()))
    if float(evals.min()) < -1e-10 * scale:
        raise InfeasibleModel(
            "loss quadratic model is not convex; the duality route needs a "
            "convex model")

    def w_solve(pv: ParamVector) -> ParamVector:
        return ParamVector([b / s for s, b in zip(shift, pv.blocks)])

    base = backward(tape, g) + r.grad(tape.u)
    if base.norm() == 0.0:
        diags = {"ad_calls": tape.ad_calls - calls0, "cg_iterations": 0,
                 "budget": 2 * d_tau + 1, "budget_ok": True, "residual_norm": 0.0,
                 "converged": True, "exit_reason": "zero_gradient"}
        return OracleStep(ParamVector.zeros(pdims), diags)

    c0 = w_solve(base)
    rhs = -(H @ jvp(tape, c0))
    zeta = ParamVector.zeros(pdims)
    w = np.zeros(d_tau)
    res = rhs.copy()
    rr = float(res @ res)
    tol_abs = tol * (1.0 + float(np.linalg.norm(rhs)))
    cap = d_tau if max_iter is None else int(max_iter)
    iters = 0
    p = res.copy()
    exit_reason = "tolerance"
    while np.sqrt(rr) > tol_abs:
        if iters >= cap:
            exit_reason = "iteration_cap"
            break
        t1 = H @ p
        t2 = backward(tape, t1)
        t4 = jvp(tape, w_solve(t2))
        Ap = t1 + H @ t4
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            exit_reason = "nonpositive_curvature"
            break
        alpha = rr / pAp
        w = w + alpha * p
        zeta = zeta + alpha * t2
        res = res - alpha * Ap
        rr_new = float(res @ res)
        iters += 1
        p = res + (rr_new / rr) * p
        rr = rr_new

    v = -1.0 * (c0 + w_solve(zeta))
    _check_finite(v, "Gauss-Newton dual")
    ad_calls = tape.ad_calls - calls0
    budget = 2 * d_tau + 1
    diags = {
        "ad_calls": ad_calls,
        "cg_iterations": iters,
        "budget": budget,
        "budget_ok": ad_calls <= budget,
        "residual_norm": float(np.sqrt(rr)),
        "converged": exit_reason == "tolerance",
        "exit_reason": exit_reason,
    }

    if compute_gap:
        # Extra derivative calls below are diagnostic only and excluded
        # from the metered count reported above.
        h_val = h.value_grad(y)[0] if not hasattr(h, "value") else h.value(y)
        r_val = r.value(tape.u)
        s = base + zeta
        ws = w_solve(s)
        dual_val = h_val + r_val - 0.5 * float(w @ (H @ w)) - 0.5 * s.dot(ws)
        jv = jvp(tape, v)
        prim_h = h_val + float(g @ jv) + 0.5 * float(jv @ (H @ jv))
        rv = r.grad(tape.u).dot(v)
        vWv = sum(s * float(b @ b) for s, b in zip(shift, v.blocks))
        prim_val = prim_h + r_val + rv + 0.5 * vWv
        diags["dual_value"] = dual_val
        diags["primal_model_value"] = prim_val
        diags["gap"] = prim_val - dual_val
    return OracleStep(v, diags)
