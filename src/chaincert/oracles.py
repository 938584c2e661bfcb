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
from .errors import DimensionMismatch, InfeasibleModel, NumericError
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


@dataclass(eq=False)
class LQProblem:
    """Layered quadratic model around one trajectory.

    ``A[t]`` is the transposed state Jacobian of layer ``t`` with shape
    (d_{t-1}, d_t); ``B[t]`` the transposed parameter Jacobian, shape
    (p_t, d_t).  ``P``/``p`` hold state quadratic/linear terms at indices
    0..tau (terminal at tau), ``Q``/``q`` parameter terms per layer and
    ``R[t]`` the state-parameter cross block, shape (d_{t-1}, p_t).
    """

    A: List[np.ndarray]
    B: List[np.ndarray]
    P: List[np.ndarray]
    p: List[np.ndarray]
    Q: List[np.ndarray]
    q: List[np.ndarray]
    R: List[np.ndarray]
    kappa: float

    def __post_init__(self):
        tau = len(self.A)
        if not (len(self.B) == len(self.Q) == len(self.q) == len(self.R) == tau):
            raise DimensionMismatch("per-layer lists must share one length")
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
            if self.Q[t].shape != (pt, pt) or self.q[t].shape != (pt,):
                raise DimensionMismatch(f"Q/q[{t}] shapes inconsistent with p_t={pt}")
            if self.P[t].shape != (d_prev, d_prev) or self.p[t].shape != (d_prev,):
                raise DimensionMismatch(f"P/p[{t}] shapes inconsistent with d={d_prev}")
        d_tau = self.A[-1].shape[1]
        if self.P[tau].shape != (d_tau, d_tau) or self.p[tau].shape != (d_tau,):
            raise DimensionMismatch("terminal P/p shapes inconsistent")

    @property
    def tau(self) -> int:
        return len(self.A)

    @property
    def param_dims(self) -> tuple:
        return tuple(b.shape[0] for b in self.B)


@dataclass(eq=False)
class OracleStep:
    v: ParamVector
    diagnostics: dict = field(default_factory=dict)


def _dense_layer_jacobians(tape: Tape, t: int):
    layer = tape.chain.layers[t]
    Jx = layer.part.dense_jx(tape.u.blocks[t])
    Ju = layer.part.dense_ju(tape.states[t])
    for lin in tape.stage_lins[t]:
        Js = lin.dense_jacobian()
        Jx = Js @ Jx
        Ju = Js @ Ju
    return Jx, Ju


def build_lq(tape: Tape, h, r: Optional[Regularizer], kind: str, kappa: float) -> LQProblem:
    """Assemble the layered quadratic model of one of three kinds.

    "gradient" keeps only linear terms; "gauss-newton" adds the loss
    curvature at the output and the regularizer curvature; "newton" also
    contracts each layer's second derivatives against the adjoint.
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

    A = [None] * tau
    B = [None] * tau
    for t in range(tau):
        Jx, Ju = _dense_layer_jacobians(tape, t)
        A[t] = Jx.T
        B[t] = Ju.T

    if kind == "gradient":
        gh = h.value_grad(tape.output)[1]
        P = [np.zeros((d, d)) for d in dims]
        p = [np.zeros(d) for d in dims[:-1]] + [np.asarray(gh, dtype=float)]
        Q = [np.zeros((pt, pt)) for pt in pdims]
        q = [b.copy() for b in r.grad(tape.u).blocks]
        R = [np.zeros((dims[t], pdims[t])) for t in range(tau)]
        return LQProblem(A, B, P, p, Q, q, R, kappa)

    gh, Hh = h.grad_hess(tape.output)
    rH = r.hess_blocks(pdims)
    q = [b.copy() for b in r.grad(tape.u).blocks]
    P = [np.zeros((d, d)) for d in dims[:-1]] + [np.asarray(Hh, dtype=float)]
    p = [np.zeros(d) for d in dims[:-1]] + [np.asarray(gh, dtype=float)]
    Q = [np.asarray(rH[t], dtype=float) for t in range(tau)]
    R = [np.zeros((dims[t], pdims[t])) for t in range(tau)]
    if kind == "newton":
        lam = np.asarray(gh, dtype=float)
        for t in range(tau - 1, -1, -1):
            Hxx, Hxu, Huu = layer_second_contract(tape, t, lam)
            P[t] = P[t] + Hxx
            R[t] = R[t] + Hxu
            Q[t] = Q[t] + Huu
            lam = A[t] @ lam
    return LQProblem(A, B, P, p, Q, q, R, kappa)


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


def _chol_pd(N: np.ndarray):
    """Cholesky factor if N passes the pivot threshold, else None."""
    try:
        L = np.linalg.cholesky(N)
    except np.linalg.LinAlgError:
        return None
    scale = max(1.0, float(np.abs(np.diag(N)).max()))
    if float((np.diag(L) ** 2).min()) <= _PIVOT_EPS * scale:
        return None
    return L


def solve_newton_dp(lq: LQProblem) -> OracleStep:
    """Exact minimizer of the layered quadratic model by two sweeps.

    A backward value-function recursion produces feedback gains; a forward
    rollout emits the step.  If any stage cost fails the positive-definite
    test, the whole backward sweep restarts with the proximal weight
    doubled, up to a cap.
    """
    tau = lq.tau
    kappa = lq.kappa
    for doubling in range(_DOUBLING_CAP + 1):
        C = lq.P[tau].copy()
        c = lq.p[tau].copy()
        K = [None] * tau
        k = [None] * tau
        feasible = True
        for t in range(tau - 1, -1, -1):
            A, B, Rt = lq.A[t], lq.B[t], lq.R[t]
            CB = C @ B.T
            N = kappa * np.eye(B.shape[0]) + lq.Q[t] + B @ CB
            N = 0.5 * (N + N.T)
            L = _chol_pd(N)
            if L is None:
                if not np.all(np.isfinite(N)):
                    raise NumericError(f"Newton-DP stage cost {t} is non-finite")
                feasible = False
                break
            M = Rt + A @ CB
            Bc = lq.q[t] + B @ c
            # one factorisation of N serves the gain and the offset
            sol = np.linalg.solve(N, np.column_stack((M.T, Bc)))
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
        H[sl, sl] += lq.Q[t] + lq.kappa * np.eye(pdims[t])
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
    ``converged`` is True for the first two only.  A non-finite step raises
    ``NumericError``.
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
