"""Step oracle tests.

The dense reference solver is itself validated against a finite-difference
Hessian of the full objective, so the structured solvers are checked
against an independently trusted target.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chaincert import (BiAffinePart, BlockRidge, BoundedDomain, ChainSpec, DenseBiAffinePart,
                       FCPart, IdentityPart, InfeasibleModel, InnerProblem, InvalidBasis,
                       LogMag, LQProblem, NumericError, ResidualPart, TrainConfig, ZeroReg,
                       avgpool2d, build_lq, conv2d, eval_convex_cluster, forward,
                       fully_connected, grad_objective,
                       input_smoothness, layer_second_contract, refine_on_ball,
                       residual_wrap, sample_params, sample_state, solve_dense_reference,
                       solve_gauss_newton_dual, solve_gradient_step, solve_inner,
                       solve_newton_dp, squared_objective, logistic_objective)
from chaincert import oracles
from chaincert.cli import _bench_chain
from chaincert.errors import DimensionMismatch
from chaincert.objectives import Objective

from helpers import flat, unflat, workloads


def _small_instance(seed, tau=3, width=3, batch=2, kind="squared"):
    rng = np.random.default_rng(seed)
    layers = []
    d = width
    for _ in range(tau):
        layers.append(fully_connected(batch, d, width, activation="softplus-centered"))
        d = width
    chain = ChainSpec(tuple(layers))
    u = sample_params(chain.param_dims, [0.4] * tau, rng)
    x0 = rng.standard_normal(batch * width) * 0.3
    y = rng.standard_normal((batch, width)) * 0.2
    h = squared_objective(y)
    return chain, u, x0, h


def _objective_value(chain, h, r, x0, u):
    tape = forward(chain, x0, u)
    val = h.value_grad(tape.output)[0]
    if r is not None:
        val += r.value(u)
    return val


# ---------------------------------------------------------------------------
# model container validation


def test_lq_validation_rejects_bad_shapes():
    A = [np.eye(2)]
    B = [np.zeros((3, 2))]
    P = [np.zeros((2, 2)), np.zeros((2, 2))]
    p = [np.zeros(2), np.zeros(2)]
    Q = [np.zeros((3, 3))]
    q = [np.zeros(3)]
    R = [np.zeros((2, 3))]
    LQProblem(A, B, P, p, Q, q, R, 1.0)  # well-formed

    with pytest.raises(ValueError):
        LQProblem(A, B, P, p, Q, q, R, 0.0)
    with pytest.raises(DimensionMismatch):
        LQProblem(A, B, P[:1], p[:1], Q, q, R, 1.0)
    with pytest.raises(DimensionMismatch):
        LQProblem(A, [np.zeros((3, 1))], P, p, Q, q, R, 1.0)
    with pytest.raises(DimensionMismatch):
        LQProblem(A, B, P, p, Q, q, [np.zeros((3, 2))], 1.0)
    with pytest.raises(DimensionMismatch):
        LQProblem(A, B, P, p, [np.zeros((2, 2))], [np.zeros(3)], R, 1.0)


def test_lq_refuses_every_inconsistent_shape():
    # d_0 = d_1 = 2 and p_0 = p_1 = 3, in the identity basis
    A, P, p = [np.eye(2)] * 2, [np.eye(2)] * 3, [np.zeros(2)] * 3
    B, S = [np.ones((3, 2))] * 2, [np.eye(3)] * 2
    q, R = [np.zeros(3)] * 2, [np.zeros((2, 3))] * 2

    def model(**kw):
        args = dict(A=A, B=B, P=P, p=p, S=S, q=q, R=R, kappa=1.0)
        args.update(kw)
        return LQProblem(**args)

    model()  # well-formed
    bad = [
        dict(B=B + B[:1]),  # per-layer lists of different lengths
        dict(q=q[:1]),
        dict(U=[None]),
        dict(P=[np.eye(3)] + P[1:]),  # a per-layer state term of the wrong size
        dict(p=[np.zeros(3)] + p[1:]),
        dict(P=P[:2] + [np.eye(3)]),  # a wrong terminal state term
        dict(p=p[:2] + [np.zeros(1)]),
        dict(B=[np.ones((4, 2)), B[1]]),  # B[0] does not have p_0 rows
    ]
    # layer 1 in a (3, 2) basis, in whose coordinates B[1] and S[1] are given
    U = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 2)))[0]
    Bu, Su = [B[0], np.ones((2, 2))], [S[0], np.eye(2)]
    model(B=Bu, S=Su, U=[None, U])  # well-formed
    bad += [
        dict(B=Bu, S=Su, U=[None, U[:, :1]]),  # U[1] is not (p_1, r_1)
        dict(B=Bu, S=Su, U=[None, np.vstack((U, np.zeros((1, 2))))]),
        dict(B=[B[0], U @ Bu[1]], S=Su, U=[None, U]),  # a full (p_1, d_1) B
    ]
    for kw in bad:
        with pytest.raises(DimensionMismatch):
            model(**kw)


def test_build_lq_rejects_bad_arguments():
    chain, u, x0, h = _small_instance(0)
    tape = forward(chain, x0, u)
    with pytest.raises(ValueError):
        build_lq(tape, h, None, "secant", 1.0)
    with pytest.raises(ValueError):
        build_lq(tape, h, None, "newton", -1.0)


# ---------------------------------------------------------------------------
# gradient model


def test_gradient_step_matches_adjoint_gradient():
    chain, u, x0, h = _small_instance(1)
    r = BlockRidge([0.3, 0.1, 0.2])
    tape = forward(chain, x0, u)
    lq = build_lq(tape, h, r, "gradient", 1.0)
    step = solve_gradient_step(lq, gamma=0.7)

    grad = grad_objective(chain, x0, u, h)[1] + r.grad(u)
    want = (-0.7) * grad
    for got, exp in zip(step.v.blocks, want.blocks):
        assert np.allclose(got, exp, atol=1e-12)
    with pytest.raises(ValueError):
        solve_gradient_step(lq, gamma=0.0)


# ---------------------------------------------------------------------------
# dense reference against a finite-difference Hessian


def test_dense_newton_matches_fd_hessian_step():
    chain, u, x0, h = _small_instance(2, tau=2, width=2, batch=1)
    r = BlockRidge(0.05)
    kappa = 0.8
    tape = forward(chain, x0, u)
    lq = build_lq(tape, h, r, "newton", kappa)
    step = solve_dense_reference(lq)

    dims = chain.param_dims

    def g_flat(vec):
        pu = unflat(dims, vec)
        return grad_objective(chain, x0, pu, h)[1] + r.grad(pu)

    u_flat = flat(u)
    g0 = flat(g_flat(u_flat))
    n = u_flat.size
    H = np.zeros((n, n))
    eps = 1e-5
    for i in range(n):
        e = np.zeros(n)
        e[i] = eps
        H[:, i] = (flat(g_flat(u_flat + e)) - flat(g_flat(u_flat - e))) / (2 * eps)
    H = 0.5 * (H + H.T) + kappa * np.eye(n)
    want = np.linalg.solve(H, -g0)
    assert np.allclose(flat(step.v), want, atol=1e-6)


# ---------------------------------------------------------------------------
# dynamic programming vs dense


@pytest.mark.parametrize("kind", ["gauss-newton", "newton"])
def test_dp_matches_dense_when_feasible(kind):
    agreements = 0
    for seed in range(40):
        chain, u, x0, h = _small_instance(seed, tau=3, width=3, batch=2)
        tape = forward(chain, x0, u)
        lq = build_lq(tape, h, BlockRidge(0.1), kind, 1.0)
        step_dp = solve_newton_dp(lq)
        if step_dp.diagnostics["doublings"] != 0:
            continue
        step_dense = solve_dense_reference(lq)
        diff = (step_dp.v - step_dense.v).norm()
        denom = max(step_dense.v.norm(), 1e-12)
        assert diff / denom < 1e-9
        agreements += 1
        if agreements >= 10:
            break
    assert agreements >= 10


def test_dp_step_decreases_quadratic_model():
    chain, u, x0, h = _small_instance(7)
    tape = forward(chain, x0, u)
    lq = build_lq(tape, h, None, "gauss-newton", 0.5)
    step = solve_newton_dp(lq)
    dense = solve_dense_reference(lq)
    H, g = dense.diagnostics["H"], dense.diagnostics["g"]
    v = flat(step.v)
    model = float(g @ v) + 0.5 * float(v @ (H @ v))
    assert model < 0.0


def test_tau_one_closed_form():
    chain = ChainSpec((fully_connected(1, 2, 2, activation="sigmoid"),))
    rng = np.random.default_rng(3)
    u = sample_params(chain.param_dims, [0.5], rng)
    x0 = rng.standard_normal(2) * 0.4
    h = squared_objective(rng.standard_normal((1, 2)))
    kappa = 0.9
    tape = forward(chain, x0, u)
    lq = build_lq(tape, h, None, "gauss-newton", kappa)
    step = solve_newton_dp(lq)

    B, Q, q = lq.dense_B(0), lq.dense_Q(0), lq.q[0]
    C, c = lq.P[1], lq.p[1]
    N = kappa * np.eye(B.shape[0]) + Q + B @ C @ B.T
    want = np.linalg.solve(N, -(q + B @ c))
    assert np.allclose(step.v.blocks[0], want, atol=1e-12)
    assert step.diagnostics["doublings"] == 0
    assert step.diagnostics["converged"] is True
    assert step.diagnostics["exit_reason"] == "exact"


def test_indefinite_model_doubles_proximal_weight():
    # Stage cost N = kappa*I - 3*I is indefinite until kappa reaches 4.
    A = [np.ones((1, 1))]
    B = [np.ones((2, 1))]
    P = [np.zeros((1, 1)), np.zeros((1, 1))]
    p = [np.zeros(1), np.ones(1)]
    Q = [-3.0 * np.eye(2)]
    q = [np.zeros(2)]
    R = [np.zeros((1, 2))]
    lq = LQProblem(A, B, P, p, Q, q, R, 1.0)
    step = solve_newton_dp(lq)
    assert step.diagnostics["doublings"] == 2
    assert step.diagnostics["kappa_used"] == 4.0

    dense = solve_dense_reference(replace(lq, kappa=4.0))
    assert np.allclose(flat(step.v), flat(dense.v), atol=1e-12)


def test_dp_diagnostics_count_sweeps_and_stage_visits():
    # Stage 1 is positive definite at every kappa; stage 0 is indefinite until
    # kappa exceeds 3, so kappa 1 and 2 fail there: three sweeps of two visits.
    A = [np.ones((1, 1))] * 2
    B = [np.ones((2, 1))] * 2
    P = [np.zeros((1, 1))] * 3
    p = [np.zeros(1), np.zeros(1), np.ones(1)]
    Q = [-3.0 * np.eye(2), np.zeros((2, 2))]
    q = [np.zeros(2)] * 2
    R = [np.zeros((1, 2))] * 2
    lq = LQProblem(A, B, P, p, Q, q, R, 1.0)
    d = solve_newton_dp(lq).diagnostics
    assert (d["doublings"], d["kappa_used"]) == (2, 4.0)
    assert (d["iterations"], d["stage_visits"]) == (3, 6)
    assert d["seconds"] >= 0.0
    assert (d["kind"], d["converged"], d["exit_reason"]) == ("newton-dp", True, "exact")


def _benchmark_points(seed):
    """The fc-oracles workload's chain (batch 4, width 32, tau 6), loss and
    three points, from its own set-up; its kappa is 0.5."""
    w = workloads.FcOracles(False)
    w.setup(seed)
    return w.chain, w.h, w.points


@pytest.mark.parametrize("seed, pinned", [
    (1, [(8.0, 4, 14)] * 3),
    (7331, [(16.0, 5, 16), (8.0, 4, 14), (8.0, 4, 14)]),
])
def test_dp_sweeps_are_pinned_on_the_benchmark_points(seed, pinned):
    chain, h, points = _benchmark_points(seed)
    for (x0, u), want in zip(points, pinned):
        lq = build_lq(forward(chain, x0, u), h, None, "newton", 0.5)
        step = solve_newton_dp(lq)
        d = step.diagnostics
        assert (d["kappa_used"], d["doublings"], d["stage_visits"]) == want
        # the last sweep alone, started at kappa_used, is bitwise the step
        again = solve_newton_dp(replace(lq, kappa=d["kappa_used"]))
        assert again.diagnostics["doublings"] == 0
        assert np.array_equal(again.v.flat(), step.v.flat())


def test_dp_refuses_a_factored_stage_whose_out_of_basis_tail_fails_the_pivot_test():
    # Q = U U^T - kappa I: in the basis, T = I + Bt C Bt^T factors, but the
    # out-of-basis tail s = kappa + alpha is 0 until kappa doubles.
    rng = np.random.default_rng(3)
    kappa = 0.75
    U = np.linalg.qr(rng.standard_normal((5, 2)))[0]
    A = [rng.standard_normal((1, 2))]
    B = [rng.standard_normal((2, 2))]  # in U's coordinates
    P = [np.eye(1), np.eye(2)]
    p = [rng.standard_normal(1), rng.standard_normal(2)]
    lq = LQProblem(A, B, P, p, [np.eye(2)], [rng.standard_normal(5)],
                   [rng.standard_normal((1, 5))], kappa, U=[U], alpha=[-kappa])
    assert oracles._chol_pd(np.eye(2), 0.0) is None
    step = solve_newton_dp(lq)
    assert (step.diagnostics["doublings"], step.diagnostics["kappa_used"]) == (1, 2 * kappa)
    dense = solve_dense_reference(replace(lq, kappa=2 * kappa))
    assert (step.v - dense.v).norm() <= 1e-12 * dense.v.norm()


def test_hopeless_model_raises():
    # Rank-deficient B cannot rescue a strongly concave parameter block of
    # unbounded magnitude within the doubling cap.
    A = [np.ones((1, 1))]
    B = [np.zeros((1, 1))]
    P = [np.zeros((1, 1)), np.zeros((1, 1))]
    p = [np.zeros(1), np.zeros(1)]
    Q = [np.array([[-1e30]])]
    q = [np.zeros(1)]
    R = [np.zeros((1, 1))]
    with pytest.raises(InfeasibleModel):
        solve_newton_dp(LQProblem(A, B, P, p, Q, q, R, 1.0))


def test_dense_reference_size_cap():
    n = 2100
    A = [np.zeros((n, 1))]
    B = [np.zeros((1, 1))]
    P = [np.zeros((n, n)), np.zeros((1, 1))]
    p = [np.zeros(n), np.zeros(1)]
    Q = [np.eye(1)]
    q = [np.zeros(1)]
    R = [np.zeros((n, 1))]
    lq = LQProblem(A, B, P, p, Q, q, R, 1.0)
    with pytest.raises(ValueError):
        solve_dense_reference(lq)


# ---------------------------------------------------------------------------
# factored stage curvature


def _fc_instance(seed, batch, width, tau=3):
    """FC chain with p_t = width (width + 1) against d_part = batch * width."""
    rng = np.random.default_rng(seed)
    chain = ChainSpec(tuple(
        fully_connected(batch, width, width,
                        activation="softplus" if t + 1 < tau else "identity")
        for t in range(tau)))
    u = sample_params(chain.param_dims, 1.0, rng)
    x0 = sample_state(chain.d0, 1.0, rng)
    h = squared_objective(rng.standard_normal((batch, width)))
    return chain, u, x0, h


def _assert_curvature_matches_dense(tape, lq, alpha):
    """``dense_Q(t)`` against ``alpha I + Ju^T H Ju`` formed densely."""
    lam = lq.p[lq.tau]
    for t in range(lq.tau - 1, -1, -1):
        H = layer_second_contract(tape, t, lam)[2]
        Ju = tape.chain.layers[t].part.dense_ju(tape.states[t])
        want = alpha * np.eye(Ju.shape[1]) + Ju.T @ H @ Ju
        assert np.allclose(lq.dense_Q(t), want, rtol=0.0, atol=1e-12 * np.abs(want).max())
        lam = lq.A[t] @ lam


def test_newton_model_calls_the_public_curvature_routine_once_per_layer(monkeypatch):
    # build_lq calls layer_second_contract by name, so a wrapper bound to that
    # name sees every layer curvature the Newton model uses
    chain, u, x0, h = _fc_instance(0, 2, 5, tau=4)
    calls, real = [], oracles.layer_second_contract
    monkeypatch.setattr(oracles, "layer_second_contract",
                        lambda tape, t, lam: calls.append(t) or real(tape, t, lam))
    tape = forward(chain, x0, u)
    build_lq(tape, h, None, "gauss-newton", 0.5)
    assert calls == []
    lq = build_lq(tape, h, None, "newton", 0.5)
    assert len(calls) == lq.tau == 4 and calls == [3, 2, 1, 0]


def test_newton_model_makes_no_row_call_for_a_parameter_free_part(monkeypatch):
    # The pooling layer's identity part has p = 0, so dense_ju and
    # second_cross have zero-width rows and _rows makes no vjp_u call for
    # them; second_cross's affine offset is the one call left.  A per-row
    # loop at every width gives the same model bitwise.
    chain = ChainSpec((conv2d(2, 1, 6, 6, 2, 3, activation="softplus"),
                       avgpool2d(2, 2, 4, 4, 2), fully_connected(2, 8, 3)))
    rng = np.random.default_rng(0)
    tape = forward(chain, sample_state(chain.d0, 1.0, rng),
                   sample_params(chain.param_dims, 1.0, rng))
    h = squared_objective(rng.standard_normal((2, 3)))
    calls, vjp_u = [], IdentityPart.vjp_u
    monkeypatch.setattr(IdentityPart, "vjp_u",
                        lambda self, *a: calls.append(a) or vjp_u(self, *a))
    lq = build_lq(tape, h, None, "newton", 0.5)
    assert len(calls) == 1

    def every_row(method, a, b, width, count):
        out = np.empty((len(b) if b.ndim == 2 else len(a), width))
        for r in range(len(out)):
            out[r] = method(a, b[r], count) if b.ndim == 2 else method(a[r], b, count)
        return out

    monkeypatch.setattr(BiAffinePart, "_rows", staticmethod(every_row))
    ref = build_lq(tape, h, None, "newton", 0.5)
    assert len(calls) == 1 + 129
    for t in range(lq.tau):
        for name in ("A", "B", "S", "q", "R"):
            assert np.array_equal(getattr(lq, name)[t], getattr(ref, name)[t]), (name, t)
        for block in (lq.dense_B, lq.dense_Q, lq.dense_R):
            assert np.array_equal(block(t), getattr(ref, block.__name__)(t))
    assert all(np.array_equal(a, b) for a, b in zip(lq.P + lq.p, ref.P + ref.p))


@pytest.mark.parametrize("kind", ["gradient", "newton"])
def test_model_keeps_the_parameter_jacobian_in_its_basis(kind):
    # r_t = batch * width = 10 coordinates against p_t = 30 parameters
    chain, u, x0, h = _fc_instance(0, 2, 5)
    tape = forward(chain, x0, u)
    lq = build_lq(tape, h, None, kind, 0.5)
    for t, layer in enumerate(chain.layers):
        J = layer.part.dense_ju(tape.states[t])
        for lin in tape.stage_lins[t]:
            J = lin.dense_jacobian() @ J
        assert lq.B[t].shape == (lq.U[t].shape[1], layer.d_out) == (10, 10)
        assert np.allclose(lq.dense_B(t), J.T, rtol=0.0, atol=1e-12 * np.abs(J).max())


def _identity_basis_twin(lq):
    """The same model with ``B_t``, ``Q_t`` and ``R_t`` materialised in the identity basis."""
    return LQProblem(lq.A, [lq.dense_B(t) for t in range(lq.tau)], lq.P, lq.p,
                     [lq.dense_Q(t) for t in range(lq.tau)], lq.q,
                     [lq.dense_R(t) for t in range(lq.tau)], lq.kappa)


@pytest.mark.parametrize("batch, width, factored, same_samples", [
    (1, 6, True, False), (2, 5, True, False), (8, 2, False, False), (2, 5, True, True),
], ids=["p-7x-d", "p-3x-d", "identity-basis", "identical-samples"])
def test_factored_dp_matches_identity_basis_and_dense(batch, width, factored,
                                                      same_samples):
    # Identical samples make every parameter Jacobian rank-deficient (rank
    # width of batch * width), and with it each part's input factor.
    doubled = 0
    for seed in range(8):
        chain, u, x0, h = _fc_instance(seed, batch, width)
        if same_samples:
            x0 = np.tile(x0[:width], batch)
        tape = forward(chain, x0, u)
        lq = build_lq(tape, h, BlockRidge(0.1), "newton", 0.5)
        assert all((U is not None) == factored for U in lq.U)
        _assert_curvature_matches_dense(tape, lq, 0.1)
        twin = _identity_basis_twin(lq)
        step, step_twin = solve_newton_dp(lq), solve_newton_dp(twin)
        for key in ("doublings", "kappa_used"):
            assert step.diagnostics[key] == step_twin.diagnostics[key]
        assert (step.v - step_twin.v).norm() <= 1e-12 * step_twin.v.norm()
        kappa = step.diagnostics["kappa_used"]
        dense = solve_dense_reference(replace(lq, kappa=kappa))
        assert np.allclose(flat(dense.v), flat(solve_dense_reference(
            replace(twin, kappa=kappa)).v), rtol=1e-10, atol=0.0)
        for got in (step, step_twin):
            assert (got.v - dense.v).norm() / dense.v.norm() < 1e-9
        doubled += step.diagnostics["doublings"] > 0
    assert doubled >= 2


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 4), st.booleans(),
       st.booleans(), st.booleans(), st.data())
def test_kronecker_basis_spans_the_parameter_jacobian(seed, nin, nout, bias, same, residual,
                                                      data):
    batch = data.draw(st.integers(1, nin), label="batch")
    rng = np.random.default_rng(seed)
    part = FCPart(batch, nin, nout, bias=bias)
    x = rng.standard_normal(part.d_in)
    if same:  # identical samples: the input factor has rank 1
        x = np.tile(x[:nin], batch)
    if residual:
        part = ResidualPart(part, batch)
        x = np.concatenate([x.reshape(batch, nin), rng.standard_normal((batch, nout))],
                           axis=1).ravel()
    JuT = part.dense_ju(x).T
    U, F, kron = oracles._part_basis(part, x)
    # a residual-wrapped part has no Kronecker factor: it takes the thin QR
    # of its (p, d_out) transposed Jacobian when d_out < p
    rank = part.d_out if residual else nout * batch
    assert kron == (not residual and U is not None)
    if U is None:  # the basis would be every parameter
        assert part.d_out >= part.p if residual else (not bias and batch == nin)
        return
    D = U.dense()
    assert D.shape == (part.p, rank) == U.shape
    assert np.abs(D.T @ D - np.eye(D.shape[1])).max() < 1e-13
    assert U.gram_error() < 1e-13
    Y, Z = rng.standard_normal((part.p, 3)), rng.standard_normal((D.shape[1], 3))
    assert np.allclose(U.apply_T(Y), D.T @ Y, rtol=0.0, atol=1e-12)
    assert np.allclose(U.apply(Z), D @ Z, rtol=0.0, atol=1e-12)
    assert np.allclose(U.apply_T(Y[:, 0]), D.T @ Y[:, 0], rtol=0.0, atol=1e-12)
    assert np.allclose(U.apply(Z[:, 0]), D @ Z[:, 0], rtol=0.0, atol=1e-12)
    scale = max(1.0, np.abs(JuT).max())
    assert np.allclose(D @ (D.T @ JuT), JuT, rtol=0.0, atol=1e-12 * scale)
    assert np.allclose(D @ F, JuT, rtol=0.0, atol=1e-12 * scale)


@pytest.mark.parametrize("batch, width, same_samples", [
    (1, 6, False), (2, 5, False), (2, 5, True),
], ids=["p-7x-d", "p-3x-d", "identical-samples"])
def test_kronecker_dense_and_identity_bases_give_one_step(monkeypatch, batch, width,
                                                          same_samples):
    for seed in range(6):
        chain, u, x0, h = _fc_instance(seed, batch, width)
        if same_samples:
            x0 = np.tile(x0[:width], batch)
        tape = forward(chain, x0, u)
        lq = build_lq(tape, h, BlockRidge(0.1), "newton", 0.5)
        with monkeypatch.context() as mp:  # the thin-QR path of parts without the hook
            mp.setattr(FCPart, "kron_factor", lambda self, x: None)
            dense = build_lq(tape, h, BlockRidge(0.1), "newton", 0.5)
        assert all(U.g > 1 for U in lq.U) and all(U.g == 1 for U in dense.U)
        steps = [solve_newton_dp(m) for m in (lq, dense, _identity_basis_twin(lq))]
        for got in steps[1:]:
            for key in ("doublings", "kappa_used"):
                assert got.diagnostics[key] == steps[0].diagnostics[key]
            assert (got.v - steps[0].v).norm() <= 1e-12 * steps[0].v.norm()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 4), st.integers(1, 4),
       st.booleans(), st.booleans(), st.booleans())
def test_kronecker_cross_block_matches_the_dense_contraction(seed, batch, nin, nout, bias,
                                                             same, residual):
    # An FC chain whose middle layer is fully connected or residual-wrapped
    # (a thin-QR basis, with no Kronecker factor), with or without bias;
    # identical samples make every input factor rank-deficient.
    rng = np.random.default_rng(seed)
    mid = fully_connected(batch, nin, nout, activation="softplus", bias=bias)
    if residual:
        mid = residual_wrap(mid)
    layers = (fully_connected(batch, 2, mid.d_in // batch, activation="sigmoid", bias=bias),
              mid, fully_connected(batch, mid.d_out // batch, 2, bias=bias))
    chain = ChainSpec(layers)
    u = sample_params(chain.param_dims, 1.0, rng)
    x0 = sample_state(chain.d0, 1.0, rng)
    if same:
        x0 = np.tile(x0[:2], batch)
    h = squared_objective(rng.standard_normal((batch, 2)))
    tape = forward(chain, x0, u)
    lq = build_lq(tape, h, BlockRidge(0.1), "newton", 0.5)
    lam = lq.p[lq.tau]
    for t in range(lq.tau - 1, -1, -1):
        part, x = chain.layers[t].part, tape.states[t]
        _, JxH, _, w = layer_second_contract(tape, t, lam)
        Hxu = JxH @ part.dense_ju(x) + part.second_cross(w)
        scale = max(1.0, np.abs(Hxu).max())
        assert np.allclose(lq.dense_R(t), Hxu, rtol=0.0, atol=1e-12 * scale)
        U, F, kron = oracles._part_basis(part, x)
        assert kron == (U is not None and not (residual and t == 1))
        assert isinstance(lq.E[t], oracles._KronCross) == kron
        assert (lq.E[t] is None) == (U is None)
        JuT = part.dense_ju(x).T
        want = JuT if U is None else U.apply_T(JuT)
        assert np.allclose(F, want, rtol=0.0, atol=1e-12 * max(1.0, np.abs(want).max()))
        lam = lq.A[t] @ lam
    step = solve_newton_dp(lq)
    dense = solve_dense_reference(replace(lq, kappa=step.diagnostics["kappa_used"]))
    assert (step.v - dense.v).norm() <= 1e-10 * dense.v.norm()


def _arrays(obj, depth=3):
    """Every array a model holds, through lists and its operators' attributes."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif depth and isinstance(obj, (list, tuple)):
        for o in obj:
            yield from _arrays(o, depth - 1)
    elif depth and hasattr(obj, "__dict__"):
        for o in vars(obj).values():
            yield from _arrays(o, depth - 1)


@pytest.mark.parametrize("kind", ["gradient", "gauss-newton", "newton"])
def test_kronecker_model_holds_no_parameter_wide_array(kind):
    # p_t = 30 parameters against d_t = r_t = 10 and a (6, 2) input factor
    chain, u, x0, h = _fc_instance(0, 2, 5)
    lq = build_lq(forward(chain, x0, u), h, BlockRidge(0.1), kind, 0.5)
    assert set(chain.param_dims) == {30} and all(U is not None for U in lq.U)
    held = [a for name, v in vars(lq).items() if name != "q" for a in _arrays(v)]
    assert held and all(30 not in a.shape for a in held)
    if kind != "newton":  # a zero cross block is one broadcast float
        assert all(R.strides == (0, 0) and not R.any() for R in lq.R)
        assert all(E is None for E in lq.E)


def _model_bytes(lq):
    """Bytes of every array the model holds (a basis operator's factor is tiny)."""
    arrays = [lq.alpha, *lq.A, *lq.B, *lq.P, *lq.p, *lq.S, *lq.q, *lq.R, *lq.U, *lq.E]
    return sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))


def test_newton_step_working_memory_is_below_the_dense_bases(monkeypatch):
    # the fc-oracles shape: p_t = 1056, r_t = d_t = 128, tau = 6
    chain, u, x0, h = _fc_instance(1, 4, 32, tau=6)
    tape = forward(chain, x0, u)
    refuse = lambda *a: pytest.fail("a dense fully-connected basis was formed")  # noqa: E731
    # the thin-QR basis is formed from dense_ju, so refusing it refuses that basis
    monkeypatch.setattr(FCPart, "dense_ju", refuse)
    monkeypatch.setattr(oracles._Basis, "dense", refuse)
    tracemalloc.start()
    try:
        lq = build_lq(tape, h, BlockRidge(0.1), "newton", 0.5)
        step = solve_newton_dp(lq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(step.v.flat()))
    dense_bases = 8 * sum(p_t * layer.d_out for p_t, layer in zip(chain.param_dims,
                                                                  chain.layers))
    assert peak - _model_bytes(lq) < dense_bases


def test_build_lq_working_memory_at_the_benchmark_shape():
    # The fc-oracles shape: d_t = 128, p_t = 1056, tau = 6; one (d_t, p_t)
    # array is 1.1 MB.  With a dense (d_t, p_t) cross block and parameter
    # Jacobian per layer, build_lq alone peaked at 16.2 MB and build_lq
    # plus the DP at 12.85 MB once B and S were kept in the basis; with the
    # cross block in the Kronecker basis too, they peak at 7.9 MB.
    chain, u, x0, h = _fc_instance(1, 4, 32, tau=6)
    tape = forward(chain, x0, u)
    tracemalloc.start()
    try:
        lq = build_lq(tape, h, None, "newton", 0.5)
        step = solve_newton_dp(lq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lq.tau == 6 and np.all(np.isfinite(step.v.flat()))
    assert peak < 10 * 2**20


@pytest.mark.parametrize("rank", [6, 3, 0], ids=["full-rank", "rank-deficient", "zero"])
def test_range_basis_is_orthonormal_and_factors_its_input(rank):
    # the thin-QR basis of a part with no Kronecker factor: a dense part at
    # x = 0, whose transposed parameter Jacobian is its affine piece mu^T
    rng = np.random.default_rng(rank)
    J = rng.standard_normal((40, rank)) @ rng.standard_normal((rank, 6))
    part = DenseBiAffinePart(np.zeros((6, 1, 40)), mu=J.T)
    Ub, F, kron = oracles._part_basis(part, np.zeros(1))
    U = Ub.dense()
    assert not kron and part.d_out < part.p
    assert U.shape == (40, 6) and F.shape == (6, 6)
    assert np.abs(U.T @ U - np.eye(6)).max() < 1e-13
    assert np.allclose(U @ F, J, rtol=0.0, atol=1e-12 * max(1.0, np.abs(J).max()))


def test_lq_rejects_bad_bases():
    chain, u, x0, h = _fc_instance(0, 1, 4, tau=2)
    lq = build_lq(forward(chain, x0, u), h, BlockRidge(0.1), "newton", 1.0)
    U, S = lq.U[0].dense(), lq.S[0]
    assert U.shape == (20, 4)

    def with_basis(U0, S0=S, alpha=lq.alpha, E0=lq.E[0]):
        return LQProblem(lq.A, lq.B, lq.P, lq.p, [S0, lq.S[1]], lq.q, lq.R, 1.0,
                         [U0, lq.U[1]], alpha, [E0, lq.E[1]])

    with_basis(U)  # well-formed
    E = np.eye(len(lq.R[0])) @ lq.E[0]
    assert np.array_equal(with_basis(U, E0=E).dense_R(0), lq.dense_R(0))
    with pytest.raises(InvalidBasis, match="outside"):
        with_basis(U, E0=E + lq.R[0] @ U.T)  # a part inside the basis
    with pytest.raises(InvalidBasis, match="orthonormal"):
        with_basis(2.0 * U)
    with pytest.raises(DimensionMismatch):
        with_basis(U[:19])
    with pytest.raises(DimensionMismatch):
        with_basis(U, S0=np.zeros((5, 5)))
    with pytest.raises(DimensionMismatch):
        with_basis(U, alpha=np.zeros(3))


def test_lq_reads_the_cross_block_of_a_square_basis_as_coordinates():
    # r_t = p_t: R[t] has the shape of a full block but holds coordinates
    chain, u, x0, h = _small_instance(0)
    lq = _identity_basis_twin(build_lq(forward(chain, x0, u), h, None, "newton", 1.0))
    rng = np.random.default_rng(0)
    U = [np.linalg.qr(rng.standard_normal((len(q), len(q))))[0] for q in lq.q]
    rot = LQProblem(lq.A, [u.T @ b for u, b in zip(U, lq.B)], lq.P, lq.p, lq.S, lq.q,
                    lq.R, lq.kappa, U)
    for t in range(lq.tau):
        assert rot.E[t] is None and rot.R[t] is lq.R[t]
        assert np.allclose(rot.dense_R(t), lq.R[t] @ U[t].T, rtol=0.0, atol=1e-13)


def test_newton_path_forms_no_parameter_sized_square():
    # p_t = 1056 against d_part = 32; one (p_t, p_t) float64 array is 8.9 MB
    chain, u, x0, h = _fc_instance(3, 1, 32, tau=2)
    p_t = chain.param_dims[0]
    assert p_t >= 16 * chain.layers[0].part.d_out
    tape = forward(chain, x0, u)
    tracemalloc.start()
    try:
        step = solve_newton_dp(build_lq(tape, h, BlockRidge(0.1), "newton", 0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(step.v.flat()))
    assert peak < 8 * p_t * p_t


@pytest.mark.parametrize("kind", ["gradient", "gauss-newton", "newton"])
def test_build_lq_raises_on_non_finite_block(kind):
    chain, u, x0, h = _small_instance(12)
    tape = forward(chain, x0, u)
    tape.states[1] = np.full(chain.layers[1].d_in, np.nan)  # forward refuses these
    with pytest.raises(NumericError, match="layer 1"):
        build_lq(tape, h, None, kind, 1.0)


def test_build_lq_raises_on_non_finite_curvature():
    class NanHessian:
        """A stage linearisation whose second-order contraction is NaN."""

        def __init__(self, lin):
            self.lin = lin

        def __getattr__(self, name):
            return getattr(self.lin, name)

        def hess_contract(self, w):
            return np.full((w.size, w.size), np.nan)

    chain, u, x0, h = _small_instance(13)
    tape = forward(chain, x0, u)
    build_lq(tape, h, None, "gauss-newton", 1.0)  # first-order blocks are finite
    tape.stage_lins[0] = [NanHessian(lin) for lin in tape.stage_lins[0]]
    with pytest.raises(NumericError, match="layer 0"):
        build_lq(tape, h, None, "newton", 1.0)


# ---------------------------------------------------------------------------
# Gauss-Newton through the dual


@pytest.mark.parametrize("r", [BlockRidge(0.2), ZeroReg(), BlockRidge(0.3),
                               BlockRidge([0.3, 0.0, 1.2])],
                         ids=["ridge-0.2", "zero", "ridge-0.3", "ridge-per-block"])
def test_gn_dual_matches_dense_and_respects_budget(r):
    for seed in range(6):
        chain, u, x0, h = _small_instance(seed + 20, tau=3, width=3, batch=2)
        tape = forward(chain, x0, u)
        lq = build_lq(tape, h, r, "gauss-newton", 1.0)
        dense = solve_dense_reference(lq)

        tape2 = forward(chain, x0, u)
        step = solve_gauss_newton_dual(tape2, h, r, 1.0, tol=1e-12)
        diff = (step.v - dense.v).norm()
        assert diff / max(dense.v.norm(), 1e-12) < 1e-8
        assert step.diagnostics["budget"] == 2 * chain.d_out + 1
        assert step.diagnostics["ad_calls"] <= step.diagnostics["budget"]
        assert step.diagnostics["budget_ok"]


def test_gn_dual_call_meter_formula():
    chain, u, x0, h = _small_instance(31, tau=2, width=2, batch=1)
    tape = forward(chain, x0, u)
    step = solve_gauss_newton_dual(tape, h, None, 1.0, tol=1e-12)
    k = step.diagnostics["cg_iterations"]
    assert step.diagnostics["ad_calls"] == 2 + 2 * k


def test_gn_dual_reports_budget_overrun_when_cg_needs_every_iteration():
    # The tau=2, width-3 chain of `chaincert oracle-bench --tau 1 2 --width 3`
    # (seed 0, kappa 0.5): CG needs all d_tau = 3 iterations, so the meter
    # 2 + 2k reads 8 against the 2 d_tau + 1 = 7 budget, and says so.
    rng = np.random.default_rng(0)
    for tau in (1, 2):
        chain = _bench_chain(tau, 3, rng)
        u = sample_params(chain.param_dims, 1.0, rng)
        x0 = sample_state(chain.d0, 1.0, rng)
        y = rng.standard_normal((1, 3))
    step = solve_gauss_newton_dual(forward(chain, x0, u), squared_objective(y),
                                   ZeroReg(), 0.5)
    diag = step.diagnostics
    assert diag["ad_calls"] == 2 + 2 * diag["cg_iterations"]
    assert diag["budget_ok"] == (diag["ad_calls"] <= diag["budget"])
    assert diag["cg_iterations"] == chain.d_out == 3
    assert (diag["ad_calls"], diag["budget"], diag["budget_ok"]) == (8, 7, False)


def test_gn_dual_zero_gradient_shortcut():
    chain, u, x0, _ = _small_instance(4, tau=2, width=2, batch=1)
    tape = forward(chain, x0, u)
    h = squared_objective(tape.output.reshape(1, 2).copy())  # loss gradient vanishes here
    tape2 = forward(chain, x0, u)
    step = solve_gauss_newton_dual(tape2, h, None, 1.0)
    assert step.v.norm() == 0.0
    assert step.diagnostics["cg_iterations"] == step.diagnostics["iterations"] == 0
    assert step.diagnostics["ad_calls"] <= 2
    assert step.diagnostics["converged"] is True
    assert step.diagnostics["exit_reason"] == "zero_gradient"


def test_gn_dual_reports_exit_reason():
    chain, u, x0, h = _small_instance(9, tau=2, width=3, batch=2)
    done = solve_gauss_newton_dual(forward(chain, x0, u), h, None, 1.0, tol=1e-12)
    assert done.diagnostics["converged"] is True
    assert done.diagnostics["exit_reason"] == "tolerance"
    # a zero tolerance is not met in rounding, so CG runs all d_tau iterations
    capped = solve_gauss_newton_dual(forward(chain, x0, u), h, None, 1.0, tol=0.0)
    assert capped.diagnostics["converged"] is False
    assert capped.diagnostics["exit_reason"] == "iteration_cap"
    assert capped.diagnostics["cg_iterations"] == chain.d_out


def test_newton_dp_and_gn_dual_share_the_diagnostics_keys():
    chain, u, x0, h = _small_instance(9, tau=2, width=3, batch=2)
    newton = solve_newton_dp(build_lq(forward(chain, x0, u), h, None, "newton", 1.0))
    done = solve_gauss_newton_dual(forward(chain, x0, u), h, None, 1.0, tol=1e-12)
    capped = solve_gauss_newton_dual(forward(chain, x0, u), h, None, 1.0, tol=0.0)
    for step in (newton, done, capped):
        d = step.diagnostics
        assert {"exit_reason", "iterations", "seconds", "converged"} <= set(d)
        assert isinstance(d["iterations"], int) and d["seconds"] >= 0.0
    for step in (done, capped):
        d = step.diagnostics
        assert d["iterations"] == d["cg_iterations"]
        assert "residual_norm" not in d and d["residual"] >= 0.0
    assert capped.diagnostics["iterations"] == chain.d_out


def test_gn_dual_duality_gap_closes():
    chain, u, x0, h = _small_instance(5, tau=3, width=3, batch=2)
    tape = forward(chain, x0, u)
    step = solve_gauss_newton_dual(tape, h, BlockRidge(0.1), 1.0,
                                   tol=1e-12, compute_gap=True)
    gap = step.diagnostics["gap"]
    scale = 1.0 + abs(step.diagnostics["primal_model_value"])
    assert abs(gap) / scale < 1e-8


def test_gn_dual_rejects_nonconvex_loss_model():
    class ConcaveLoss:
        q = 2

        def value_grad(self, y):
            return -0.5 * float(np.sum(y * y)), -np.asarray(y, float)

        def grad_hess_blocks(self, y):  # one dense block
            y = np.asarray(y, float)
            return -y, -np.eye(y.size)[None]

    chain, u, x0, _ = _small_instance(6, tau=2, width=2, batch=1)
    tape = forward(chain, x0, u)
    with pytest.raises(InfeasibleModel):
        solve_gauss_newton_dual(tape, ConcaveLoss(), None, 1.0)


def test_gn_dual_refuses_a_nonpositive_kappa():
    chain, u, x0, h = _small_instance(10)
    tape = forward(chain, x0, u)
    for kappa in (0.0, -1.0):
        with pytest.raises(ValueError, match="kappa must be positive"):
            solve_gauss_newton_dual(tape, h, None, kappa)
    assert tape.ad_calls == 0


@pytest.mark.parametrize("alphas", [[0.3, -1.0, 0.2], [0.3, 0.1, -2.5]],
                         ids=["zero-shift", "negative-shift"])
def test_gn_dual_refuses_nonpositive_shifted_curvature(alphas):
    # kappa = 1 leaves alpha_t + kappa at 0 or below in one block
    chain, u, x0, h = _small_instance(10)
    tape = forward(chain, x0, u)
    with pytest.raises(InfeasibleModel):
        solve_gauss_newton_dual(tape, h, BlockRidge(alphas), 1.0)
    assert tape.ad_calls == 0


def _inner_problem():
    return InnerProblem(1, 1, lambda a, b: b - a, lambda a, b: np.eye(1),
                        lambda a, b: -np.eye(1), mu=1.0, lip=1.0, hess_lip=0.0)


NAN = float("nan")
NAN_REFUSALS = {
    "gn-dual-tol": lambda c, u, tape, h: solve_gauss_newton_dual(tape, h, None, 1.0, tol=NAN),
    "gn-dual-kappa": lambda c, u, tape, h: solve_gauss_newton_dual(tape, h, None, NAN),
    "build-lq-kappa": lambda c, u, tape, h: build_lq(tape, h, None, "newton", NAN),
    "lq-kappa": lambda c, u, tape, h: replace(build_lq(tape, h, None, "newton", 1.0),
                                              kappa=NAN),
    "gradient-step-gamma": lambda c, u, tape, h: solve_gradient_step(
        build_lq(tape, h, None, "gradient", 1.0), NAN),
    "convex-cluster-tol": lambda c, u, tape, h: eval_convex_cluster(np.eye(3), NAN),
    "inner-tol": lambda c, u, tape, h: solve_inner(_inner_problem(), np.ones(1), NAN),
    "inner-mu": lambda c, u, tape, h: replace(_inner_problem(), mu=NAN),
    "train-gamma": lambda c, u, tape, h: TrainConfig(BoundedDomain.uniform(c.tau, 1.0, 1.0),
                                                     1, gamma=NAN),
    "input-smoothness-radius": lambda c, u, tape, h: input_smoothness(c, u, NAN),
    "ball-radius": lambda c, u, tape, h: refine_on_ball(NAN, 1.0, 1.0, 1.0, 0.0),
    "magnitude": lambda c, u, tape, h: LogMag.of(NAN),
}


@pytest.mark.parametrize("case", sorted(NAN_REFUSALS))
def test_a_nan_setting_is_refused_before_any_work(case):
    # each guard reads ``not x > 0`` (``>= 0`` for a radius or a tolerance),
    # which NaN fails, so no solve runs to its cap or reports convergence and
    # no bound comes back NaN
    chain, u, x0, h = _small_instance(0, tau=2)
    tape = forward(chain, x0, u)
    with pytest.raises(ValueError):
        NAN_REFUSALS[case](chain, u, tape, h)
    assert tape.ad_calls == 0


@pytest.mark.parametrize("kind", ["gauss-newton", "newton"])
def test_oracles_raise_on_non_finite_output(kind):
    chain, u, x0, h = _small_instance(11)
    tape = forward(chain, x0, u)
    # forward refuses non-finite states, so the recorded output is edited
    tape.states[-1] = np.full(chain.d_out, np.nan)
    with pytest.raises(NumericError):
        solve_newton_dp(build_lq(tape, h, None, kind, 1.0))
    with pytest.raises(NumericError):
        solve_gauss_newton_dual(tape, h, None, 1.0)


def test_gn_dual_actual_objective_decrease():
    chain, u, x0, h = _small_instance(8)
    r = BlockRidge(0.05)
    tape = forward(chain, x0, u)
    step = solve_gauss_newton_dual(tape, h, r, kappa=2.0, tol=1e-12)
    before = _objective_value(chain, h, r, x0, u)
    after = _objective_value(chain, h, r, x0, u + step.v)
    assert after < before


class _OneDenseBlock:
    """``h`` with its Hessian reported as one dense (d, d) block."""

    def __init__(self, h):
        self.h = h

    def value(self, y):
        return self.h.value(y)

    def grad_hess_blocks(self, y):
        g, H = self.h.grad_hess(y)
        return g, H[None]


@pytest.mark.parametrize("seed", [1, 7331])
def test_gn_dual_steps_from_per_sample_blocks_equal_one_dense_block(seed):
    chain, h, points = _benchmark_points(seed)
    for x0, u in points:
        by_sample, dense = (
            solve_gauss_newton_dual(forward(chain, x0, u), obj, None, 0.5, compute_gap=True)
            for obj in (h, _OneDenseBlock(h)))
        assert np.array_equal(by_sample.v.flat(), dense.v.flat())
        for key in ("gap", "dual_value", "primal_model_value", "residual", "ad_calls",
                    "cg_iterations", "budget_ok", "exit_reason"):
            assert by_sample.diagnostics[key] == dense.diagnostics[key], key


def test_gn_dual_logistic_step_from_blocks_matches_the_dense_hessian():
    chain, _, points = _benchmark_points(1)
    h = logistic_objective(np.eye(32)[[3, 17, 0, 31]])
    for x0, u in points:
        by_sample, dense = (solve_gauss_newton_dual(forward(chain, x0, u), obj, None, 0.5)
                            for obj in (h, _OneDenseBlock(h)))
        assert (by_sample.v - dense.v).norm() <= 1e-12 * dense.v.norm()
        assert by_sample.diagnostics["ad_calls"] == dense.diagnostics["ad_calls"]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["psd", "rank-deficient", "indefinite"]),
       st.integers(1, 4), st.integers(1, 4))
def test_gn_dual_block_convexity_test_agrees_with_dense_eigvalsh(seed, kind, n, q):
    # Eigenvalues are 0 or at least 1e-3 in magnitude, far from the refusal
    # threshold -1e-10 * scale, so rounding cannot decide the outcome.
    rng = np.random.default_rng(seed)
    lam = rng.uniform(1e-3, 3.0, (n, q)) * rng.choice([0.1, 1.0, 10.0])
    if kind == "rank-deficient":
        lam[rng.random((n, q)) < 0.5] = 0.0
    if kind == "indefinite":
        lam[rng.random((n, q)) < 0.3] *= -1.0
        if lam.min() > 0:
            lam[rng.integers(n), rng.integers(q)] *= -1.0
    blocks = np.empty((n, q, q))
    for i in range(n):
        Q = np.linalg.qr(rng.standard_normal((q, q)))[0]
        blocks[i] = (Q * lam[i]) @ Q.T
    H = np.zeros((n * q, n * q))
    for i in range(n):
        H[i * q:(i + 1) * q, i * q:(i + 1) * q] = blocks[i]
    evals = np.linalg.eigvalsh(0.5 * (H + H.T))
    refuse = float(evals.min()) < -1e-10 * max(1.0, float(np.abs(evals).max()))
    assert refuse == (kind == "indefinite")

    class Stub:  # a zero gradient: the solve stops right after the convexity test
        def grad_hess_blocks(self, y):
            return np.zeros(n * q), blocks

    tape = forward(ChainSpec((fully_connected(n, 2, q),)), np.ones(2 * n),
                   sample_params((3 * q,), 1.0, rng))
    if refuse:
        with pytest.raises(InfeasibleModel):
            solve_gauss_newton_dual(tape, Stub(), None, 1.0)
    else:
        step = solve_gauss_newton_dual(tape, Stub(), None, 1.0)
        assert step.diagnostics["exit_reason"] == "zero_gradient"


def test_gn_dual_forms_no_output_sized_square(monkeypatch):
    # At fc-oracles size (d_tau = 128) the convexity test sees one 32 x 32
    # block of the squared loss's broadcast stack, and the dense Hessian is
    # never built.
    chain, h, points = _benchmark_points(1)
    tape = forward(chain, *points[0])
    shapes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or eigvalsh(a))

    def no_dense(self, yhat):
        raise AssertionError("dense loss Hessian built")

    monkeypatch.setattr(Objective, "grad_hess", no_dense)
    step = solve_gauss_newton_dual(tape, h, None, 0.5, compute_gap=True)
    assert step.diagnostics["converged"]
    assert shapes == [(1, 32, 32)]


def test_gn_dual_refuses_hessian_blocks_of_the_wrong_size():
    chain, u, x0, h = _small_instance(4)

    class Stub:
        def grad_hess_blocks(self, y):
            return h.grad_hess_blocks(y)[0], np.eye(3)[None]

    with pytest.raises(DimensionMismatch, match="Hessian blocks"):
        solve_gauss_newton_dual(forward(chain, x0, u), Stub(), None, 1.0)
