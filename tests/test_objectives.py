"""Objectives: values, gradients, Hessians, minibatches, regularizers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chaincert import (BlockRidge, DimensionMismatch, IterationLimit, NumericError,
                       Objective, ParamVector, SecondOrderUnavailable, ZeroReg,
                       cluster_objective, eval_convex_cluster, eval_logistic,
                       eval_squared, logistic_objective, squared_objective)
from chaincert import objectives

from helpers import cluster_reference, cluster_two_points, fd_grad


def test_squared_value_and_grad_hand():
    yhat = np.array([[1.0, 2.0], [3.0, 4.0]])
    y = np.array([[0.0, 0.0], [3.0, 2.0]])
    val, grad = eval_squared(yhat, y)
    assert val == pytest.approx(0.5 * (1 + 4 + 0 + 4) / 2)
    assert grad == pytest.approx(((yhat - y) / 2).ravel())


def test_logistic_value_matches_direct_formula():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((3, 4)) * 3
    y = np.zeros((3, 4))
    y[np.arange(3), [1, 0, 3]] = 1.0
    val, grad = eval_logistic(z, y)
    direct = np.mean([np.log(np.sum(np.exp(z[i]))) - z[i] @ y[i]
                      for i in range(3)])
    assert val == pytest.approx(direct, rel=1e-12)
    g_fd = fd_grad(lambda v: eval_logistic(v.reshape(3, 4), y)[0], z.ravel())
    assert np.allclose(grad, g_fd, atol=1e-7)


def test_logistic_is_shift_invariant_and_overflow_safe():
    y = np.array([[1.0, 0.0]])
    big = np.array([[1000.0, 990.0]])
    val, grad = eval_logistic(big, y)
    assert np.isfinite(val) and np.all(np.isfinite(grad))
    val2, _ = eval_logistic(big - 500.0, y)
    assert val == pytest.approx(val2)


def test_cluster_matches_closed_form_two_points():
    rng = np.random.default_rng(1)
    for q in (1, 2, 4):
        for _ in range(6):
            yhat = rng.standard_normal((2, q)) * 3
            val, grad = eval_convex_cluster(yhat, tol=1e-12)
            want_val, want_grad = cluster_two_points(yhat)
            assert val == pytest.approx(want_val, abs=1e-6)
            assert np.allclose(grad.reshape(2, q), want_grad, atol=1e-5)


def test_cluster_hand_example():
    val, grad = eval_convex_cluster(np.array([[0.0], [4.0]]), tol=1e-12)
    assert val == pytest.approx(3.0, abs=1e-8)
    assert grad == pytest.approx([-1.0, 1.0], abs=1e-6)


def test_cluster_gradient_matches_fd_three_points():
    rng = np.random.default_rng(2)
    yhat = rng.standard_normal((3, 2)) * 4  # well-separated, smooth region
    _, grad = eval_convex_cluster(yhat, tol=1e-12)
    g_fd = fd_grad(lambda v: eval_convex_cluster(v.reshape(3, 2), 1e-12)[0],
                   yhat.ravel(), eps=1e-5)
    assert np.allclose(grad.ravel(), g_fd, atol=1e-5)


def test_cluster_objective_value_grad_is_the_envelope_on_flat_outputs():
    yhat = np.random.default_rng(6).standard_normal((4, 3))
    tol = 1e-9
    val, grad = cluster_objective(4, 3, tol).value_grad(yhat.ravel())
    want_val, want_grad = eval_convex_cluster(yhat, tol)
    assert val == want_val
    assert grad.shape == (12,) and np.array_equal(grad, want_grad.ravel())


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cluster_refuses_non_finite_input_before_iterating(monkeypatch, bad):
    yhat = np.zeros((4, 2))
    yhat[2, 1] = bad
    # refused before any work: the solve would first build the incidence matrix
    monkeypatch.setattr(objectives, "_incidence_t", lambda n: pytest.fail("incidence built"))
    with pytest.raises(NumericError):
        eval_convex_cluster(yhat, tol=1e-10)


def test_cluster_single_point_is_zero():
    val, grad = eval_convex_cluster(np.array([[5.0, -1.0]]), tol=1e-10)
    assert val == 0.0
    assert grad == pytest.approx(np.zeros((1, 2)))


# Probe 17 of the benchmark's cluster-envelope design at seed 1, a slow
# geometry.  Plain projected gradient on the dual, stopped when two
# successive primal values agree to 1e-10, stops here after 12,419 steps with
# a gradient 3.3e-4 from the minimizer's, 20 times the certified sqrt(2e-10).
SLOW_PROBE = np.array([
    [5.902381681157174, 5.321129706347712],
    [0.18286992462676244, 4.670529606199635],
    [-0.07929492958618756, -0.6818949256062172],
    [3.3389474962126995, -1.1637871187702764],
    [-0.16641268567448098, 3.9720947692731507],
    [-4.092851976977389, 7.588192947975722],
    [-5.508245528711587, 4.6409812841993805],
    [4.079322047010116, 0.6618960805313068],
])


def _assert_certified(yhat, tol, val, grad):
    """``tol`` certifies value and gradient against a sound reference solve."""
    ref_val, ref_grad, ref_gap = cluster_reference(yhat)
    # P* lies in [ref_val - ref_gap, ref_val]; the answer must lie in
    # [P*, P* + tol], up to rounding of a sum of n(n-1)/2 norms.
    slack = 1e-14 * (1.0 + abs(ref_val)) * yhat.shape[0] ** 2
    assert ref_val - ref_gap - slack <= val <= ref_val + tol + slack
    bound = np.sqrt(2.0 * tol) + np.sqrt(2.0 * max(ref_gap, 0.0))
    assert np.linalg.norm(grad - ref_grad) <= bound


def test_cluster_slow_geometry_is_certified():
    tol = 1e-10
    val, grad = eval_convex_cluster(SLOW_PROBE, tol)
    _assert_certified(SLOW_PROBE, tol, val, grad)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 8), st.integers(1, 3), st.floats(0.2, 5.0),
       st.integers(0, 2**32 - 1))
def test_cluster_certificate_and_invariance(n, q, scale, seed):
    rng = np.random.default_rng(seed)
    tol = 1e-10
    yhat = rng.standard_normal((n, q)) * scale
    val, grad = eval_convex_cluster(yhat, tol)
    _assert_certified(yhat, tol, val, grad)
    # Rotating R^q, permuting the points and translating them moves the
    # minimizer with the input: the value is unchanged and the gradient is
    # permuted and rotated.  Both answers are within their certificates.
    rot, r = np.linalg.qr(rng.standard_normal((q, q)))
    rot = rot * np.sign(np.diag(r))
    perm = rng.permutation(n)
    shift = rng.standard_normal(q) * scale
    val2, grad2 = eval_convex_cluster(yhat[perm] @ rot + shift, tol)
    assert abs(val2 - val) <= tol + 1e-13 * (1.0 + abs(val)) * n ** 2
    assert np.linalg.norm(grad2 - grad[perm] @ rot) <= 2.0 * np.sqrt(2.0 * tol)


def test_cluster_iteration_limit_reports_count_and_gap(monkeypatch):
    monkeypatch.setattr(objectives, "_CLUSTER_CAP", 7)
    with pytest.raises(IterationLimit,
                       match=r"duality gap \S+ above tol 1e-10 after 7 iterations"):
        eval_convex_cluster(SLOW_PROBE, 1e-10)


def test_objective_validation():
    with pytest.raises(ValueError):
        Objective("logistic", 2, 2, np.array([[0.5, 0.5], [1.0, 0.0]]))
    h = squared_objective(np.zeros((2, 3)))
    with pytest.raises(DimensionMismatch):
        h.value_grad(np.zeros(5))


def test_grad_hess_squared_and_logistic():
    rng = np.random.default_rng(3)
    h = squared_objective(rng.standard_normal((2, 2)))
    z = rng.standard_normal(4)
    _, H = h.grad_hess(z)
    assert np.allclose(H, np.eye(4) / 2)

    y = np.zeros((2, 3)); y[[0, 1], [2, 0]] = 1.0
    hl = logistic_objective(y)
    z = rng.standard_normal(6)
    g, H = hl.grad_hess(z)
    H_fd = np.zeros((6, 6))
    eps = 1e-5
    for i in range(6):
        e = np.zeros(6); e[i] = eps
        H_fd[:, i] = (hl.value_grad(z + e)[1] - hl.value_grad(z - e)[1]) / (2 * eps)
    assert np.allclose(H, H_fd, atol=1e-6)
    assert np.allclose(H, H.T)

    hc = cluster_objective(2, 2)
    with pytest.raises(SecondOrderUnavailable):
        hc.grad_hess(np.zeros(4))


@pytest.mark.parametrize("kind", ["squared", "logistic"])
def test_grad_hess_is_the_block_diagonal_matrix_of_the_blocks(kind):
    rng = np.random.default_rng(8)
    n, q = 3, 4
    y = rng.standard_normal((n, q)) if kind == "squared" else np.eye(q)[[0, 3, 1]]
    h = Objective(kind, n, q, y)
    z = rng.standard_normal(n * q) * 3.0
    g_b, blocks = h.grad_hess_blocks(z)
    g, H = h.grad_hess(z)
    assert blocks.shape == (n, q, q)
    assert np.array_equal(g_b, g) and np.array_equal(g, h.value_grad(z)[1])
    want = np.zeros((n * q, n * q))
    for i in range(n):
        want[i * q:(i + 1) * q, i * q:(i + 1) * q] = blocks[i]
    assert np.array_equal(H, want)
    assert np.array_equal(blocks, blocks.swapaxes(1, 2))
    with pytest.raises(SecondOrderUnavailable):
        cluster_objective(n, q).grad_hess_blocks(z)


def test_grad_minibatch_embedding():
    rng = np.random.default_rng(4)
    y = rng.standard_normal((4, 2))
    h = squared_objective(y)
    z = rng.standard_normal(8)
    g = h.grad_minibatch(z, np.array([1, 3]))
    rows = (z.reshape(4, 2) - y)
    want = np.zeros((4, 2))
    want[1] = rows[1] / 2
    want[3] = rows[3] / 2
    assert np.allclose(g, want.ravel())
    # full index set reproduces the exact gradient
    g_full = h.grad_minibatch(z, np.arange(4))
    assert np.allclose(g_full, h.value_grad(z)[1])


@pytest.mark.parametrize("kind", ["squared", "logistic"])
def test_grad_minibatch_rows_are_the_per_sample_loss_gradients(kind):
    rng = np.random.default_rng(5)
    n, q, idx = 6, 3, np.array([4, 0, 2])
    if kind == "squared":
        y = rng.standard_normal((n, q))
        h = squared_objective(y)
    else:
        y = np.eye(q)[rng.integers(0, q, n)]
        h = logistic_objective(y)
    z = 3.0 * rng.standard_normal(n * q)
    sub = z.reshape(n, q)[idx]
    if kind == "squared":
        rows = sub - y[idx]
    else:
        e = np.exp(sub - sub.max(axis=1, keepdims=True))
        rows = e / e.sum(axis=1, keepdims=True) - y[idx]
    want = np.zeros((n, q))
    want[idx] = rows / idx.size
    assert np.array_equal(h.grad_minibatch(z, idx), want.ravel())


def test_decomposable_flag():
    assert squared_objective(np.zeros((2, 2))).decomposable
    assert logistic_objective(np.array([[1.0, 0.0]])).decomposable
    assert not cluster_objective(3, 2).decomposable


def test_lip_and_smooth_bounds():
    y = np.ones((4, 2))
    h = squared_objective(y)
    rho = 3.0
    assert h.lip_bound(rho) == pytest.approx((rho + np.linalg.norm(y)) / 4)
    assert h.smooth_bound() == pytest.approx(1 / 4)
    hl = logistic_objective(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert hl.lip_bound(10.0) == pytest.approx(2 / np.sqrt(2))
    assert hl.smooth_bound() == pytest.approx(2 / 2)
    hc = cluster_objective(4, 2)
    assert hc.lip_bound(1.0) == pytest.approx(4 * 3 / 2)
    assert hc.smooth_bound() == pytest.approx(1.0)


def test_regularizers():
    rng = np.random.default_rng(5)
    u = ParamVector((rng.standard_normal(3), rng.standard_normal(2)))
    z = ZeroReg()
    assert z.value(u) == 0.0
    assert z.grad(u).norm() == 0.0
    assert z.smooth == 0.0

    r = BlockRidge((2.0, 0.5))
    want = 0.5 * (2.0 * u.blocks[0] @ u.blocks[0] + 0.5 * u.blocks[1] @ u.blocks[1])
    assert r.value(u) == pytest.approx(want)
    g = r.grad(u)
    assert np.allclose(g.blocks[0], 2.0 * u.blocks[0])
    assert np.allclose(g.blocks[1], 0.5 * u.blocks[1])
    alphas = r.curvatures(u.dims)
    assert np.allclose(alphas[0] * np.eye(3), 2.0 * np.eye(3))
    assert np.allclose(alphas[1] * np.eye(2), 0.5 * np.eye(2))
    assert r.smooth == 2.0
    assert BlockRidge((-2.0, 0.5)).smooth == BlockRidge(-2.0).smooth == 2.0

    rs = BlockRidge(1.5)
    assert rs.value(u) == pytest.approx(0.75 * u.norm() ** 2)


@pytest.mark.parametrize("reg, alphas", [
    (ZeroReg(), [0.0, 0.0]),
    (BlockRidge(1.5), [1.5, 1.5]),
    (BlockRidge((2.0, 0.5)), [2.0, 0.5]),
], ids=["zero", "ridge-scalar", "ridge-per-block"])
def test_curvatures_are_block_hessian_scales(reg, alphas):
    dims = (3, 2)
    got = reg.curvatures(dims)
    assert np.array_equal(got, alphas)
    assert len(got) == 2
    for a_got, a, d in zip(got, alphas, dims):
        assert np.array_equal(a_got * np.eye(d), a * np.eye(d))
