"""Objectives: values, gradients, Hessians, minibatches, regularizers."""

import numpy as np
import pytest

from chaincert import (BlockRidge, DimensionMismatch, Objective,
                       ParamVector, SecondOrderUnavailable, ZeroReg,
                       cluster_objective, eval_convex_cluster, eval_logistic,
                       eval_squared, logistic_objective, squared_objective)

from helpers import cluster_two_points, fd_grad


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


def test_cluster_single_point_is_zero():
    val, grad = eval_convex_cluster(np.array([[5.0, -1.0]]), tol=1e-10)
    assert val == 0.0
    assert grad == pytest.approx(np.zeros((1, 2)))


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
