"""Layer descriptors: constructors, forward ops, second-order contractions.

Each layer is evaluated as a one-layer chain: values come from the forward
tape, the transposed Jacobians from pulling a cotangent back through the
recorded stage linearisations, and the second-order blocks from
``layer_second_contract`` on that tape (the parameter block through the
Newton model that ``build_lq`` keeps factored).
"""

import numpy as np
import pytest

from chaincert import (ChainSpec, DimensionMismatch, ParamVector,
                       SecondOrderUnavailable, avgpool2d, backward,
                       batchnorm_layer, build_lq, conv2d, custom_layer, forward,
                       fully_connected, layer_second_contract, maxpool2d,
                       residual_wrap, softmax_layer)
from chaincert.biaffine import FCPart

from helpers import fd_grad


def _tape(layer, x, u):
    return forward(ChainSpec((layer,)), x, ParamVector([u]))


def _value(layer, x, u):
    return _tape(layer, x, u).output


def _pullback(layer, x, u, lam):
    """``(g_x, g_u)``: the layer's transposed Jacobians applied to ``lam``."""
    tape = _tape(layer, x, u)
    w = lam
    for lin in reversed(tape.stage_lins[0]):
        w = lin.vjp(w)
    gx = layer.part.vjp_x(u, w)
    gu = backward(tape, lam).blocks[0]
    return gx, gu


class _LinearObjective:
    """``y -> lam . y``: the parameter curvature of its Newton model is ``Huu``."""

    def __init__(self, lam):
        self.lam = lam

    def grad_hess(self, y):
        return self.lam, np.zeros((self.lam.size, self.lam.size))


def _fd_layer_grads(layer, x, u, lam, eps=1e-6):
    gx = fd_grad(lambda v: float(lam @ _value(layer, v, u)), x, eps)
    gu = fd_grad(lambda v: float(lam @ _value(layer, x, v)), u, eps)
    return gx, gu


def _check_layer_first_order(layer, rng, tol=1e-6):
    x = rng.standard_normal(layer.d_in) * 0.7
    u = rng.standard_normal(layer.p) * 0.7
    lam = rng.standard_normal(layer.d_out)
    gx, gu = _pullback(layer, x, u, lam)
    fx, fu = _fd_layer_grads(layer, x, u, lam)
    assert np.allclose(gx, fx, atol=tol)
    assert np.allclose(gu, fu, atol=tol)
    return x, u, lam


def _check_layer_second_order(layer, rng, tol=5e-4):
    x = rng.standard_normal(layer.d_in) * 0.5
    u = rng.standard_normal(layer.p) * 0.5
    lam = rng.standard_normal(layer.d_out)
    tape = _tape(layer, x, u)
    Hxx, Hxu, _ = layer_second_contract(tape, 0, lam)
    Huu = build_lq(tape, _LinearObjective(lam), None, "newton", 1.0).dense_Q(0)

    def scalar(xv, uv):
        return float(lam @ _value(layer, xv, uv))

    eps = 1e-4
    dx = layer.d_in
    H_fd_xx = np.zeros((dx, dx))
    for i in range(dx):
        e = np.zeros(dx); e[i] = eps
        gp = fd_grad(lambda v: scalar(v, u), x + e, eps)
        gm = fd_grad(lambda v: scalar(v, u), x - e, eps)
        H_fd_xx[:, i] = (gp - gm) / (2 * eps)
    assert np.allclose(Hxx, H_fd_xx, atol=tol)

    du = layer.p
    H_fd_xu = np.zeros((dx, du))
    for j in range(du):
        e = np.zeros(du); e[j] = eps
        gp = fd_grad(lambda v: scalar(v, u + e), x, eps)
        gm = fd_grad(lambda v: scalar(v, u - e), x, eps)
        H_fd_xu[:, j] = (gp - gm) / (2 * eps)
    assert np.allclose(Hxu, H_fd_xu, atol=tol)

    H_fd_uu = np.zeros((du, du))
    for j in range(du):
        e = np.zeros(du); e[j] = eps
        gp = fd_grad(lambda v: scalar(x, v), u + e, eps)
        gm = fd_grad(lambda v: scalar(x, v), u - e, eps)
        H_fd_uu[:, j] = (gp - gm) / (2 * eps)
    assert np.allclose(Huu, H_fd_uu, atol=tol)


def test_fully_connected_layer():
    rng = np.random.default_rng(0)
    layer = fully_connected(2, 3, 4, activation="softplus", bias=True)
    assert layer.d_in == 6 and layer.d_out == 8
    assert layer.p == 4 * 3 + 4
    _check_layer_first_order(layer, rng)
    _check_layer_second_order(layer, rng)


def test_conv_layer_with_activation():
    rng = np.random.default_rng(1)
    layer = conv2d(1, 1, 3, 3, filters=2, kernel=2, stride=1,
                   activation="sigmoid", bias=True)
    assert layer.d_out == 2 * 4  # 2 filters x 2x2 valid grid
    _check_layer_first_order(layer, rng)
    _check_layer_second_order(layer, rng)


def test_softmax_and_batchnorm_layers():
    rng = np.random.default_rng(2)
    sm = softmax_layer(2, 3)
    _check_layer_first_order(sm, rng)
    _check_layer_second_order(sm, rng)
    bn = batchnorm_layer(3, 2, eps=0.4)
    _check_layer_first_order(bn, rng, tol=1e-5)


def test_pooling_layers():
    rng = np.random.default_rng(3)
    ap = avgpool2d(2, 1, 4, 4, size=2)
    assert ap.d_out == 2 * 4
    assert ap.p == 0
    _check_layer_first_order(ap, rng)
    mp = maxpool2d(1, 1, 4, 4, size=2, stride=2)
    x = np.arange(16.0)
    tape = _tape(mp, x, np.zeros(0))
    assert tape.output == pytest.approx([5.0, 7.0, 13.0, 15.0])
    with pytest.raises(SecondOrderUnavailable):
        layer_second_contract(tape, 0, np.ones(4))


def test_relu_layer_is_first_order_only():
    rng = np.random.default_rng(4)
    layer = fully_connected(1, 3, 3, activation="relu", bias=False)
    _check_layer_first_order(layer, rng)
    with pytest.raises(SecondOrderUnavailable):
        layer_second_contract(_tape(layer, np.ones(3), np.ones(9)), 0, np.ones(3))


def test_residual_wrap_layer():
    rng = np.random.default_rng(5)
    base = fully_connected(2, 3, 3, activation="softplus", bias=True)
    layer = residual_wrap(base)
    assert layer.kind == "residual-wrap"
    assert layer.d_in == 2 * 6 and layer.d_out == 2 * 6
    assert layer.p == base.p
    _check_layer_first_order(layer, rng)
    _check_layer_second_order(layer, rng)
    assert layer.hyper["base"] is base


def test_custom_layer_and_validation():
    part = FCPart(batch=1, in_features=2, out_features=3, bias=False)
    layer = custom_layer("mine", part, (), 1)
    assert layer.kind == "mine"
    assert layer.d_out == 3
    # stage dims must chain with the part output
    from chaincert import ElementwiseStage, get_activation
    bad_stage = ElementwiseStage(get_activation("identity"), 7)
    with pytest.raises(DimensionMismatch):
        custom_layer("broken", part, (bad_stage,), 1)


def test_describe_strings():
    layer = fully_connected(2, 3, 4, activation="softplus")
    text = layer.describe()
    assert "fully-connected" in text


def _loop_patches_2d(height, width, kh, kw, sh, sw):
    pats = []
    for r in range(0, height - kh + 1, sh):
        for c in range(0, width - kw + 1, sw):
            pats.append([(r + i) * width + (c + j) for i in range(kh) for j in range(kw)])
    return np.asarray(pats, dtype=int)


@pytest.mark.parametrize("args", [(5, 7, 2, 3, 2, 1), (9, 8, 3, 3, 3, 2),
                                  (4, 6, 4, 6, 1, 1), (6, 5, 1, 1, 1, 1),
                                  (7, 7, 3, 2, 1, 3)],
                         ids=["stride-2x1", "stride-3x2", "kernel-is-input",
                              "one-by-one", "stride-1x3"])
def test_valid_patches_2d_match_explicit_loops(args):
    from chaincert.layers import _valid_grid, _valid_patches_2d
    want = _loop_patches_2d(*args)
    got, grid = _valid_patches_2d(*args)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert grid == _valid_grid(*args)
    assert grid[0] * grid[1] == len(want)


@pytest.mark.parametrize("length, k, s", [(7, 3, 2), (5, 5, 1), (9, 2, 3), (4, 1, 1)])
def test_valid_patches_1d_match_explicit_loops(length, k, s):
    from chaincert.layers import _valid_patches_1d
    want = np.asarray([[t + i for i in range(k)] for t in range(0, length - k + 1, s)],
                      dtype=int)
    got = _valid_patches_1d(length, k, s)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_valid_patches_refuse_oversized_kernels():
    from chaincert.layers import _valid_grid, _valid_patches_1d, _valid_patches_2d
    with pytest.raises(DimensionMismatch):
        _valid_grid(4, 4, 5, 1, 1, 1)
    with pytest.raises(DimensionMismatch):
        _valid_patches_2d(4, 4, 1, 5, 1, 1)
    with pytest.raises(DimensionMismatch):
        _valid_patches_1d(3, 4, 1)
