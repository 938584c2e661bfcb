"""Layer descriptors: constructors, forward ops, second-order contractions.

Each layer is evaluated as a one-layer chain: values come from the forward
tape, the transposed Jacobians from pulling a cotangent back through the
recorded stage linearisations, and the second-order blocks from
``layer_second_contract`` on that tape (the cross and parameter blocks
through the Newton model that ``build_lq`` keeps factored).
"""

import numpy as np
import pytest

from chaincert import (ChainSpec, DimensionMismatch, ElementwiseStage, LayerDescriptor,
                       ParamVector, SecondOrderUnavailable, SoftmaxStage, avgpool2d,
                       backward, batchnorm_layer, build_arch, build_lq, conv1d, conv2d,
                       forward, fully_connected, get_activation, layer_second_contract,
                       maxpool2d, parse_arch_text, residual_wrap, softmax_layer)
from chaincert.biaffine import FCPart

from helpers import fd_grad, fd_jacobian


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
    Hxx = layer_second_contract(tape, 0, lam)[0]
    lq = build_lq(tape, _LinearObjective(lam), None, "newton", 1.0)
    Hxu, Huu = lq.dense_R(0), lq.dense_Q(0)

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
    layer = LayerDescriptor("mine", part, (), 1)
    assert layer.kind == "mine"
    assert layer.d_out == 3
    # stage dims must chain with the part output
    from chaincert import ElementwiseStage, get_activation
    bad_stage = ElementwiseStage(get_activation("identity"), 7)
    with pytest.raises(DimensionMismatch):
        LayerDescriptor("broken", part, (bad_stage,), 1)


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
def test_conv1d_patches_match_explicit_loops(length, k, s):
    want = np.asarray([[t + i for i in range(k)] for t in range(0, length - k + 1, s)],
                      dtype=int)
    got = conv1d(1, 1, length, 1, k, stride=s).part.patches
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_valid_patches_refuse_oversized_kernels():
    from chaincert.layers import _valid_grid, _valid_patches_2d
    with pytest.raises(DimensionMismatch):
        _valid_grid(4, 4, 5, 1, 1, 1)
    with pytest.raises(DimensionMismatch):
        _valid_patches_2d(4, 4, 1, 5, 1, 1)
    with pytest.raises(DimensionMismatch):
        conv1d(1, 1, 3, 1, 4)


@pytest.mark.parametrize("build", [
    lambda: conv2d(1, 1, 4, 4, 1, 0), lambda: conv2d(1, 1, 4, 4, 1, -1),
    lambda: conv2d(1, 1, 4, 4, 1, 2, stride=0), lambda: conv1d(1, 1, 4, 1, 0),
    lambda: conv1d(1, 1, 4, 1, 2, stride=0), lambda: maxpool2d(1, 1, 4, 4, 2, stride=0),
    lambda: avgpool2d(1, 1, 4, 4, 0), lambda: avgpool2d(1, 1, 4, 4, (2, 0)),
], ids=["conv2d-kernel-0", "conv2d-kernel--1", "conv2d-stride-0", "conv1d-kernel-0",
        "conv1d-stride-0", "maxpool2d-stride-0", "avgpool2d-size-0", "avgpool2d-size-2x0"])
def test_window_constructors_refuse_a_kernel_or_stride_below_one(build):
    with pytest.raises(DimensionMismatch, match="at least 1"):
        build()


def test_symbolic_conv_constructors_build_no_window_table():
    # A declared patch count that differs from the valid-window count gives a
    # symbolic part, which would throw the table away: at 224 x 224 with a
    # 3 x 3 kernel that table is 222 * 222 windows of 9 int64 entries.
    import tracemalloc

    from chaincert.biaffine import ConvPart, SymbolicConvPart

    table_bytes = 222 * 222 * 9 * 8
    tracemalloc.start()
    try:
        layer2 = conv2d(1, 3, 224, 224, 64, 3, declared_patches=224 * 224)
        layer1 = conv1d(1, 3, 224 * 224, 64, 9, declared_patches=224 * 224)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(layer2.part, SymbolicConvPart) and layer2.part.n_p == 224 * 224
    assert isinstance(layer1.part, SymbolicConvPart) and layer1.part.n_p == 224 * 224
    assert peak < table_bytes / 8
    # the valid count still selects the numeric part, and a kernel larger
    # than its input is refused either way
    assert isinstance(conv2d(1, 1, 5, 5, 1, 3, declared_patches=9).part, ConvPart)
    assert isinstance(conv1d(1, 1, 7, 1, 3, stride=2, declared_patches=3).part, ConvPart)
    with pytest.raises(DimensionMismatch):
        conv2d(1, 1, 4, 4, 1, 5, declared_patches=1)
    with pytest.raises(DimensionMismatch):
        conv1d(1, 1, 3, 1, 4, declared_patches=1)


@pytest.mark.parametrize("make", [maxpool2d, avgpool2d], ids=["max", "avg"])
def test_pool_constructors_build_no_window_table(make):
    # 64 channels of 2048 x 2048 pooled 2 x 2: the window table alone is
    # 1024 * 1024 windows of 4 int64 entries, 32 MB.  Constants and sizes
    # need none of it, so the constructor builds nothing that large.
    import tracemalloc

    tracemalloc.start()
    try:
        layer = make(1, 64, 2048, 2048, 2)
        constants = layer.stages[0].constants()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert layer.hyper["out_shape"] == (1024, 1024)
    assert layer.d_out == 64 * 1024 * 1024 and constants.lip == 1.0


def test_numeric_pooling_chain_matches_explicit_tables_after_the_deferred_build():
    from chaincert import sample_params, sample_state
    from chaincert.biaffine import IdentityPart
    from chaincert.layers import _valid_patches_2d
    from chaincert.stages import AvgPoolStage, MaxPoolStage

    def explicit(layer, cls):
        h = layer.hyper
        table = _valid_patches_2d(h["height"], h["width"], *h["size"], *h["stride"])[0]
        stage = cls(layer.batch, h["channels"], h["height"] * h["width"], table)
        return LayerDescriptor(layer.kind, IdentityPart(layer.d_in), (stage,), layer.batch, h)

    def chain(mp, ap):
        return ChainSpec((conv2d(2, 1, 9, 9, 2, 2, activation="softplus"), mp,
                          conv2d(2, 2, 4, 4, 3, 2, activation="softplus"), ap,
                          fully_connected(2, 3 * 2 * 2, 3)))

    mp, ap = maxpool2d(2, 2, 8, 8, 2), avgpool2d(2, 3, 3, 3, 2, stride=1)
    lazy, eager = chain(mp, ap), chain(explicit(mp, MaxPoolStage), explicit(ap, AvgPoolStage))
    rng = np.random.default_rng(9)
    x0 = sample_state(lazy.d0, 1.0, rng)
    u = sample_params(lazy.param_dims, [1.0] * lazy.tau, rng)
    lam = rng.standard_normal(lazy.d_out)
    got, want = forward(lazy, x0, u), forward(eager, x0, u)
    assert got.output.tobytes() == want.output.tobytes()
    for a, b in zip(backward(got, lam).blocks, backward(want, lam).blocks):
        assert a.tobytes() == b.tobytes()


def _dense_second_contract(layer, x, u, lins, lam):
    """``(Hxx, Hxu, H)`` by the chain rule over dense stage and part Jacobians.

    With ``P_i`` the product of the first i stage Jacobians and ``w_i`` the
    cotangent at stage i's output, ``H = sum_i P_{i-1}^T hess_i(w_i) P_{i-1}``.
    """
    Js = [lin.dense_jacobian() for lin in lins]
    ws = [lam]
    for J in reversed(Js):
        ws.append(J.T @ ws[-1])
    ws.reverse()  # ws[i] is the cotangent at stage i's input
    H = np.zeros((layer.part.d_out, layer.part.d_out))
    P = np.eye(layer.part.d_out)
    for lin, J, w in zip(lins, Js, ws[1:]):
        H += P.T @ lin.hess_contract(w) @ P
        P = J @ P
    Jx, Ju = layer.part.dense_jx(u), layer.part.dense_ju(x)
    return Jx.T @ H @ Jx, Jx.T @ H @ Ju + layer.part.second_cross(ws[0]), H


def _stage_pullback(stages, z, lam):
    lins = []
    for st in stages:
        lins.append(st.linearize(z))
        z = st.value(z)
    for lin in reversed(lins):
        lam = lin.vjp(lam)
    return lam


def _three_stage_conv():
    chain, _, _ = build_arch(parse_arch_text("""\
input samples=2 channels=1 height=5 width=5 norm=1
radius 1
objective squared
layer conv filters=2 kernel=2 bias=true batchnorm=0.5 activation=softplus pool=avg:2:2
"""))
    return chain.layers[0]


def _fc_sigmoid_softmax():
    part = FCPart(batch=2, in_features=3, out_features=4, bias=True)
    stages = (ElementwiseStage(get_activation("sigmoid"), 8), SoftmaxStage(2, 4))
    return LayerDescriptor("fc-sigmoid-softmax", part, stages, 2)


@pytest.mark.parametrize("make", [_three_stage_conv, _fc_sigmoid_softmax],
                         ids=["conv-batchnorm-softplus-avgpool", "fc-sigmoid-softmax"])
def test_multi_stage_second_contract_matches_dense_chain_rule(make):
    layer = make()
    assert len(layer.stages) >= 2 and layer.second_order
    rng = np.random.default_rng(11)
    x = rng.standard_normal(layer.d_in) * 0.5
    u = rng.standard_normal(layer.p) * 0.5
    lam = rng.standard_normal(layer.d_out)
    tape = _tape(layer, x, u)
    Hxx, JxH, H, w = layer_second_contract(tape, 0, lam)
    got = Hxx, JxH @ layer.part.dense_ju(x) + layer.part.second_cross(w), H
    want = _dense_second_contract(layer, x, u, tape.stage_lins[0], lam)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.allclose(a, b, rtol=1e-10, atol=1e-13 * (1.0 + np.abs(b).max()))

    # the same blocks as finite differences of the input adjoint and, for H,
    # of the stage pullback at the part output
    z = layer.part.value(x, u)
    fd = (fd_jacobian(lambda v: _pullback(layer, v, u, lam)[0], x),
          fd_jacobian(lambda v: _pullback(layer, x, v, lam)[0], u),
          fd_jacobian(lambda v: _stage_pullback(layer.stages, v, lam), z))
    for a, b in zip(got, fd):
        assert np.allclose(a, b, rtol=0.0, atol=1e-8 * (1.0 + np.abs(a).max()))
