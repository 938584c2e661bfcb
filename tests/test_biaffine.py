"""Bi-affine parts: values, transposed Jacobians, cross terms, constants.

The dense Jacobians and the cross term are derived from ``vjp_x``/``vjp_u``,
so they are checked here against the independent routes: ``value`` (exact
bi-affinity), ``jvp`` and a four-point difference of ``value``.
"""

import numpy as np
import pytest

from chaincert import (BiAffineConstants, ChainSpec, ConvPart, DenseBiAffinePart,
                       FCPart, IdentityPart, ResidualPart, SymbolicConvPart,
                       DimensionMismatch, SymbolicOnlyError, conv2d,
                       fully_connected, operator_norm)
from chaincert.layers import _valid_patches_2d

from helpers import direct_conv, jacobi_largest_sv, tensor_norm_222


def _check_part(part, rng, x=None, u=None, atol=1e-10):
    """Structural identities every bi-affine part must satisfy exactly."""
    x = rng.standard_normal(part.d_in) if x is None else x
    u = rng.standard_normal(part.p) if u is None else u
    w = rng.standard_normal(part.d_out)
    dx = rng.standard_normal(part.d_in)
    du = rng.standard_normal(part.p)

    jx = part.dense_jx(u)
    ju = part.dense_ju(x)
    val = part.value(x, u)
    # bi-affine exactness: value is affine in x at fixed u and vice versa
    assert np.allclose(part.value(x + dx, u), val + jx @ dx, atol=atol)
    assert np.allclose(part.value(x, u + du), val + ju @ du, atol=atol)
    # transposed-Jacobian oracles match the dense assemblies
    assert np.allclose(part.vjp_x(u, w), jx.T @ w, atol=atol)
    assert np.allclose(part.vjp_u(x, w), ju.T @ w, atol=atol)
    # tangent: jvp(x,u,dx,du) = Jx dx + Ju du
    assert np.allclose(part.jvp(x, u, dx, du), jx @ dx + ju @ du, atol=atol)
    # cross second derivative: w' beta(dx, du) bilinear identity
    bil = part.value(x + dx, u + du) - part.value(x + dx, u) \
        - part.value(x, u + du) + part.value(x, u)
    assert np.allclose(w @ bil, dx @ (part.second_cross(w) @ du), atol=1e-8)


def test_fc_part_matches_matrix_math():
    rng = np.random.default_rng(0)
    part = FCPart(batch=3, in_features=4, out_features=2, bias=True)
    W = rng.standard_normal((2, 4))
    b = rng.standard_normal(2)
    u = np.concatenate([W.ravel(), b])
    X = rng.standard_normal((3, 4))
    out = part.value(X.ravel(), u).reshape(3, 2)
    assert np.allclose(out, X @ W.T + b)
    _check_part(part, rng, x=X.ravel(), u=u)
    c = part.constants()
    assert c.L_b == pytest.approx(1.0)
    assert c.l_u == pytest.approx(np.sqrt(3))
    assert c.l_x == 0.0


def test_fc_part_without_bias():
    rng = np.random.default_rng(1)
    part = FCPart(batch=2, in_features=3, out_features=3, bias=False)
    assert part.p == 9
    _check_part(part, rng)
    assert part.constants().l_u == 0.0


def test_conv_part_matches_direct_convolution():
    rng = np.random.default_rng(2)
    C, H, W = 2, 4, 4
    kh = kw = 2
    patches, (oh, ow) = _valid_patches_2d(H, W, kh, kw, 1, 1)
    part = ConvPart(batch=2, channels=C, spatial=H * W, patches=patches,
                    n_filters=3, bias=True, kernel_shape=(kh, kw), stride=(1, 1))
    weights = rng.standard_normal((3, C, kh * kw))
    bias = rng.standard_normal(3)
    u = np.concatenate([weights.ravel(), bias])
    x = rng.standard_normal(part.d_in)
    got = part.value(x, u)
    want = direct_conv(x.reshape(2, -1), weights, patches, C, H * W, bias)
    assert np.allclose(got, want.ravel())
    _check_part(part, rng)


def test_conv_part_constants_honest_multiplicity():
    # 1-d chain spatial=4, k=2, stride 1: middle positions read twice
    patches = np.array([[0, 1], [1, 2], [2, 3]])
    part = ConvPart(batch=1, channels=1, spatial=4, patches=patches,
                    n_filters=1, bias=False, kernel_shape=(2,), stride=(1,))
    c = part.constants()
    assert c.L_b == pytest.approx(np.sqrt(2.0))
    assert c.l_u == 0.0
    assert c.l_x == 0.0


def test_conv_part_bias_constant():
    patches = np.array([[0, 1], [2, 3]])
    part = ConvPart(batch=3, channels=1, spatial=4, patches=patches,
                    n_filters=2, bias=True, kernel_shape=(2,), stride=(2,))
    assert part.constants().l_u == pytest.approx(np.sqrt(3 * 2))


def test_symbolic_conv_refuses_numerics_but_reports_constants():
    part = SymbolicConvPart(batch=128, channels=3, spatial=224 * 224,
                            n_patches=224 * 224, kernel_shape=(3, 3),
                            stride=(1, 1), n_filters=64, bias=False)
    with pytest.raises(SymbolicOnlyError):
        part.value(np.zeros(2), np.zeros(2))
    with pytest.raises(SymbolicOnlyError):
        part.dense_jx(np.zeros(2))
    with pytest.raises(SymbolicOnlyError):
        part.dense_ju(np.zeros(2))
    with pytest.raises(SymbolicOnlyError):
        part.second_cross(np.zeros(2))
    c = part.constants()
    assert c.L_b == pytest.approx(3.0)  # ceil(3/1) per axis, sqrt(9)
    assert part.p == 64 * 3 * 9
    assert not part.numeric
    assert not ResidualPart(part, batch=128).numeric


def test_chain_numeric_flag():
    numeric = ChainSpec((conv2d(1, 1, 4, 4, 2, 2), fully_connected(1, 18, 2)))
    assert numeric.numeric
    symbolic = ChainSpec((conv2d(1, 1, 4, 4, 2, 2, declared_patches=16),
                          fully_connected(1, 32, 2)))
    assert not symbolic.numeric


def test_dense_biaffine_part_consistency():
    rng = np.random.default_rng(3)
    bil = rng.standard_normal((3, 4, 5))
    part = DenseBiAffinePart(bil, mu=rng.standard_normal((3, 5)),
                             mx=rng.standard_normal((3, 4)),
                             b0=rng.standard_normal(3))
    _check_part(part, rng)
    c = part.constants()
    # bilinear norm bounded by each unfolding's operator norm
    assert c.L_b <= np.linalg.norm(bil.reshape(3, -1), 2) + 1e-12


def test_dense_biaffine_L_b_upper_bounds_attained_values():
    rng = np.random.default_rng(4)
    bil = rng.standard_normal((3, 3, 3))
    part = DenseBiAffinePart(bil, mu=np.zeros((3, 3)), mx=np.zeros((3, 3)),
                             b0=np.zeros(3))
    c = part.constants()
    for _ in range(500):
        x = rng.standard_normal(3); x /= np.linalg.norm(x)
        u = rng.standard_normal(3); u /= np.linalg.norm(u)
        val = np.linalg.norm(np.einsum("oip,i,p->o", bil, x, u))
        assert val <= c.L_b + 1e-9


def test_dense_biaffine_L_b_dominates_tensor_norm():
    # the alternating-maximization value is attained, hence a lower bound
    rng = np.random.default_rng(7)
    for _ in range(10):
        shape = tuple(int(n) for n in rng.integers(1, 5, size=3))
        bil = rng.standard_normal(shape)
        lower, _ = tensor_norm_222(bil, restarts=20)
        assert DenseBiAffinePart(bil).constants().L_b >= lower * (1 - 1e-9)


def test_identity_part():
    rng = np.random.default_rng(5)
    part = IdentityPart(4)
    assert part.p == 0
    x = rng.standard_normal(4)
    assert np.allclose(part.value(x, np.zeros(0)), x)
    c = part.constants()
    assert (c.L_b, c.l_u, c.l_x) == (0.0, 0.0, 1.0)


def test_residual_part_per_sample_routing():
    rng = np.random.default_rng(6)
    inner = FCPart(batch=2, in_features=3, out_features=2, bias=True)
    part = ResidualPart(inner, batch=2)
    assert part.d_in == 2 * (3 + 2)
    assert part.d_out == 2 * (2 + 3)
    W = rng.standard_normal((2, 3))
    b = rng.standard_normal(2)
    u = np.concatenate([W.ravel(), b])
    x1 = rng.standard_normal((2, 3))  # per-sample first block
    x2 = rng.standard_normal((2, 2))  # per-sample second block
    x = np.concatenate([x1, x2], axis=1).ravel()
    out = part.value(x, u).reshape(2, 5)
    assert np.allclose(out[:, :2], x1 @ W.T + b + x2)
    assert np.allclose(out[:, 2:], x1)
    _check_part(part, rng)
    c = part.constants()
    inner_c = inner.constants()
    assert c.l_x == pytest.approx(inner_c.l_x + 1.0)
    assert c.L_b == pytest.approx(inner_c.L_b)


def test_dimension_validation():
    part = FCPart(batch=1, in_features=2, out_features=2, bias=False)
    with pytest.raises(DimensionMismatch):
        part.value(np.zeros(3), np.zeros(4))
    with pytest.raises(DimensionMismatch):
        part.value(np.zeros(2), np.zeros(5))
    with pytest.raises(DimensionMismatch):
        part.vjp_x(np.zeros(4), np.zeros(3))


def test_constants_dataclass_is_frozen():
    c = BiAffineConstants(1.0, 2.0, 3.0, 0.0, 0.0)
    with pytest.raises(Exception):
        c.L_b = 5.0


# ---------------------------------------------------------------- norm oracles

def test_operator_norm_matches_jacobi_svd():
    rng = np.random.default_rng(0)
    for _ in range(20):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        m = rng.standard_normal((rows, cols))
        assert operator_norm(m) == pytest.approx(jacobi_largest_sv(m), rel=1e-10)


def test_operator_norm_edge_cases():
    assert operator_norm(np.zeros((3, 2))) == 0.0
    assert operator_norm(np.array([[2.0]])) == pytest.approx(2.0)
    v = np.array([[3.0, 4.0]])
    assert operator_norm(v) == pytest.approx(5.0)


def test_tensor_norm_trivial_axis_exact():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((1, 4, 3))
    val, certified = tensor_norm_222(a)
    assert certified
    assert val == pytest.approx(jacobi_largest_sv(a[0]), rel=1e-10)


def test_tensor_norm_is_attained_lower_bound():
    # random sampling must never beat the alternating-maximization value
    rng = np.random.default_rng(2)
    a = rng.standard_normal((3, 3, 3))
    val, certified = tensor_norm_222(a, restarts=50)
    assert not certified
    best = 0.0
    for _ in range(3000):
        x = rng.standard_normal(3); x /= np.linalg.norm(x)
        y = rng.standard_normal(3); y /= np.linalg.norm(y)
        z = rng.standard_normal(3); z /= np.linalg.norm(z)
        best = max(best, abs(np.einsum("kij,i,j,k->", a, x, y, z)))
    assert best <= val + 1e-9


def test_tensor_norm_rank_one_exact():
    # T[x,y,z] = (a·x)(b·y)(c·z) has norm ||a||*||b||*||c||
    a = np.array([1.0, 2.0])
    b = np.array([2.0, -1.0, 1.0])
    c = np.array([0.5, 0.5])
    val, _ = tensor_norm_222(np.einsum("i,j,k->kij", a, b, c), restarts=20)
    want = np.linalg.norm(a) * np.linalg.norm(b) * np.linalg.norm(c)
    assert val == pytest.approx(want, rel=1e-8)
