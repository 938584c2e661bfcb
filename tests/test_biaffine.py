"""Bi-affine parts: values, transposed Jacobians, cross terms, constants.

The dense Jacobians and the cross term are derived from ``vjp_x``/``vjp_u``,
so they are checked here against the independent routes: ``value`` (exact
bi-affinity), ``jvp`` and a four-point difference of ``value``.
"""

import tracemalloc

import numpy as np
import pytest

from chaincert import (BiAffineConstants, ChainSpec, ConvPart, DenseBiAffinePart,
                       FCPart, IdentityPart, OpCounter, ResidualPart,
                       SymbolicConvPart, DimensionMismatch, SymbolicOnlyError,
                       conv2d, fully_connected, operator_norm)
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


def _conv_by_loops(patches, m, C, n_sp, F, b, x, w, dx, dF, db):
    """The four conv products by explicit per-sample, per-window loops.

    Returns (value, vjp_x, vjp_u, jvp) at ``(x, F, b)``, with cotangent ``w``
    and tangent ``(dx, dF, db)``; ``b``/``db`` are None without a bias.
    """
    n_f, _, k = F.shape
    n_p = len(patches)
    X, dX = x.reshape(m, C, n_sp), dx.reshape(m, C, n_sp)
    W = w.reshape(m, n_f, n_p)
    val = np.zeros((m, n_f, n_p))
    tan = np.zeros((m, n_f, n_p))
    gx = np.zeros((m, C, n_sp))
    gF = np.zeros((n_f, C, k))
    gb = np.zeros(n_f)
    for s in range(m):
        for f in range(n_f):
            for p in range(n_p):
                for c in range(C):
                    for j in range(k):
                        i = patches[p, j]
                        val[s, f, p] += F[f, c, j] * X[s, c, i]
                        tan[s, f, p] += F[f, c, j] * dX[s, c, i] + dF[f, c, j] * X[s, c, i]
                        gx[s, c, i] += F[f, c, j] * W[s, f, p]
                        gF[f, c, j] += X[s, c, i] * W[s, f, p]
                if b is not None:
                    val[s, f, p] += b[f]
                    tan[s, f, p] += db[f]
                    gb[f] += W[s, f, p]
    gu = gF.ravel() if b is None else np.concatenate([gF.ravel(), gb])
    return val.ravel(), gx.ravel(), gu, tan.ravel()


_CONV_CASES = {
    # name: (batch, channels, spatial, patch table, filters, bias)
    "2d-stride1-bias": (2, 2, 25, _valid_patches_2d(5, 5, 3, 3, 1, 1)[0], 3, True),
    "2d-stride2": (3, 2, 30, _valid_patches_2d(5, 6, 2, 3, 2, 2)[0], 2, False),
    "1d-stride2-bias": (3, 2, 9, _valid_patches_2d(1, 9, 1, 3, 1, 2)[0], 2, True),
    "1d-stride1": (1, 3, 6, _valid_patches_2d(1, 6, 1, 2, 1, 1)[0], 2, False),
    # overlapping windows, and window 0 reads position 0 twice
    "hand-repeated": (2, 2, 5, np.array([[0, 0, 2], [1, 2, 3], [3, 4, 1]]), 2, True),
}


@pytest.mark.parametrize("case", sorted(_CONV_CASES))
def test_conv_part_products_match_explicit_loops(case):
    m, C, n_sp, patches, n_f, bias = _CONV_CASES[case]
    part = ConvPart(batch=m, channels=C, spatial=n_sp, patches=patches,
                    n_filters=n_f, bias=bias)
    rng = np.random.default_rng(len(case))
    k = patches.shape[1]
    F, dF = rng.standard_normal((2, n_f, C, k))
    b, db = rng.standard_normal((2, n_f)) if bias else (None, None)
    u = F.ravel() if b is None else np.concatenate([F.ravel(), b])
    du = dF.ravel() if db is None else np.concatenate([dF.ravel(), db])
    x, dx = rng.standard_normal((2, part.d_in))
    w = rng.standard_normal(part.d_out)
    want = _conv_by_loops(patches, m, C, n_sp, F, b, x, w, dx, dF, db)

    # charged units: one per stored nonzero of each applied piece
    s_beta = m * len(patches) * n_f * C * k
    s_beta_u = m * n_f * len(patches) if bias else 0
    calls = [
        (lambda c: part.value(x, u, c), s_beta + s_beta_u),
        (lambda c: part.vjp_x(u, w, c), s_beta),
        (lambda c: part.vjp_u(x, w, c), s_beta + s_beta_u),
        (lambda c: part.jvp(x, u, dx, du, c), 2 * s_beta + s_beta_u),
    ]
    for (call, units), ref in zip(calls, want):
        count = OpCounter()
        got = call(count)
        assert got.shape == ref.shape
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
        assert count.total == units


def test_numeric_conv_construction_allocates_no_im2col_index():
    # the im2col index of this part would be 222*222 * 512*9 int64, 1.8 GB
    patches, _ = _valid_patches_2d(224, 224, 3, 3, 1, 1)
    tracemalloc.start()
    try:
        part = ConvPart(batch=1, channels=512, spatial=224 * 224, patches=patches,
                        n_filters=4, kernel_shape=(3, 3), stride=(1, 1))
        part.constants()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert part.numeric
    assert part.n_p * part.C * part.k_sp * 8 > 1e9
    assert peak < 64 * 2**20


def _refuses_within_1mb(call, *args):
    """``call(*args)`` raises ``SymbolicOnlyError`` with a ``tracemalloc`` peak under 1 MB."""
    tracemalloc.start()
    try:
        with pytest.raises(SymbolicOnlyError):
            call(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"{call.__name__} peaked at {peak} bytes before refusing"


def test_symbolic_conv_refuses_numerics_but_reports_constants():
    part = SymbolicConvPart(batch=128, channels=3, spatial=224 * 224,
                            n_patches=224 * 224, kernel_shape=(3, 3),
                            stride=(1, 1), n_filters=64, bias=False)
    # The derived forms refuse before any identity stack: np.eye(d_out)
    # would take d_out^2 = 1.7e17 floats here.
    _refuses_within_1mb(part.value, np.zeros(2), np.zeros(2))
    for p in (part, ResidualPart(part, batch=128)):
        _refuses_within_1mb(p.dense_jx, np.zeros(2))
        _refuses_within_1mb(p.dense_ju, np.zeros(2))
        _refuses_within_1mb(p.second_cross, np.zeros(2))
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


def _parts_of_every_kind():
    fc = FCPart(batch=2, in_features=3, out_features=2)
    rng = np.random.default_rng(9)
    return {
        "fc": fc,
        "conv": ConvPart(2, 1, 9, _valid_patches_2d(3, 3, 2, 2, 1, 1)[0], 2, bias=True),
        "dense": DenseBiAffinePart(rng.standard_normal((3, 2, 4))),
        "identity": IdentityPart(4),
        "residual": ResidualPart(fc, batch=2),
    }


@pytest.mark.parametrize("kind", ["fc", "conv", "dense", "identity", "residual"])
def test_every_public_method_refuses_a_bad_shape(kind):
    part = _parts_of_every_kind()[kind]
    x, u, w = np.zeros(part.d_in), np.zeros(part.p), np.zeros(part.d_out)
    bad_x, bad_u, bad_w = np.zeros(part.d_in + 1), np.zeros(part.p + 1), np.zeros(part.d_out + 1)
    calls = [
        (part.value, (bad_x, u)), (part.value, (x, bad_u)),
        (part.linearize, (bad_x, u)), (part.linearize, (x, bad_u)),
        (part.vjp_x, (bad_u, w)), (part.vjp_x, (u, bad_w)),
        (part.vjp_u, (bad_x, w)), (part.vjp_u, (x, bad_w)),
        (part.jvp, (bad_x, u, x, u)), (part.jvp, (x, bad_u, x, u)),
        (part.jvp, (x, u, bad_x, u)), (part.jvp, (x, u, x, bad_u)),
    ]
    if hasattr(part, "vjp_u_samples"):
        calls += [(part.vjp_u_samples, (bad_x, w)), (part.vjp_u_samples, (x, bad_w))]
    for method, args in calls:
        with pytest.raises(DimensionMismatch):
            method(*args)


def test_symbolic_conv_refuses_every_public_method():
    part = SymbolicConvPart(batch=2, channels=1, spatial=9, n_patches=4,
                            kernel_shape=(2, 2), stride=(1, 1), n_filters=2)
    x, u, w = np.zeros(part.d_in), np.zeros(part.p), np.zeros(part.d_out)
    for method, args in [(part.value, (x, u)), (part.linearize, (x, u)), (part.vjp_x, (u, w)),
                         (part.vjp_u, (x, w)), (part.jvp, (x, u, x, u))]:
        with pytest.raises(SymbolicOnlyError):
            method(*args)


def test_constants_dataclass_is_frozen():
    c = BiAffineConstants(1.0, 2.0, 3.0, 0.0)
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


# name: (batch, channels, (height, width), kernel, stride, filters); 1-d is one row
_CONV_LB_CASES = {
    "1d-stride1": (2, 1, (1, 16), (1, 3), (1, 1), 1),
    "1d-stride2": (1, 2, (1, 15), (1, 4), (1, 2), 2),
    "2d-stride1": (2, 3, (5, 6), (3, 2), (1, 1), 2),
    "2d-stride2": (3, 2, (6, 7), (3, 3), (2, 2), 3),
    "2d-stride1x2": (2, 2, (5, 5), (2, 3), (1, 2), 2),
}


@pytest.mark.parametrize("case", sorted(_CONV_LB_CASES))
def test_conv_L_b_bounds_and_nearly_meets_attained_bilinear_norm(case):
    # Alternating power iteration over (x, u) on a bias-free part climbs
    # ||b(x, u)|| at unit x, u toward its supremum, which L_b must bound; a
    # loose or halved L_b shows as a ratio far from 1 on one side.
    m, C, (H, W), kernel, stride, n_f = _CONV_LB_CASES[case]
    part = ConvPart(batch=m, channels=C, spatial=H * W,
                    patches=_valid_patches_2d(H, W, *kernel, *stride)[0], n_filters=n_f)
    rng = np.random.default_rng(85)
    attained = 0.0
    for _ in range(3):
        x, u = rng.standard_normal(part.d_in), rng.standard_normal(part.p)
        for _ in range(300):
            x = part.vjp_x(u, part.value(x, u))
            x /= np.linalg.norm(x)
            u = part.vjp_u(x, part.value(x, u))
            u /= np.linalg.norm(u)
        attained = max(attained, float(np.linalg.norm(part.value(x, u))))
    L_b = part.constants().L_b
    assert attained <= L_b * (1 + 1e-9)
    assert attained >= 0.7 * L_b
