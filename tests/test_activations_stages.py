"""Scalar activations and nonlinear stages: values, derivatives, constants."""

import numpy as np
import pytest

from chaincert import (AvgPoolStage, BatchNormStage, BlockStage, DimensionMismatch,
                       ElementwiseStage, MaxPoolStage, SecondOrderUnavailable,
                       SoftmaxStage, get_activation)
from chaincert.layers import _valid_patches_2d

from helpers import fd_jacobian


def test_activation_reference_values():
    sp = get_activation("softplus")
    assert sp.fn(np.array([0.0]))[0] == pytest.approx(np.log(2.0))
    spc = get_activation("softplus-centered")
    assert spc.fn(np.array([0.0]))[0] == pytest.approx(0.0)
    sg = get_activation("sigmoid")
    assert sg.fn(np.array([0.0]))[0] == pytest.approx(0.5)
    rl = get_activation("relu")
    assert rl.fn(np.array([-2.0, 3.0])) == pytest.approx([0.0, 3.0])
    idn = get_activation("identity")
    assert idn.fn(np.array([7.0]))[0] == 7.0


def test_activation_declared_constants_hold_empirically():
    rng = np.random.default_rng(0)
    xs = rng.uniform(-6, 6, size=4000)
    hs = 1e-5
    for name in ("softplus", "softplus-centered", "sigmoid", "identity"):
        act = get_activation(name)
        d1 = (act.fn(xs + hs) - act.fn(xs - hs)) / (2 * hs)
        assert np.all(np.abs(d1) <= act.lip + 1e-6), name
        assert np.all(np.abs(act.d1(xs)) <= act.lip + 1e-12), name
        d2 = (act.fn(xs + hs) - 2 * act.fn(xs) + act.fn(xs - hs)) / hs**2
        assert np.all(np.abs(d2) <= act.smooth + 1e-3), name
        assert abs(act.fn(np.zeros(1))[0]) == pytest.approx(abs(act.val0))
        assert abs(act.d1(np.zeros(1))[0]) == pytest.approx(act.slope0)
        if np.isfinite(act.bound):
            assert np.all(np.abs(act.fn(xs)) <= act.bound + 1e-12), name


def _masked_sigmoid(x):
    """Sigmoid split by sign: 1/(1+e^-x) for x >= 0, e^x/(1+e^x) below."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_matches_masked_reference_to_ulps():
    rng = np.random.default_rng(11)
    xs = np.concatenate([np.linspace(-750.0, 750.0, 30001),
                         rng.uniform(-750.0, 750.0, 20000),
                         [0.0, -0.0, 5e-324, -5e-324, -745.0, -708.5, 36.0, -37.0, -40.0]])
    want = s = _masked_sigmoid(xs)
    got = get_activation("sigmoid").fn(xs)
    # Relative accuracy holds in the far negative tail, down to subnormals;
    # entries below about -745.1 underflow to 0 in both.
    pos = want > 0
    assert np.all(got[~pos] == 0.0)
    assert np.all(np.abs(got[pos] - want[pos]) <= 4 * np.spacing(want[pos]))
    assert np.all(got[xs == 0.0] == 0.5)
    for name, d1, d2 in (("softplus", s, s * (1 - s)),
                         ("softplus-centered", s, s * (1 - s)),
                         ("sigmoid", s * (1 - s), s * (1 - s) * (1 - 2 * s))):
        act = get_activation(name)
        assert np.allclose(act.d1(xs), d1, rtol=1e-15, atol=0), name
        assert np.allclose(act.d2(xs), d2, rtol=1e-15, atol=0), name


def test_softplus_centered_is_softplus_shifted():
    xs = np.linspace(-3, 3, 11)
    sp = get_activation("softplus").fn(xs)
    spc = get_activation("softplus-centered").fn(xs)
    assert spc == pytest.approx(sp - np.log(2.0))


def _check_stage_consistency(stage, z, rng, second=True, tol=1e-6):
    lin = stage.linearize(z)
    J = lin.dense_jacobian()
    J_fd = fd_jacobian(lambda v: stage.value(v), z)
    assert np.allclose(J, J_fd, atol=tol), "dense jacobian vs FD"
    dz = rng.standard_normal(stage.in_total)
    assert np.allclose(lin.jvp(dz), J @ dz, atol=1e-10)
    lam = rng.standard_normal(stage.out_total)
    assert np.allclose(lin.vjp(lam), J.T @ lam, atol=1e-10)
    if second:
        H = lin.hess_contract(lam)
        # FD of lam' a(z) twice
        def f(v):
            return float(lam @ stage.value(v))
        n = z.size
        H_fd = np.zeros((n, n))
        eps = 1e-4
        for i in range(n):
            e = np.zeros(n); e[i] = eps
            gp = fd_jacobian(lambda v: np.array([f(v)]), z + e)[0]
            gm = fd_jacobian(lambda v: np.array([f(v)]), z - e)[0]
            H_fd[:, i] = (gp - gm) / (2 * eps)
        assert np.allclose(H, H_fd, atol=5e-4), "hessian contraction vs FD"


def test_elementwise_stage_consistency():
    rng = np.random.default_rng(1)
    st = ElementwiseStage(get_activation("softplus"), 5)
    _check_stage_consistency(st, rng.standard_normal(5), rng)


def test_softmax_stage_consistency():
    rng = np.random.default_rng(2)
    st = SoftmaxStage(2, 3)
    z = rng.standard_normal(6)
    _check_stage_consistency(st, z, rng)
    rows = st.value(z).reshape(2, 3)
    assert np.allclose(rows.sum(axis=1), 1.0)
    assert np.all(rows > 0)


def test_avgpool_stage_consistency():
    rng = np.random.default_rng(3)
    patches = np.array([[0, 1], [1, 2], [2, 3]])
    st = AvgPoolStage(2, 1, 4, patches)
    _check_stage_consistency(st, rng.standard_normal(st.in_total), rng)


def test_maxpool_stage_value_and_first_order():
    rng = np.random.default_rng(4)
    patches = np.array([[0, 1], [2, 3]])
    st = MaxPoolStage(1, 1, 4, patches)
    z = np.array([3.0, -1.0, 2.0, 5.0])
    assert st.value(z) == pytest.approx([3.0, 5.0])
    _check_stage_consistency(st, rng.standard_normal(4) * 2, rng, second=False)
    assert not st.second_order


def test_stages_refuse_a_state_of_the_wrong_size():
    st = ElementwiseStage(get_activation("softplus"), 3)
    for call in (st.value, st.linearize):
        with pytest.raises(DimensionMismatch, match=r"expected \(3,\), got \(2,\)"):
            call(np.zeros(2))


def test_first_order_linearisations_refuse_a_second_order_contraction():
    relu = ElementwiseStage(get_activation("relu"), 3)
    pool = MaxPoolStage(1, 1, 4, np.array([[0, 1], [2, 3]]))
    for st, z in ((relu, np.array([-1.0, 0.5, 2.0])), (pool, np.array([3.0, -1.0, 2.0, 5.0]))):
        with pytest.raises(SecondOrderUnavailable):
            st.linearize(z).hess_contract(np.ones(st.out_total))


def _pool_jacobian(st, z):
    """Pooling Jacobian built entry by entry from the window table.

    Average pooling weights every window entry by 1/patch (an index listed
    twice counts twice); max pooling takes the first maximal entry.
    """
    J = np.zeros((st.out_total, st.in_total))
    Z = z.reshape(st.batch, st.channels, st.spatial_in)
    row = 0
    for b in range(st.batch):
        for c in range(st.channels):
            base = (b * st.channels + c) * st.spatial_in
            for window in st.patches:
                if st.name == "avgpool":
                    for i in window:
                        J[row, base + i] += 1.0 / len(window)
                else:
                    J[row, base + window[int(np.argmax(Z[b, c, window]))]] = 1.0
                row += 1
    return J


# 3x3 windows at stride 1 on a 5x5 grid: inner positions are read by up to
# nine windows.  The hand table repeats index 0 inside its first window.
_OVERLAPPING = {
    "grid": (25, _valid_patches_2d(5, 5, 3, 3, 1, 1)[0]),
    "hand": (4, np.array([[0, 0, 1], [1, 2, 3], [3, 2, 0]])),
}


@pytest.mark.parametrize("table", sorted(_OVERLAPPING))
@pytest.mark.parametrize("cls", [AvgPoolStage, MaxPoolStage], ids=["avg", "max"])
def test_pool_vjp_scatters_overlapping_windows(cls, table):
    spatial, patches = _OVERLAPPING[table]
    st = cls(2, 3, spatial, patches)
    rng = np.random.default_rng(11)
    # small integers make ties within a window common
    for z in (rng.integers(0, 3, st.in_total).astype(float), np.zeros(st.in_total)):
        lin = st.linearize(z)
        lam = rng.standard_normal(st.out_total)
        want = _pool_jacobian(st, z)
        assert np.allclose(lin.dense_jacobian(), want, rtol=0, atol=1e-15)
        assert np.allclose(lin.vjp(lam), lin.dense_jacobian().T @ lam, rtol=0, atol=1e-13)
        assert np.allclose(lin.vjp(lam), want.T @ lam, rtol=0, atol=1e-13)


def test_batchnorm_stage_consistency_and_centering():
    rng = np.random.default_rng(5)
    st = BatchNormStage(4, 2, 0.5)
    z = rng.standard_normal(8) * 2
    _check_stage_consistency(st, z, rng, tol=1e-5)
    out = st.value(z).reshape(4, 2)
    assert np.allclose(out.mean(axis=0), 0.0, atol=1e-12)
    # normalized columns have norm sqrt(m) / sqrt(1 + eps/var) <= sqrt(m)
    assert np.all(np.linalg.norm(out, axis=0) <= np.sqrt(4) + 1e-12)


def test_block_stage_routes_only_inner_rows():
    rng = np.random.default_rng(6)
    inner = ElementwiseStage(get_activation("sigmoid"), 6)  # 2 samples x 3
    st = BlockStage(inner, 2, 2)  # per-sample layout [3 inner, 2 passthrough]
    z = rng.standard_normal(10)
    out = st.value(z)
    zz = z.reshape(2, 5)
    want_inner = get_activation("sigmoid").fn(zz[:, :3].ravel()).reshape(2, 3)
    assert np.allclose(out.reshape(2, 5)[:, :3], want_inner)
    assert np.allclose(out.reshape(2, 5)[:, 3:], zz[:, 3:])
    _check_stage_consistency(st, z, rng)


def test_stage_constants_values():
    st = SoftmaxStage(4, 5)
    c = st.constants()
    assert c.m_a == pytest.approx(np.sqrt(4))
    assert c.lip == pytest.approx(2.0)
    assert c.smooth == pytest.approx(4.0)
    assert c.a0_norm == pytest.approx(np.sqrt(4.0 / 5.0))
    assert c.slope0 == pytest.approx(1.0 / 5.0)

    bn = BatchNormStage(9, 3, 0.25)
    cb = bn.constants()
    assert cb.m_a == pytest.approx(np.sqrt(3 * 9))
    assert cb.lip == pytest.approx(2.0 / np.sqrt(0.25))
    assert cb.smooth == pytest.approx(2.0 / (np.sqrt(9) * 0.25))


@pytest.mark.parametrize("batch, features, eps", [(4, 6, 0.1), (9, 3, 0.25), (2, 5, 1e-2)])
def test_batchnorm_magnitude_bound_is_tight(batch, features, eps):
    # ||a(z)|| < sqrt(features * batch) for every z, approached as z grows.
    rng = np.random.default_rng(84)
    st = BatchNormStage(batch, features, eps)
    m_a = st.constants().m_a
    for scale in (0.1, 1.0, 10.0, 1e2, 1e3, 1e4):
        norms = [np.linalg.norm(st.value(scale * rng.standard_normal(batch * features)))
                 for _ in range(100)]
        assert max(norms) <= m_a
        if scale >= 1e3:
            assert max(norms) >= 0.99 * m_a


def _bits_equal(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_activation_kernels_equal_their_reference_formulas_bitwise():
    # The kernels avoid temporaries and the select of np.where; each must
    # still give the plain formula's bits, NaN included.
    from chaincert.activations import LOG2, _sigmoid, _softplus

    def softplus(x):
        return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))

    def sigmoid(x):
        e = np.exp(-np.abs(x))
        return np.where(x >= 0, 1.0, e) / (1.0 + e)

    rng = np.random.default_rng(5)
    xs = np.concatenate([[0.0, -0.0, 800.0, -800.0, np.inf, -np.inf, np.nan,
                          5e-324, -5e-324, 36.0, -37.0, 745.0, -745.0],
                         rng.standard_normal(2000) * 40.0])
    centered = get_activation("softplus-centered").fn
    for got, want in ((_softplus, softplus), (_sigmoid, sigmoid),
                      (centered, lambda x: softplus(x) - LOG2)):
        assert _bits_equal(got(xs), want(xs))
        assert _bits_equal(got(xs[6:].reshape(-1, 9)), want(xs[6:].reshape(-1, 9)))
        for v in xs[:13]:
            assert np.array_equal(got(np.float64(v)), want(np.float64(v)), equal_nan=True)
    z = xs.copy()
    for act in ("softplus", "softplus-centered", "sigmoid"):
        a = get_activation(act)
        a.fn(z), a.d1(z), a.d2(z)
        assert _bits_equal(z, xs), f"{act} wrote into its input"


# Pool geometries (batch, channels, height, width, size, stride): tiling,
# overlapping and ragged windows.
_POOL_GEOMETRIES = [(2, 3, 6, 6, (2, 2), (2, 2)), (1, 2, 5, 7, (3, 2), (1, 2)),
                    (3, 1, 7, 5, (3, 3), (2, 1))]


@pytest.mark.parametrize("geometry", _POOL_GEOMETRIES, ids=str)
@pytest.mark.parametrize("kind", ["avg", "max"])
def test_pool_stages_from_layers_equal_explicit_table_stages_bitwise(kind, geometry):
    # A stage built by ``maxpool2d``/``avgpool2d`` builds its window table on
    # first numeric use; every product must equal the stage built from the
    # same table passed explicitly.
    from chaincert import avgpool2d, maxpool2d

    b, c, h, w, size, stride = geometry
    make, cls = (avgpool2d, AvgPoolStage) if kind == "avg" else (maxpool2d, MaxPoolStage)
    lazy = make(b, c, h, w, size, stride).stages[0]
    table = _valid_patches_2d(h, w, *size, *stride)[0]
    eager = cls(b, c, h * w, table)
    assert (lazy.n_out, lazy.patch_size, lazy.in_total, lazy.out_total) == \
        (eager.n_out, eager.patch_size, eager.in_total, eager.out_total)
    assert lazy.constants() == eager.constants()
    assert lazy.grad_sparsity() == eager.grad_sparsity()

    rng = np.random.default_rng(17)
    # small integers make ties within a window common
    z = rng.integers(0, 3, lazy.in_total).astype(float)
    dz = rng.standard_normal((4, lazy.in_total))
    lam = rng.standard_normal((4, lazy.out_total))
    assert _bits_equal(lazy.value(z), eager.value(z))
    ll, le = lazy.linearize(z), eager.linearize(z)
    assert _bits_equal(ll.jvp(dz[0]), le.jvp(dz[0]))
    assert _bits_equal(ll.vjp(lam[0]), le.vjp(lam[0]))
    assert _bits_equal(ll.jvp(dz), le.jvp(dz))
    assert _bits_equal(ll.vjp(lam), le.vjp(lam))
    assert _bits_equal(ll.dense_jacobian(), le.dense_jacobian())
    assert np.array_equal(lazy.patches, table)


def test_explicit_pool_tables_are_checked_at_construction():
    from chaincert import DimensionMismatch

    for cls in (AvgPoolStage, MaxPoolStage):
        for bad in (np.array([[0, 4]]), np.array([[-1, 0]]), np.array([0, 1])):
            with pytest.raises(DimensionMismatch):
                cls(1, 1, 4, bad)
        # the one-coordinate stage a profiler builds to reach the private
        # linearisation classes
        st = cls(1, 1, 1, np.zeros((1, 1), dtype=int))
        assert _bits_equal(st.linearize(np.zeros(1)).vjp(np.ones(1)), np.ones(1))
        # a profiler wraps these by name on the class itself
        assert "value" in cls.__dict__ and "linearize" in cls.__dict__
