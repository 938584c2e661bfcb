"""Constant propagation: hand-checked recursions and soundness probes."""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chaincert import (BoundedDomain, ChainSpec, DenseBiAffinePart,
                       LayerDescriptor, LogMag, ParamVector, avgpool2d,
                       backward, batchnorm_layer, catalog_constants, conv2d,
                       forward, fully_connected, generic_recursion,
                       input_smoothness, objective_smoothness, parse_arch,
                       propagate_chain, propagate_layers, recenter_domain,
                       refine_on_ball, residual_wrap, sample_params, sample_state)
import chaincert.cli
from chaincert.biaffine import BiAffineConstants

from helpers import (random_catalog_chain, ref_generic_recursion, ref_input_smoothness,
                     ref_objective_smoothness, ref_propagate_layers)


def _plain_constants(lb, lu, lx, beta0=0.0):
    return BiAffineConstants(L_b=lb, l_u=lu, l_x=lx, beta0_norm=beta0)


def test_hand_worked_two_layer_recursion():
    # two layers, identity stages, L_b=1, l_u=l_x=0, radius 1, m0 = 1:
    # chosen so every quantity is integer and checkable by hand
    chain = ChainSpec((
        fully_connected(1, 1, 1, activation="identity", bias=False),
        fully_connected(1, 1, 1, activation="identity", bias=False),
    ))
    consts = [(_plain_constants(1.0, 0.0, 0.0), ()),
              (_plain_constants(1.0, 0.0, 0.0), ())]
    dom = BoundedDomain((1.0, 1.0), 1.0)
    trace = propagate_layers(chain, dom, consts)
    # layer 1: lx = 1, lu = 1, m = 1*1 + 1*1 = 2; lip = 1; smooth = 2*L_b*l0*lip(prev)=0
    m1, l1, s1 = trace[0].as_floats()
    assert (m1, l1, s1) == pytest.approx((2.0, 1.0, 0.0))
    # layer 2: lx = 1, lu = L_b*m1 = 2, m = 1*2 + 2*1 = 4,
    # lip = lx*lip1 + lu = 3, smooth = 2*Lb*l0*lip1 = 2
    m2, l2, s2 = trace[1].as_floats()
    assert (m2, l2, s2) == pytest.approx((4.0, 3.0, 2.0))


def test_refine_on_ball():
    lip_r, m_r = refine_on_ball(R=0.5, lip=10.0, smooth=2.0, slope0=1.0,
                                val0=0.0, m_bound=math.inf)
    assert lip_r == pytest.approx(2.0)   # 1 + 0.5*2 beats the global 10
    assert m_r == pytest.approx(1.0)     # 0 + 0.5*2
    lip_r2, m_r2 = refine_on_ball(R=100.0, lip=3.0, smooth=1.0, slope0=0.0,
                                  val0=1.0, m_bound=5.0)
    assert lip_r2 == pytest.approx(3.0)  # global wins
    assert m_r2 == pytest.approx(5.0)    # capped


def test_generic_recursion_examples():
    lip, smo = generic_recursion([(1.0, 0.0)] * 5)
    assert lip.value == pytest.approx(5.0)
    assert smo.value == pytest.approx(0.0)
    lip2, smo2 = generic_recursion([(2.0, 1.0), (3.0, 1.0)])
    assert lip2.value == pytest.approx(9.0)
    assert smo2.value == pytest.approx(12.0)


def test_input_smoothness_single_softplus_layer():
    # one fully-connected softplus layer with ||W||_F = 2:
    # input-to-output slope <= 2 (chain rule), curvature <= 1 (softplus 1/4 * 4)
    chain = ChainSpec((fully_connected(1, 2, 2, activation="softplus",
                                       bias=False),))
    W = np.array([[2.0, 0.0], [0.0, 0.0]])
    u = ParamVector((W.ravel(),))
    tri = input_smoothness(chain, u, R=1.0)
    assert tri.lip.value <= 2.0 + 1e-9
    assert tri.smooth.value <= 1.0 + 1e-9


def test_input_smoothness_bounds_measured_slopes():
    rng = np.random.default_rng(0)
    chain = ChainSpec((
        fully_connected(1, 3, 4, activation="sigmoid", bias=True),
        fully_connected(1, 4, 2, activation="softplus", bias=True),
    ))
    u = sample_params(chain.param_dims, 1.2, rng)
    R = 0.8
    tri = input_smoothness(chain, u, R)
    ell = tri.lip.value
    for _ in range(40):
        a = sample_state(3, R * rng.random(), rng)
        b = sample_state(3, R * rng.random(), rng)
        if np.allclose(a, b):
            continue
        fa = forward(chain, a, u).output
        fb = forward(chain, b, u).output
        slope = np.linalg.norm(fa - fb) / np.linalg.norm(a - b)
        assert slope <= ell * (1 + 1e-9)


def test_propagate_chain_bounds_measured_parameter_slopes():
    rng = np.random.default_rng(1)
    chain = ChainSpec((
        fully_connected(2, 3, 4, activation="softplus", bias=True),
        fully_connected(2, 4, 3, activation="sigmoid", bias=False),
    ))
    dom = BoundedDomain((1.0, 1.5), 1.0)
    tri = propagate_chain(chain, dom)
    ell = tri.lip.value
    m_bound = tri.m.value
    x0 = sample_state(chain.d0, 1.0, rng)
    for _ in range(40):
        ua = sample_params(chain.param_dims, dom.radii, rng)
        ub = sample_params(chain.param_dims, dom.radii, rng)
        fa = forward(chain, x0, ua).output
        fb = forward(chain, x0, ub).output
        assert np.linalg.norm(fa) <= m_bound * (1 + 1e-9)
        du = (ua - ub).norm()
        if du > 0:
            assert np.linalg.norm(fa - fb) / du <= ell * (1 + 1e-9)


def test_propagate_is_monotone_in_radius():
    chain = ChainSpec((fully_connected(1, 2, 2, activation="softplus"),
                       fully_connected(1, 2, 2, activation="identity")))
    small = propagate_chain(chain, BoundedDomain((0.5, 0.5), 1.0))
    big = propagate_chain(chain, BoundedDomain((2.0, 2.0), 1.0))
    assert small.m.lg <= big.m.lg
    assert small.lip.lg <= big.lip.lg
    assert small.smooth.lg <= big.smooth.lg


@pytest.mark.parametrize("layer", [
    fully_connected(3, 4, 2, bias=True),
    fully_connected(3, 4, 2, bias=False),
    conv2d(3, 2, 5, 5, filters=2, kernel=3, stride=2, bias=True),
    conv2d(3, 2, 5, 5, filters=2, kernel=3, stride=2, bias=False),
    conv2d(3, 2, 5, 5, filters=2, kernel=3, declared_patches=25),
    residual_wrap(fully_connected(3, 3, 3, activation="softplus", bias=False)),
], ids=["fc-bias", "fc-nobias", "conv-bias", "conv-nobias", "conv-symbolic",
        "residual-fc"])
def test_catalog_constants_conv_vs_honest(layer):
    # the part and the stages are the only owners of their constants
    bc, stage_cs = catalog_constants(layer)
    assert bc == layer.part.constants()
    assert stage_cs == tuple(stage.constants() for stage in layer.stages)


def test_catalog_constants_residual_recursion():
    base = fully_connected(1, 3, 3, activation="softplus")
    wrapped = residual_wrap(base)
    bc, stage_cs = catalog_constants(wrapped)
    base_bc, _ = catalog_constants(base)
    assert bc.L_b == pytest.approx(base_bc.L_b)
    assert bc.l_x == pytest.approx(base_bc.l_x + 1.0)
    assert len(stage_cs) == len(wrapped.stages)


def test_offset_alone_bounds_the_magnitude_at_zero_input_and_parameters():
    # b(x, u) = beta(x, u) + beta_x(x) + b0 with beta_u = 0: at x0 = 0 and
    # u = 0 the output is b0 itself, and both directions must report |b0|.
    rng = np.random.default_rng(5)
    b0 = np.array([3.0, -4.0, 12.0])
    part = DenseBiAffinePart(rng.standard_normal((3, 2, 4)),
                             mx=rng.standard_normal((3, 2)), b0=b0)
    chain = ChainSpec((LayerDescriptor("dense", part, (), 1),))
    exact = LogMag.of(13.0)
    assert propagate_layers(chain, BoundedDomain((0.5,), 0.0))[0].m == exact
    zero = ParamVector((np.zeros(4),))
    assert input_smoothness(chain, zero, 0.0).m == exact
    out = forward(chain, np.zeros(2), zero).output
    assert np.linalg.norm(out) == 13.0


def test_recenter_domain_shifts_affine_constants():
    consts = [(_plain_constants(2.0, 3.0, 1.0, 0.5), ())]
    u_star = ParamVector((np.array([1.0, 2.0, 2.0]),))  # norm 3
    shifted = recenter_domain(consts, u_star)
    bc = shifted[0][0]
    assert bc.L_b == 2.0
    assert bc.l_u == 3.0
    assert bc.l_x == pytest.approx(1.0 + 2.0 * 3.0)
    assert bc.beta0_norm == pytest.approx(0.5 + 3.0 * 3.0)


def test_objective_smoothness_combination():
    chain = ChainSpec((fully_connected(1, 2, 2, activation="softplus"),))
    dom = BoundedDomain((1.0,), 1.0)
    psi = propagate_chain(chain, dom)
    L_F, ell_ref = objective_smoothness(psi, dom, ell_h=2.0, L_h=1.0,
                                        grad_ref_norm=0.5, L_r=0.1)
    assert np.isfinite(L_F.value) and L_F.value > 0
    assert ell_ref.value <= 2.0 + 1e-12


def test_objective_smoothness_grows_with_curvature():
    chain = ChainSpec((fully_connected(1, 2, 2, activation="softplus"),))
    dom = BoundedDomain((1.0,), 1.0)
    psi = propagate_chain(chain, dom)
    small, _ = objective_smoothness(psi, dom, 1.0, 0.5, 0.1)
    large, _ = objective_smoothness(psi, dom, 1.0, 5.0, 0.1)
    assert small.value <= large.value


def test_bounded_domain_validation():
    with pytest.raises(ValueError):
        BoundedDomain((0.0,), 1.0)
    with pytest.raises(ValueError):
        BoundedDomain((1.0,), -1.0)
    with pytest.raises(ValueError):
        BoundedDomain((1.0, float("nan")), 1.0)
    with pytest.raises(ValueError):
        BoundedDomain((1.0,), float("nan"))
    d = BoundedDomain.uniform(3, 2.0, 1.0)
    assert d.radii == (2.0, 2.0, 2.0)


def test_batchnorm_smoothness_stays_finite():
    chain = ChainSpec((
        fully_connected(4, 3, 4, activation="softplus-centered"),
        batchnorm_layer(4, 4, eps=0.1),
        fully_connected(4, 4, 2, activation="identity"),
    ))
    tri = propagate_chain(chain, BoundedDomain((1.0, 1.0, 1.0), 1.0))
    assert np.isfinite(tri.smooth.lg)


_SMOOTH_ACTS = st.sampled_from(["identity", "softplus", "sigmoid", "softplus-centered"])


@st.composite
def _small_chains(draw):
    """Random small chain: an optional conv (plus average pool) head, then
    fully-connected and batch-norm layers, each part with or without bias."""
    m = draw(st.integers(1, 3))
    layers = []
    if draw(st.booleans()):
        c, f, side = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(3, 4))
        layers.append(conv2d(m, c, side, side, f, 2, activation=draw(_SMOOTH_ACTS),
                             bias=draw(st.booleans())))
        side -= 1
        if draw(st.booleans()):
            layers.append(avgpool2d(m, f, side, side, 2, stride=1))
            side -= 1
        feat = f * side * side
    else:
        feat = draw(st.integers(1, 4))
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.integers(0, 3)) == 0:
            layers.append(batchnorm_layer(m, feat, draw(st.floats(0.05, 1.0))))
        else:
            out = draw(st.integers(1, 4))
            layers.append(fully_connected(m, feat, out, activation=draw(_SMOOTH_ACTS),
                                          bias=draw(st.booleans())))
            feat = out
    return ChainSpec(tuple(layers))


def _to_spheres(u, radius):
    return ParamVector([radius * b / max(np.linalg.norm(b), 1e-300) for b in u.blocks])


@settings(max_examples=40, deadline=None)
@given(_small_chains(), st.floats(0.2, 1.5), st.floats(0.2, 1.5),
       st.integers(0, 2**32 - 1))
def test_propagate_layers_bounds_random_chains(chain, radius, m0, seed):
    # Magnitude at every prefix, slope and gradient ratio at the output.
    # Points come from the balls and from their spheres; every other one is
    # then pushed up the output norm by a few projected ascent steps, and
    # its partner is a short step back along the ascent direction, projected
    # onto the same spheres so that both stay in the domain.
    rng = np.random.default_rng(seed)
    dom = BoundedDomain.uniform(chain.tau, radius, m0)
    trace = propagate_layers(chain, dom)
    lip, smooth = trace[-1].lip.value, trace[-1].smooth.value
    assert math.isfinite(smooth)
    x0 = sample_state(chain.d0, m0, rng)
    mu = rng.standard_normal(chain.d_out)
    mu /= np.linalg.norm(mu)
    for k in range(16):
        ua = sample_params(chain.param_dims, dom.radii, rng, surface=k % 2 == 0)
        ub = sample_params(chain.param_dims, dom.radii, rng)
        if k % 2 == 0:
            for _ in range(4):
                tape = forward(chain, x0, ua)
                g = backward(tape, tape.output)
                ua = _to_spheres(ua + (radius / max(g.norm(), 1e-300)) * g, radius)
            ub = _to_spheres(ua - (0.1 * radius / max(g.norm(), 1e-300)) * g, radius)
        ta, tb = forward(chain, x0, ua), forward(chain, x0, ub)
        for t, tri in enumerate(trace):
            assert np.linalg.norm(ta.states[t + 1]) <= tri.m.value * (1 + 1e-9)
        du = (ua - ub).norm()
        if du <= 1e-6 * radius:
            continue  # a pair at rounding distance measures no slope
        assert np.linalg.norm(ta.output - tb.output) / du <= lip * (1 + 1e-9)
        ratio = (backward(ta, mu) - backward(tb, mu)).norm() / du
        assert ratio <= smooth * (1 + 1e-9)


# ---------------------------------------------------------------- pinned certificates

# Every prefix's (log m, log lip, log smooth) from ``propagate_layers`` on the
# shipped VGG16 fixtures, and the two log differences that
# ``chaincert smoothness vgg16-smooth.arch --compare vgg16-batchnorm.arch
# --bn-eps 0.01`` reports, as ``float.hex``.  A certified constant may move
# only with a proof (or a validating test) of the new bound, so these are
# compared for exact equality: a faster propagation must give the same bits.
_PINNED_LOGS = {
    "vgg16": (
        ("0x1.cab0bfa2a2002p+0", "0x1.193ea7aad030bp+0", "inf"),
        ("0x1.cab0bfa2a2002p+1", "0x1.a5ddfb8038490p+1", "inf"),
        ("0x1.58048fb9f9802p+2", "0x1.4f78c878e58dep+2", "inf"),
        ("0x1.cab0bfa2a2003p+2", "0x1.c68f59753a71bp+2", "inf"),
        ("0x1.1eae77c5a5402p+3", "0x1.1daa61ed06cbep+3", "inf"),
        ("0x1.58048fb9f9802p+3", "0x1.57838d0734e56p+3", "inf"),
        ("0x1.915aa7ae4dc02p+3", "0x1.911a6758779cap+3", "inf"),
        ("0x1.cab0bfa2a2002p+3", "0x1.ca90af97ef4f0p+3", "inf"),
        ("0x1.02036bcb7b201p+4", "0x1.01fb69cad0355p+4", "inf"),
        ("0x1.1eae77c5a5401p+4", "0x1.1eaa77458fe6cp+4", "inf"),
        ("0x1.3b5983bfcf601p+4", "0x1.3b57839fccb53p+4", "inf"),
        ("0x1.58048fb9f9801p+4", "0x1.58038fb1f92acp+4", "inf"),
        ("0x1.74af9bb423a01p+4", "0x1.74af1bb223957p+4", "inf"),
        ("0x1.7fc6bd33be809p+4", "0x1.7fc67d333e7fbp+4", "inf"),
        ("0x1.8adddeb34a7f5p+4", "0x1.8addbeb32a7f8p+4", "inf"),
        ("0x1.3687a9f1af2b1p+1", "0x1.a10c11b2442a4p+4", "inf"),
    ),
    "vgg16-smooth": (
        ("0x1.cab0bfa2a2002p+0", "0x1.193ea7aad030bp+0", "0x1.9f323ecbf984ep-1"),
        ("0x1.cab0bfa2a2002p+1", "0x1.a5ddfb8038490p+1", "0x1.554b43c3f5b7dp+2"),
        ("0x1.58048fb9f9802p+2", "0x1.4f78c878e58dep+2", "0x1.25ccc4db02ae8p+3"),
        ("0x1.cab0bfa2a2003p+2", "0x1.c68f59753a71bp+2", "0x1.9cb8acfb5f632p+3"),
        ("0x1.1eae77c5a5402p+3", "0x1.1daa61ed06cbep+3", "0x1.08ca1e9dc55a7p+4"),
        ("0x1.58048fb9f9802p+3", "0x1.57838d0734e56p+3", "0x1.42ad703b2c2d6p+4"),
        ("0x1.915aa7ae4dc02p+3", "0x1.911a6758779cap+3", "0x1.7c4a3b60e708cp+4"),
        ("0x1.cab0bfa2a2002p+3", "0x1.ca90af97ef4f0p+3", "0x1.b5c3a32ede3e5p+4"),
        ("0x1.02036bcb7b201p+4", "0x1.01fb69cad0355p+4", "0x1.ef2b5d9a40312p+4"),
        ("0x1.1eae77c5a5401p+4", "0x1.1eaa77458fe6cp+4", "0x1.1445226f65f3bp+5"),
        ("0x1.3b5983bfcf601p+4", "0x1.3b57839fccb53p+4", "0x1.30f261f3b3eabp+5"),
        ("0x1.58048fb9f9801p+4", "0x1.58038fb1f92acp+4", "0x1.4d9e879e4e375p+5"),
        ("0x1.74af9bb423a01p+4", "0x1.74af1bb223957p+4", "0x1.6a4a206b2a4eap+5"),
        ("0x1.7fc6bd33be809p+4", "0x1.7fc67d333e7fbp+4", "0x1.769d319dfb51cp+5"),
        ("0x1.8adddeb34a7f5p+4", "0x1.8addbeb32a7f8p+4", "0x1.81fc55d5e8e14p+5"),
        ("0x1.3687a9f1af2b1p+1", "0x1.a10c11b2442a4p+4", "0x1.a15ebcb72e2c1p+5"),
    ),
    "vgg16-batchnorm": (
        ("0x1.326643c4479c9p+2", "0x1.0609bdc65328bp+2", "0x1.bdc5688a27b32p+2"),
        ("0x1.326643c4479c9p+3", "0x1.293192bbad2ecp+3", "0x1.15a67d93b0bf2p+4"),
        ("0x1.3241c6512531fp+3", "0x1.c7538205e171bp+3", "0x1.b3cc8ae7e7aa7p+4"),
        ("0x1.3241c6512531fp+3", "0x1.2552d7ac15ff2p+4", "0x1.1baa689fcdb2bp+5"),
        ("0x1.272aa4d1a8150p+3", "0x1.66d5eb3f631c6p+4", "0x1.5d2e8d3c6a41dp+5"),
        ("0x1.272aa4d1a8150p+3", "0x1.a8585ca01cdbfp+4", "0x1.9eb105dd301f0p+5"),
        ("0x1.272aa4d1a8150p+3", "0x1.e9dacc19f2435p+4", "0x1.e033757e114aap+5"),
        ("0x1.1c1383522af80p+3", "0x1.15ae9dc5d521bp+5", "0x1.10daf278493ffp+6"),
        ("0x1.1c1383522af80p+3", "0x1.366fd57e9fbbep+5", "0x1.319c2a3115d1ap+6"),
        ("0x1.1c1383522af80p+3", "0x1.57310d376a21dp+5", "0x1.525d61e9e040ep+6"),
        ("0x1.05e5405330be1p+3", "0x1.77f244f03486ep+5", "0x1.731e99a2aaa61p+6"),
        ("0x1.05e5405330be1p+3", "0x1.98b37ca8feebfp+5", "0x1.93dfd15b750b2p+6"),
        ("0x1.05e5405330be1p+3", "0x1.b974b461c9510p+5", "0x1.b4a109143f703p+6"),
        ("0x1.1c206ec781f48p+3", "0x1.b974b461c9510p+5", "0x1.b70efe1ef539fp+6"),
        ("0x1.3255258ceb9e0p+3", "0x1.b974b461c9510p+5", "0x1.b88f27f8feae1p+6"),
        ("0x1.3687a9f1af2b1p+1", "0x1.bf00452187df8p+5", "0x1.c05884934639bp+6"),
    ),
}
_PINNED_COMPARE = ("0x1.dcf47890cb94cp+4", "0x1.df524c6f5e475p+5")


def _fixture(name):
    return os.path.join(os.path.dirname(chaincert.__file__), "fixtures", name + ".arch")


@pytest.mark.parametrize("name", sorted(_PINNED_LOGS))
def test_vgg16_certificates_are_pinned_bitwise(name):
    chain, dom, _ = parse_arch(_fixture(name))
    got = [tuple(float.hex(v) for v in tri.logs()) for tri in propagate_layers(chain, dom)]
    assert got == list(_PINNED_LOGS[name])


def test_vgg16_compare_differences_are_pinned_bitwise(capsys):
    a, b = (propagate_layers(*parse_arch(_fixture(n), bn_eps=0.01)[:2])[-1].logs()
            for n in ("vgg16-smooth", "vgg16-batchnorm"))
    assert (float.hex(b[1] - a[1]), float.hex(b[2] - a[2])) == _PINNED_COMPARE
    assert chaincert.cli.main(["smoothness", _fixture("vgg16-smooth"), "--compare",
                               _fixture("vgg16-batchnorm"), "--bn-eps", "0.01"]) == 0
    diffs = [line.rsplit("=", 1)[1].strip() for line in capsys.readouterr().out.splitlines()
             if "difference" in line]
    assert diffs == [format(float.fromhex(h), ".12g") for h in _PINNED_COMPARE]


# ---------------------------------------------------------------- float-log recursions

def _hex(logs):
    return tuple(float.hex(float(v)) for v in logs)


# magnitudes at both ends of the log domain (0 and inf), tiny, huge and plain
_MAGNITUDES = st.one_of(st.sampled_from([0.0, math.inf, 1.0, 1e-300, 1e300]),
                        st.floats(0.0, 1e6))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.5, 3.0]), _MAGNITUDES,
       _MAGNITUDES, _MAGNITUDES, _MAGNITUDES,
       st.lists(st.tuples(_MAGNITUDES, _MAGNITUDES), max_size=6))
def test_float_recursions_equal_the_operator_form_bitwise(seed, m0, ell_h, L_h, grad_ref,
                                                          L_r, phi):
    # relu and max pooling give infinite curvature, a zero input bound or a
    # zero parameter block a zero magnitude: both ends of the log domain
    rng = np.random.default_rng(seed)
    chain = random_catalog_chain(rng, smooth_only=False, with_softmax=rng.random() < 0.3)
    dom = BoundedDomain(tuple(float(r) for r in rng.uniform(0.05, 4.0, chain.tau)), m0)
    assert [_hex(t.logs()) for t in propagate_layers(chain, dom)] == \
        [_hex(t) for t in ref_propagate_layers(chain, dom)]
    u = (ParamVector.zeros(chain.param_dims) if rng.random() < 0.25
         else sample_params(chain.param_dims, dom.radii, rng))
    R = float(rng.choice([0.0, 0.3, 2.0]))
    assert _hex(input_smoothness(chain, u, R).logs()) == \
        _hex(ref_input_smoothness(chain, u, R))
    psi = propagate_chain(chain, dom)
    got = objective_smoothness(psi, dom, ell_h, L_h, grad_ref, L_r)
    assert _hex(x.lg for x in got) == \
        _hex(ref_objective_smoothness(psi, dom, ell_h, L_h, grad_ref, L_r))
    assert _hex(x.lg for x in generic_recursion(phi)) == _hex(ref_generic_recursion(phi))


def test_propagation_boxes_only_its_results(monkeypatch):
    # the recursion runs on raw logs: no LogMag arithmetic on any fixture
    def refuse(self, other):
        raise AssertionError("LogMag arithmetic inside propagate_layers")
    monkeypatch.setattr(LogMag, "__mul__", refuse)
    monkeypatch.setattr(LogMag, "__add__", refuse)
    for name in ("vgg16", "vgg16-smooth", "vgg16-batchnorm"):
        chain, dom, _ = parse_arch(_fixture(name))
        assert len(propagate_layers(chain, dom)) == chain.tau
