"""Reverse-mode engine: gradients, tangents, duality, and the op meter."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chaincert import (BiAffinePart, BlockStage, ChainSpec, DenseBiAffinePart, DimensionMismatch,
                       ElementwiseStage, FCPart, IdentityPart, LayerDescriptor,
                       NumericError, OpCounter, ParamVector, ResidualPart,
                       activation_layer, avgpool2d, backward, backward_formula,
                       batchnorm_layer, conv2d, count_backward_cost, forward,
                       fully_connected, get_activation, grad_objective, jvp,
                       layer_sparsity, maxpool2d, residual_wrap, sample_params,
                       sample_state, squared_objective)
import chaincert.training as training
from chaincert.autodiff import _backward_samples, _separates_samples
from chaincert.training import _sample_spread

from helpers import fd_grad, flat, random_catalog_chain, unflat


def test_forward_states_match_manual_composition():
    rng = np.random.default_rng(0)
    chain = ChainSpec((
        fully_connected(1, 2, 3, activation="softplus", bias=True),
        fully_connected(1, 3, 2, activation="identity", bias=False),
    ))
    u = sample_params(chain.param_dims, 1.0, rng)
    x0 = sample_state(2, 1.0, rng)
    tape = forward(chain, x0, u)
    W1 = u.blocks[0][:6].reshape(3, 2)
    b1 = u.blocks[0][6:]
    z1 = W1 @ x0 + b1
    x1 = np.log1p(np.exp(z1))
    W2 = u.blocks[1].reshape(2, 3)
    assert np.allclose(tape.states[1], x1)
    assert np.allclose(tape.output, W2 @ x1)


def test_backward_matches_componentwise_fd():
    rng = np.random.default_rng(1)
    for seed in range(4):
        r = np.random.default_rng(seed)
        chain = random_catalog_chain(r, tau=3)
        u = sample_params(chain.param_dims, 1.0, r)
        x0 = sample_state(chain.d0, 1.0, r)
        mu = r.standard_normal(chain.d_out)
        tape = forward(chain, x0, u)
        g = backward(tape, mu)

        def f(vec):
            return float(mu @ forward(chain, x0, unflat(chain.param_dims, vec)).output)

        g_fd = fd_grad(f, flat(u))
        assert np.allclose(flat(g), g_fd, atol=2e-6), f"seed {seed}"


def test_jvp_backward_duality_exact():
    # <mu, J d> == <J' mu, d> holds to rounding, with no FD involved
    rng = np.random.default_rng(2)
    for seed in range(6):
        r = np.random.default_rng(100 + seed)
        chain = random_catalog_chain(r)
        u = sample_params(chain.param_dims, 1.0, r)
        x0 = sample_state(chain.d0, 1.0, r)
        tape = forward(chain, x0, u)
        mu = r.standard_normal(chain.d_out)
        d = sample_params(chain.param_dims, 1.0, r)
        lhs = float(mu @ jvp(tape, d))
        rhs = backward(tape, mu).dot(d)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_product_chain_closed_form_gradient():
    # scalar chain x_t = u_t * x_{t-1}: dF/du_t = prod_{s != t} u_s * x0
    chain = ChainSpec(tuple(
        fully_connected(1, 1, 1, activation="identity", bias=False)
        for _ in range(4)))
    vals = [2.0, -3.0, 0.5, 4.0]
    u = ParamVector(tuple(np.array([v]) for v in vals))
    x0 = np.array([1.5])
    tape = forward(chain, x0, u)
    assert tape.output[0] == pytest.approx(np.prod(vals) * 1.5)
    g = backward(tape, np.ones(1))
    for t in range(4):
        others = np.prod([vals[s] for s in range(4) if s != t])
        assert g.blocks[t][0] == pytest.approx(others * 1.5)


def test_jvp_directional_fd():
    rng = np.random.default_rng(3)
    chain = random_catalog_chain(rng, tau=2)
    u = sample_params(chain.param_dims, 1.0, rng)
    x0 = sample_state(chain.d0, 1.0, rng)
    d = sample_params(chain.param_dims, 1.0, rng)
    tape = forward(chain, x0, u)
    an = jvp(tape, d)
    eps = 1e-6
    fd = (forward(chain, x0, u + d.scale(eps)).output
          - forward(chain, x0, u + d.scale(-eps)).output) / (2 * eps)
    assert np.allclose(an, fd, atol=1e-6)


def test_grad_objective_matches_fd():
    rng = np.random.default_rng(4)
    chain = ChainSpec((
        fully_connected(2, 3, 4, activation="sigmoid", bias=True),
        fully_connected(2, 4, 2, activation="identity", bias=True),
    ))
    u = sample_params(chain.param_dims, 1.0, rng)
    x0 = sample_state(chain.d0, 1.0, rng)
    h = squared_objective(rng.standard_normal((2, 2)))
    val, g = grad_objective(chain, x0, u, h)
    assert val == pytest.approx(h.value(forward(chain, x0, u).output))

    def f(vec):
        return h.value(forward(chain, x0, unflat(chain.param_dims, vec)).output)

    assert np.allclose(flat(g), fd_grad(f, flat(u)), atol=2e-6)


def test_non_finite_state_raises():
    chain = ChainSpec((fully_connected(1, 1, 1, activation="identity",
                                       bias=False),))
    u = ParamVector((np.array([np.inf]),))
    with pytest.raises(NumericError):
        forward(chain, np.ones(1), u)


def test_tape_ad_call_accounting():
    rng = np.random.default_rng(5)
    chain = random_catalog_chain(rng, tau=2)
    u = sample_params(chain.param_dims, 1.0, rng)
    x0 = sample_state(chain.d0, 1.0, rng)
    tape = forward(chain, x0, u)
    assert tape.ad_calls == 0
    backward(tape, np.ones(chain.d_out))
    jvp(tape, u)
    backward(tape, np.ones(chain.d_out))
    assert tape.ad_calls == 3


def test_op_counter_is_deterministic():
    rng = np.random.default_rng(6)
    chain = random_catalog_chain(rng, tau=3)
    u = sample_params(chain.param_dims, 1.0, rng)
    x0 = sample_state(chain.d0, 1.0, rng)
    c1, c2 = OpCounter(), OpCounter()
    forward(chain, x0, u, c1)
    forward(chain, x0, u, c2)
    assert c1.total == c2.total > 0


def test_backward_formula_sums_layer_sparsities():
    rng = np.random.default_rng(7)
    chain = random_catalog_chain(rng, tau=3)
    total = sum(layer_sparsity(l).backward_units for l in chain.layers)
    assert backward_formula(chain) == total


def test_count_backward_cost_exact_on_catalog_chain():
    rng = np.random.default_rng(8)
    chain = ChainSpec((
        fully_connected(2, 3, 4, activation="softplus", bias=True),
        fully_connected(2, 4, 2, activation="sigmoid", bias=False),
    ))
    res = count_backward_cost(chain, seed=1)
    assert res.exact
    assert res.backward == res.backward_predicted
    assert res.fc_figure == sum(2 * 2 * o * (i + 1) for (i, o) in ((3, 4), (4, 2)))


def test_residual_routing_measures_above_formula():
    base = fully_connected(1, 3, 3, activation="softplus", bias=True)
    chain = ChainSpec((residual_wrap(base),))
    res = count_backward_cost(chain, seed=0)
    # skip additions are charged honestly, so the measure exceeds the formula
    assert res.backward > res.backward_predicted


def _fc_tape(seed=0):
    rng = np.random.default_rng(seed)
    chain = ChainSpec((
        fully_connected(2, 3, 4, activation="softplus"),
        fully_connected(2, 4, 2, activation="identity"),
    ))
    u = sample_params(chain.param_dims, 1.0, rng)
    return chain, u, forward(chain, sample_state(chain.d0, 1.0, rng), u)


def test_backward_raises_on_non_finite_adjoint():
    chain, _, tape = _fc_tape()
    mu = np.zeros(chain.d_out)
    mu[1] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="layer 1"):
        backward(tape, mu)
    assert tape.ad_calls == 0


def test_per_sample_sweep_raises_on_non_finite_adjoint():
    chain, _, tape = _fc_tape()
    assert _separates_samples(chain)
    mu = np.zeros(chain.d_out)
    mu[1] = np.nan
    with pytest.raises(NumericError, match="non-finite adjoint at layer 1"):
        list(_backward_samples(tape, mu))
    assert tape.ad_calls == 0


def test_wrappers_of_another_batch_couple_the_samples():
    # a residual part or a block stage whose batch is not the chain's (2)
    def chain(part, stages=()):
        return ChainSpec((LayerDescriptor("wrapped", part, stages, 2),))

    softplus = get_activation("softplus")
    assert _separates_samples(chain(ResidualPart(FCPart(2, 2, 2), 2)))
    assert not _separates_samples(chain(ResidualPart(FCPart(2, 2, 2), 1)))
    assert _separates_samples(chain(IdentityPart(6),
                                    (BlockStage(ElementwiseStage(softplus, 4), 2, 1),)))
    assert not _separates_samples(chain(IdentityPart(6),
                                        (BlockStage(ElementwiseStage(softplus, 4), 1, 2),)))


def test_jvp_raises_on_non_finite_tangent():
    chain, u, tape = _fc_tape()
    du = ParamVector([np.zeros(d) for d in chain.param_dims])
    du.blocks[0][0] = np.nan
    with pytest.raises(NumericError, match="layer 0"):
        jvp(tape, du)
    assert tape.ad_calls == 0


def test_sweeps_refuse_bad_shapes_at_entry():
    chain, u, tape = _fc_tape()
    with pytest.raises(DimensionMismatch, match="input shape"):
        forward(chain, np.ones(chain.d0 + 1), u)
    with pytest.raises(DimensionMismatch, match="parameter dims"):
        forward(chain, tape.states[0], ParamVector(u.blocks[:1]))
    with pytest.raises(DimensionMismatch, match="cotangent shape"):
        backward(tape, np.ones(chain.d_out + 1))
    with pytest.raises(DimensionMismatch, match="cotangent shape"):
        next(_backward_samples(tape, np.ones((1, chain.d_out))))
    with pytest.raises(DimensionMismatch, match="direction dims"):
        jvp(tape, ParamVector([np.zeros(1)] * chain.tau))
    with pytest.raises(DimensionMismatch, match="input direction shape"):
        jvp(tape, u, dx0=np.ones(chain.d0 - 1))
    assert tape.ad_calls == 0


def test_sweeps_on_a_recorded_tape_call_no_part_shape_check():
    # forward checks each state and parameter block once, through the part
    # linearisations; the sweeps then run the FC kernels on their views.
    chain, u, tape = _fc_tape()
    checks = []
    real = BiAffinePart._check
    with mock.patch.object(BiAffinePart, "_check",
                           lambda self, *a, **kw: checks.append(a) or real(self, *a, **kw)):
        forward(chain, tape.states[0], u)
        assert checks  # the patch sees forward's checks
        checks.clear()
        backward(tape, np.ones(chain.d_out))
        jvp(tape, u, dx0=np.ones(chain.d0))
        list(_backward_samples(tape, np.ones(chain.d_out)))
    assert checks == []


def test_conv_sweeps_call_the_public_methods_on_the_recorded_views():
    # A conv linearisation keeps the tape's own state and parameter arrays,
    # no gathered windows, and the sweeps reach the conv through its public
    # methods (which a tracer may wrap).
    rng = np.random.default_rng(2)
    chain = ChainSpec((conv2d(2, 1, 5, 5, 2, 2, activation="softplus"),
                       fully_connected(2, 2 * 4 * 4, 3)))
    u = sample_params(chain.param_dims, 1.0, rng)
    tape = forward(chain, sample_state(chain.d0, 1.0, rng), u)
    lin = tape.part_lins[0]
    assert lin.x is tape.states[0] and lin.u is u.blocks[0]
    part = chain.layers[0].part
    with mock.patch.object(type(part), "vjp_u", wraps=part.vjp_u) as vjp_u, \
            mock.patch.object(type(part), "vjp_x", wraps=part.vjp_x) as vjp_x, \
            mock.patch.object(type(part), "jvp", wraps=part.jvp) as tangent:
        backward(tape, np.ones(chain.d_out))
        jvp(tape, u)
    assert (vjp_u.call_count, vjp_x.call_count, tangent.call_count) == (1, 1, 1)


def _sample_chain(rng, coupling):
    """Batch-2-or-3 chain with every sample-separable part and stage kind.

    Parts: conv, identity (pools, activation), FC without and with bias,
    residual; stages: elementwise, avgpool, maxpool, block, softmax.
    ``coupling`` swaps in a layer that mixes the samples.
    """
    m = int(rng.integers(2, 4))
    c, f, side = int(rng.integers(1, 3)), int(rng.integers(1, 3)), int(rng.integers(4, 6))
    a, q = (int(n) for n in rng.integers(1, 4, size=2))
    s = side - 3
    layers = [
        conv2d(m, c, side, side, f, 2, activation="softplus", bias=bool(rng.random() < 0.5)),
        avgpool2d(m, f, side - 1, side - 1, 2, stride=1),
        maxpool2d(m, f, side - 2, side - 2, 2, stride=1),
        fully_connected(m, f * s * s, 2 * a, activation="sigmoid", bias=False),
        residual_wrap(fully_connected(m, a, a, activation="softplus", bias=True)),
        activation_layer(m, 2 * a, "softplus-centered"),
        fully_connected(m, 2 * a, q, activation="softmax", bias=True),
    ]
    if coupling == "batchnorm":
        layers[5] = batchnorm_layer(m, 2 * a, 0.5)
    elif coupling == "block-batchnorm":
        layers[4] = residual_wrap(batchnorm_layer(m, a, 0.5))
    elif coupling == "dense":
        d = m * q
        layers.append(LayerDescriptor("dense", DenseBiAffinePart(
            rng.standard_normal((d, d, 2)), mx=np.eye(d)), (), m))
    elif coupling == "dense-free":  # no parameters, yet mixes the samples
        d = m * q
        layers.append(LayerDescriptor("dense", DenseBiAffinePart(
            np.zeros((d, d, 0)), mx=rng.standard_normal((d, d))), (), m))
    return ChainSpec(tuple(layers))


def _masked(mu, m, s):
    """``mu`` with every sample's slice but sample ``s``'s set to zero."""
    out = np.zeros((m, mu.size // m))
    out[s] = mu.reshape(m, -1)[s]
    return out.ravel()


@pytest.mark.parametrize("coupling",
                         [None, "batchnorm", "block-batchnorm", "dense", "dense-free"])
@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_per_sample_sweep_matches_masked_sweeps(coupling, seed):
    rng = np.random.default_rng(seed)
    chain = _sample_chain(rng, coupling)
    m = chain.batch
    u = sample_params(chain.param_dims, 1.0, rng)
    tape = forward(chain, sample_state(chain.d0, 1.0, rng), u)
    assert _separates_samples(chain) == (coupling is None)

    def close(a, b):
        return np.allclose(a, b, rtol=1e-9, atol=1e-12 * (1.0 + np.abs(b).max()))

    if coupling is None:
        mu = rng.standard_normal(chain.d_out)
        c_rows, c_sum = OpCounter(), OpCounter()
        calls = tape.ad_calls
        blocks = list(_backward_samples(tape, mu, c_rows))[::-1]
        assert tape.ad_calls == calls + 1
        assert [b.shape for b in blocks] == [(m, p) for p in chain.param_dims]
        rows = np.concatenate(blocks, axis=1)
        assert close(rows.sum(axis=0), backward(tape, mu, c_sum).flat())
        assert c_rows.total == c_sum.total
        for s in range(m):
            assert close(rows[s], backward(tape, _masked(mu, m, s)).flat())

    # spread of the per-sample loss gradients: one sweep, or the n-sweep
    # fallback; on a separable chain the fallback must agree with the sweep
    h = squared_objective(rng.standard_normal((m, chain.d_out // m)))
    G = np.stack([backward(tape, h.grad_minibatch(tape.output, [s])).flat()
                  for s in range(m)])
    spread = float(np.sum((G - G.mean(axis=0)) ** 2))
    tol = 1e-9 * (spread + np.vdot(G, G))
    assert abs(_sample_spread(chain, h, tape) - spread) <= tol
    with mock.patch.object(training, "_separates_samples", lambda chain: False):
        assert abs(_sample_spread(chain, h, tape) - spread) <= tol
