"""Training loop tests: projection geometry, certified monotone descent,
stochastic batching, trace bookkeeping."""

import csv
from itertools import combinations

import numpy as np
import pytest

from chaincert import (BlockRidge, BoundedDomain, ChainSpec, InfeasibleModel,
                       OpCounter, ParamVector, TrainConfig, avgpool2d,
                       backward, backward_formula, batchnorm_layer,
                       certified_step, conv2d, forward, fully_connected,
                       logistic_objective, project_domain, residual_wrap,
                       sample_params, sample_state, squared_objective,
                       train_pgd, train_sgd)
from chaincert import training
from chaincert.smoothness import objective_smoothness, propagate_chain


def _toy(seed=0, tau=2, width=3, batch=4, act="softplus-centered"):
    rng = np.random.default_rng(seed)
    layers = tuple(fully_connected(batch, width, width, activation=act)
                   for _ in range(tau))
    chain = ChainSpec(layers)
    x0 = rng.standard_normal(batch * width)
    x0 = x0 / np.linalg.norm(x0)
    y = rng.standard_normal((batch, width)) * 0.3
    h = squared_objective(y)
    dom = BoundedDomain(tuple([1.0] * tau), 1.0)
    return chain, h, x0, dom, rng


def test_projection_scales_only_oversized_blocks():
    u = ParamVector([np.array([3.0, 4.0]), np.array([0.1, 0.0]), np.zeros(2)])
    dom = BoundedDomain((1.0, 1.0, 1.0), 1.0)
    pu = project_domain(u, dom)
    assert np.allclose(pu.blocks[0], [0.6, 0.8])
    assert np.allclose(pu.blocks[1], [0.1, 0.0])
    assert np.allclose(pu.blocks[2], 0.0)
    with pytest.raises(ValueError):
        project_domain(u, BoundedDomain((1.0,), 1.0))


def test_config_validation():
    dom = BoundedDomain((1.0,), 1.0)
    with pytest.raises(ValueError):
        TrainConfig(dom, budget=0)
    with pytest.raises(ValueError):
        TrainConfig(dom, budget=5, gamma=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(dom, budget=5, batch=-1)
    for eps in (-1e-3, float("nan")):  # a check written as eps < 0 lets NaN pass
        with pytest.raises(ValueError):
            TrainConfig(dom, budget=5, eps=eps)


def test_certified_step_finite_on_smooth_chain():
    chain, h, x0, dom, _ = _toy()
    gamma, L = certified_step(chain, h, None, x0, dom)
    assert gamma == pytest.approx(1.0 / L)
    assert 0 < gamma < 1


def test_certified_step_bounds_a_ridge_by_its_largest_magnitude():
    # the gradient (alpha_t u_t)_t is max_t |alpha_t|-Lipschitz, whatever the signs
    chain, h, x0, dom, _ = _toy()

    def lip(alphas):
        return certified_step(chain, h, BlockRidge(alphas), x0, dom)[1]

    assert lip([-0.5, 0.1]) == lip([0.5, 0.1]) > lip([0.1, 0.1])
    assert lip(-0.5) == lip(0.5)
    ridge = BlockRidge(iter([0.5, 0.1]))  # an iterator is read once, at construction
    for _ in range(2):
        assert certified_step(chain, h, ridge, x0, dom)[1] == lip([0.5, 0.1])
        assert list(ridge.curvatures(chain.param_dims)) == [0.5, 0.1]


@pytest.mark.parametrize("label_scale, skips", [(0.3, True), (1e4, False)])
def test_certified_step_skips_the_reference_forward_only_where_it_cannot_matter(
        label_scale, skips, monkeypatch):
    # The refined loss slope is min(ell_h, |grad h(f(x0, 0))| + reach).  With
    # labels of scale 0.3 ell_h is below the reach, so the reference term
    # cannot win; with labels of scale 1e4 it can, and the forward must run.
    chain, _, x0, dom, rng = _toy()
    h = squared_objective(rng.standard_normal((4, 3)) * label_scale)
    psi = propagate_chain(chain, dom)
    ref = forward(chain, x0, ParamVector.zeros(chain.param_dims))
    L_F, _ = objective_smoothness(psi, dom, h.lip_bound(psi.m.value), h.smooth_bound(),
                                  float(np.linalg.norm(h.value_grad(ref.output)[1])))
    calls = []
    monkeypatch.setattr(training, "forward", lambda *a: calls.append(a) or forward(*a))
    gamma, Lf = certified_step(chain, h, None, x0, dom)
    assert (Lf, gamma) == (L_F.value, 1.0 / L_F.value)
    assert len(calls) == (0 if skips else 1)


def test_certified_step_refuses_nonsmooth_chain():
    chain, h, x0, dom, _ = _toy(act="relu")
    with pytest.raises(InfeasibleModel):
        certified_step(chain, h, None, x0, dom)


def test_certified_step_rejects_oversized_input():
    chain, h, x0, dom, _ = _toy()
    with pytest.raises(ValueError):
        certified_step(chain, h, None, x0 * 3.0, dom)


def test_pgd_certified_is_monotone():
    chain, h, x0, dom, rng = _toy(seed=3)
    u0 = sample_params(chain.param_dims, [0.5, 0.5], rng)
    cfg = TrainConfig(dom, budget=40)
    trace = train_pgd(chain, h, None, x0, cfg, u0=u0)
    vals = np.array(trace.values)
    assert len(trace) == 40
    assert np.all(np.diff(vals) <= 1e-12)
    assert trace.certified_smooth is not None
    assert trace.gamma == pytest.approx(1.0 / trace.certified_smooth)
    assert trace.final_u is not None
    # iterates stay inside the domain
    for b, rad in zip(trace.final_u.blocks, dom.radii):
        assert np.linalg.norm(b) <= rad * (1 + 1e-12)


def test_pgd_explicit_gamma_and_early_stop():
    chain, h, x0, dom, rng = _toy(seed=4)
    u0 = sample_params(chain.param_dims, [0.3, 0.3], rng)
    cfg = TrainConfig(dom, budget=2000, gamma=0.5, eps=1e-3)
    trace = train_pgd(chain, h, None, x0, cfg, u0=u0)
    assert trace.stopped_early
    assert len(trace) < 2000
    assert trace.mapping_norms[-1] <= 1e-3
    assert trace.certified_smooth is None


def test_pgd_projection_flag():
    chain, h, x0, dom, _ = _toy(seed=5)
    big = ParamVector([np.full(d, 2.0) for d in chain.param_dims])
    cfg = TrainConfig(dom, budget=3, gamma=1.0)
    trace = train_pgd(chain, h, BlockRidge(5.0), x0, cfg, u0=big)
    assert isinstance(trace.proj_active[0], bool)


def test_sgd_full_batch_matches_pgd_at_half_step():
    chain, h, x0, dom, rng = _toy(seed=6)
    u0 = sample_params(chain.param_dims, [0.5, 0.5], rng)
    gamma, _ = certified_step(chain, h, None, x0, dom)

    cfg_s = TrainConfig(dom, budget=15, batch=h.n, seed=0)
    tr_s = train_sgd(chain, h, None, x0, cfg_s, u0=u0.copy())
    cfg_p = TrainConfig(dom, budget=15, gamma=gamma / 2.0)
    tr_p = train_pgd(chain, h, None, x0, cfg_p, u0=u0.copy())

    assert tr_s.gamma == pytest.approx(gamma / 2.0)
    assert np.allclose(tr_s.values, tr_p.values, rtol=1e-12)
    assert (tr_s.final_u - tr_p.final_u).norm() < 1e-12
    assert tr_s.variance_proxy is not None
    assert tr_s.variance_proxy < 1e-20  # full batch estimator is exact


def test_sgd_minibatch_decreases_and_reports_variance():
    chain, h, x0, dom, rng = _toy(seed=7)
    u0 = sample_params(chain.param_dims, [0.6, 0.6], rng)
    cfg = TrainConfig(dom, budget=60, batch=2, seed=11)
    trace = train_sgd(chain, h, None, x0, cfg, u0=u0)
    assert trace.values[-1] < trace.values[0]
    assert trace.variance_proxy is not None and trace.variance_proxy > 0
    assert len(trace.values) == len(trace.mapping_norms) == len(trace.proj_active)


def test_each_step_makes_one_backward_sweep(monkeypatch):
    # budget k: PGD sweeps k times; SGD k times, plus one per-sample sweep for
    # the exact minibatch variance at the final point, charged as one backward.
    import chaincert.training as training
    calls, sample_units = [], []
    sweep, sample_sweep = training.backward, training._backward_samples

    def metered_sample_sweep(tape, mu):
        counter = OpCounter()
        sample_units.append(counter)
        return sample_sweep(tape, mu, counter)

    monkeypatch.setattr(training, "backward", lambda *a: calls.append(1) or sweep(*a))
    monkeypatch.setattr(training, "_backward_samples", metered_sample_sweep)
    chain, h, x0, dom, rng = _toy(seed=8)
    u0 = sample_params(chain.param_dims, [0.5, 0.5], rng)
    trace = train_pgd(chain, h, None, x0, TrainConfig(dom, budget=5), u0=u0)
    assert len(trace.values) == len(calls) == 5 and not sample_units
    calls.clear()
    trace = train_sgd(chain, h, None, x0, TrainConfig(dom, budget=5, batch=2), u0=u0)
    assert len(trace.values) == len(calls) == 5
    assert [c.total for c in sample_units] == [backward_formula(chain)]


def _variance_model(kind, n, rng):
    """Small chain of batch ``n`` and a decomposable objective on its output."""
    if kind == "fc":
        layers = (fully_connected(n, 3, 4, activation="softplus"),
                  fully_connected(n, 4, 2, bias=False))
    elif kind == "conv-avgpool":
        layers = (conv2d(n, 2, 4, 4, 2, 2, activation="softplus-centered", bias=True),
                  avgpool2d(n, 2, 3, 3, 2, stride=1),
                  fully_connected(n, 8, 3))
    elif kind == "residual":
        layers = (fully_connected(n, 3, 4, activation="sigmoid"),
                  residual_wrap(fully_connected(n, 2, 2, activation="softplus")),
                  fully_connected(n, 4, 2))
    else:  # batch norm couples the samples: the n-sweep fallback
        layers = (fully_connected(n, 3, 4, activation="softplus"),
                  batchnorm_layer(n, 4, 0.3),
                  fully_connected(n, 4, 2))
    chain = ChainSpec(layers)
    q = chain.d_out // n
    if kind == "conv-avgpool":
        y = np.zeros((n, q))
        y[np.arange(n), rng.integers(0, q, n)] = 1.0
        return chain, logistic_objective(y)
    return chain, squared_objective(rng.standard_normal((n, q)))


@pytest.mark.parametrize("kind", ["fc", "conv-avgpool", "residual", "batchnorm"])
def test_sgd_variance_is_the_mean_over_every_minibatch(kind):
    rng = np.random.default_rng(12)
    n = 5
    chain, h = _variance_model(kind, n, rng)
    x0 = sample_state(chain.d0, 1.0, rng)
    u0 = sample_params(chain.param_dims, 1.0, rng)
    dom = BoundedDomain.uniform(chain.tau, 1.0, 1.0)
    r = BlockRidge(0.1)
    for b in range(1, n + 1):
        cfg = TrainConfig(dom, budget=2, gamma=0.05, batch=b, seed=b)
        trace = train_sgd(chain, h, r, x0, cfg, u0=u0)
        u = trace.final_u
        if b == n:
            assert trace.variance_proxy == 0.0
            continue
        tape = forward(chain, x0, u)
        g = backward(tape, h.value_grad(tape.output)[1]) + r.grad(u)
        devs = []
        for idx in combinations(range(n), b):
            d = backward(tape, h.grad_minibatch(tape.output, idx)) + r.grad(u) - g
            devs.append(d.dot(d))
        assert trace.variance_proxy == pytest.approx(np.mean(devs), rel=1e-10, abs=1e-300)


def test_sgd_variance_of_one_sample_is_zero():
    rng = np.random.default_rng(13)
    chain, h = _variance_model("fc", 1, rng)
    dom = BoundedDomain.uniform(chain.tau, 1.0, 1.0)
    trace = train_sgd(chain, h, None, sample_state(chain.d0, 1.0, rng),
                      TrainConfig(dom, budget=2, gamma=0.05, batch=1))
    assert trace.variance_proxy == 0.0


def test_sgd_validation():
    chain, h, x0, dom, _ = _toy()
    with pytest.raises(ValueError):
        train_sgd(chain, h, None, x0, TrainConfig(dom, budget=2, batch=99))

    from chaincert import cluster_objective
    chain2, _, x02, dom2, _ = _toy(width=2, batch=3)
    hc = cluster_objective(3, 2)
    with pytest.raises(ValueError):
        train_sgd(chain2, hc, None, x02, TrainConfig(dom2, budget=2, batch=1))


def test_trace_csv_roundtrip(tmp_path):
    chain, h, x0, dom, _ = _toy(seed=8)
    cfg = TrainConfig(dom, budget=5, gamma=0.1)
    trace = train_pgd(chain, h, None, x0, cfg)
    path = tmp_path / "trace.csv"
    trace.to_csv(str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iter", "value", "mapping_norm"]
    assert len(rows) == 1 + len(trace)
    assert [int(r[0]) for r in rows[1:]] == list(range(len(trace)))
    got = np.array([[float(r[1]), float(r[2])] for r in rows[1:]])
    assert np.allclose(got[:, 0], trace.values, rtol=1e-10)
    assert np.allclose(got[:, 1], trace.mapping_norms, rtol=1e-10)
