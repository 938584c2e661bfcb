"""Acceptance gate: one test per advertised guarantee, each printing a
single pass/fail line (run with ``pytest -s`` to see them inline).

Every bound is checked as stated, with no weakening; reference values come
from finite differences, dense solves, or closed forms computed
independently of the code paths under test."""

import math
import os
import time

import numpy as np
import pytest

import chaincert as cc
from chaincert import (BoundedDomain, InnerProblem, Objective, ParamVector,
                       SoftmaxStage, TrainConfig, backward, backward_formula,
                       build_lq, catalog_constants,
                       eval_convex_cluster, forward, implicit_gradient,
                       lemma_error_bound, parse_arch, propagate_chain,
                       sample_params, sample_state, solve_dense_reference,
                       solve_gauss_newton_dual, solve_newton_dp, solve_inner,
                       train_pgd)
from chaincert.stages import BatchNormStage

from helpers import backward_units, chain_objective_instance, flat, random_catalog_chain

FIXDIR = os.path.join(os.path.dirname(cc.__file__), "fixtures")


def _report(num, name, ok, detail):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} ({detail})")


# ---------------------------------------------------------------------------
# 1. gradient correctness on 50 random smooth chains


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        chain = random_catalog_chain(rng, dim_max=8, smooth_only=True)
        u = sample_params(chain.param_dims, 0.8, rng)
        x0 = sample_state(chain.d0, 1.0, rng)
        mu = rng.standard_normal(chain.d_out)
        mu /= np.linalg.norm(mu)
        tape = forward(chain, x0, u)
        g = flat(backward(tape, mu))

        eps = 1e-6 * (1.0 + u.norm())
        fd = np.zeros_like(g)
        dims = chain.param_dims
        pos = 0
        for t, p in enumerate(dims):
            for i in range(p):
                blocks = [np.zeros(d) for d in dims]
                blocks[t][i] = eps
                d = ParamVector(blocks)
                hi = float(mu @ forward(chain, x0, u + d).output)
                lo = float(mu @ forward(chain, x0, u - d).output)
                fd[pos] = (hi - lo) / (2.0 * eps)
                pos += 1
        rel = float(np.linalg.norm(fd - g) / max(np.linalg.norm(fd), 1e-30))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 10.0
    _report(1, "gradient correctness", ok,
            f"max rel err {worst:.3e}, {elapsed:.2f}s")
    assert worst <= 1e-5
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 2. oracle equivalence on feasible instances


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    newton_errs = []
    seed = 0
    while len(newton_errs) < 20 and seed < 400:
        chain, u, x0, h = chain_objective_instance(rng, "squared", tau=3,
                                                   width=3, batch=2)
        seed += 1
        tape = forward(chain, x0, u)
        lq = build_lq(tape, h, None, "newton", 1.0)
        step = solve_newton_dp(lq)
        if step.diagnostics["doublings"] != 0:
            continue  # the sweep solved a reweighted model; not comparable
        dense = solve_dense_reference(lq)
        newton_errs.append((step.v - dense.v).norm() / max(dense.v.norm(), 1e-30))

    gn_errs = []
    for _ in range(20):
        chain, u, x0, h = chain_objective_instance(rng, "squared", tau=3,
                                                   width=3, batch=2)
        tape = forward(chain, x0, u)
        lq = build_lq(tape, h, None, "gauss-newton", 1.0)
        dense = solve_dense_reference(lq)
        step = solve_gauss_newton_dual(forward(chain, x0, u), h, None, 1.0,
                                       tol=1e-13)
        gn_errs.append((step.v - dense.v).norm() / max(dense.v.norm(), 1e-30))

    elapsed = time.perf_counter() - t0
    wn, wg = max(newton_errs), max(gn_errs)
    ok = (len(newton_errs) == 20 and wn <= 1e-8 and wg <= 1e-6
          and elapsed < 30.0)
    _report(2, "oracle equivalence", ok,
            f"20+20 instances, newton {wn:.2e}, gauss-newton {wg:.2e}, "
            f"{elapsed:.2f}s")
    assert len(newton_errs) == 20
    assert wn <= 1e-8
    assert wg <= 1e-6
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 3. Gauss-Newton derivative-call budget


def test_criterion_3_gn_call_budget():
    rng = np.random.default_rng(303)
    results = []
    for _ in range(5):
        chain, u, x0, h = chain_objective_instance(rng, "logistic", tau=3,
                                                   width=4, batch=2)
        tape = forward(chain, x0, u)
        step = solve_gauss_newton_dual(tape, h, None, 1.0)
        calls = step.diagnostics["ad_calls"]
        budget = 2 * chain.d_out + 1
        assert isinstance(calls, int)
        assert step.diagnostics["budget"] == budget
        results.append((calls, budget))
    ok = all(c <= b for c, b in results)
    _report(3, "gauss-newton call budget", ok,
            ", ".join(f"{c} <= {b}" for c, b in results))
    assert ok


# ---------------------------------------------------------------------------
# 4. smoothness-bound validity over the parameter domain


def test_criterion_4_smoothness_bound_validity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    slope_viol = ratio_viol = 0
    ratio_checked = 0
    for _ in range(200):
        chain = random_catalog_chain(rng, tau=int(rng.integers(1, 4)),
                                     dim_max=5, smooth_only=False, batch=1)
        dom = BoundedDomain(tuple([1.0] * chain.tau), 1.0)
        consts = [catalog_constants(l) for l in chain.layers]
        psi = propagate_chain(chain, dom, consts)
        ell = psi.lip.value
        L = psi.smooth.value
        x0 = sample_state(chain.d0, dom.m0, rng)
        for _ in range(200):
            ua = sample_params(chain.param_dims, dom.radii, rng)
            ub = sample_params(chain.param_dims, dom.radii, rng)
            du = (ua - ub).norm()
            if du == 0.0:
                continue
            ta = forward(chain, x0, ua)
            tb = forward(chain, x0, ub)
            slope = float(np.linalg.norm(ta.output - tb.output)) / du
            if slope > ell * (1.0 + 1e-9):
                slope_viol += 1
            if math.isfinite(L):
                mu = rng.standard_normal(chain.d_out)
                mu /= np.linalg.norm(mu)
                ga = backward(ta, mu)
                gb = backward(tb, mu)
                ratio = (ga - gb).norm() / du
                ratio_checked += 1
                if ratio > L * (1.0 + 1e-9):
                    ratio_viol += 1
    elapsed = time.perf_counter() - t0
    ok = slope_viol == 0 and ratio_viol == 0 and elapsed < 60.0
    _report(4, "smoothness-bound validity", ok,
            f"40000 pairs, {ratio_checked} ratio checks, "
            f"{slope_viol}+{ratio_viol} violations, {elapsed:.1f}s")
    assert slope_viol == 0
    assert ratio_viol == 0
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 5. full-scale CNN constant comparisons (symbolic propagation)


def _fixture_logs(name, bn_eps=None):
    chain, dom, _ = parse_arch(os.path.join(FIXDIR, name), bn_eps=bn_eps)
    consts = [catalog_constants(l) for l in chain.layers]
    t0 = time.perf_counter()
    psi = propagate_chain(chain, dom, consts)
    elapsed = time.perf_counter() - t0
    return psi.lip.lg, psi.smooth.lg, elapsed


def test_criterion_5_vgg_constant_comparisons():
    lip_base, _, t1 = _fixture_logs("vgg16.arch")
    lip_sm, smo_sm, t2 = _fixture_logs("vgg16-smooth.arch")
    lip_bn_s, smo_bn_s, t3 = _fixture_logs("vgg16-batchnorm.arch", bn_eps=1e-2)
    lip_bn_l, smo_bn_l, t4 = _fixture_logs("vgg16-batchnorm.arch", bn_eps=1e2)
    elapsed = t1 + t2 + t3 + t4

    a = abs(lip_base - lip_sm) <= math.log1p(1e-4)
    b = lip_sm <= lip_bn_s and smo_sm <= smo_bn_s
    c = lip_bn_l <= lip_sm and smo_bn_l <= smo_sm
    ok = a and b and c and elapsed < 1.0
    _report(5, "vgg constant comparisons", ok,
            f"(a) |dlog l| = {abs(lip_base - lip_sm):.2e}, "
            f"(b) {'holds' if b else 'fails'}, (c) {'holds' if c else 'fails'}, "
            f"propagation {elapsed * 1e3:.1f}ms")
    assert a, "plain vs smoothed Lipschitz logs differ beyond 1e-4"
    assert b, "eps=1e-2 batch-norm should dominate the smooth network"
    assert c, "eps=1e2 should reverse both inequalities"
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 6. backward-cost accounting


def test_criterion_6_backward_cost_formula():
    rng = np.random.default_rng(606)
    rows = []
    for _ in range(10):
        chain = random_catalog_chain(rng, dim_max=6, smooth_only=True)
        measured = backward_units(chain, np.random.default_rng(int(rng.integers(0, 1000))))
        rows.append(measured == backward_formula(chain))
    ok = all(rows)
    _report(6, "backward-cost accounting", ok,
            f"10 instances, measured == formula: {sum(rows)}/10")
    assert ok


# ---------------------------------------------------------------------------
# 7. implicit-gradient error bound


def _inner_problem(rng, d_alpha, d_beta, c):
    M = rng.standard_normal((d_beta, d_beta))
    Q = M @ M.T + 1.0 * np.eye(d_beta)
    S = rng.standard_normal((d_alpha, d_beta))
    evals = np.linalg.eigvalsh(Q)

    def sigmoid(t):
        return 1.0 / (1.0 + np.exp(-t))

    return InnerProblem(
        d_alpha=d_alpha, d_beta=d_beta,
        grad_beta=lambda a, b: Q @ b + S.T @ a + c * sigmoid(b),
        hess_beta=lambda a, b: Q + np.diag(c * sigmoid(b) * (1 - sigmoid(b))),
        hess_cross=lambda a, b: S,
        mu=float(evals.min()), lip=float(evals.max()) + 0.25 * c,
        hess_lip=0.1 * c,  # > c * max|sigma''| = c/(6 sqrt(3))
    )


def test_criterion_7_implicit_gradient_bound():
    rng = np.random.default_rng(707)
    violations = 0
    checked = 0
    for _ in range(30):
        p = _inner_problem(rng, int(rng.integers(2, 5)),
                           int(rng.integers(2, 5)), float(rng.uniform(0.5, 3.0)))
        alpha = rng.standard_normal(p.d_alpha)
        beta_ref, cert_ref = solve_inner(p, alpha, tol=1e-11)
        G_ref = implicit_gradient(p, alpha, beta_ref)
        for tol in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            beta_hat, cert = solve_inner(p, alpha, tol=tol)
            G_hat = implicit_gradient(p, alpha, beta_hat)
            err = float(np.linalg.norm(G_hat - G_ref, 2))
            # the reference itself sits within lemma_error_bound(ref) of truth
            bound = (lemma_error_bound(p, cert.error_bound)
                     + lemma_error_bound(p, cert_ref.error_bound) + 1e-12)
            checked += 1
            if err > bound:
                violations += 1
    ok = violations == 0
    _report(7, "implicit-gradient bound", ok,
            f"{checked} checks, {violations} violations")
    assert ok


# ---------------------------------------------------------------------------
# 8. certified-step convergence shape


def test_criterion_8_certified_convergence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    failures = []
    for inst in range(10):
        chain, _, x0, h = chain_objective_instance(
            rng, kind="squared" if inst % 2 == 0 else "logistic",
            tau=2, width=3, batch=2)
        dom = BoundedDomain(tuple([1.0] * chain.tau), 1.0)
        u0 = sample_params(chain.param_dims, [0.7] * chain.tau, rng)
        cfg = TrainConfig(dom, budget=80)
        trace = train_pgd(chain, h, None, x0, cfg, u0=u0)
        L = trace.certified_smooth
        assert L is not None and trace.gamma == pytest.approx(1.0 / L)

        vals = np.array(trace.values)
        scale = max(1.0, abs(vals[0]))
        if np.any(np.diff(vals) > 1e-12 * scale):
            failures.append((inst, "monotonicity"))
            continue
        f_star = h.value(forward(chain, x0, trace.final_u).output)
        maps2 = np.array(trace.mapping_norms) ** 2
        for k in range(10, len(vals) + 1):
            lhs = maps2[:k].min()
            rhs = 8.0 * L * (vals[0] - f_star) / k
            if lhs > rhs * (1.0 + 1e-9) + 1e-300:
                failures.append((inst, f"rate at k={k}"))
                break
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    _report(8, "certified-step convergence", ok,
            f"10 instances, failures: {failures or 'none'}, {elapsed:.1f}s")
    assert not failures
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 9. loss and stage constant conformance


def test_criterion_9_loss_constant_conformance():
    rng = np.random.default_rng(909)
    n_probes = 1000
    worst = {}

    # logistic: gradient norm <= 2, Hessian norm <= 2
    gmax = hmax = 0.0
    for _ in range(n_probes):
        q = int(rng.integers(2, 7))
        y = np.zeros((1, q))
        y[0, rng.integers(0, q)] = 1.0
        h = Objective("logistic", 1, q, y)
        z = rng.standard_normal(q) * rng.uniform(0.1, 8.0)
        g = h.value_grad(z)[1]
        H = h.grad_hess(z)[1]
        gmax = max(gmax, float(np.linalg.norm(g)))
        hmax = max(hmax, float(np.linalg.norm(H, 2)))
    worst["logistic"] = (gmax, 2.0, hmax, 2.0)

    # softmax stage: Jacobian norm <= 2, Jacobian difference ratio <= 4
    jmax = rmax = 0.0
    st = SoftmaxStage(2, 3)
    for _ in range(n_probes):
        x = rng.standard_normal(6) * rng.uniform(0.1, 6.0)
        d = rng.standard_normal(6) * 1e-4
        Ja = st.linearize(x).dense_jacobian()
        Jb = st.linearize(x + d).dense_jacobian()
        jmax = max(jmax, float(np.linalg.norm(Ja, 2)))
        rmax = max(rmax, float(np.linalg.norm(Jb - Ja, 2) / np.linalg.norm(d)))
    worst["softmax"] = (jmax, 2.0, rmax, 4.0)

    # batch normalization: Jacobian norm <= 2/sqrt(eps),
    # difference ratio <= 2/(sqrt(m) eps)
    m, feats, eps = 4, 3, 0.5
    st = BatchNormStage(m, feats, eps)
    jmax = rmax = 0.0
    for _ in range(n_probes):
        x = rng.standard_normal(m * feats) * rng.uniform(0.1, 6.0)
        d = rng.standard_normal(m * feats) * 1e-4
        Ja = st.linearize(x).dense_jacobian()
        Jb = st.linearize(x + d).dense_jacobian()
        jmax = max(jmax, float(np.linalg.norm(Ja, 2)))
        rmax = max(rmax, float(np.linalg.norm(Jb - Ja, 2) / np.linalg.norm(d)))
    worst["batchnorm"] = (jmax, 2.0 / math.sqrt(eps), rmax,
                          2.0 / (math.sqrt(m) * eps))

    # convex clustering: gradient norm <= n(n-1)/2, gradient ratio <= 1
    n = 4
    gmax = rmax = 0.0
    for _ in range(n_probes):
        a = rng.standard_normal((n, 2)) * rng.uniform(0.2, 5.0)
        b = a + rng.standard_normal((n, 2)) * 0.05
        _, ga = eval_convex_cluster(a, tol=1e-10)
        _, gb = eval_convex_cluster(b, tol=1e-10)
        gmax = max(gmax, float(np.linalg.norm(ga.ravel())))
        dist = float(np.linalg.norm(a - b))
        rmax = max(rmax, float(np.linalg.norm(ga - gb)) / dist)
    worst["cluster"] = (gmax, n * (n - 1) / 2.0, rmax, 1.0)

    bad = {k: v for k, v in worst.items()
           if v[0] > v[1] * (1 + 1e-9) or v[2] > v[3] * (1 + 1e-6)}
    ok = not bad
    detail = "; ".join(f"{k}: grad {v[0]:.3g}<={v[1]:.3g}, "
                       f"curv {v[2]:.3g}<={v[3]:.3g}" for k, v in worst.items())
    _report(9, "loss-constant conformance", ok, detail)
    assert not bad, bad
