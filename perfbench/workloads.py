"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` and runs one
round of closed-loop calls in ``round``: a single caller, the next call
starting when the previous one returns.  Calls go through ``rec.op``,
which times them; correctness checks run afterwards, outside the timed
region, through ``rec.check``.  Only chaincert's public API is used.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import statistics

import numpy as np

import chaincert as cc
import chaincert.cli

HERE = os.path.dirname(os.path.abspath(__file__))


def _finite(*values):
    return all(math.isfinite(float(v)) for v in values)


class CnnTrain:
    """Certified PGD then projected SGD on a small smooth CNN.

    Nearly all time goes to conv value/vjp_x/vjp_u/jvp and the stage
    pullbacks; oracles, archfile and the envelope do no work here.
    """

    name = "cnn-train"
    main, second = "pgd_step", "sgd_step"
    aliases = {"main_op_s": "pgd_step_s", "second_op_s": "sgd_step_s"}
    # steps per train_pgd / train_sgd call; the certified step size and the
    # SGD variance proxy are amortised over them
    pgd_steps, sgd_steps = 3, 3

    def __init__(self, smoke):
        if smoke:
            self.m, self.side, self.filters, self.sgd_batch = 2, 8, 4, 2
        else:
            self.m, self.side, self.filters, self.sgd_batch = 8, 32, 16, 4
        self.classes = 10

    def setup(self, seed):
        m, s, f = self.m, self.side, self.filters
        layers = (
            cc.conv2d(m, 3, s, s, f, 3, activation="softplus-centered"),
            cc.conv2d(m, f, s - 2, s - 2, f, 3, activation="softplus-centered"),
            cc.avgpool2d(m, f, s - 4, s - 4, 2),
            cc.fully_connected(m, f * ((s - 4) // 2) ** 2, self.classes),
        )
        self.chain = cc.ChainSpec(layers)
        rng = np.random.default_rng(seed)
        self.dom = cc.BoundedDomain.uniform(self.chain.tau, 1.0, 1.0)
        self.x0 = cc.sample_state(self.chain.d0, self.dom.m0, rng)
        y = np.zeros((m, self.classes))
        y[np.arange(m), rng.integers(0, self.classes, m)] = 1.0
        self.h = cc.logistic_objective(y)
        self.u = cc.sample_params(self.chain.param_dims, self.dom.radii, rng)
        self.seed = seed

    def _pgd(self, rec):
        cfg = cc.TrainConfig(self.dom, self.pgd_steps)
        tr = rec.op(self.main, lambda: cc.train_pgd(self.chain, self.h, None, self.x0, cfg, self.u),
                    units=len)
        if tr is None:
            return
        v = tr.values
        rec.check(_finite(*v), "pgd: non-finite objective value")
        rec.check(all(b <= a + 1e-12 * max(1.0, abs(a)) for a, b in zip(v, v[1:])),
                  f"pgd: certified objective increased: {v}")
        self.u = tr.final_u

    def _sgd(self, rec, i):
        cfg = cc.TrainConfig(self.dom, self.sgd_steps, batch=self.sgd_batch,
                             seed=self.seed * 1000 + i)
        tr = rec.op(self.second, lambda: cc.train_sgd(self.chain, self.h, None, self.x0, cfg, self.u),
                    units=len)
        if tr is None:
            return
        rec.check(_finite(*tr.values, tr.variance_proxy), "sgd: non-finite value or variance proxy")
        self.u = tr.final_u

    def round(self, rec, i):
        self._pgd(rec)
        self._pgd(rec)
        self._sgd(rec, i)
        tape = cc.forward(self.chain, self.x0, self.u)
        counter = cc.OpCounter()
        cc.backward(tape, self.h.value_grad(tape.output)[1], counter)
        predicted = cc.backward_formula(self.chain)
        rec.check(counter.total == predicted,
                  f"backward units {counter.total} != formula {predicted}")


def _fc_chain(batch, width, tau):
    return cc.ChainSpec(tuple(
        cc.fully_connected(batch, width, width,
                           activation="softplus" if t + 1 < tau else "identity")
        for t in range(tau)))


class FcOracles:
    """One Newton-DP and one Gauss-Newton-dual step per seeded point.

    The time is dense linear algebra in the oracles plus the second-order
    contraction and dense Jacobians; p_t = 1056 >> d_t = 128.
    """

    name = "fc-oracles"
    main, second = "newton_step", "gn_step"
    aliases = {"main_op_s": "newton_step_s", "second_op_s": "gn_step_s"}
    kappa = 0.5

    def __init__(self, smoke):
        self.m, self.width, self.tau, self.n_points = (2, 4, 3, 2) if smoke else (4, 32, 6, 3)

    def setup(self, seed):
        self.chain = _fc_chain(self.m, self.width, self.tau)
        rng = np.random.default_rng(seed)
        self.h = cc.squared_objective(rng.standard_normal((self.m, self.width)))
        self.points = [(cc.sample_state(self.chain.d0, 1.0, rng),
                        cc.sample_params(self.chain.param_dims, 1.0, rng))
                       for _ in range(self.n_points)]
        self.seed = seed

    def _newton(self, x0, u):
        tape = cc.forward(self.chain, x0, u)
        return cc.solve_newton_dp(cc.build_lq(tape, self.h, None, "newton", self.kappa))

    def _gn(self, x0, u, **kw):
        return cc.solve_gauss_newton_dual(cc.forward(self.chain, x0, u), self.h, None,
                                          self.kappa, **kw)

    def round(self, rec, i):
        x0, u = self.points[i % len(self.points)]
        step = rec.op(self.main, lambda: self._newton(x0, u))
        if step is not None:
            rec.check(_finite(*step.v.flat()), "newton: non-finite step")
            self._check_dense_reference(rec, i)
        step = rec.op(self.second, lambda: self._gn(x0, u))
        if step is None:
            return
        d = step.diagnostics
        rec.check(d["budget_ok"], f"gn: {d['ad_calls']} AD calls over budget {d['budget']}")
        rec.check(_finite(*step.v.flat()), "gn: non-finite step")
        if i == 0:
            d = self._gn(x0, u, compute_gap=True).diagnostics
            scale = 1.0 + abs(d["primal_model_value"])
            rec.check(abs(d["gap"]) <= 1e-8 * scale, f"gn: duality gap {d['gap']:.3e}")

    def _check_dense_reference(self, rec, i):
        """Newton-DP against the dense solve on a small chain of the same family."""
        rng = np.random.default_rng([self.seed, i])
        chain = _fc_chain(2, 4, 3)
        h = cc.squared_objective(rng.standard_normal((2, 4)))
        x0 = cc.sample_state(chain.d0, 1.0, rng)
        u = cc.sample_params(chain.param_dims, 1.0, rng)
        tape = cc.forward(chain, x0, u)
        step = cc.solve_newton_dp(cc.build_lq(tape, h, None, "newton", self.kappa))
        kappa = step.diagnostics["kappa_used"]
        dense = cc.solve_dense_reference(cc.build_lq(tape, h, None, "newton", kappa))
        err = (step.v - dense.v).norm() / max(dense.v.norm(), 1e-30)
        rec.check(err <= 1e-8, f"newton-dp vs dense reference: relative error {err:.3e}")


class Vgg16Symbolic:
    """Certified smoothness of the three VGG16 fixtures, then the refusal.

    Archfile parsing, the catalogue and propagation do the work; autodiff
    does none.  ``gradcheck`` on the symbolic architecture must exit 2.
    """

    name = "vgg16-symbolic"
    main, second = "certify", "refuse"
    aliases = {"main_op_s": "certify_s", "second_op_s": "refuse_s"}

    def __init__(self, smoke):
        if smoke:
            d, names = os.path.join(HERE, "fixtures"), ("tiny", "tiny-smooth", "tiny-batchnorm")
        else:
            d = os.path.join(os.path.dirname(cc.__file__), "fixtures")
            names = ("vgg16", "vgg16-smooth", "vgg16-batchnorm")
        self.paths = [os.path.join(d, n + ".arch") for n in names]
        self.expected = {}

    def setup(self, seed):
        self.seed = seed
        self.chains = {}

    def _certify(self, path):
        chain, dom, _ = cc.parse_arch(path)
        consts = [cc.catalog_constants(layer) for layer in chain.layers]
        return chain, cc.propagate_layers(chain, dom, consts)[-1].logs()

    def _agree(self, rec, key, value, what):
        first = self.expected.setdefault(key, value)
        rec.check(value == first, f"{what} changed between repeats: {value} vs {first}")

    def round(self, rec, i):
        k = (self.seed + i) % len(self.paths)
        for path in self.paths[k:] + self.paths[:k]:
            out = rec.op(self.main, lambda: self._certify(path))
            if out is None:
                continue
            chain, (lm, ll, ls) = out
            self.chains[path] = chain
            rec.check(_finite(lm, ll), f"{path}: non-finite log magnitude or lipschitz")
            # piecewise-linear stages (relu, max pooling) have no finite smoothness
            rec.check(math.isfinite(ls) == chain.second_order,
                      f"{path}: log smoothness {ls} for second_order={chain.second_order}")
            self._agree(rec, path, (lm, ll, ls), f"{path} logs")

        smooth, bn = self.paths[1], self.paths[2]
        buf = io.StringIO()

        def compare():
            with contextlib.redirect_stdout(buf):
                return chaincert.cli.main(["smoothness", smooth, "--compare", bn,
                                           "--bn-eps", "0.01"])

        rc = rec.op("compare", compare)
        if rc is not None:
            diffs = [line.rsplit("=", 1)[1].strip() for line in buf.getvalue().splitlines()
                     if "difference" in line and "(b - a)" in line]
            rec.check(rc == 0 and len(diffs) == 2 and _finite(*diffs),
                      f"compare: exit {rc}, differences {diffs}")
            self._agree(rec, "compare", tuple(diffs), "compare differences")

        chains = [self.chains[p] for p in self.paths if p in self.chains]
        counts = rec.op("formula", lambda: [cc.backward_formula(c) for c in chains])
        if counts is not None:
            rec.check(all(c > 0 for c in counts), f"backward formula counts {counts}")
            self._agree(rec, "formula", tuple(counts), "backward formula counts")

        # the refusal takes about ten certify calls; running it every other
        # round spreads the certify samples over the whole run
        if i % 2:
            return

        def refuse():
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                return chaincert.cli.main(["gradcheck", self.paths[0],
                                           "--seed", str(self.seed + i)])

        rc = rec.op(self.second, refuse)
        if rc is not None:
            rec.check(rc == 2, f"gradcheck on a symbolic architecture exited {rc}, expected 2")


class ClusterEnvelope:
    """The convex-clustering Moreau envelope over a seeded probe set.

    The envelope's cost depends on input geometry, from a fraction of a
    millisecond to seconds, with a heavy tail.  A fresh random draw per seed
    would make throughput swing several-fold between seeds, so the mix of
    geometries is drawn once from ``DESIGN_SEED`` and the seed then moves
    every probe by a random rotation of R^q, a permutation of the points
    and a translation.  The envelope is invariant under all three, so every
    seed sees new inputs with the same mix of fast and slow geometries.
    """

    name = "cluster-envelope"
    main, second = "envelope", "sweep"
    aliases = {"main_op_s": "envelope_s", "second_op_s": "sweep_s"}
    DESIGN_SEED = 2002
    tol = 1e-10

    def __init__(self, smoke):
        self.shapes = [(4, 2)] if smoke else [(n, q) for n in (4, 8, 16) for q in (2, 4)]
        self.per_shape = 3 if smoke else 8

    def setup(self, seed):
        design = np.random.default_rng(self.DESIGN_SEED)
        rng = np.random.default_rng(seed)
        self.probes = []
        for n, q in self.shapes:
            for _ in range(self.per_shape):
                scale = design.uniform(0.2, 5.0)
                base = design.standard_normal((n, q)) * scale
                rot, r = np.linalg.qr(rng.standard_normal((q, q)))
                rot = rot * np.sign(np.diag(r))
                shift = rng.standard_normal(q) * scale
                self.probes.append(base[rng.permutation(n)] @ rot + shift)

    def round(self, rec, i):
        total = 0.0
        for a in self.probes:
            out = rec.op(self.main, lambda: cc.eval_convex_cluster(a, self.tol))
            total += rec.last_seconds
            if out is None:
                continue
            value, grad = out
            n = a.shape[0]
            gnorm = float(np.linalg.norm(grad))
            rec.check(_finite(value, gnorm), "envelope: non-finite value or gradient")
            rec.check(gnorm <= n * (n - 1) / 2.0 * (1.0 + 1e-9),
                      f"envelope gradient norm {gnorm:.6g} above n(n-1)/2 for n={n}")
        rec.sample(self.second, total)

    def info(self, samples):
        sweeps = samples.get(self.second)
        if not sweeps:
            return {}
        return {"envelopes_per_s": len(self.probes) / statistics.median(sweeps)}


WORKLOADS = {w.name: w for w in (CnnTrain, FcOracles, Vgg16Symbolic, ClusterEnvelope)}
