"""Print sha256 digests of the numbers the benchmark workloads compute.

Usage::

    python tools/digests.py [CHECKOUT]

``CHECKOUT`` is a source tree of this project (default: the one holding this
script); its ``src`` directory is imported as ``chaincert``.  For seeds 1 and
7331 the script rebuilds the inputs of two workloads at their full shapes,
through chaincert's public API only, and prints one digest per quantity:

* ``fc-oracles``: the Newton-DP step on each of the three seeded points with
  its ``kappa_used`` and ``doublings``, and the Gauss-Newton-dual step with
  its ``ad_calls``;
* ``cnn-train``: two certified PGD calls and one SGD call from the same
  start as one benchmark round, with their objective values, final
  iterates, step sizes and the SGD variance proxy;
* the ``OpCounter`` units of one ``backward`` on each chain;
* ``input_smoothness`` on a seeded FC chain at three input radii, and
  ``generic_recursion`` on every prefix of seeded per-layer constants
  followed by entries of 0 and inf, as ``float.hex``.

Once, under the seed column ``-``, it prints digests of the symbolic path
of the ``vgg16-symbolic`` workload: ``float.hex`` of every prefix's logs
from ``propagate_layers`` on each VGG16 fixture, the two differences of
``smoothness vgg16-smooth.arch --compare vgg16-batchnorm.arch --bn-eps
0.01`` (as ``float.hex`` and as printed), and ``backward_formula`` on the
three chains.

Two checkouts that print the same lines compute these numbers bitwise
alike.  A run takes a few seconds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import sys

import numpy as np

SEEDS = (1, 7331)


def _digest(*parts) -> str:
    """sha256 over arrays and lists of floats (as float64 bytes) and other values (``repr``)."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, (np.ndarray, list)):
            h.update(np.asarray(part, dtype=float).tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()


def fc_oracles(cc, seed: int, kappa: float = 0.5):
    """The ``fc-oracles`` workload's three points: 6 FC layers of width 32, batch 4."""
    m, width, tau = 4, 32, 6
    chain = cc.ChainSpec(tuple(
        cc.fully_connected(m, width, width, activation="softplus" if t + 1 < tau else "identity")
        for t in range(tau)))
    rng = np.random.default_rng(seed)
    h = cc.squared_objective(rng.standard_normal((m, width)))
    points = [(cc.sample_state(chain.d0, 1.0, rng), cc.sample_params(chain.param_dims, 1.0, rng))
              for _ in range(3)]
    newton, gn, units = [], [], []
    for x0, u in points:
        tape = cc.forward(chain, x0, u)
        step = cc.solve_newton_dp(cc.build_lq(tape, h, None, "newton", kappa))
        newton.append((step.v.flat(), step.diagnostics["kappa_used"],
                       step.diagnostics["doublings"]))
        step = cc.solve_gauss_newton_dual(cc.forward(chain, x0, u), h, None, kappa)
        gn.append((step.v.flat(), step.diagnostics["ad_calls"]))
        counter = cc.OpCounter()
        cc.backward(tape, h.value_grad(tape.output)[1], counter)
        units.append(counter.total)
    return {
        "fc-oracles.newton.step": _digest(*(s for s, _, _ in newton)),
        "fc-oracles.newton.kappa_used": _digest(*(k for _, k, _ in newton)),
        "fc-oracles.newton.doublings": _digest(*(d for _, _, d in newton)),
        "fc-oracles.gn.step": _digest(*(s for s, _ in gn)),
        "fc-oracles.gn.ad_calls": _digest(*(a for _, a in gn)),
    }, units


def cnn_train(cc, seed: int):
    """One ``cnn-train`` round: two conv layers, average pooling, an FC head; batch 8."""
    m, s, f, classes = 8, 32, 16, 10
    chain = cc.ChainSpec((
        cc.conv2d(m, 3, s, s, f, 3, activation="softplus-centered"),
        cc.conv2d(m, f, s - 2, s - 2, f, 3, activation="softplus-centered"),
        cc.avgpool2d(m, f, s - 4, s - 4, 2),
        cc.fully_connected(m, f * ((s - 4) // 2) ** 2, classes),
    ))
    rng = np.random.default_rng(seed)
    dom = cc.BoundedDomain.uniform(chain.tau, 1.0, 1.0)
    x0 = cc.sample_state(chain.d0, dom.m0, rng)
    y = np.zeros((m, classes))
    y[np.arange(m), rng.integers(0, classes, m)] = 1.0
    h = cc.logistic_objective(y)
    u = cc.sample_params(chain.param_dims, dom.radii, rng)
    pgd = []
    for _ in range(2):
        trace = cc.train_pgd(chain, h, None, x0, cc.TrainConfig(dom, 3), u)
        pgd.append(trace)
        u = trace.final_u
    sgd = cc.train_sgd(chain, h, None, x0, cc.TrainConfig(dom, 3, batch=4, seed=seed * 1000), u)
    tape = cc.forward(chain, x0, sgd.final_u)
    counter = cc.OpCounter()
    cc.backward(tape, h.value_grad(tape.output)[1], counter)
    return {
        "cnn-train.pgd.values": _digest(*(t.values for t in pgd)),
        "cnn-train.pgd.final_u": _digest(*(t.final_u.flat() for t in pgd)),
        "cnn-train.pgd.gamma": _digest(*(t.gamma for t in pgd)),
        "cnn-train.sgd.values": _digest(sgd.values),
        "cnn-train.sgd.final_u": _digest(sgd.final_u.flat()),
        "cnn-train.sgd.gamma": _digest(sgd.gamma),
        "cnn-train.sgd.variance_proxy": _digest(sgd.variance_proxy),
    }, [counter.total]


def recursions(cc, seed: int):
    """``input_smoothness`` and ``generic_recursion`` on seeded inputs."""
    rng = np.random.default_rng(seed)
    chain = cc.ChainSpec(tuple(cc.fully_connected(4, 32, 32, activation=act)
                               for act in ("softplus", "sigmoid", "softplus-centered", "identity")))
    logs = [cc.input_smoothness(chain, cc.sample_params(chain.param_dims, 1.0, rng), R).logs()
            for R in (0.0, 0.5, 3.0)]
    phi = [tuple(map(float, row)) for row in rng.uniform(0.0, 3.0, (12, 2))]
    phi += [(2.0, 0.0), (0.0, 0.0), (0.0, math.inf), (math.inf, 0.0), (1.0, 1.0)]
    generic = [cc.generic_recursion(phi[:k]) for k in range(len(phi) + 1)]
    return {
        "smoothness.input": _digest(tuple(float.hex(v) for tri in logs for v in tri)),
        "smoothness.generic": _digest(tuple(x.lg.hex() for pair in generic for x in pair)),
    }


def vgg16_symbolic(cc):
    """The symbolic path on the three VGG16 fixtures; independent of the seed."""
    fixtures = os.path.join(os.path.dirname(cc.__file__), "fixtures")
    path = {n: os.path.join(fixtures, n + ".arch")
            for n in ("vgg16", "vgg16-smooth", "vgg16-batchnorm")}
    rows, chains = {}, []
    for name, p in path.items():
        chain, dom, _ = cc.parse_arch(p)
        chains.append(chain)
        rows[f"{name}.prefixes"] = _digest(tuple(
            tuple(float.hex(v) for v in tri.logs()) for tri in cc.propagate_layers(chain, dom)))
    a, b = (cc.propagate_layers(*cc.parse_arch(path[n], bn_eps=0.01)[:2])[-1].logs()
            for n in ("vgg16-smooth", "vgg16-batchnorm"))
    rows["vgg16.compare.hex"] = _digest((float.hex(b[1] - a[1]), float.hex(b[2] - a[2])))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cc.cli.main(["smoothness", path["vgg16-smooth"], "--compare",
                          path["vgg16-batchnorm"], "--bn-eps", "0.01"])
    rows["vgg16.compare.printed"] = _digest(rc, tuple(
        line for line in out.getvalue().splitlines() if "difference" in line))
    rows["vgg16.backward_formula"] = _digest(tuple(cc.backward_formula(c) for c in chains))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = argv[0] if argv else os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(os.path.abspath(root), "src"))
    import chaincert as cc
    import chaincert.cli  # noqa: F401  (``cc.cli`` for the compare report)

    for seed in SEEDS:
        fc, fc_units = fc_oracles(cc, seed)
        cnn, cnn_units = cnn_train(cc, seed)
        rows = {**fc, **cnn, "backward.units": _digest(tuple(fc_units + cnn_units)),
                **recursions(cc, seed)}
        for name, value in rows.items():
            print(f"{seed:<5} {name:<30} {value}")
    for name, value in vgg16_symbolic(cc).items():
        print(f"{'-':<5} {name:<30} {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
