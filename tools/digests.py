"""Print sha256 digests of the numbers the benchmark workloads compute.

Usage::

    python tools/digests.py [CHECKOUT]

``CHECKOUT`` is a source tree of this project (default: the one holding this
script); its ``src`` directory is imported as ``chaincert``.  The workloads
are those of ``perfbench/workloads.py`` in the checkout holding this script,
run at their full shapes through its ``Recorder``, so inputs and calls are
the benchmark's own.  For seeds 1 and 7331 it prints one digest per quantity:

* ``fc-oracles``, one round per seeded point: the Newton-DP step with its
  ``kappa_used`` and ``doublings``, and the Gauss-Newton-dual step with its
  ``ad_calls``;
* ``cnn-train``, one round: the two certified PGD calls and the SGD call,
  with their objective values, final iterates, step sizes and the SGD
  variance proxy;
* the ``OpCounter`` units of one ``backward`` on each chain;
* one ``backward`` on the ``cnn-train`` chain at its set-up point, of the
  minibatch gradient of samples 1, 4 and 6 (the cotangent is zero outside
  them), and its ``OpCounter`` units;
* ``dense_jx`` of a small seeded conv part with bias, built one identity
  row at a time;
* ``cluster-envelope``, one round: the envelope value and gradient at
  every probe;
* a seeded ``residual_wrap`` chain, an FC layer and then a conv layer with
  an average-pooling stage: its ``forward`` output, ``backward`` blocks and
  a ``jvp``, and the ``OpCounter`` units of each;
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


def _backward_units(cc, chain, h, x0, u) -> int:
    """``OpCounter`` units of one ``backward`` of ``h``'s gradient at ``(x0, u)``."""
    tape = cc.forward(chain, x0, u)
    counter = cc.OpCounter()
    cc.backward(tape, h.value_grad(tape.output)[1], counter)
    return counter.total


def _rounds(w, seed: int, rounds: int):
    """The results, by kind, of the timed calls in ``rounds`` rounds of ``w`` set up at ``seed``."""
    from run import Recorder

    w.setup(seed)
    rec, results = Recorder(), {}
    op = rec.op

    def keep(kind, fn, units=None):
        out = op(kind, fn, units)
        results.setdefault(kind, []).append(out)
        return out

    rec.op = keep
    for i in range(rounds):
        w.round(rec, i)
    if rec.failed:
        raise RuntimeError(f"{w.name} at seed {seed}: {rec.errors}")
    return results


def fc_oracles(cc, workloads, seed: int):
    """``fc-oracles`` rounds, one per seeded point: a Newton-DP and a Gauss-Newton-dual step."""
    w = workloads.FcOracles(False)
    out = _rounds(w, seed, w.n_points)
    newton, gn = out[w.main], out[w.second]
    return {
        "fc-oracles.newton.step": _digest(*(s.v.flat() for s in newton)),
        "fc-oracles.newton.kappa_used": _digest(*(s.diagnostics["kappa_used"] for s in newton)),
        "fc-oracles.newton.doublings": _digest(*(s.diagnostics["doublings"] for s in newton)),
        "fc-oracles.gn.step": _digest(*(s.v.flat() for s in gn)),
        "fc-oracles.gn.ad_calls": _digest(*(s.diagnostics["ad_calls"] for s in gn)),
    }, [_backward_units(cc, w.chain, w.h, x0, u) for x0, u in w.points]


def cnn_train(cc, workloads, seed: int):
    """One ``cnn-train`` round: two certified PGD calls, then one SGD call."""
    w = workloads.CnnTrain(False)
    out = _rounds(w, seed, 1)
    pgd, (sgd,) = out[w.main], out[w.second]
    return {
        "cnn-train.pgd.values": _digest(*(t.values for t in pgd)),
        "cnn-train.pgd.final_u": _digest(*(t.final_u.flat() for t in pgd)),
        "cnn-train.pgd.gamma": _digest(*(t.gamma for t in pgd)),
        "cnn-train.sgd.values": _digest(sgd.values),
        "cnn-train.sgd.final_u": _digest(sgd.final_u.flat()),
        "cnn-train.sgd.gamma": _digest(sgd.gamma),
        "cnn-train.sgd.variance_proxy": _digest(sgd.variance_proxy),
    }, [_backward_units(cc, w.chain, w.h, w.x0, sgd.final_u)]


def cnn_minibatch(cc, workloads, seed: int):
    """One ``backward`` on the ``cnn-train`` chain of a cotangent that is zero outside samples 1, 4, 6."""
    w = workloads.CnnTrain(False)
    w.setup(seed)
    tape = cc.forward(w.chain, w.x0, w.u)
    counter = cc.OpCounter()
    grad = cc.backward(tape, w.h.grad_minibatch(tape.output, [1, 4, 6]), counter)
    return {
        "cnn-train.minibatch.backward": _digest(*grad.blocks),
        "cnn-train.minibatch.units": _digest(counter.total),
    }


def conv_dense_jx(cc, seed: int):
    """``dense_jx`` of a batch-3 conv part: each identity row has one sample's cotangent."""
    part = cc.conv2d(3, 2, 6, 6, 3, 3, bias=True).part
    u = cc.sample_params((part.p,), 1.0, np.random.default_rng(seed))
    return {"conv.dense_jx": _digest(part.dense_jx(u.blocks[0]))}


def cluster_envelope(workloads, seed: int):
    """One ``cluster-envelope`` round: the envelope value and gradient at every probe."""
    w = workloads.ClusterEnvelope(False)
    out = _rounds(w, seed, 1)
    return {
        "cluster-envelope.value": _digest([v for v, _ in out[w.main]]),
        "cluster-envelope.grad": _digest(*(g for _, g in out[w.main])),
    }


def residual(cc, seed: int):
    """A ``residual_wrap`` chain: an FC layer, then a conv layer whose stages end in average pooling."""
    m = 2
    conv = cc.conv2d(m, 1, 5, 5, 2, 2, activation="softplus")  # 1x5x5 -> 2x4x4
    # 2x2 windows at stride 2 over each 4x4 filter map
    windows = np.array([0, 2, 8, 10])[:, None] + np.array([0, 1, 4, 5])
    pool = cc.AvgPoolStage(m, 2, 16, windows)
    pooled = cc.LayerDescriptor("conv", conv.part, conv.stages + (pool,), m)
    # per sample the FC block maps 25 -> 32 and carries 25: 57 = 25 + 32, the conv's input
    chain = cc.ChainSpec((cc.residual_wrap(cc.fully_connected(m, 25, 32, activation="softplus")),
                          cc.residual_wrap(pooled)))
    rng = np.random.default_rng(seed)
    x0 = cc.sample_state(chain.d0, 1.0, rng)
    u = cc.sample_params(chain.param_dims, 1.0, rng)
    counters = [cc.OpCounter() for _ in range(3)]
    tape = cc.forward(chain, x0, u, counters[0])
    grad = cc.backward(tape, rng.standard_normal(chain.d_out), counters[1])
    du = cc.sample_params(chain.param_dims, 1.0, rng)
    tangent = cc.jvp(tape, du, rng.standard_normal(chain.d0), counters[2])
    return {
        "residual.forward": _digest(tape.output),
        "residual.backward": _digest(*grad.blocks),
        "residual.jvp": _digest(tangent),
        "residual.units": _digest(tuple(c.total for c in counters)),
    }


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
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    root = argv[0] if argv else here
    sys.path.insert(0, os.path.join(os.path.abspath(root), "src"))
    sys.path.insert(1, os.path.join(here, "perfbench"))
    import chaincert as cc
    import workloads  # imports chaincert.cli, so ``cc.cli`` is there for the compare report

    for seed in SEEDS:
        fc, fc_units = fc_oracles(cc, workloads, seed)
        cnn, cnn_units = cnn_train(cc, workloads, seed)
        rows = {**fc, **cnn, "backward.units": _digest(tuple(fc_units + cnn_units)),
                **cnn_minibatch(cc, workloads, seed), **conv_dense_jx(cc, seed),
                **residual(cc, seed), **recursions(cc, seed), **cluster_envelope(workloads, seed)}
        for name, value in rows.items():
            print(f"{seed:<5} {name:<30} {value}")
    for name, value in vgg16_symbolic(cc).items():
        print(f"{'-':<5} {name:<30} {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
