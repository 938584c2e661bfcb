"""chaincert benchmark: one workload per process, closed loop, one caller.

Usage, from the repository root:

    python3 perfbench/run.py --workload cnn-train --seed 1 --seconds 28 --trace 0

``--trace 0`` measures the end-to-end metrics with no recorder installed.
``--trace 1`` alternates traced and untraced rounds and reports the
per-layer metrics from the spans of the traced rounds, plus the tracing
overhead against the untraced rounds.  ``--smoke`` runs the same code at
tiny sizes.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  A fuller record (environment, every named metric, the span
profile) is written to ``perfbench/out/``.

The package is imported from ``src/`` of the checkout this file sits in,
never from anywhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "perfbench", "out")

# Seeds 1-10 were used while this benchmark and its bounds were tuned.  A
# claimed gain must also hold on this seed, which was not.
HELD_OUT_SEED = 7331

NPROC = len(os.sched_getaffinity(0))
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_blas_threads():
    """Cap every BLAS/OpenMP pool at the cores this process may use."""
    for var in _BLAS_VARS:
        try:
            cur = int(os.environ.get(var, NPROC))
        except ValueError:
            cur = NPROC
        os.environ[var] = str(max(1, min(cur, NPROC)))


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, else the pinned value."""
    import ctypes
    import glob

    import numpy
    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def git_revision():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unavailable"
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    path = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(path):
        with open(path) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return "unavailable"


def environment(seed):
    import numpy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "nproc": NPROC,
        "git": git_revision(),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


class Recorder:
    """Times closed-loop calls and counts attempted and failed operations."""

    def __init__(self):
        self.samples = {}
        self.traced_samples = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.traced_ops = 0
        self.tracer = None
        self.last_seconds = 0.0
        self._last_failed = False

    def op(self, kind, fn, units=None):
        """Run one operation; returns its result, or None if it raised.

        ``units(result)`` is the number of operations the call completed
        (training steps); its sample is seconds per unit.
        """
        self.attempted += 1
        self._last_failed = False
        tracer = self.tracer
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            self.last_seconds = time.perf_counter() - t0
            self._fail(f"{kind}: {type(exc).__name__}: {exc}")
            return None
        finally:
            if tracer is not None:
                tracer.active = False
        dt = time.perf_counter() - t0
        self.last_seconds = dt
        n = units(out) if units is not None else 1
        self.sample(kind, dt / max(n, 1))
        if tracer is not None:
            self.traced_ops += n
        return out

    def sample(self, kind, seconds):
        store = self.traced_samples if self.tracer is not None else self.samples
        store.setdefault(kind, []).append(seconds)

    def check(self, ok, message):
        """A failed check marks the operation just run as failed."""
        if not ok:
            self._fail(message)

    def _fail(self, message):
        if len(self.errors) < 20:
            self.errors.append(message)
        if not self._last_failed:
            self.failed += 1
            self._last_failed = True


def run(args):
    if not os.path.isfile(os.path.join(SRC, "chaincert", "__init__.py")):
        print(f"error: no chaincert sources under {SRC}", file=sys.stderr)
        return 1
    pin_blas_threads()
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import chaincert
    import_s = time.perf_counter() - t0
    if not os.path.abspath(chaincert.__file__).startswith(SRC + os.sep):
        print(f"error: chaincert imported from {chaincert.__file__}, not {SRC}", file=sys.stderr)
        return 1

    import metrics
    import workloads
    from tracing import Tracer

    workload = workloads.WORKLOADS[args.workload](args.smoke)
    setups = []
    for _ in range(2 if args.smoke else 5):
        t0 = time.perf_counter()
        workload.setup(args.seed)
        setups.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setups)

    rec = Recorder()
    tracer = Tracer() if args.trace else None
    min_rounds = 2 if args.trace else 1
    deadline = time.perf_counter() + args.seconds
    rounds = 0
    while rounds < min_rounds or time.perf_counter() < deadline:
        traced = tracer is not None and rounds % 2 == 0
        if traced:
            tracer.install()
            rec.tracer = tracer
        try:
            workload.round(rec, rounds)
        finally:
            if traced:
                rec.tracer = None
                tracer.uninstall()
        rounds += 1

    main = metrics.summarize(rec.samples.get(workload.main, []))
    second = metrics.summarize(rec.samples.get(workload.second, []))
    if args.trace:
        traced_main = metrics.summarize(rec.traced_samples.get(workload.main, []))
        overhead = (traced_main["median"] / main["median"] - 1.0
                    if "median" in traced_main and "median" in main else 0.0)
        values = metrics.layer_metrics(tracer, rec.traced_ops, overhead)
        units = dict(metrics.PER_LAYER)
    else:
        values = {
            "setup_s": setup_s,
            "main_op_s": main.get("median", 0.0),
            "second_op_s": second.get("median", 0.0),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(metrics.END_TO_END)

    env = environment(args.seed)
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# workload={workload.name} seconds={args.seconds} trace={args.trace} "
          f"smoke={int(args.smoke)} rounds={rounds} setup_repeats={len(setups)} "
          f"import_s={import_s:.4f}")
    named = {}
    for kind in sorted(set(rec.samples) | set(rec.traced_samples)):
        s = metrics.summarize(rec.samples.get(kind, []))
        named[kind] = s
        if "median" not in s:
            continue
        line = f"{kind}_s = {s['median']:.6g} s (median of {s['n']}"
        if "iqr_over_median" in s:
            line += f", iqr/median {s['iqr_over_median']:.3f}"
        line += ")"
        if "tail" in s:
            line += f"; {kind}_s.tail = {s['tail']:.6g} s (p{s['tail_percentile']:g})"
        print(line)
    info = getattr(workload, "info", None)
    for name, value in (info(rec.samples) if info else {}).items():
        print(f"{name} = {value:.6g}")
    if not args.trace:
        counts = {"main_op_s": main["n"], "second_op_s": second["n"]}
        for name, _ in metrics.END_TO_END:
            alias = workload.aliases.get(name)
            label = f"{alias} [{name}]" if alias else name
            n = f" (median of {counts[name]})" if name in counts else ""
            print(f"{label} = {values[name]:.6g} {units[name]}{n}")
    else:
        for name, unit in metrics.PER_LAYER:
            print(f"{name} = {values[name]:.6g} {unit}")
    ratio = rec.failed / rec.attempted if rec.attempted else 0.0
    print(f"failed_ratio = {ratio:.6g} ({rec.failed} of {rec.attempted} operations)")
    for msg in rec.errors:
        print(f"# failure: {msg}")

    record = {"environment": env, "workload": workload.name, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "rounds": rounds,
              "import_s": import_s, "setup_samples": setups, "operations": named,
              "samples": rec.samples, "traced_samples": rec.traced_samples,
              "aliases": workload.aliases, "metrics": values,
              "attempted": rec.attempted, "failed": rec.failed, "errors": rec.errors}
    if tracer is not None:
        record["profile"] = {k: {key: v[key] for key in ("calls", "incl_s", "self_s", "units")}
                             for k, v in tracer.profile().items()}
        record["spans"] = tracer.dump()
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    with open(os.path.join(OUT_DIR, tag + ".json"), "w") as fh:
        json.dump(record, fh)

    result = {"correct": rec.failed == 0, "attempted": rec.attempted, "failed": rec.failed,
              "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}
    print(json.dumps(result))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("cnn-train", "fc-oracles", "vgg16-symbolic", "cluster-envelope"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own test")
    return run(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
