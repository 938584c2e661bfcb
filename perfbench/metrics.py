"""Metric names, units and their computation from samples and spans.

End-to-end metrics share one set of names across workloads; each workload
says which of its operations fills them (``Workload.aliases``).  Per-layer
metrics are named ``<module>.<kind>.<phase>``: a ``_s`` metric is mean
seconds per call, a ``_units`` metric mean OpCounter units per call and a
``_units_per_s`` metric units charged per second spent in that phase.  A
layer the workload never calls reads 0.
"""

from __future__ import annotations

import statistics

import chaincert as cc

END_TO_END = (
    ("setup_s", "s"),
    ("main_op_s", "s"),
    ("second_op_s", "s"),
    ("peak_rss_mb", "MB"),
)

_PART_PHASES = ("value", "vjp_x", "vjp_u", "jvp")
_STAGE_PHASES = ("linearize", "value", "vjp", "jvp")


def _per_layer_names():
    out = []
    for kind in ("conv", "fc"):
        for ph in _PART_PHASES:
            base = f"biaffine.{kind}.{ph}"
            out += [(base + "_s", "s"), (base + "_units", "count"),
                    (base + "_units_per_s", "1/s")]
    for ph in ("dense_jx", "dense_ju"):
        out += [(f"biaffine.fc.{ph}_s", "s"), (f"biaffine.fc.{ph}_bytes", "bytes")]
    for kind in ("elementwise", "avgpool"):
        for ph in _STAGE_PHASES:
            out.append((f"stages.{kind}.{ph}_s", "s"))
        for ph in _STAGE_PHASES[1:]:
            out.append((f"stages.{kind}.{ph}_units", "count"))
    out += [
        ("autodiff.forward_s", "s"), ("autodiff.backward_s", "s"), ("autodiff.jvp_s", "s"),
        ("autodiff.backward_units", "count"), ("autodiff.backward_units_predicted", "count"),
        ("autodiff.ad_calls", "count"),
        ("layers.second_contract_s", "s"), ("oracles.build_lq.newton_s", "s"),
        ("oracles.newton_dp_s", "s"), ("oracles.newton_dp.doublings", "count"),
        ("oracles.gn_dual_s", "s"), ("oracles.gn_dual.ad_s", "s"),
        ("oracles.gn_dual.ad_calls", "count"), ("oracles.gn_dual.cg_iterations", "count"),
        ("oracles.gn_dual.budget_ratio", "ratio"),
        ("objectives.value_grad_s", "s"), ("objectives.grad_hess_s", "s"),
        ("objectives.envelope_s", "s"),
        ("training.certified_step_s", "s"), ("training.project_s", "s"),
        ("training.sgd.backward_useful_ratio", "ratio"),
        ("archfile.parse_s", "s"), ("smoothness.catalog_s", "s"),
        ("smoothness.propagate_s", "s"),
        ("chain.sample_params_s", "s"), ("chain.sample_params_bytes", "bytes"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return tuple(out)


PER_LAYER = _per_layer_names()


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def tail_percentile(n):
    """Highest of the usual percentiles with at least ten samples above it."""
    best = None
    for p in (50, 75, 90, 95, 99, 99.9):
        if n * (1.0 - p / 100.0) >= 10:
            best = p
    return best


def summarize(samples):
    """Median, quartile spread and tail of one operation's samples."""
    out = {"n": len(samples)}
    if not samples:
        return out
    med = statistics.median(samples)
    out["median"] = med
    if len(samples) >= 4:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        out["iqr_over_median"] = (q3 - q1) / med if med else 0.0
    p = tail_percentile(len(samples))
    if p is not None:
        out["tail"] = statistics.quantiles(samples, n=1000)[int(p * 10) - 1]
        out["tail_percentile"] = p
    return out


def layer_metrics(tracer, n_ops, overhead_ratio):
    """Every per-layer metric from the spans of the traced rounds.

    ``n_ops`` is the number of workload operations run while tracing; count
    metrics not tied to one call (``autodiff.ad_calls``) are per operation.
    """
    prof = tracer.profile()

    def row(name):
        return prof.get(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0,
                               "units": 0, "extra": []})

    def per_call(name):
        r = row(name)
        return r["incl_s"] / r["calls"] if r["calls"] else 0.0

    m = {}
    for name, unit in PER_LAYER:
        if name.endswith("_units_per_s"):
            r = row(name[:-len("_units_per_s")])
            m[name] = r["units"] / r["incl_s"] if r["incl_s"] > 0 else 0.0
        elif name.endswith("_units"):
            r = row(name[:-len("_units")])
            m[name] = r["units"] / r["calls"] if r["calls"] else 0.0
        elif name.endswith("_bytes"):
            m[name] = float(_mean(row(name[:-len("_bytes")])["extra"]))
        elif name.endswith("_s") and unit == "s":
            m[name] = per_call(name[:-2])
    formula = {}
    predicted = []
    for chain in row("autodiff.backward")["extra"]:
        key = id(chain)
        if key not in formula:
            formula[key] = cc.backward_formula(chain)
        predicted.append(formula[key])
    m["autodiff.backward_units_predicted"] = float(_mean(predicted))
    ad = row("autodiff.backward")["calls"] + row("autodiff.jvp")["calls"]
    m["autodiff.ad_calls"] = ad / n_ops if n_ops else 0.0

    doublings = [d["doublings"] for d in row("oracles.newton_dp")["extra"]]
    m["oracles.newton_dp.doublings"] = float(_mean(doublings))
    gn = row("oracles.gn_dual")
    diags = gn["extra"]
    m["oracles.gn_dual.ad_calls"] = float(_mean([d["ad_calls"] for d in diags]))
    m["oracles.gn_dual.cg_iterations"] = float(_mean([d["cg_iterations"] for d in diags]))
    m["oracles.gn_dual.budget_ratio"] = float(_mean([d["ad_calls"] / d["budget"] for d in diags]))
    ad_time = 0.0
    for name in ("autodiff.backward", "autodiff.jvp"):
        for i in tracer.indices(name):
            if tracer.ancestor(i, "oracles.gn_dual") >= 0:
                rec = tracer.spans[i]
                ad_time += rec[2] - rec[1]
    m["oracles.gn_dual.ad_s"] = ad_time / gn["calls"] if gn["calls"] else 0.0

    steps = sum(row("training.sgd")["extra"])
    sweeps = sum(1 for i in tracer.indices("autodiff.backward")
                 if tracer.ancestor(i, "training.sgd") >= 0)
    m["training.sgd.backward_useful_ratio"] = steps / sweeps if sweeps else 0.0
    m["trace.overhead_ratio"] = overhead_ratio
    return {name: float(m[name]) for name, _ in PER_LAYER}
