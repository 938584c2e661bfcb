"""Command line front end.

Subcommands:

* ``smoothness``   certified magnitude/Lipschitz/smoothness table for an
  architecture file, optionally comparing two files;
* ``gradcheck``    finite-difference audit of the reverse-mode gradients;
* ``oracle-bench`` timing and agreement CSV for the second-order oracles;
* ``train``        projected (stochastic) gradient descent driver.

Exit codes: 0 success, 1 failed check or infeasible computation, 2 usage
or parse error; options are checked before any work.  The parser is built
once per process, so repeated in-process ``main`` calls only parse.
Logarithms in reports are natural logs printed to 12 significant digits;
deep stacks overflow double precision, so the log is the primary quantity.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import sys
import time
from dataclasses import replace
from typing import List, Optional, Tuple

import numpy as np

from .archfile import ParseError, parse_arch
from .autodiff import forward, grad_objective, jvp
from .biaffine import SymbolicConvPart
from .chain import ChainSpec, ParamVector, sample_params, sample_state
from .errors import InfeasibleModel, NumericError
from .layers import fully_connected
from .objectives import Objective, ZeroReg
from .oracles import (build_lq, solve_dense_reference, solve_gauss_newton_dual,
                      solve_newton_dp)
from .smoothness import catalog_constants, propagate_layers
from .training import TrainConfig, train_pgd, train_sgd

__all__ = ["main"]


def _g(x: float) -> str:
    return format(float(x), ".12g")


def _stage_summary(stage_cs) -> str:
    if not stage_cs:
        return "-"
    return ",".join(f"({sc.lip:.3g},{sc.smooth:.3g})" for sc in stage_cs)


def _smooth_report(path: str, args) -> Tuple[str, float, float]:
    """Layer-by-layer certified bounds table, then the final log Lipschitz and smoothness."""
    chain, dom, _ = parse_arch(path, batch=args.batch, radius=args.radius,
                               norm=args.input_norm, bn_eps=args.bn_eps)
    consts = [catalog_constants(layer) for layer in chain.layers]
    trace = propagate_layers(chain, dom, consts)
    head = (f"{'t':>3} {'kind':<16} {'L_b':>10} {'l_u':>10} {'l_x':>10} "
            f"{'stages':<22} {'log m':>18} {'log lip':>18} {'log smooth':>18}")
    lines = [f"architecture: {path}", head, "-" * len(head)]
    for t, (layer, (bc, stage_cs), tri) in enumerate(
            zip(chain.layers, consts, trace), start=1):
        lm, ll, ls = tri.logs()
        lines.append(
            f"{t:>3} {layer.kind:<16} {bc.L_b:>10.4g} {bc.l_u:>10.4g} "
            f"{bc.l_x:>10.4g} {_stage_summary(stage_cs):<22} {lm:>18.10g} "
            f"{ll:>18.10g} {ls:>18.10g}")
    lm, ll, ls = trace[-1].logs()
    lines.append(f"final log magnitude  = {_g(lm)}")
    lines.append(f"final log lipschitz  = {_g(ll)}")
    lines.append(f"final log smoothness = {_g(ls)}")
    return "\n".join(lines), ll, ls


def _log_difference(a: float, b: float) -> str:
    """``b - a`` of two log bounds; two equal infinite logs have no difference."""
    if a == b and math.isinf(a):
        return f"undefined (both bounds {'infinite' if a > 0 else 'zero'})"
    return _g(b - a)


def cmd_smoothness(args) -> int:
    text_a, lip_a, smooth_a = _smooth_report(args.arch, args)
    print(text_a)
    if args.compare is not None:
        text_b, lip_b, smooth_b = _smooth_report(args.compare, args)
        print()
        print(text_b)
        print()
        print(f"log lipschitz difference  (b - a) = {_log_difference(lip_a, lip_b)}")
        print(f"log smoothness difference (b - a) = {_log_difference(smooth_a, smooth_b)}")
    return 0


def _refuse_symbolic(code: int) -> int:
    print(f"error: {SymbolicConvPart.refusal}", file=sys.stderr)
    return code


def _central_difference(f, u: ParamVector, d: ParamVector, step: float):
    """``(f(u + eps d) - f(u - eps d)) / (2 eps)`` with ``eps = step (1 + |u|)``."""
    eps = step * (1.0 + u.norm())
    return (f(u + d.scale(eps)) - f(u + d.scale(-eps))) / (2.0 * eps)


def cmd_gradcheck(args) -> int:
    chain, dom, h = parse_arch(args.arch)
    if not chain.numeric:
        return _refuse_symbolic(2)
    rng = np.random.default_rng(args.seed)
    x0 = sample_state(chain.d0, dom.m0, rng)
    u = sample_params(chain.param_dims, dom.radii, rng)
    tape = forward(chain, x0, u)
    worst = 0.0
    print(f"{'block':<18} {'rel error':>14}   status")
    for t, p in enumerate(chain.param_dims):
        if p == 0:
            print(f"layer {t + 1:<12} {'-':>14}   no parameters")
            continue
        blocks = [np.zeros(d) for d in chain.param_dims]
        v = rng.standard_normal(p)
        blocks[t] = v / np.linalg.norm(v)
        d = ParamVector(blocks)
        an = jvp(tape, d)
        fd = _central_difference(lambda w: forward(chain, x0, w).output, u, d, args.step)
        err = float(np.linalg.norm(fd - an) / (1.0 + np.linalg.norm(an)))
        worst = max(worst, err)
        print(f"layer {t + 1:<12} {err:>14.3e}   {'ok' if err <= args.tol else 'FAIL'}")
    _, g = grad_objective(chain, x0, u, h)
    blocks = [rng.standard_normal(d) if d else np.zeros(0) for d in chain.param_dims]
    d = ParamVector(blocks)
    nd = d.norm()
    if nd > 0:
        d = d.scale(1.0 / nd)
    fd = _central_difference(lambda w: h.value(forward(chain, x0, w).output),
                             u, d, args.step)
    an = g.dot(d)
    err = abs(fd - an) / (1.0 + abs(an))
    worst = max(worst, err)
    print(f"{'objective':<18} {err:>14.3e}   {'ok' if err <= args.tol else 'FAIL'}")
    print(f"max relative error = {worst:.3e} (tolerance {args.tol:g})")
    return 0 if worst <= args.tol else 1


def _bench_chain(tau: int, width: int, rng) -> ChainSpec:
    layers = []
    for t in range(tau):
        act = "softplus" if t + 1 < tau else "identity"
        layers.append(fully_connected(1, width, width, activation=act, bias=True))
    return ChainSpec(tuple(layers))


def _time(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def cmd_oracle_bench(args) -> int:
    rng = np.random.default_rng(args.seed)
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    writer = csv.writer(out)
    writer.writerow(["tau", "width", "params", "dp_seconds", "dense_seconds",
                     "gn_dual_seconds", "newton_agree", "gn_agree", "gn_ad_calls"])
    try:
        for tau in args.tau:
            chain = _bench_chain(tau, args.width, rng)
            u = sample_params(chain.param_dims, 1.0, rng)
            x0 = sample_state(chain.d0, 1.0, rng)
            y = rng.standard_normal((1, args.width))
            h = Objective("squared", 1, args.width, y)
            r = ZeroReg()
            tape = forward(chain, x0, u)
            lq_n = build_lq(tape, h, r, "newton", args.kappa)
            lq_g = build_lq(tape, h, r, "gauss-newton", args.kappa)
            t_dp = _time(lambda: solve_newton_dp(build_lq(
                forward(chain, x0, u), h, r, "newton", args.kappa)), args.reps)
            t_dense = _time(lambda: solve_dense_reference(lq_n), args.reps)
            t_gn = _time(lambda: solve_gauss_newton_dual(
                forward(chain, x0, u), h, r, args.kappa), args.reps)
            step_dp = solve_newton_dp(lq_n)
            v_dp = step_dp.v
            # compare on the proximal weight the sweep actually used
            lq_used = replace(lq_n, kappa=step_dp.diagnostics["kappa_used"])
            v_nd = solve_dense_reference(lq_used).v
            step_gd = solve_gauss_newton_dual(forward(chain, x0, u), h, r, args.kappa)
            v_gn = solve_dense_reference(lq_g).v
            agree_n = (v_dp - v_nd).norm() / (1.0 + v_nd.norm())
            agree_g = (step_gd.v - v_gn).norm() / (1.0 + v_gn.norm())
            writer.writerow([tau, args.width, chain.total_params,
                             _g(t_dp), _g(t_dense), _g(t_gn),
                             _g(agree_n), _g(agree_g), step_gd.diagnostics["ad_calls"]])
    finally:
        if args.out:
            out.close()
    return 0


def cmd_train(args) -> int:
    if args.gamma is None and not args.certified:
        print("error: pass --gamma <step> or --certified", file=sys.stderr)
        return 2
    chain, dom, h = parse_arch(args.arch)
    if not chain.numeric:
        return _refuse_symbolic(1)
    if args.batch > h.n:
        print(f"error: --batch {args.batch} exceeds the {h.n} samples of {args.arch}",
              file=sys.stderr)
        return 2
    rng = np.random.default_rng(args.seed)
    x0 = sample_state(chain.d0, dom.m0, rng)
    # Zero parameters are a stationary point of the synthetic objectives,
    # so start somewhere generic inside the domain.
    u0 = sample_params(chain.param_dims, [0.5 * r for r in dom.radii], rng)
    cfg = TrainConfig(dom, budget=args.steps, gamma=args.gamma,
                      batch=args.batch, seed=args.seed, eps=args.eps)
    try:
        if args.batch > 0:
            trace = train_sgd(chain, h, None, x0, cfg, u0=u0)
        else:
            trace = train_pgd(chain, h, None, x0, cfg, u0=u0)
    except (InfeasibleModel, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"step size gamma      = {_g(trace.gamma)}")
    if trace.certified_smooth is not None:
        print(f"certified smoothness = {_g(trace.certified_smooth)}")
    print(f"iterations           = {len(trace)}"
          + (" (stopped early)" if trace.stopped_early else ""))
    print(f"initial objective    = {_g(trace.values[0])}")
    print(f"final objective      = {_g(trace.values[-1])}")
    print(f"final mapping norm   = {_g(trace.mapping_norms[-1])}")
    if trace.variance_proxy is not None:
        print(f"gradient variance    = {_g(trace.variance_proxy)}")
    if args.out:
        trace.to_csv(args.out)
        print(f"trace written to {args.out}")
    return 0


def _checked(convert, test, what):
    """An argparse ``type=`` that converts, then refuses values failing ``test``."""
    def parse(text):
        value = convert(text)
        if not test(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value
    parse.__name__ = convert.__name__  # argparse's "invalid int value" names it
    return parse


_pos_int = _checked(int, lambda v: v > 0, "a positive integer")
_nonneg_int = _checked(int, lambda v: v >= 0, "a nonnegative integer")
_pos_float = _checked(float, lambda v: 0 < v < math.inf, "a positive finite number")
_nonneg_float = _checked(float, lambda v: v >= 0, "a nonnegative number")


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and shared by every ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="chaincert",
        description="Certified smoothness, oracles and training for chained "
                    "bi-affine computations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("smoothness", help="certified constant propagation")
    p.add_argument("arch")
    p.add_argument("--compare", default=None, metavar="ARCH2")
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--input-norm", type=float, default=None)
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--bn-eps", type=float, default=None)
    p.set_defaults(func=cmd_smoothness)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p.add_argument("arch")
    p.add_argument("--seed", type=_nonneg_int, default=0)
    p.add_argument("--step", type=_pos_float, default=1e-6)
    p.add_argument("--tol", type=_nonneg_float, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("oracle-bench", help="second-order oracle benchmark")
    p.add_argument("--tau", type=_pos_int, nargs="+", default=[1, 2, 4, 8])
    p.add_argument("--width", type=_pos_int, default=6)
    p.add_argument("--reps", type=_pos_int, default=3)
    p.add_argument("--kappa", type=_pos_float, default=0.5)
    p.add_argument("--seed", type=_nonneg_int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_oracle_bench)

    p = sub.add_parser("train", help="projected (stochastic) gradient descent")
    p.add_argument("arch")
    p.add_argument("--steps", type=_pos_int, required=True)
    p.add_argument("--gamma", type=_pos_float, default=None)
    p.add_argument("--certified", action="store_true")
    p.add_argument("--batch", type=_nonneg_int, default=0)
    p.add_argument("--seed", type=_nonneg_int, default=0)
    p.add_argument("--eps", type=_nonneg_float, default=0.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_train)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # a usage error (2) or --help (0)
        return exc.code
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
