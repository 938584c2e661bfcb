"""Projected (stochastic) gradient descent with certified step sizes.

The step-size policy either takes a user value or derives
``gamma = 1/L_F`` (``1/(2 L_F)`` stochastic) from the smoothness calculus
over the training domain, a product of per-layer parameter balls.  Traces
record objective values, gradient-mapping norms and projection activity.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .autodiff import _backward_samples, _separates_samples, backward, forward
from .chain import ChainSpec, ParamVector
from .errors import DimensionMismatch, InfeasibleModel
from .objectives import Objective, Regularizer, ZeroReg
from .smoothness import (BoundedDomain, _lm, _slope_reach, objective_smoothness,
                         propagate_chain)

__all__ = [
    "TrainConfig",
    "TrainTrace",
    "project_domain",
    "certified_step",
    "train_pgd",
    "train_sgd",
]


@dataclass(eq=False)
class TrainConfig:
    """Loop configuration; ``gamma=None`` selects the certified policy."""

    dom: BoundedDomain
    budget: int
    gamma: Optional[float] = None
    batch: int = 0
    seed: int = 0
    eps: float = 0.0

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("iteration budget must be at least 1")
        if self.gamma is not None and not self.gamma > 0:
            raise ValueError("step size must be positive")
        if self.batch < 0:
            raise ValueError("batch size must be nonnegative")
        if not self.eps >= 0:
            raise ValueError("stopping tolerance must be nonnegative")


@dataclass(eq=False)
class TrainTrace:
    """Per-step record of one training run.

    ``values`` and ``mapping_norms`` are the objective and the
    gradient-mapping norm at each iterate before its step; ``proj_active``
    whether the step left the domain.  ``certified_smooth`` is the certified
    ``L_F`` when the step size came from it.  For SGD, ``variance_proxy`` is
    the exact expected squared deviation ``E||g_B - g||^2`` of the minibatch
    gradient from the full gradient at ``final_u``; None for PGD.
    """

    values: List[float] = field(default_factory=list)
    mapping_norms: List[float] = field(default_factory=list)
    proj_active: List[bool] = field(default_factory=list)
    gamma: float = 0.0
    certified_smooth: Optional[float] = None
    variance_proxy: Optional[float] = None
    stopped_early: bool = False
    final_u: Optional[ParamVector] = None

    def __len__(self) -> int:
        return len(self.values)

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["iter", "value", "mapping_norm"])
            for i, (v, m) in enumerate(zip(self.values, self.mapping_norms)):
                wr.writerow([i, f"{v:.12g}", f"{m:.12g}"])


def project_domain(u: ParamVector, dom: BoundedDomain) -> ParamVector:
    """Blockwise radial projection onto the per-layer balls."""
    if len(dom.radii) != len(u.blocks):
        raise DimensionMismatch(f"{len(dom.radii)} radii for {len(u.blocks)} blocks")
    out = []
    for b, r in zip(u.blocks, dom.radii):
        n = float(np.linalg.norm(b))
        out.append(b * min(1.0, r / n) if n > 0 else b.copy())
    return ParamVector(out)


def certified_step(chain: ChainSpec, h: Objective, r: Optional[Regularizer],
                   x0, dom: BoundedDomain):
    """Smoothness-certified step size over the domain.

    Returns ``(gamma, L_F)`` with ``gamma = 1/L_F``.  Refuses chains whose
    certified bound is infinite (piecewise-linear pieces); those need an
    explicit step size or smooth activations.
    """
    r = r if r is not None else ZeroReg()
    x0 = np.asarray(x0, dtype=float)
    if float(np.linalg.norm(x0)) > dom.m0 * (1.0 + 1e-9):
        raise ValueError("input norm exceeds the domain magnitude bound")
    psi = propagate_chain(chain, dom)
    rho_out = psi.m.value
    ell_h = h.lip_bound(rho_out)
    L_h = h.smooth_bound()
    # The refined slope is min(ell_h, |grad h(f(x0, 0))| + reach).  A LogMag
    # sum is never below its larger operand, so once ell_h <= reach the
    # reference gradient cannot win the min and its forward pass is skipped;
    # inf stands in for it and the bound is ell_h, bitwise.
    if _lm(ell_h) <= _slope_reach(psi, dom, L_h):
        grad_ref = math.inf
    else:
        tape = forward(chain, x0, ParamVector.zeros(chain.param_dims))
        grad_ref = float(np.linalg.norm(h.value_grad(tape.output)[1]))
    L_F, _ = objective_smoothness(psi, dom, ell_h, L_h, grad_ref, r.smooth)
    Lf = L_F.value
    if not np.isfinite(Lf) or Lf <= 0:
        raise InfeasibleModel(
            "certified smoothness bound is not finite; use smooth stages "
            "(softplus, sigmoid, averaging pools) or pass an explicit step size")
    return 1.0 / Lf, Lf


def _loop(chain, h, r, x0, cfg, u0, gamma, certified, cotangent):
    """Projected steps; ``cotangent(tape, gh)`` picks what the one backward
    sweep per step pulls back: the full loss gradient ``gh`` or an estimate."""
    trace = TrainTrace(gamma=gamma, certified_smooth=certified)
    u = project_domain(u0, cfg.dom)
    for _ in range(cfg.budget):
        tape = forward(chain, x0, u)
        val_h, gh = h.value_grad(tape.output)
        val = float(val_h + r.value(u))
        g = backward(tape, cotangent(tape, gh)) + r.grad(u)
        raw = u + g.scale(-gamma)
        u_next = project_domain(raw, cfg.dom)
        active = any(rn > rad for rn, rad in zip(raw.block_norms(), cfg.dom.radii))
        mapping = (u - u_next).norm() / gamma
        trace.values.append(val)
        trace.mapping_norms.append(mapping)
        trace.proj_active.append(active)
        u = u_next
        if mapping <= cfg.eps:
            trace.stopped_early = True
            break
    trace.final_u = u
    return trace


def train_pgd(chain: ChainSpec, h: Objective, r: Optional[Regularizer],
              x0, cfg: TrainConfig, u0: Optional[ParamVector] = None) -> TrainTrace:
    """Full-batch projected gradient descent.

    With the certified policy the objective value is nonincreasing along
    the trace; stops early when the gradient-mapping norm reaches
    ``cfg.eps``.
    """
    r = r if r is not None else ZeroReg()
    if cfg.gamma is not None:
        gamma, cert = cfg.gamma, None
    else:
        gamma, cert = certified_step(chain, h, r, x0, cfg.dom)
    u0 = u0 if u0 is not None else ParamVector.zeros(chain.param_dims)
    return _loop(chain, h, r, x0, cfg, u0, gamma, cert, lambda tape, gh: gh)


def _sample_spread(chain: ChainSpec, h: Objective, tape) -> float:
    """``sum_s ||G_s - mean G||^2`` over the samples' loss gradients.

    G_s is sample s's unnormalised loss gradient pulled back to the
    parameters, ``backward(tape, h.grad_minibatch(y, [s]))``.  The squared
    norm splits over parameter blocks, so when no layer mixes the samples one
    sweep that keeps the batch axis reduces each layer's (n, p_t) rows as it
    goes.  A chain that couples the batch (batch norm) takes the definition,
    n sweeps, accumulated one sample at a time (Welford).  Neither path holds
    all n gradients at once.
    """
    n = h.n
    if chain.batch == n and _separates_samples(chain):
        spread = 0.0
        for rows in _backward_samples(tape, h.value_grad(tape.output)[1]):
            rows -= rows.mean(axis=0)
            spread += float(np.vdot(rows, rows))
        return n * n * spread  # the full loss gradient is the mean of the G_s
    mean, spread = np.zeros(chain.total_params), 0.0
    for s in range(n):
        g = backward(tape, h.grad_minibatch(tape.output, [s])).flat()
        delta = g - mean
        mean += delta / (s + 1)
        spread += float(np.dot(delta, g - mean))
    return spread


def _minibatch_variance(chain: ChainSpec, h: Objective, x0, u: ParamVector,
                        batch: int) -> float:
    """Exact ``E||g_B - g||^2`` of the b-of-n without-replacement estimator at ``u``.

    ``(n - b) / (b (n - 1)) * (1/n) sum_s ||G_s - mean G||^2``; a regularizer
    adds the same term to both gradients and cancels.  0 when b = n.
    """
    n = h.n
    if batch == n:
        return 0.0
    spread = _sample_spread(chain, h, forward(chain, x0, u))
    return (n - batch) / (batch * (n - 1)) * spread / n


def train_sgd(chain: ChainSpec, h: Objective, r: Optional[Regularizer],
              x0, cfg: TrainConfig, u0: Optional[ParamVector] = None) -> TrainTrace:
    """Projected SGD with uniform mini-batches of a decomposable objective.

    The estimator averages per-sample loss gradients over a uniformly
    sampled batch (without replacement), which is unbiased for the
    full-batch gradient; the certified policy halves the certified step.
    The trace's ``variance_proxy`` is that estimator's exact expected
    squared deviation from the full gradient at the final point.  It costs
    one forward and one reverse sweep when no layer mixes the samples, and
    n sweeps on a chain that couples the batch (batch norm).
    """
    r = r if r is not None else ZeroReg()
    if not h.decomposable:
        raise ValueError("stochastic training needs a per-sample decomposable objective")
    n = h.n
    batch = cfg.batch if cfg.batch > 0 else n
    if batch > n:
        raise ValueError(f"batch size {batch} exceeds sample count {n}")
    if cfg.gamma is not None:
        gamma, cert = cfg.gamma, None
    else:
        g_full, L_f = certified_step(chain, h, r, x0, cfg.dom)
        gamma, cert = g_full / 2.0, L_f
    rng = np.random.default_rng(cfg.seed)

    def minibatch(tape, gh):
        return h.grad_minibatch(tape.output, rng.choice(n, size=batch, replace=False))

    u0 = u0 if u0 is not None else ParamVector.zeros(chain.param_dims)
    trace = _loop(chain, h, r, x0, cfg, u0, gamma, cert, minibatch)
    trace.variance_proxy = _minibatch_variance(chain, h, x0, trace.final_u, batch)
    return trace
