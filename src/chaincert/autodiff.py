"""Reverse- and forward-mode differentiation over a recorded chain pass.

``forward`` records every intermediate state plus the stage linearisations;
``backward`` and ``jvp`` replay the record.  All three honestly meter scalar
adds/multiplies through an ``OpCounter`` (one unit per nonzero of an applied
stored operator, one per scalar nonlinearity evaluation), which is what the
closed-form cost predictions are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .chain import ChainSpec, ParamVector
from .errors import DimensionMismatch, NumericError
from .layers import LayerDescriptor

__all__ = [
    "OpCounter",
    "Tape",
    "forward",
    "backward",
    "jvp",
    "grad_objective",
    "LayerSparsity",
    "layer_sparsity",
    "backward_formula",
    "OpCount",
    "count_backward_cost",
]


class OpCounter:
    """Accumulates scalar operation units."""

    __slots__ = ("total",)

    def __init__(self):
        self.total = 0

    def add(self, n: int) -> None:
        self.total += int(n)

    def __repr__(self) -> str:
        return f"OpCounter({self.total})"


class Tape:
    """One recorded forward pass.

    ``states[t]`` is the input to layer ``t`` (``states[tau]`` the final
    output); ``stage_lins[t]`` the layer's stage linearisations.
    ``ad_calls`` counts completed ``backward``/``jvp`` sweeps on this tape.
    """

    def __init__(self, chain: ChainSpec, x0: np.ndarray, u: ParamVector,
                 states, stage_lins, forward_ops: int):
        self.chain = chain
        self.x0 = x0
        self.u = u
        self.states = states
        self.stage_lins = stage_lins
        self.forward_ops = forward_ops
        self.ad_calls = 0

    @property
    def output(self) -> np.ndarray:
        return self.states[-1]


def forward(chain: ChainSpec, x0, u: ParamVector, counter: Optional[OpCounter] = None) -> Tape:
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (chain.d0,):
        raise DimensionMismatch(f"input shape {x0.shape}, chain expects ({chain.d0},)")
    if u.dims != chain.param_dims:
        raise DimensionMismatch(
            f"parameter dims {u.dims} do not match chain {chain.param_dims}")
    own = counter if counter is not None else OpCounter()
    start = own.total
    states = [x0]
    stage_lins = []
    x = x0
    for t, layer in enumerate(chain.layers):
        z = layer.part.value(x, u.blocks[t], own)
        lins = []
        for st in layer.stages:
            lins.append(st.linearize(z))
            z = st.value(z, own)
        if not np.all(np.isfinite(z)):
            raise NumericError(f"non-finite state after layer {t} ({layer.kind})")
        states.append(z)
        stage_lins.append(lins)
        x = z
    return Tape(chain, x0, u, states, stage_lins, own.total - start)


def _first_non_finite(per_layer) -> int:
    """Index of the first layer, in sweep order, whose array is non-finite.

    The sweeps test their whole result once and scan only when that fails.
    """
    return next(t for t, arr in per_layer if not np.isfinite(arr).all())


def backward(tape: Tape, mu, counter: Optional[OpCounter] = None) -> ParamVector:
    """Transposed chain Jacobian applied to an output cotangent ``mu``.

    Returns the parameter gradient blocks; one reverse sweep, every layer's
    stage pullback shared between its state and parameter halves.  A
    non-finite adjoint raises ``NumericError`` naming its layer.
    """
    chain = tape.chain
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (chain.d_out,):
        raise DimensionMismatch(f"cotangent shape {mu.shape}, expected ({chain.d_out},)")
    lam = mu
    grads = [None] * chain.tau
    for t in range(chain.tau - 1, -1, -1):
        layer = chain.layers[t]
        w = lam
        for lin in reversed(tape.stage_lins[t]):
            w = lin.vjp(w, counter)
        x_prev = tape.states[t]
        grads[t] = layer.part.vjp_u(x_prev, w, counter)
        lam = layer.part.vjp_x(tape.u.blocks[t], w, counter)
    if not np.isfinite(np.concatenate(grads)).all():
        t = _first_non_finite(reversed(list(enumerate(grads))))
        raise NumericError(f"non-finite adjoint at layer {t} ({chain.layers[t].kind})")
    tape.ad_calls += 1
    return ParamVector(grads)


def jvp(tape: Tape, du: ParamVector, dx0=None, counter: Optional[OpCounter] = None) -> np.ndarray:
    """Directional derivative of the chain output along ``(dx0, du)``.

    A non-finite tangent raises ``NumericError`` naming its layer.
    """
    chain = tape.chain
    if du.dims != chain.param_dims:
        raise DimensionMismatch(
            f"direction dims {du.dims} do not match chain {chain.param_dims}")
    dx = np.zeros(chain.d0) if dx0 is None else np.asarray(dx0, dtype=float)
    if dx.shape != (chain.d0,):
        raise DimensionMismatch(f"input direction shape {dx.shape}, expected ({chain.d0},)")
    tangents = []
    for t, layer in enumerate(chain.layers):
        dz = layer.part.jvp(tape.states[t], tape.u.blocks[t], dx, du.blocks[t], counter)
        for lin in tape.stage_lins[t]:
            dz = lin.jvp(dz, counter)
        tangents.append(dz)
        dx = dz
    if not np.isfinite(dx).all():
        t = _first_non_finite(enumerate(tangents))
        raise NumericError(f"non-finite tangent after layer {t} ({chain.layers[t].kind})")
    tape.ad_calls += 1
    return dx


def grad_objective(chain: ChainSpec, x0, u: ParamVector, h):
    """Value and parameter gradient of ``h(chain(x0, u))``.

    ``h`` exposes ``value_grad(y) -> (float, ndarray)``.
    """
    tape = forward(chain, x0, u)
    val, g = h.value_grad(tape.output)
    return float(val), backward(tape, g)


# cost accounting ----------------------------------------------------------

@dataclass(frozen=True)
class LayerSparsity:
    """Stored-nonzero figures of one layer."""

    kind: str
    s_beta: int
    s_beta_u: int
    s_beta_x: int
    s_beta0: int
    s_a: int

    @property
    def backward_units(self) -> int:
        return self.s_a + 2 * self.s_beta + self.s_beta_u + self.s_beta_x


def layer_sparsity(layer: LayerDescriptor) -> LayerSparsity:
    part = layer.part
    return LayerSparsity(
        kind=layer.kind,
        s_beta=part.s_beta,
        s_beta_u=part.s_beta_u,
        s_beta_x=part.s_beta_x,
        s_beta0=part.s_beta0,
        s_a=sum(st.grad_sparsity() for st in layer.stages),
    )


def backward_formula(chain: ChainSpec) -> int:
    """Closed-form unit count of one reverse sweep over catalogue layers."""
    return sum(layer_sparsity(l).backward_units for l in chain.layers)


@dataclass(frozen=True)
class OpCount:
    """Measured and predicted operation counts for one chain."""

    forward: int
    backward: int
    backward_predicted: int
    per_layer: tuple
    fc_figure: Optional[int]

    @property
    def exact(self) -> bool:
        return self.backward == self.backward_predicted


def count_backward_cost(chain: ChainSpec, x0=None, u: Optional[ParamVector] = None,
                        seed: int = 0) -> OpCount:
    """Run one metered forward/backward pass and compare with the formula.

    The chain must be numerically evaluable.  The formula counts applied
    stored operators only; layers with extra routing additions (skip
    connections) will measure above it.  ``fc_figure`` reports
    ``sum 2 m d_t (d_{t-1} + 1)`` over fully-connected layers, the familiar
    dense backpropagation figure, or None when no such layer exists.
    """
    rng = np.random.default_rng(seed)
    if x0 is None:
        x0 = rng.standard_normal(chain.d0)
        n = np.linalg.norm(x0)
        if n > 0:
            x0 = x0 / n
    if u is None:
        u = ParamVector([rng.standard_normal(p) for p in chain.param_dims])
    cf = OpCounter()
    tape = forward(chain, x0, u, cf)
    mu = rng.standard_normal(chain.d_out)
    nm = np.linalg.norm(mu)
    if nm > 0:
        mu = mu / nm
    cb = OpCounter()
    backward(tape, mu, cb)
    per_layer = tuple(layer_sparsity(l) for l in chain.layers)
    fc_terms = [2 * l.batch * l.hyper["out_features"] * (l.hyper["in_features"] + 1)
                for l in chain.layers if l.kind == "fully-connected"]
    return OpCount(
        forward=cf.total,
        backward=cb.total,
        backward_predicted=backward_formula(chain),
        per_layer=per_layer,
        fc_figure=sum(fc_terms) if fc_terms else None,
    )
