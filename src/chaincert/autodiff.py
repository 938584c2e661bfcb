"""Reverse- and forward-mode differentiation over a recorded chain pass.

``forward`` records every intermediate state plus the part and stage
linearisations; ``backward`` and ``jvp`` replay the record.  All three
honestly meter scalar adds/multiplies through an ``OpCounter`` (one unit per
nonzero of an applied stored operator, one per scalar nonlinearity
evaluation), which is what the closed-form cost predictions are checked
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .biaffine import IdentityPart, ResidualPart
from .chain import ChainSpec, ParamVector
from .errors import DimensionMismatch, NumericError
from .layers import LayerDescriptor
from .stages import (AvgPoolStage, BlockStage, ElementwiseStage, MaxPoolStage,
                     SoftmaxStage)

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
    """One recorded forward pass at parameters ``u``.

    ``states[t]`` is the input to layer ``t`` (``states[0]`` the chain input,
    ``states[tau]`` the final output); ``part_lins[t]`` the layer's part
    linearisation (``BiAffinePart.linearize``) at ``(states[t], u.blocks[t])``
    and ``stage_lins[t]`` its stage linearisations.  The sweeps call them
    without checking shapes again: ``forward`` checked every state and
    parameter block once, and ``backward``/``jvp`` check their own arguments
    at entry.  ``ad_calls`` counts completed ``backward``/``jvp`` sweeps on
    this tape.
    """

    def __init__(self, chain: ChainSpec, u: ParamVector, states, part_lins, stage_lins):
        self.chain = chain
        self.u = u
        self.states = states
        self.part_lins = part_lins
        self.stage_lins = stage_lins
        self.ad_calls = 0

    @property
    def output(self) -> np.ndarray:
        return self.states[-1]


def forward(chain: ChainSpec, x0, u: ParamVector, counter: Optional[OpCounter] = None) -> Tape:
    """Evaluate the chain at ``(x0, u)`` and record a ``Tape`` for the sweeps.

    Each layer is linearised once, at its input and parameter block, and
    evaluated through that linearisation; the tape keeps it next to the
    stage linearisations.  Operation units are charged to ``counter`` when
    one is given.  A non-finite state raises ``NumericError`` naming its
    layer.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (chain.d0,):
        raise DimensionMismatch(f"input shape {x0.shape}, chain expects ({chain.d0},)")
    if u.dims != chain.param_dims:
        raise DimensionMismatch(
            f"parameter dims {u.dims} do not match chain {chain.param_dims}")
    states = [x0]
    part_lins, stage_lins = [], []
    x = x0
    for t, layer in enumerate(chain.layers):
        lin = layer.part.linearize(x, u.blocks[t])
        z = lin.value(counter)
        part_lins.append(lin)
        lins = []
        for st in layer.stages:
            lins.append(st.linearize(z))
            z = st.value(z, counter)
        if not np.isfinite(z).all():
            raise NumericError(f"non-finite state after layer {t} ({layer.kind})")
        states.append(z)
        stage_lins.append(lins)
        x = z
    return Tape(chain, u, states, part_lins, stage_lins)


def _first_non_finite(per_layer) -> int:
    """Index of the first non-finite layer array in sweep order, once a whole-result test fails."""
    return next(t for t, arr in per_layer if not np.isfinite(arr).all())


def _reverse_sweep(tape: Tape, mu, adjoint, counter: Optional[OpCounter]):
    """Yield ``(t, adjoint(lin_t, w_t, counter))``, last layer first.

    ``lin_t`` is the layer's part linearisation and ``w_t`` the cotangent at
    the part's output.  The consumers check finiteness and count
    ``tape.ad_calls``: a check per layer in this loop made ``backward``
    10-20% slower on the fc-oracles chain (2 cores).
    """
    chain = tape.chain
    lam = np.asarray(mu, dtype=float)
    if lam.shape != (chain.d_out,):
        raise DimensionMismatch(f"cotangent shape {lam.shape}, expected ({chain.d_out},)")
    for t in range(chain.tau - 1, -1, -1):
        lin = tape.part_lins[t]
        w = lam
        for slin in reversed(tape.stage_lins[t]):
            w = slin.vjp(w, counter)
        yield t, adjoint(lin, w, counter)
        lam = lin.vjp_x(w, counter)


def backward(tape: Tape, mu, counter: Optional[OpCounter] = None) -> ParamVector:
    """Transposed chain Jacobian applied to an output cotangent ``mu``.

    Returns the parameter gradient blocks; one reverse sweep, every layer's
    stage pullback shared between its state and parameter halves.  A
    non-finite adjoint raises ``NumericError`` naming its layer.
    """
    chain = tape.chain
    sweep = _reverse_sweep(tape, mu, lambda lin, w, c: lin.vjp_u(w, c), counter)
    grads = [g for _, g in sweep][::-1]
    if not np.isfinite(np.concatenate(grads)).all():
        t = _first_non_finite(reversed(list(enumerate(grads))))
        raise NumericError(f"non-finite adjoint at layer {t} ({chain.layers[t].kind})")
    tape.ad_calls += 1
    return ParamVector(grads)


def _separates_samples(chain: ChainSpec) -> bool:
    """Whether no layer mixes the chain's samples.

    Then the reverse sweep is block-diagonal over the batch, and one sweep
    that keeps the batch axis holds every sample's parameter adjoint.  Batch
    norm couples the batch; a part other than the parameter-free identity
    without ``vjp_u_samples``, or a stage not listed here, counts as coupling
    it (a dense part mixes samples even without parameters).
    """
    m = chain.batch

    def part_ok(part):
        while isinstance(part, ResidualPart):
            if part.m != m:
                return False
            part = part.inner
        return isinstance(part, IdentityPart) or (
            hasattr(part, "vjp_u_samples") and part.m == m)

    def stage_ok(st):
        while isinstance(st, BlockStage):
            if st.batch != m:
                return False
            st = st.inner
        return isinstance(st, ElementwiseStage) or (
            isinstance(st, (SoftmaxStage, AvgPoolStage, MaxPoolStage)) and st.batch == m)

    return all(part_ok(l.part) and all(stage_ok(st) for st in l.stages)
               for l in chain.layers)


def _backward_samples(tape: Tape, mu, counter: Optional[OpCounter] = None):
    """``backward(tape, mu)`` split by sample, one layer at a time.

    The sweep of ``backward``, charged the same units, with each part's
    ``vjp_u_samples`` in place of its ``vjp_u``.  Yields each layer's
    (batch, p_t) rows, last layer first: row s is the parameter adjoint of
    sample s's slice of ``mu``, and the rows sum to layer t's block of
    ``backward(tape, mu)``.  Each block is a fresh array, so a consumer may
    reduce it in place before the next and hold one layer's rows, never the
    whole (batch, total_params) array.
    Valid only where ``_separates_samples(tape.chain)``.
    """
    chain = tape.chain

    def rows(lin, w, c):  # a part without parameters is the identity, bare or wrapped
        return lin.vjp_u_samples(w, c) if lin.part.p else np.zeros((chain.batch, 0))

    for t, r in _reverse_sweep(tape, mu, rows, counter):
        if not np.isfinite(r).all():
            raise NumericError(f"non-finite adjoint at layer {t} ({chain.layers[t].kind})")
        yield r
    tape.ad_calls += 1


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
    for t in range(chain.tau):
        dz = tape.part_lins[t].jvp(dx, du.blocks[t], counter)
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
