"""Certified norm propagation: magnitude, Lipschitz and smoothness bounds.

Every bound here is a sound upper estimate computed layer by layer from the
bi-affine and stage constants, entirely in the log domain so deep stacks
cannot overflow.  The recursions run on raw float logs through
``magnitude.log_mul`` and ``log_add`` and box only their results.  Two
propagation directions are covered:

* ``propagate_chain``  bounds the chain as a function of its parameters,
  over a product of per-layer parameter balls;
* ``input_smoothness`` bounds the chain as a function of its input at
  frozen parameters, over an input ball.

Each bi-affine part and each stage owns its constants; ``catalog_constants``
collects them per layer, and every routine here also accepts any
user-supplied list with the same shape.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .biaffine import BiAffineConstants
from .chain import ChainSpec, ParamVector
from .errors import DimensionMismatch
from .layers import LayerDescriptor
from .magnitude import LogMag, _make, log_add as _add, log_mul as _mul
from .stages import StageConstants

__all__ = [
    "SmoothTriple",
    "BoundedDomain",
    "catalog_constants",
    "refine_on_ball",
    "propagate_layers",
    "propagate_chain",
    "input_smoothness",
    "generic_recursion",
    "recenter_domain",
    "objective_smoothness",
]


# Constants repeat across layers (3, 1, 0.25, inf, ...), so their logs are
# memoised.  ``LogMag.of`` is pure, so sharing a result changes nothing but
# the time; the bound keeps the memo small.
_log_of = functools.lru_cache(maxsize=1024)(lambda v: LogMag.of(v).lg)


def _lm(x) -> float:
    if isinstance(x, LogMag):
        return x.lg
    return _log_of(float(x))


# The logs of 0, 1 and 2.  No log here is NaN, so the recursions take the
# builtin ``min``, which picks as ``lm_min`` does, ties included.
_ZERO, _ONE, _TWO = _lm(0.0), _lm(1.0), _lm(2.0)


@dataclass(frozen=True)
class SmoothTriple:
    """Magnitude, Lipschitz and smoothness bounds, stored in log scale."""

    m: LogMag
    lip: LogMag
    smooth: LogMag

    def as_floats(self) -> Tuple[float, float, float]:
        return self.m.value, self.lip.value, self.smooth.value

    def logs(self) -> Tuple[float, float, float]:
        return self.m.lg, self.lip.lg, self.smooth.lg


@dataclass(frozen=True)
class BoundedDomain:
    """Per-layer parameter radii and the input magnitude bound."""

    radii: tuple
    m0: float

    def __post_init__(self):
        # written so that NaN, which fails every comparison, is refused too
        if not all(r > 0 for r in self.radii):
            raise ValueError("all radii must be positive")
        if not self.m0 >= 0:
            raise ValueError("input magnitude bound must be nonnegative")

    @classmethod
    def uniform(cls, tau: int, radius: float, m0: float) -> "BoundedDomain":
        return cls(tuple(float(radius) for _ in range(tau)), float(m0))


LayerConstants = Tuple[BiAffineConstants, Tuple[StageConstants, ...]]


def catalog_constants(layer: LayerDescriptor) -> LayerConstants:
    """Norm constants of one layer: its part's, then each stage's.

    The part and the stages own their constants; this only collects them
    in the shape the propagation routines take.  A fully-connected or conv
    part without bias has ``beta_u = 0``, so its ``l_u`` is exactly 0.
    """
    return layer.part.constants(), tuple(st.constants() for st in layer.stages)


def refine_on_ball(R: float, lip: float, smooth: float, slope0: float,
                   val0: float, m_bound: float = math.inf) -> Tuple[float, float]:
    """Tighten Lipschitz and magnitude bounds to a centred ball of radius R.

    Returns ``(lip_R, m_R)``: the slope bound
    ``min(lip, slope0 + R * smooth)`` and the magnitude bound
    ``min(m_bound, val0 + R * lip_R)``.
    """
    if not R >= 0:
        raise ValueError("radius must be nonnegative")
    lip_r = min(lip, slope0 + R * smooth)
    m_r = min(m_bound, val0 + R * lip_r)
    return lip_r, m_r


def _resolve_constants(chain: ChainSpec, constants) -> List[LayerConstants]:
    if constants is None:
        return [catalog_constants(l) for l in chain.layers]
    constants = list(constants)
    if len(constants) != chain.tau:
        raise DimensionMismatch(
            f"{len(constants)} constant entries for {chain.tau} layers")
    return constants


def propagate_layers(chain: ChainSpec, dom: BoundedDomain,
                     constants: Optional[Sequence[LayerConstants]] = None) -> List[SmoothTriple]:
    """Running (magnitude, Lipschitz, smoothness) bounds after each layer.

    Same recursion as ``propagate_chain`` but reporting every prefix; the
    last entry equals the full-chain result.
    """
    consts = _resolve_constants(chain, constants)
    if len(dom.radii) != chain.tau:
        raise DimensionMismatch(f"{len(dom.radii)} radii for {chain.tau} layers")

    m = _lm(dom.m0)
    lip = smo = _ZERO
    trace: List[SmoothTriple] = []
    for (bc, stage_cs), radius in zip(consts, dom.radii):
        R = _lm(radius)
        Lb = _lm(bc.L_b)
        lx = _add(_mul(Lb, R), _lm(bc.l_x))
        lu = _add(_mul(Lb, m), _lm(bc.l_u))
        m_cur = _add(_add(_mul(lx, m), _mul(lu, R)), _lm(bc.beta0_norm))
        l0, L_cur = _ONE, _ZERO
        for sc in stage_cs:
            lip_a = _lm(sc.lip)
            L_a = _lm(sc.smooth)
            # Refined slope serves the composite slope and magnitude lines;
            # the curvature line keeps the global stage slope.
            lt = min(lip_a, _add(_lm(sc.slope0), _mul(L_a, m_cur)))
            L_cur = _add(_mul(L_cur, lip_a), _mul(_mul(L_a, l0), l0))
            l0 = _mul(lt, l0)
            m_cur = min(_lm(sc.m_a), _add(_lm(sc.a0_norm), _mul(lt, m_cur)))
        # smo lx l0 + lx^2 L lip^2 + 2 (lu lx L + Lb l0) lip + lu^2 L, left to right
        smo = _add(_add(_add(_mul(_mul(smo, lx), l0),
                             _mul(_mul(_mul(_mul(lx, lx), L_cur), lip), lip)),
                        _mul(_mul(_TWO, _add(_mul(_mul(lu, lx), L_cur), _mul(Lb, l0))), lip)),
                   _mul(_mul(lu, lu), L_cur))
        lip = _add(_mul(_mul(lx, l0), lip), _mul(lu, l0))
        m = m_cur
        trace.append(SmoothTriple(_make(m), _make(lip), _make(smo)))
    return trace


def propagate_chain(chain: ChainSpec, dom: BoundedDomain,
                    constants: Optional[Sequence[LayerConstants]] = None) -> SmoothTriple:
    """Parameter-space bounds for the whole chain over a bounded domain.

    Returns a magnitude bound on the final state, and Lipschitz/smoothness
    bounds of the map ``u -> f(x0, u)`` over the product of parameter balls,
    valid for every input with norm at most ``dom.m0``.  Per layer, the
    bi-affine map contributes exact affine bounds on the current ball and
    each stage is composed through its local slope and curvature; the outer
    recursion then combines the layer's state and parameter sensitivities
    with those accumulated so far.
    """
    return propagate_layers(chain, dom, constants)[-1]


def input_smoothness(chain: ChainSpec, u: ParamVector, R: float,
                     constants: Optional[Sequence[LayerConstants]] = None) -> SmoothTriple:
    """Input-space bounds at frozen parameters over the ball ``|x0| <= R``.

    Returns magnitude, Lipschitz and smoothness bounds of ``x0 -> f(x0, u)``.
    Each layer's map is affine-through-``b`` (slope exactly bounded by
    ``L_b |u_t| + l_x``), composed with its stages using ball-refined stage
    slopes; layer bounds then chain by composition.
    """
    if not R >= 0:
        raise ValueError("radius must be nonnegative")
    consts = _resolve_constants(chain, constants)
    if u.dims != chain.param_dims:
        raise DimensionMismatch(
            f"parameter dims {u.dims} do not match chain {chain.param_dims}")

    m = _lm(R)
    lip, smo = _ONE, _ZERO
    for (bc, stage_cs), block in zip(consts, u.blocks):
        un = _lm(float(np.linalg.norm(block)))
        l_aff = _add(_mul(_lm(bc.L_b), un), _lm(bc.l_x))
        m_cur = _add(_add(_mul(l_aff, m), _lm(bc.beta0_norm)), _mul(_lm(bc.l_u), un))
        l_loc, L_loc = l_aff, _ZERO
        for sc in stage_cs:
            lt = min(_lm(sc.lip), _add(_lm(sc.slope0), _mul(_lm(sc.smooth), m_cur)))
            L_loc = _add(_mul(L_loc, lt), _mul(_mul(_lm(sc.smooth), l_loc), l_loc))
            l_loc = _mul(l_loc, lt)
            m_cur = min(_lm(sc.m_a), _add(_lm(sc.a0_norm), _mul(lt, m_cur)))
        smo = _add(_mul(_mul(L_loc, lip), lip), _mul(smo, l_loc))
        lip = _mul(lip, l_loc)
        m = m_cur
    return SmoothTriple(_make(m), _make(lip), _make(smo))


def generic_recursion(phi_constants: Sequence[Tuple[float, float]]) -> Tuple[LogMag, LogMag]:
    """Chain-level bounds from per-layer joint (lip, smooth) constants.

    Treats each layer as a black-box map that is ``lip``-Lipschitz and
    ``smooth``-smooth jointly in (state, params); returns Lipschitz and
    smoothness bounds of the whole chain in its parameters.
    """
    lip = smo = _ZERO
    for lp, Lp in phi_constants:
        lphi, Lphi = _lm(lp), _lm(Lp)
        one_plus = _add(_ONE, lip)
        smo = _add(_mul(smo, lphi), _mul(_mul(Lphi, one_plus), one_plus))
        lip = _add(lphi, _mul(lip, lphi))
    return _make(lip), _make(smo)


def recenter_domain(constants: Sequence[LayerConstants],
                    u_star: ParamVector) -> List[LayerConstants]:
    """Shift the parameter domain to balls centred at ``u_star``.

    Substituting ``u = u* + v`` folds the bilinear cross term into the
    state-affine piece and the parameter-affine value at ``u*`` into the
    offsets; the bilinear and parameter-affine constants are unchanged.
    Pair the result with the new centred radii when propagating.
    """
    out = []
    for (bc, stage_cs), block in zip(constants, u_star.blocks):
        un = float(np.linalg.norm(block))
        shifted = BiAffineConstants(
            L_b=bc.L_b,
            l_u=bc.l_u,
            l_x=bc.l_x + bc.L_b * un,
            beta0_norm=bc.beta0_norm + bc.l_u * un,
        )
        out.append((shifted, stage_cs))
    return out


def _slope_reach(psi: SmoothTriple, dom: BoundedDomain, L_h: float) -> float:
    """The log of ``L_h lip diam``: how far the loss slope can move over the domain.

    ``diam = 2 sqrt(sum R_t^2)`` is the domain diameter and ``lip`` the
    chain's Lipschitz bound in ``psi``.
    """
    diam = _mul(_TWO, _lm(float(np.sqrt(sum(r * r for r in dom.radii)))))
    return _mul(_mul(_lm(L_h), psi.lip.lg), diam)


def objective_smoothness(psi: SmoothTriple, dom: BoundedDomain, ell_h: float,
                         L_h: float, grad_ref_norm: float,
                         L_r: float = 0.0) -> Tuple[LogMag, LogMag]:
    """Smoothness bound of ``F(u) = h(f(x0, u)) + r(u)`` on the domain.

    ``psi`` holds the chain's parameter-space bounds, ``grad_ref_norm`` is
    ``|grad h|`` evaluated at the chain output for one reference parameter
    point in the domain, or ``inf`` when none was evaluated.  The loss slope
    is first tightened to ``min(ell_h, grad_ref_norm + L_h lip diam)``
    (:func:`_slope_reach`); returns ``(L_F, ell_h_refined)``.
    """
    ell_ref = min(_lm(ell_h), _add(_lm(grad_ref_norm), _slope_reach(psi, dom, L_h)))
    lip = psi.lip.lg
    L_F = _add(_add(_mul(psi.smooth.lg, ell_ref), _mul(_mul(lip, lip), _lm(L_h))), _lm(L_r))
    return _make(L_F), _make(ell_ref)
