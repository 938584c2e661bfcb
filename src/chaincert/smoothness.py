"""Certified norm propagation: magnitude, Lipschitz and smoothness bounds.

Every bound here is a sound upper estimate computed layer by layer from the
bi-affine and stage constants, entirely in the log domain so deep stacks
cannot overflow.  Two propagation directions are covered:

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
from .magnitude import LogMag, lm_min
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

_ZERO = LogMag(-math.inf)
_ONE = LogMag(0.0)
_TWO = LogMag(math.log(2.0))


# Constants repeat across layers (3, 1, 0.25, inf, ...), so their logs are
# memoised.  ``LogMag.of`` is pure and a LogMag immutable, so sharing a result
# changes nothing but the time; the bound keeps the memo small.
_log_of = functools.lru_cache(maxsize=1024)(LogMag.of)


def _lm(x) -> LogMag:
    if isinstance(x, LogMag):
        return x
    return _log_of(float(x))


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
    lip = _ZERO
    smo = _ZERO
    trace: List[SmoothTriple] = []
    for (bc, stage_cs), radius in zip(consts, dom.radii):
        R = _lm(radius)
        Lb = _lm(bc.L_b)
        lx = Lb * R + _lm(bc.l_x)
        lu = Lb * m + _lm(bc.l_u)
        m_cur = lx * m + lu * R + _lm(bc.beta0_norm)
        l0 = _ONE
        L_cur = _ZERO
        for sc in stage_cs:
            lip_a = _lm(sc.lip)
            L_a = _lm(sc.smooth)
            # Refined slope serves the composite slope and magnitude lines;
            # the curvature line keeps the global stage slope.
            lt = lm_min(lip_a, _lm(sc.slope0) + L_a * m_cur)
            L_cur = L_cur * lip_a + L_a * l0 * l0
            l0 = lt * l0
            m_cur = lm_min(_lm(sc.m_a), _lm(sc.a0_norm) + lt * m_cur)
        m_new = m_cur
        lip_new = lx * l0 * lip + lu * l0
        smo_new = (smo * lx * l0
                   + lx * lx * L_cur * lip * lip
                   + _TWO * (lu * lx * L_cur + Lb * l0) * lip
                   + lu * lu * L_cur)
        m, lip, smo = m_new, lip_new, smo_new
        trace.append(SmoothTriple(m, lip, smo))
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
    lip = _ONE
    smo = _ZERO
    for (bc, stage_cs), block in zip(consts, u.blocks):
        un = _lm(float(np.linalg.norm(block)))
        l_aff = _lm(bc.L_b) * un + _lm(bc.l_x)
        m_cur = l_aff * m + _lm(bc.beta0_norm) + _lm(bc.l_u) * un
        l_loc = l_aff
        L_loc = _ZERO
        for sc in stage_cs:
            lt = lm_min(_lm(sc.lip), _lm(sc.slope0) + _lm(sc.smooth) * m_cur)
            L_loc = L_loc * lt + _lm(sc.smooth) * l_loc * l_loc
            l_loc = l_loc * lt
            m_cur = lm_min(_lm(sc.m_a), _lm(sc.a0_norm) + lt * m_cur)
        smo = L_loc * lip * lip + smo * l_loc
        lip = lip * l_loc
        m = m_cur
    return SmoothTriple(m, lip, smo)


def generic_recursion(phi_constants: Sequence[Tuple[float, float]]) -> Tuple[LogMag, LogMag]:
    """Chain-level bounds from per-layer joint (lip, smooth) constants.

    Treats each layer as a black-box map that is ``lip``-Lipschitz and
    ``smooth``-smooth jointly in (state, params); returns Lipschitz and
    smoothness bounds of the whole chain in its parameters.
    """
    lip = _ZERO
    smo = _ZERO
    for lp, Lp in phi_constants:
        lphi = _lm(lp)
        Lphi = _lm(Lp)
        one_plus = _ONE + lip
        smo = smo * lphi + Lphi * one_plus * one_plus
        lip = lphi + lip * lphi
    return lip, smo


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


def _slope_reach(psi: SmoothTriple, dom: BoundedDomain, L_h: float) -> LogMag:
    """``L_h lip diam``: how far the loss slope can move over the domain.

    ``diam = 2 sqrt(sum R_t^2)`` is the domain diameter and ``lip`` the
    chain's Lipschitz bound in ``psi``.
    """
    diam = _TWO * _lm(float(np.sqrt(sum(r * r for r in dom.radii))))
    return _lm(L_h) * psi.lip * diam


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
    ell_ref = lm_min(_lm(ell_h), _lm(grad_ref_norm) + _slope_reach(psi, dom, L_h))
    L_F = psi.smooth * ell_ref + psi.lip * psi.lip * _lm(L_h) + _lm(L_r)
    return L_F, ell_ref
