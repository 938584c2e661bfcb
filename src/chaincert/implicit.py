"""Maps defined as minimizers of strongly convex inner problems.

``g(alpha) = argmin_beta zeta(alpha, beta)`` with user-declared constants:
strong-convexity modulus ``mu`` in beta, gradient Lipschitz constant
``lip``, Hessian Lipschitz constant ``hess_lip``.  The declared constants
are trusted for the bounds and spot-audited by random probes (warnings,
never errors).  ``alpha`` may stand for a chain state, parameters, or both
stacked; nothing here depends on which.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InfeasibleModel, IterationLimit
from .magnitude import LogMag
from .smoothness import SmoothTriple

__all__ = [
    "InnerProblem",
    "InnerCertificate",
    "solve_inner",
    "implicit_gradient",
    "implicit_smoothness",
    "lemma_error_bound",
    "audit_constants",
]

_STEP_CAP = 100_000


@dataclass(eq=False)
class InnerProblem:
    """A parametric strongly convex minimization in ``beta``.

    ``grad_beta(alpha, beta)`` returns the partial gradient in beta;
    ``hess_beta`` its (d_beta, d_beta) Hessian; ``hess_cross`` the mixed
    second derivative laid out (d_alpha, d_beta), entry (a, b) holding
    the derivative in ``alpha_a`` then ``beta_b``.
    """

    d_alpha: int
    d_beta: int
    grad_beta: Callable[[np.ndarray, np.ndarray], np.ndarray]
    hess_beta: Callable[[np.ndarray, np.ndarray], np.ndarray]
    hess_cross: Callable[[np.ndarray, np.ndarray], np.ndarray]
    mu: float
    lip: float
    hess_lip: float

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError("strong convexity modulus must be positive")
        if self.lip < self.mu:
            raise ValueError("gradient Lipschitz constant cannot be below the modulus")
        if self.hess_lip < 0:
            raise ValueError("Hessian Lipschitz constant must be nonnegative")


@dataclass(frozen=True)
class InnerCertificate:
    """Accuracy certificate from strong convexity."""

    grad_norm: float
    error_bound: float
    steps: int


def solve_inner(p: InnerProblem, alpha, tol: float, beta0=None):
    """Gradient descent with step ``1/lip`` until the gradient meets ``tol``.

    Returns ``(beta_hat, certificate)``; the certificate bounds
    ``|beta_hat - g(alpha)|`` by ``grad_norm / mu``.  An infinite ``tol``
    returns the initialization untouched.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    alpha = np.asarray(alpha, dtype=float)
    beta = np.zeros(p.d_beta) if beta0 is None else np.asarray(beta0, dtype=float).copy()
    if math.isinf(tol):
        return beta, InnerCertificate(math.inf, math.inf, 0)
    step = 1.0 / p.lip
    for it in range(_STEP_CAP + 1):
        grad = p.grad_beta(alpha, beta)
        gn = float(np.linalg.norm(grad))
        if gn <= tol:
            return beta, InnerCertificate(gn, gn / p.mu, it)
        if it == _STEP_CAP:
            break
        beta = beta - step * grad
    raise IterationLimit(
        f"inner solve: gradient norm {gn:.3e} above tol {tol:.3e} "
        f"after {_STEP_CAP} steps")


def implicit_gradient(p: InnerProblem, alpha, beta_hat) -> np.ndarray:
    """Transposed Jacobian estimate of ``g`` at ``alpha`` from ``beta_hat``.

    Returns ``-hess_cross . hess_beta^{-1}``, shape (d_alpha, d_beta),
    evaluated at the supplied approximate minimizer.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta_hat = np.asarray(beta_hat, dtype=float)
    Hbb = np.asarray(p.hess_beta(alpha, beta_hat), dtype=float)
    Hab = np.asarray(p.hess_cross(alpha, beta_hat), dtype=float)
    if Hab.shape != (p.d_alpha, p.d_beta):
        raise ValueError(f"cross Hessian shape {Hab.shape}, "
                         f"expected ({p.d_alpha}, {p.d_beta})")
    try:
        L = np.linalg.cholesky(0.5 * (Hbb + Hbb.T))
    except np.linalg.LinAlgError as exc:
        raise InfeasibleModel(
            "inner Hessian is not positive definite at the probe point; "
            "declared strong convexity is violated") from exc
    # solve Hbb X = Hab^T, then transpose
    z = np.linalg.solve(L, Hab.T)
    X = np.linalg.solve(L.T, z)
    return -X.T


def implicit_smoothness(p: InnerProblem) -> SmoothTriple:
    """Lipschitz and smoothness bounds of the minimizer map ``g``.

    The magnitude slot is unbounded: nothing constrains ``|g|`` without
    more problem structure.
    """
    ratio = p.lip / p.mu
    lip = LogMag.of(ratio)
    smooth = LogMag.of(p.hess_lip / p.mu * (1.0 + ratio) ** 2)
    return SmoothTriple(LogMag(math.inf), lip, smooth)


def lemma_error_bound(p: InnerProblem, e: float) -> float:
    """Jacobian error bound for an inner solution within distance ``e``."""
    ratio = p.lip / p.mu
    return p.hess_lip / p.mu * (1.0 + ratio) * e


def audit_constants(p: InnerProblem, rng: np.random.Generator,
                    n_probes: int = 10, box: float = 1.0) -> int:
    """Spot-check declared constants by random probes; warn, never raise.

    Checks at each probe: smallest inner-Hessian eigenvalue against ``mu``,
    inner-Hessian norm against ``lip``, and a two-point Hessian difference
    quotient against ``hess_lip``.  Returns the number of warnings issued.
    """
    bad = 0
    slack = 1e-8
    for _ in range(n_probes):
        alpha = rng.uniform(-box, box, p.d_alpha)
        beta = rng.uniform(-box, box, p.d_beta)
        Hbb = np.asarray(p.hess_beta(alpha, beta), dtype=float)
        evals = np.linalg.eigvalsh(0.5 * (Hbb + Hbb.T))
        if evals.min() < p.mu - slack * max(1.0, abs(evals).max()):
            warnings.warn(
                f"declared modulus {p.mu} exceeds probed eigenvalue {evals.min():.6g}",
                stacklevel=2)
            bad += 1
        if evals.max() > p.lip * (1.0 + slack) + slack:
            warnings.warn(
                f"probed inner-Hessian norm {evals.max():.6g} exceeds declared "
                f"Lipschitz constant {p.lip}", stacklevel=2)
            bad += 1
        beta2 = beta + rng.uniform(-0.1, 0.1, p.d_beta)
        diff = np.asarray(p.hess_beta(alpha, beta2)) - Hbb
        dist = float(np.linalg.norm(beta2 - beta))
        if dist > 0:
            quot = float(np.linalg.norm(diff, 2)) / dist
            if quot > p.hess_lip * (1.0 + slack) + slack:
                warnings.warn(
                    f"probed Hessian difference quotient {quot:.6g} exceeds "
                    f"declared constant {p.hess_lip}", stacklevel=2)
                bad += 1
    return bad
