"""Independent oracles and builders shared by the test suite.

Everything here is deliberately written with different algorithms from the
package under test: Jacobi SVD instead of LAPACK-backed norms, direct
nested-loop convolution instead of gathered einsums, componentwise central
differences instead of reverse mode.  These are the reference values the
tests freeze against.
"""

from __future__ import annotations

import os
import sys

import numpy as np

import chaincert as cc

# The benchmark's workloads and recorder, used read-only: a test of a
# benchmarked path takes its inputs and calls from ``perfbench/workloads.py``.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
import workloads  # noqa: E402
from run import Recorder  # noqa: E402,F401


# ---------------------------------------------------------------- linear algebra

def jacobi_largest_sv(mat: np.ndarray, sweeps: int = 60) -> float:
    """Largest singular value via one-sided Jacobi rotations.

    Orthogonalizes column pairs of a working copy until convergence; the
    largest column norm is then the largest singular value.
    """
    a = np.atleast_2d(np.asarray(mat, dtype=float)).copy()
    if a.size == 0:
        return 0.0
    if a.shape[0] < a.shape[1]:
        a = a.T.copy()
    n = a.shape[1]
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[:, p] @ a[:, q]
                app = a[:, p] @ a[:, p]
                aqq = a[:, q] @ a[:, q]
                off = max(off, abs(apq) / max(np.sqrt(app * aqq), 1e-300))
                if abs(apq) < 1e-15 * np.sqrt(app * aqq + 1e-300):
                    continue
                zeta = (aqq - app) / (2.0 * apq)
                t = np.sign(zeta) / (abs(zeta) + np.sqrt(1.0 + zeta * zeta))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                ap = a[:, p].copy()
                a[:, p] = c * ap - s * a[:, q]
                a[:, q] = s * ap + c * a[:, q]
        if off < 1e-14:
            break
    return float(np.sqrt(max((a * a).sum(axis=0).max(), 0.0)))


def tensor_norm_222(arr: np.ndarray, restarts: int = 100, tol: float = 1e-10,
                    max_iter: int = 200, seed: int = 0) -> tuple[float, bool]:
    """Best value of T[x,y,z]/(|x||y||z|) found by alternating maximization.

    ``arr`` is a (p, d, n) array of slices ``A_k`` with ``T[x, y, z] =
    sum_k z_k x^T A_k y``.  Returns ``(value, certified)``.  When one axis
    is trivial the norm is a matrix operator norm and the value is exact
    (certified=True); otherwise it is a lower bound on the true
    ``||T||_{2,2,2}`` (certified=False).  Restarts draw fresh random unit z's.
    """
    arr = np.asarray(arr, dtype=float)
    p_dim, d_dim, n_dim = arr.shape
    if p_dim == 1:
        return float(np.linalg.norm(arr[0], 2)), True
    if d_dim == 1:
        # T[x,y,z] = x * z^T M y with M[k, j] = A_k[0, j]
        return float(np.linalg.norm(arr[:, 0, :], 2)), True
    if n_dim == 1:
        return float(np.linalg.norm(arr[:, :, 0], 2)), True

    best = 0.0
    rng = np.random.default_rng(seed)
    for _ in range(max(1, restarts)):
        z = rng.standard_normal(p_dim)
        z /= np.linalg.norm(z)
        prev = -np.inf
        for _ in range(max_iter):
            u, s, vt = np.linalg.svd(np.einsum("kij,k->ij", arr, z))
            if s[0] <= 0:
                break
            zy = np.einsum("kij,i,j->k", arr, u[:, 0], vt[0])
            nz = np.linalg.norm(zy)
            if nz == 0:
                break
            z = zy / nz
            # nz = T[x, y, z] at the updated z
            if nz - prev <= tol * max(1.0, nz):
                prev = nz
                break
            prev = nz
        if np.isfinite(prev):
            best = max(best, prev)
    return float(best), False


def fd_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Componentwise central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e.flat[i] = eps
        g.flat[i] = (fn(x + e) - fn(x - e)) / (2.0 * eps)
    return g


def fd_jacobian(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Componentwise central-difference Jacobian of a vector function."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e.flat[i] = eps
        cols.append((fn(x + e) - fn(x - e)) / (2.0 * eps))
    return np.stack(cols, axis=-1)


def flat(u: cc.ParamVector) -> np.ndarray:
    return np.concatenate([b for b in u.blocks]) if u.dim else np.zeros(0)


def unflat(dims, vec: np.ndarray) -> cc.ParamVector:
    return cc.ParamVector.from_flat(tuple(dims), np.asarray(vec, dtype=float))


# ---------------------------------------------------------------- hand convolution

def direct_conv(x, weights, patches, channels, spatial, bias=None):
    """Direct nested-loop 'im2col-free' convolution per sample.

    ``x`` is (m, channels*spatial) sample-major, ``weights`` is
    (filters, channels, k); returns (m, filters*n_patches) sample-major.
    """
    x = np.asarray(x, dtype=float)
    m = x.shape[0]
    nf, nc, k = weights.shape
    npat = patches.shape[0]
    out = np.zeros((m, nf, npat))
    for s in range(m):
        xim = x[s].reshape(channels, spatial)
        for f in range(nf):
            for p in range(npat):
                acc = 0.0
                for c in range(channels):
                    for j in range(k):
                        acc += weights[f, c, j] * xim[c, patches[p, j]]
                if bias is not None:
                    acc += bias[f]
                out[s, f, p] = acc
    return out.reshape(m, nf * npat)


# ---------------------------------------------------------------- chain builders

def random_catalog_chain(rng, tau=None, dim_max=8, smooth_only=True,
                         batch=None, with_softmax=False):
    """Random chain out of catalogue layers at toy dimensions."""
    tau = int(tau if tau is not None else rng.integers(1, 5))
    m = int(batch if batch is not None else rng.integers(1, 4))
    smooth_acts = ["softplus", "sigmoid", "softplus-centered", "identity"]
    acts = smooth_acts if smooth_only else smooth_acts + ["relu"]
    layers = []
    # image head with probability 1/2, otherwise flat
    if rng.random() < 0.5:
        C = int(rng.integers(1, 3))
        H = W = int(rng.integers(3, 5))
        k = 2
        f = int(rng.integers(1, 3))
        layers.append(cc.conv2d(m, C, H, W, f, k, stride=1,
                                activation=str(rng.choice(acts)),
                                bias=bool(rng.random() < 0.5)))
        oh, ow = H - k + 1, W - k + 1
        if rng.random() < 0.5:
            pool = cc.avgpool2d if smooth_only or rng.random() < 0.5 else cc.maxpool2d
            layers.append(pool(m, f, oh, ow, 2, stride=1))
            oh, ow = oh - 1, ow - 1
        feat = f * oh * ow
    else:
        feat = int(rng.integers(2, dim_max + 1))
    while len(layers) < tau:
        left = tau - len(layers)
        r = rng.random()
        if r < 0.2 and left >= 1:
            layers.append(cc.batchnorm_layer(m, feat, float(rng.uniform(0.05, 1.0))))
        elif r < 0.35 and left >= 1:
            layers.append(cc.activation_layer(m, feat, str(rng.choice(acts))))
        else:
            out = int(rng.integers(2, dim_max + 1))
            layers.append(cc.fully_connected(m, feat, out,
                                             activation=str(rng.choice(acts)),
                                             bias=bool(rng.random() < 0.7)))
            feat = out
    if with_softmax:
        layers.append(cc.softmax_layer(m, feat))
    return cc.ChainSpec(tuple(layers))


def chain_objective_instance(rng, kind="squared", tau=2, width=4, batch=1):
    """Small smooth chain plus a matching objective and sampled point."""
    layers = []
    feat = width
    for t in range(tau):
        act = "softplus" if t + 1 < tau else "identity"
        layers.append(cc.fully_connected(batch, feat, width, activation=act,
                                         bias=True))
        feat = width
    chain = cc.ChainSpec(tuple(layers))
    u = cc.sample_params(chain.param_dims, 1.0, rng)
    x0 = cc.sample_state(chain.d0, 1.0, rng)
    q = chain.d_out // batch
    if kind == "squared":
        h = cc.Objective("squared", batch, q, rng.standard_normal((batch, q)))
    else:
        y = np.zeros((batch, q))
        y[np.arange(batch), rng.integers(0, q, size=batch)] = 1.0
        h = cc.Objective("logistic", batch, q, y)
    return chain, u, x0, h


def backward_units(chain, rng) -> int:
    """``OpCounter`` units of one ``backward`` at a sampled point and a unit cotangent."""
    u = cc.sample_params(chain.param_dims, 1.0, rng)
    tape = cc.forward(chain, cc.sample_state(chain.d0, 1.0, rng), u)
    mu = rng.standard_normal(chain.d_out)
    counter = cc.OpCounter()
    cc.backward(tape, mu / np.linalg.norm(mu), counter)
    return counter.total


# ---------------------------------------------------------------- operator-form recursions

# The four log-domain recursions of ``chaincert.smoothness`` written with
# ``LogMag`` operators, as the package computed them before its recursions
# moved to raw float logs.  The package must agree with these bitwise.

def _ref_lm(x):
    return x if isinstance(x, cc.LogMag) else cc.LogMag.of(float(x))


_R_ZERO, _R_ONE, _R_TWO = cc.LogMag(-np.inf), cc.LogMag(0.0), cc.LogMag(np.log(2.0))


def ref_propagate_layers(chain, dom):
    """Running (magnitude, Lipschitz, smoothness) bounds after each layer."""
    lm, lm_min = _ref_lm, cc.lm_min
    m, lip, smo = lm(dom.m0), _R_ZERO, _R_ZERO
    trace = []
    for layer, radius in zip(chain.layers, dom.radii):
        bc, stage_cs = cc.catalog_constants(layer)
        R, Lb = lm(radius), lm(bc.L_b)
        lx = Lb * R + lm(bc.l_x)
        lu = Lb * m + lm(bc.l_u)
        m_cur = lx * m + lu * R + lm(bc.beta0_norm)
        l0, L_cur = _R_ONE, _R_ZERO
        for sc in stage_cs:
            lip_a, L_a = lm(sc.lip), lm(sc.smooth)
            lt = lm_min(lip_a, lm(sc.slope0) + L_a * m_cur)
            L_cur = L_cur * lip_a + L_a * l0 * l0
            l0 = lt * l0
            m_cur = lm_min(lm(sc.m_a), lm(sc.a0_norm) + lt * m_cur)
        lip_new = lx * l0 * lip + lu * l0
        smo_new = (smo * lx * l0
                   + lx * lx * L_cur * lip * lip
                   + _R_TWO * (lu * lx * L_cur + Lb * l0) * lip
                   + lu * lu * L_cur)
        m, lip, smo = m_cur, lip_new, smo_new
        trace.append((m.lg, lip.lg, smo.lg))
    return trace


def ref_input_smoothness(chain, u, R):
    """Input-space (magnitude, Lipschitz, smoothness) logs over ``|x0| <= R``."""
    lm, lm_min = _ref_lm, cc.lm_min
    m, lip, smo = lm(R), _R_ONE, _R_ZERO
    for layer, block in zip(chain.layers, u.blocks):
        bc, stage_cs = cc.catalog_constants(layer)
        un = lm(float(np.linalg.norm(block)))
        l_aff = lm(bc.L_b) * un + lm(bc.l_x)
        m_cur = l_aff * m + lm(bc.beta0_norm) + lm(bc.l_u) * un
        l_loc, L_loc = l_aff, _R_ZERO
        for sc in stage_cs:
            lt = lm_min(lm(sc.lip), lm(sc.slope0) + lm(sc.smooth) * m_cur)
            L_loc = L_loc * lt + lm(sc.smooth) * l_loc * l_loc
            l_loc = l_loc * lt
            m_cur = lm_min(lm(sc.m_a), lm(sc.a0_norm) + lt * m_cur)
        smo = L_loc * lip * lip + smo * l_loc
        lip = lip * l_loc
        m = m_cur
    return m.lg, lip.lg, smo.lg


def ref_generic_recursion(phi_constants):
    """Chain (Lipschitz, smoothness) logs from per-layer joint constants."""
    lip = smo = _R_ZERO
    for lp, Lp in phi_constants:
        lphi, Lphi = _ref_lm(lp), _ref_lm(Lp)
        one_plus = _R_ONE + lip
        smo = smo * lphi + Lphi * one_plus * one_plus
        lip = lphi + lip * lphi
    return lip.lg, smo.lg


def ref_objective_smoothness(psi, dom, ell_h, L_h, grad_ref_norm, L_r=0.0):
    """``(log L_F, log ell_h_refined)`` with the slope reach ``L_h lip diam``."""
    lm = _ref_lm
    diam = _R_TWO * lm(float(np.sqrt(sum(r * r for r in dom.radii))))
    reach = lm(L_h) * psi.lip * diam
    ell_ref = cc.lm_min(lm(ell_h), lm(grad_ref_norm) + reach)
    L_F = psi.smooth * ell_ref + psi.lip * psi.lip * lm(L_h) + lm(L_r)
    return L_F.lg, ell_ref.lg


# ---------------------------------------------------------------- closed forms

def cluster_two_points(yhat: np.ndarray):
    """Closed-form convex clustering for n = 2 points in R^q.

    Minimizes 0.5*||y - yhat||^2 + ||y1 - y2||.  With d = yhat1 - yhat2 the
    difference shrinks to max(||d|| - 2, 0); value and gradient follow.
    """
    y1, y2 = yhat[0], yhat[1]
    d = y1 - y2
    nd = float(np.linalg.norm(d))
    if nd <= 2.0:
        val = 0.25 * nd * nd
        grad = np.stack([0.5 * d, -0.5 * d])
    else:
        val = nd - 1.0
        dh = d / nd
        grad = np.stack([dh, -dh])
    return val, grad


def cluster_reference(yhat: np.ndarray, gap_tol: float = 1e-13):
    """Convex clustering by plain projected gradient on the dual.

    The unaccelerated loop: ``v <- proj(v + D y(v) / n)`` with
    ``y(v) = yhat - D^T v`` and each pair's ``v_ij`` projected onto the unit
    ball, no momentum.  Every 100 steps it evaluates the duality
    gap ``sum_ij ||d_ij|| - <v_ij, d_ij>`` at ``d = D y`` and stops once the
    gap is at most ``gap_tol``, which makes the answer sound: the primal is
    1-strongly convex, so ``y`` is within ``sqrt(2 gap)`` of the minimizer.
    Returns ``(value, gradient yhat - y, gap)``.
    """
    yhat = np.asarray(yhat, dtype=float)
    n, q = yhat.shape
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    I = np.array([i for i, _ in pairs], dtype=int)
    J = np.array([j for _, j in pairs], dtype=int)
    # D y(v) = D yhat - D D^T v, so one step is v <- proj(A v + b).
    D = np.zeros((len(pairs), n))
    D[np.arange(len(pairs)), I] = 1.0
    D[np.arange(len(pairs)), J] = -1.0
    A = np.eye(len(pairs)) - D @ D.T / n
    b = D @ yhat / n
    v = np.zeros((len(pairs), q))
    check_every, cap = 100, 5_000_000
    for _ in range(0, cap, check_every):
        for _ in range(check_every):
            v = A @ v + b
            v /= np.maximum(np.sqrt((v * v).sum(axis=1)), 1.0)[:, None]
        y = yhat.copy()
        np.add.at(y, I, -v)
        np.add.at(y, J, v)
        d = y[I] - y[J]
        norms = np.sqrt((d * d).sum(axis=1))
        gap = float(np.sum(norms - (v * d).sum(axis=1)))
        if gap <= gap_tol:
            return 0.5 * float(np.sum((y - yhat) ** 2)) + float(norms.sum()), yhat - y, gap
    raise RuntimeError(f"reference clustering solve: gap {gap:.3g} after {cap} steps")
