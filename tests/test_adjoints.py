"""Adjoint identities for every numeric part kind and every stage kind.

The dense Jacobians and the cross term of a part, and the dense Jacobian of
a stage linearisation, are derived from stacked adjoint/tangent products.
These property tests tie the products to each other (the adjoint identity),
the stacked calls to a loop of single calls, and the derived forms back to
``jvp`` and ``value``, on random small shapes.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chaincert import (AvgPoolStage, BatchNormStage, BiAffinePart, BlockStage,
                       ConvPart, DenseBiAffinePart, DimensionMismatch, ElementwiseStage,
                       FCPart, IdentityPart, MaxPoolStage, OpCounter,
                       ResidualPart, SoftmaxStage, conv2d, get_activation)
from chaincert.stages import _PoolBase

from helpers import Recorder, workloads

SEEDS = st.integers(0, 2**32 - 1)
SETTINGS = settings(max_examples=15, deadline=None)


def _dense(rng):
    do, di, p = (int(n) for n in rng.integers(1, 5, size=3))
    return DenseBiAffinePart(rng.standard_normal((do, di, p)),
                             mu=rng.standard_normal((do, p)),
                             mx=rng.standard_normal((do, di)),
                             b0=rng.standard_normal(do))


def _fc(rng, bias):
    m, nin, nout = (int(n) for n in rng.integers(1, 4, size=3))
    return FCPart(m, nin, nout, bias=bias)


def _conv(rng, bias):
    m, c, f = (int(n) for n in rng.integers(1, 3, size=3))
    side = int(rng.integers(2, 5))
    k = int(rng.integers(1, side + 1))
    s = int(rng.integers(1, 3))
    return conv2d(m, c, side, side, f, k, stride=s, bias=bias).part


def _residual(inner):
    return ResidualPart(inner, inner.m)


PARTS = {
    "dense": _dense,
    "fc": lambda rng: _fc(rng, True),
    "fc-nobias": lambda rng: _fc(rng, False),
    "conv": lambda rng: _conv(rng, True),
    "conv-nobias": lambda rng: _conv(rng, False),
    "identity": lambda rng: IdentityPart(int(rng.integers(1, 6))),
    "residual-fc": lambda rng: _residual(_fc(rng, True)),
    "residual-conv": lambda rng: _residual(_conv(rng, True)),
}


def _close(a, b, scale):
    return abs(a - b) <= 1e-9 * (1.0 + scale)


@pytest.mark.parametrize("kind", sorted(PARTS))
@SETTINGS
@given(SEEDS)
def test_part_adjoint_identity(kind, seed):
    rng = np.random.default_rng(seed)
    part = PARTS[kind](rng)
    x, dx = rng.standard_normal((2, part.d_in))
    u, du = rng.standard_normal((2, part.p))
    w = rng.standard_normal(part.d_out)
    jv = part.jvp(x, u, dx, du)
    gx, gu = part.vjp_x(u, w), part.vjp_u(x, w)
    scale = np.linalg.norm(w) * np.linalg.norm(jv) + np.linalg.norm(gx) * np.linalg.norm(dx) \
        + np.linalg.norm(gu) * np.linalg.norm(du)
    assert _close(float(w @ jv), float(gx @ dx) + float(gu @ du), scale)


def _assert_stacked_matches_loop(call, stack):
    """``call(v, count)`` on a (k, d) stack against single calls on its rows.

    The stacked result must match row by row and charge k times the units of
    one single call, also for k = 0.
    """
    stacked, single = OpCounter(), OpCounter()
    got = call(stack, stacked)
    one = call(np.zeros(stack.shape[1]), single)
    assert got.shape == (len(stack),) + one.shape
    for g, v in zip(got, stack):
        want = call(v, None)
        scale = 1.0 + np.abs(want).max(initial=0.0)
        assert np.allclose(g, want, rtol=1e-12, atol=1e-12 * scale)
    assert stacked.total == len(stack) * single.total


@pytest.mark.parametrize("kind", sorted(PARTS))
@SETTINGS
@given(SEEDS)
def test_part_stacked_adjoints_match_single_calls(kind, seed):
    rng = np.random.default_rng(seed)
    part = PARTS[kind](rng)
    k = int(rng.integers(0, 5))
    x, u, w = (rng.standard_normal(n) for n in (part.d_in, part.p, part.d_out))
    W, X = rng.standard_normal((k, part.d_out)), rng.standard_normal((k, part.d_in))
    _assert_stacked_matches_loop(lambda v, c: part.vjp_x(u, v, c), W)
    # vjp_u takes single vectors only: a stack of cotangents, of states or of both is refused
    for args in [(x, W), (X, w), (X, W)]:
        with pytest.raises(DimensionMismatch):
            part.vjp_u(*args)


@pytest.mark.parametrize("kind", sorted(PARTS))
@SETTINGS
@given(SEEDS)
def test_part_derived_forms_match_jvp_and_value(kind, seed):
    rng = np.random.default_rng(seed)
    part = PARTS[kind](rng)
    x, dx = rng.standard_normal((2, part.d_in))
    u, du = rng.standard_normal((2, part.p))
    w = rng.standard_normal(part.d_out)
    jx, ju = part.dense_jx(u), part.dense_ju(x)
    assert jx.shape == (part.d_out, part.d_in) and ju.shape == (part.d_out, part.p)
    assert np.allclose(jx @ dx, part.jvp(x, u, dx, np.zeros(part.p)), atol=1e-9)
    assert np.allclose(ju @ du, part.jvp(x, u, np.zeros(part.d_in), du), atol=1e-9)
    # the bilinear term is the four-point difference of the value
    bil = part.value(x + dx, u + du) - part.value(x + dx, u) \
        - part.value(x, u + du) + part.value(x, u)
    cross = part.second_cross(w)
    assert cross.shape == (part.d_in, part.p)
    assert np.isclose(float(w @ bil), float(dx @ cross @ du), atol=1e-8)


def _elementwise(rng):
    return ElementwiseStage(get_activation("softplus"), int(rng.integers(1, 7)))


def _pool_patches(rng, spatial):
    size = int(rng.integers(1, spatial + 1))
    starts = range(0, spatial - size + 1, int(rng.integers(1, 3)))
    return np.array([[s + i for i in range(size)] for s in starts])


def _pool(cls, rng):
    m, c = (int(n) for n in rng.integers(1, 3, size=2))
    spatial = int(rng.integers(1, 6))
    return cls(m, c, spatial, _pool_patches(rng, spatial))


def _block(rng):
    m = int(rng.integers(1, 3))
    inner = ElementwiseStage(get_activation("sigmoid"), m * int(rng.integers(1, 4)))
    return BlockStage(inner, m, int(rng.integers(0, 3)))


STAGES = {
    "elementwise": _elementwise,
    "softmax": lambda rng: SoftmaxStage(*(int(n) for n in rng.integers(1, 4, size=2))),
    "avgpool": lambda rng: _pool(AvgPoolStage, rng),
    "maxpool": lambda rng: _pool(MaxPoolStage, rng),
    "batchnorm": lambda rng: BatchNormStage(int(rng.integers(1, 4)), int(rng.integers(1, 4)),
                                            float(rng.uniform(0.05, 1.0))),
    "block": _block,
}


@pytest.mark.parametrize("kind", sorted(STAGES))
@SETTINGS
@given(SEEDS)
def test_stage_adjoint_identity(kind, seed):
    rng = np.random.default_rng(seed)
    stage = STAGES[kind](rng)
    # small integers make ties common, which max pooling must break the
    # same way in both directions
    z = rng.integers(-2, 3, size=stage.in_total).astype(float)
    lin = stage.linearize(z)
    dz = rng.standard_normal(stage.in_total)
    lam = rng.standard_normal(stage.out_total)
    jv, vj = lin.jvp(dz), lin.vjp(lam)
    scale = np.linalg.norm(lam) * np.linalg.norm(jv) + np.linalg.norm(vj) * np.linalg.norm(dz)
    assert _close(float(lam @ jv), float(vj @ dz), scale)
    J = lin.dense_jacobian()
    assert J.shape == (stage.out_total, stage.in_total)
    assert np.allclose(J.T @ lam, vj, atol=1e-9)


@pytest.mark.parametrize("kind", sorted(STAGES))
@SETTINGS
@given(SEEDS)
def test_stage_stacked_products_match_single_calls(kind, seed):
    rng = np.random.default_rng(seed)
    stage = STAGES[kind](rng)
    lin = stage.linearize(rng.integers(-2, 3, size=stage.in_total).astype(float))
    k = int(rng.integers(0, 5))
    _assert_stacked_matches_loop(lin.jvp, rng.standard_normal((k, stage.in_total)))
    _assert_stacked_matches_loop(lin.vjp, rng.standard_normal((k, stage.out_total)))


def _record(monkeypatch, stacked, every):
    """Patch methods so that their calls are listed by ``Class.name``.

    A method in ``stacked`` is listed when an argument is a (k, d) stack;
    one in ``every`` on each call.
    """
    seen = []
    for (cls, name), always in [(t, False) for t in stacked] + [(t, True) for t in every]:
        def wrapped(self, *args, _real=getattr(cls, name), _key=f"{cls.__name__}.{name}",
                    _always=always, **kw):
            if _always or any(np.ndim(a) == 2 for a in args):
                seen.append(_key)
            return _real(self, *args, **kw)
        monkeypatch.setattr(cls, name, wrapped)
    return seen


@pytest.mark.parametrize("workload, rounds", [(workloads.FcOracles(False), 3),
                                               (workloads.CnnTrain(True), 1)],
                         ids=["fc-oracles", "cnn-train"])
def test_benchmarked_paths_make_no_stacked_part_call(monkeypatch, workload, rounds):
    # A stacked conv vjp_x or pooling vjp is answered one row at a time, and
    # dense_ju and second_cross form p-wide arrays from single vjp_u calls;
    # the benchmark's own rounds (fc-oracles at full size, one per point,
    # cnn-train at smoke size) reach none of them.
    seen = _record(monkeypatch,
                   stacked=[(ConvPart, "vjp_x"), (_PoolBase, "_scatter")],
                   every=[(BiAffinePart, "dense_ju"), (FCPart, "dense_ju"),
                          (BiAffinePart, "second_cross")])
    calls = []
    rows = BiAffinePart._rows
    monkeypatch.setattr(BiAffinePart, "_rows",
                        staticmethod(lambda *a: calls.append(a) or rows(*a)))
    workload.setup(1)
    rec = Recorder()
    for i in range(rounds):
        workload.round(rec, i)
    assert seen == [] and calls == []
    assert rec.failed == 0, rec.errors
