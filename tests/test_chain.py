"""Chain specs, parameter vectors, and samplers."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from chaincert import (ChainSpec, DimensionMismatch, ParamVector,
                       fully_connected, sample_params, sample_state)

from helpers import flat, unflat


def test_chain_validates_dimension_chaining():
    a = fully_connected(2, 3, 4)
    b = fully_connected(2, 4, 2)
    chain = ChainSpec((a, b))
    assert chain.tau == 2
    assert chain.d0 == 6 and chain.d_out == 4
    assert chain.param_dims == (a.p, b.p)
    assert chain.total_params == a.p + b.p
    c = fully_connected(2, 5, 2)
    with pytest.raises(DimensionMismatch):
        ChainSpec((a, c))


def test_chain_rejects_mixed_batch():
    a = fully_connected(2, 3, 4)
    b = fully_connected(4, 2, 2)
    with pytest.raises(DimensionMismatch):
        ChainSpec((a, b))


def test_paramvector_basic_algebra():
    u = ParamVector((np.array([1.0, 2.0]), np.array([3.0])))
    v = ParamVector((np.array([0.5, 0.5]), np.array([1.0])))
    assert u.dims == (2, 1)
    assert u.dim == 3
    assert np.allclose(flat(u + v), [1.5, 2.5, 4.0])
    assert np.allclose(flat(u - v), [0.5, 1.5, 2.0])
    assert np.allclose(flat(u.scale(2.0)), [2.0, 4.0, 6.0])
    assert np.allclose(flat(2.0 * u), flat(u.scale(2.0)))
    assert np.allclose(flat(-u), [-1.0, -2.0, -3.0])
    assert u.dot(v) == pytest.approx(0.5 + 1.0 + 3.0)
    assert u.norm() == pytest.approx(np.sqrt(14.0))
    assert u.block_norms() == pytest.approx([np.sqrt(5.0), 3.0])


def test_paramvector_zeros_from_flat_copy():
    z = ParamVector.zeros((2, 0, 3))
    assert z.dim == 5
    assert z.norm() == 0.0
    w = ParamVector.from_flat((2, 0, 3), np.arange(5.0))
    assert np.allclose(w.blocks[0], [0.0, 1.0])
    assert w.blocks[1].size == 0
    assert np.allclose(w.blocks[2], [2.0, 3.0, 4.0])
    w2 = w.copy()
    w2.blocks[0][0] = 99.0
    assert w.blocks[0][0] == 0.0


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=8),
       st.lists(st.floats(-100, 100), min_size=1, max_size=8))
def test_paramvector_dot_matches_numpy(xs, ys):
    n = min(len(xs), len(ys))
    a = np.asarray(xs[:n]); b = np.asarray(ys[:n])
    u = unflat((n,), a)
    v = unflat((n,), b)
    assert u.dot(v) == pytest.approx(float(a @ b), abs=1e-6, rel=1e-9)


def test_sample_params_respects_radii():
    rng = np.random.default_rng(0)
    dims = (4, 7, 1)
    radii = (0.5, 2.0, 1.0)
    for _ in range(50):
        u = sample_params(dims, radii, rng)
        for blk, r in zip(u.blocks, radii):
            assert np.linalg.norm(blk) <= r + 1e-12


def test_sample_params_surface():
    rng = np.random.default_rng(1)
    u = sample_params((5,), 2.0, rng, surface=True)
    assert np.linalg.norm(u.blocks[0]) == pytest.approx(2.0)


def test_sample_state_exact_norm():
    rng = np.random.default_rng(2)
    x = sample_state(6, 3.0, rng)
    assert np.linalg.norm(x) == pytest.approx(3.0)
    assert sample_state(4, 0.0, rng) == pytest.approx(np.zeros(4))


@pytest.mark.parametrize("bad", [-1.0, float("nan")])
def test_samplers_refuse_a_negative_or_nan_radius(bad):
    rng = np.random.default_rng(0)
    for draw in (lambda: sample_params((3, 2), bad, rng),
                 lambda: sample_params((3, 2), [1.0, bad], rng),
                 lambda: sample_state(4, bad, rng)):
        with pytest.raises(ValueError, match="nonnegative"):
            draw()
    assert not sample_params((3, 2), 0.0, rng).flat().any()  # zero stays valid
