"""Chain containers: layer sequences and block parameter vectors."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch

__all__ = ["ChainSpec", "ParamVector", "sample_params", "sample_state"]


@dataclass(frozen=True, eq=False)
class ChainSpec:
    """A validated sequence of layers sharing one batch size."""

    layers: tuple

    def __post_init__(self):
        if not self.layers:
            raise DimensionMismatch("a chain needs at least one layer")
        batch = self.layers[0].batch
        for t in range(1, len(self.layers)):
            prev, cur = self.layers[t - 1], self.layers[t]
            if prev.d_out != cur.d_in:
                raise DimensionMismatch(
                    f"layer {t - 1} ({prev.kind}) produces {prev.d_out}, "
                    f"layer {t} ({cur.kind}) expects {cur.d_in}")
            if cur.batch != batch:
                raise DimensionMismatch(
                    f"layer {t} has batch {cur.batch}, chain batch is {batch}")

    @property
    def tau(self) -> int:
        return len(self.layers)

    @property
    def batch(self) -> int:
        return self.layers[0].batch

    @property
    def d0(self) -> int:
        return self.layers[0].d_in

    @property
    def d_out(self) -> int:
        return self.layers[-1].d_out

    @cached_property  # read at every forward, jvp and oracle call; the layers never change
    def param_dims(self) -> tuple:
        return tuple(l.p for l in self.layers)

    @property
    def total_params(self) -> int:
        return sum(self.param_dims)

    @property
    def second_order(self) -> bool:
        return all(l.second_order for l in self.layers)

    @property
    def numeric(self) -> bool:
        """False when some layer carries constants and dimensions only."""
        return all(l.part.numeric for l in self.layers)

    def describe(self) -> str:
        return "\n".join(f"[{t}] {l.describe()}" for t, l in enumerate(self.layers))


class ParamVector:
    """Per-layer parameter blocks with a few vector-space helpers."""

    __slots__ = ("blocks",)

    def __init__(self, blocks: Iterable[np.ndarray]):
        self.blocks = tuple(np.asarray(b, dtype=float) for b in blocks)
        for b in self.blocks:
            if b.ndim != 1:
                raise DimensionMismatch("parameter blocks must be 1-d")

    @classmethod
    def zeros(cls, dims: Sequence[int]) -> "ParamVector":
        return cls([np.zeros(d) for d in dims])

    @classmethod
    def from_flat(cls, dims: Sequence[int], flat: np.ndarray) -> "ParamVector":
        flat = np.asarray(flat, dtype=float)
        if flat.shape != (sum(dims),):
            raise DimensionMismatch(
                f"flat vector has shape {flat.shape}, expected ({sum(dims)},)")
        out, off = [], 0
        for d in dims:
            out.append(flat[off:off + d].copy())
            off += d
        return cls(out)

    @property
    def dims(self) -> tuple:
        return tuple(b.size for b in self.blocks)

    @property
    def dim(self) -> int:
        return sum(b.size for b in self.blocks)

    def flat(self) -> np.ndarray:
        if not self.blocks:
            return np.zeros(0)
        return np.concatenate([b for b in self.blocks]) if self.dim else np.zeros(0)

    def copy(self) -> "ParamVector":
        return ParamVector([b.copy() for b in self.blocks])

    def _binary(self, other, op):
        if self.dims != other.dims:
            raise DimensionMismatch(f"block dims differ: {self.dims} vs {other.dims}")
        return ParamVector([op(a, b) for a, b in zip(self.blocks, other.blocks)])

    def __add__(self, other: "ParamVector") -> "ParamVector":
        return self._binary(other, np.add)

    def __sub__(self, other: "ParamVector") -> "ParamVector":
        return self._binary(other, np.subtract)

    def scale(self, a: float) -> "ParamVector":
        return ParamVector([a * b for b in self.blocks])

    def __rmul__(self, a: float) -> "ParamVector":
        return self.scale(float(a))

    def __neg__(self) -> "ParamVector":
        return self.scale(-1.0)

    def dot(self, other: "ParamVector") -> float:
        if self.dims != other.dims:
            raise DimensionMismatch(f"block dims differ: {self.dims} vs {other.dims}")
        return float(sum(float(a @ b) for a, b in zip(self.blocks, other.blocks)))

    def norm(self) -> float:
        return float(np.sqrt(max(self.dot(self), 0.0)))

    def block_norms(self) -> tuple:
        return tuple(float(np.linalg.norm(b)) for b in self.blocks)

    def __repr__(self) -> str:
        return f"ParamVector(dims={self.dims})"


def sample_params(dims: Sequence[int], radii, rng: np.random.Generator,
                  surface: bool = False) -> ParamVector:
    """Draw each block uniformly from the ball (or sphere) of its radius."""
    radii = _broadcast_radii(radii, len(dims))
    if not all(r >= 0.0 for r in radii):
        raise ValueError(f"radii must be nonnegative, got {radii}")
    blocks = []
    for d, r in zip(dims, radii):
        if d == 0:
            blocks.append(np.zeros(0))
            continue
        v = rng.standard_normal(d)
        n = np.linalg.norm(v)
        v = v / n if n > 0 else v
        scale = 1.0 if surface else rng.uniform() ** (1.0 / d)
        blocks.append(r * scale * v)
    return ParamVector(blocks)


def sample_state(dim: int, norm: float, rng: np.random.Generator) -> np.ndarray:
    """A state of exactly the requested Euclidean norm."""
    if not norm >= 0.0:
        raise ValueError(f"state norm must be nonnegative, got {norm}")
    v = rng.standard_normal(dim)
    n = np.linalg.norm(v)
    if n == 0:
        v = np.ones(dim)
        n = np.linalg.norm(v)
    return norm * v / n


def _broadcast_radii(radii, k: int):
    if np.isscalar(radii):
        return [float(radii)] * k
    radii = list(radii)
    if len(radii) != k:
        raise DimensionMismatch(f"{len(radii)} radii for {k} blocks")
    return [float(r) for r in radii]
