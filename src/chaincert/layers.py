"""Layer descriptors: one bi-affine part followed by nonlinear stages.

A layer computes ``a(b(x, u))`` where ``b`` is the parameter-bearing
bi-affine part and ``a`` is a (possibly empty) pipeline of parameter-free
stages.  Constructors cover the usual catalogue; ``LayerDescriptor`` itself
admits any part and stages that satisfy their interfaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .activations import get_activation
from .biaffine import (BiAffinePart, ConvPart, FCPart, IdentityPart,
                       ResidualPart, SymbolicConvPart)
from .errors import DimensionMismatch, SecondOrderUnavailable
from .stages import (AvgPoolStage, BatchNormStage, BlockStage,
                     ElementwiseStage, MaxPoolStage, SoftmaxStage)

__all__ = [
    "LayerDescriptor",
    "fully_connected",
    "conv2d",
    "conv1d",
    "activation_layer",
    "softmax_layer",
    "maxpool2d",
    "avgpool2d",
    "batchnorm_layer",
    "residual_wrap",
    "layer_second_contract",
]


@dataclass(frozen=True, eq=False)
class LayerDescriptor:
    """One chain link; validates that part and stages agree on dimensions."""

    kind: str
    part: BiAffinePart
    stages: tuple
    batch: int
    hyper: dict = field(default_factory=dict)

    def __post_init__(self):
        cur = self.part.d_out
        for i, st in enumerate(self.stages):
            if st.in_total != cur:
                raise DimensionMismatch(
                    f"layer '{self.kind}': stage {i} expects input {st.in_total}, "
                    f"previous piece produces {cur}")
            cur = st.out_total

    @property
    def d_in(self) -> int:
        return self.part.d_in

    @property
    def d_out(self) -> int:
        return self.stages[-1].out_total if self.stages else self.part.d_out

    @property
    def p(self) -> int:
        return self.part.p

    @property
    def second_order(self) -> bool:
        """Whether every stage is twice differentiable; a bi-affine part always is."""
        return all(st.second_order for st in self.stages)

    def describe(self) -> str:
        return f"{self.kind} (d_in={self.d_in}, d_out={self.d_out}, p={self.p})"


# patch tables -----------------------------------------------------------

def _valid_grid(height, width, kh, kw, sh, sw):
    """Output grid ``(rows, cols)`` of a valid (unpadded) 2-d window sweep."""
    if min(kh, kw, sh, sw) < 1:
        raise DimensionMismatch(f"kernel {kh}x{kw} and stride {sh}x{sw} must be at least 1")
    if kh > height or kw > width:
        raise DimensionMismatch(f"kernel {kh}x{kw} exceeds input {height}x{width}")
    return (height - kh) // sh + 1, (width - kw) // sw + 1


def _valid_patches_2d(height, width, kh, kw, sh, sw):
    """Flat input indices of every valid window, shape (rows * cols, kh * kw).

    Windows run row-major over the output grid; entries row-major within
    the window.
    """
    rows, cols = _valid_grid(height, width, kh, kw, sh, sw)
    starts = (np.arange(rows)[:, None] * (sh * width) + np.arange(cols) * sw).ravel()
    offsets = (np.arange(kh)[:, None] * width + np.arange(kw)).ravel()
    return (starts[:, None] + offsets).astype(int, copy=False), (rows, cols)


def _pair(v):
    if isinstance(v, (tuple, list)):
        if len(v) != 2:
            raise DimensionMismatch(f"expected a pair, got {v}")
        return int(v[0]), int(v[1])
    return int(v), int(v)


def _act_stages(batch, total, activation):
    if activation in (None, "identity"):
        return ()
    if activation == "softmax":
        return (SoftmaxStage(batch, total // batch),)
    return (ElementwiseStage(get_activation(activation), total),)


def _pool_stage(cls, batch, channels, height, width, size, stride):
    """Pooling stage over a ``(height, width)`` grid, and its output grid.

    The stage builds its window table on first numeric use, as a numeric
    conv part does: a chain that is only certified never needs it.
    """
    grid = _valid_grid(height, width, *size, *stride)
    stage = cls._deferred(batch, channels, height * width, grid[0] * grid[1],
                          size[0] * size[1],
                          lambda: _valid_patches_2d(height, width, *size, *stride)[0])
    return stage, grid


# constructors -----------------------------------------------------------

def fully_connected(batch: int, in_features: int, out_features: int,
                    activation: str = "identity", bias: bool = True) -> LayerDescriptor:
    """Fully-connected layer; ``activation`` may also be ``"softmax"``."""
    part = FCPart(batch, in_features, out_features, bias=bias)
    stages = _act_stages(batch, part.d_out, activation)
    return LayerDescriptor("fully-connected", part, stages, batch,
                           {"in_features": in_features, "out_features": out_features,
                            "bias": bias, "activation": activation})


_POOLS = {"max": MaxPoolStage, "avg": AvgPoolStage}


def _conv_layer(batch, channels, spatial, valid, declared, table, kernel, stride,
                filters, activation, bias, hyper, batchnorm=None, pool=None):
    """Conv part followed by batch-norm, activation and pool stages, in that order.

    ``valid`` and ``declared`` are output grids in the caller's form, a
    window count or ``(rows, cols)``; a declared grid other than the valid
    one gives a symbolic part.  ``pool`` is ``(kind, size, stride)`` with
    kind ``"max"`` or ``"avg"`` and needs a ``(rows, cols)`` grid.  Returns
    the layer and its output grid.
    """
    # The window table is built only for a numeric part: a symbolic one would
    # throw it away, and at fixture scale it takes megabytes.
    if declared is None or declared == valid:
        part = ConvPart(batch, channels, spatial, table(), filters, bias=bias,
                        kernel_shape=kernel, stride=stride)
        grid = valid
    else:
        n_declared = math.prod(declared) if isinstance(declared, tuple) else declared
        part = SymbolicConvPart(batch, channels, spatial, n_declared,
                                kernel, stride, filters, bias=bias)
        grid = declared
    hyper.update(channels=channels, filters=filters, kernel=kernel, stride=stride,
                 bias=bias, activation=activation, patches=part.n_p)
    stages = []
    if batchnorm is not None:
        stages.append(BatchNormStage(batch, part.d_out // batch, batchnorm))
        hyper["batchnorm"] = batchnorm
    stages.extend(_act_stages(batch, part.d_out, activation))
    if pool is not None:
        kind, size, pool_stride = pool
        stage, grid = _pool_stage(_POOLS[kind], batch, filters, *grid, size, pool_stride)
        stages.append(stage)
        hyper["pool"] = pool
    return LayerDescriptor("conv", part, tuple(stages), batch, hyper), grid


def conv2d(batch: int, channels: int, height: int, width: int, filters: int,
           kernel, stride=1, activation: str = "identity", bias: bool = False,
           declared_patches: Optional[int] = None) -> LayerDescriptor:
    """2-d convolution layer.

    With ``declared_patches`` equal to the valid-window count (or omitted)
    the layer is fully numeric.  A differing declared count (e.g. a padded
    architecture described by output size alone) yields a symbolic layer:
    constants and operation counts work, numeric evaluation does not.
    """
    kh, kw = _pair(kernel)
    sh, sw = _pair(stride)
    rows, cols = _valid_grid(height, width, kh, kw, sh, sw)
    return _conv_layer(batch, channels, height * width, rows * cols, declared_patches,
                       lambda: _valid_patches_2d(height, width, kh, kw, sh, sw)[0],
                       (kh, kw), (sh, sw), filters, activation, bias,
                       {"height": height, "width": width})[0]


def conv1d(batch: int, channels: int, length: int, filters: int, kernel: int,
           stride: int = 1, activation: str = "identity", bias: bool = False,
           declared_patches: Optional[int] = None) -> LayerDescriptor:
    k, s = int(kernel), int(stride)
    # a 1-d sweep is the one-row case of the 2-d sweep
    _, n_valid = _valid_grid(1, length, 1, k, 1, s)
    return _conv_layer(batch, channels, length, n_valid, declared_patches,
                       lambda: _valid_patches_2d(1, length, 1, k, 1, s)[0], (k,), (s,),
                       filters, activation, bias, {"length": length})[0]


def activation_layer(batch: int, features: int, name: str) -> LayerDescriptor:
    total = batch * features
    part = IdentityPart(total)
    stage = ElementwiseStage(get_activation(name), total)
    return LayerDescriptor("activation", part, (stage,), batch,
                           {"name": name, "features": features})


def softmax_layer(batch: int, classes: int) -> LayerDescriptor:
    part = IdentityPart(batch * classes)
    return LayerDescriptor("softmax", part, (SoftmaxStage(batch, classes),), batch,
                           {"classes": classes})


def _pool_layer(kind, cls, batch, channels, height, width, size, stride):
    size = _pair(size)
    stride = _pair(size if stride is None else stride)
    stage, grid = _pool_stage(cls, batch, channels, height, width, size, stride)
    part = IdentityPart(batch * channels * height * width)
    return LayerDescriptor(kind, part, (stage,), batch,
                           {"channels": channels, "height": height, "width": width,
                            "size": size, "stride": stride, "out_shape": grid})


def maxpool2d(batch: int, channels: int, height: int, width: int, size,
              stride=None) -> LayerDescriptor:
    return _pool_layer("maxpool", MaxPoolStage, batch, channels, height, width, size, stride)


def avgpool2d(batch: int, channels: int, height: int, width: int, size,
              stride=None) -> LayerDescriptor:
    return _pool_layer("avgpool", AvgPoolStage, batch, channels, height, width, size, stride)


def batchnorm_layer(batch: int, features: int, eps: float) -> LayerDescriptor:
    part = IdentityPart(batch * features)
    stage = BatchNormStage(batch, features, eps)
    return LayerDescriptor("batchnorm", part, (stage,), batch,
                           {"features": features, "eps": eps})


def residual_wrap(layer: LayerDescriptor) -> LayerDescriptor:
    """Wrap a layer with a skip connection around its bi-affine part.

    The wrapped layer maps per-sample ``(x1, x2)`` to
    ``(a(b(x1, u) + x2), x1)``, carrying ``x1`` unchanged past the stages.
    """
    part = ResidualPart(layer.part, layer.batch)
    pass_ps = layer.part.d_in // layer.batch
    stages = tuple(BlockStage(st, layer.batch, pass_ps) for st in layer.stages)
    return LayerDescriptor("residual-wrap", part, stages, layer.batch, {"base": layer})


# second-order contraction ------------------------------------------------

def layer_second_contract(tape, t: int, lam):
    """Second derivatives of ``lam . layer_t(x, u)`` at a recorded point.

    ``tape`` is a :class:`chaincert.autodiff.Tape`.  Layer ``t`` is taken at
    its recorded input ``tape.states[t]`` and parameters ``tape.u.blocks[t]``,
    and its recorded stage linearisations ``tape.stage_lins[t]`` are reused,
    so nothing is evaluated forward again.  Returns ``(Hxx, JxH, H, w)``
    with shapes (d_in, d_in), (d_in, d_part), (d_part, d_part) and
    (d_part,): ``H`` is the contracted Hessian of the stages at the part
    output, ``w`` the cotangent there and ``JxH = Jx^T H``.  The parameter
    blocks stay factored for the caller: ``Huu = Ju^T H Ju`` and, as the
    bi-affine part is affine in each argument separately and its only
    second-order piece is ``second_cross(w)``, ``Hxu = JxH Ju +
    second_cross(w)``.  This is the Newton model's one curvature routine
    (:func:`chaincert.oracles.build_lq`, whose ``dense_R`` gives ``Hxu``).
    Every product with a Jacobian is a stacked ``vjp``, so no dense
    Jacobian is formed.
    """
    layer = tape.chain.layers[t]
    if not layer.second_order:
        raise SecondOrderUnavailable(
            f"layer '{layer.kind}' contains a piecewise-linear piece")
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (layer.d_out,):
        raise DimensionMismatch(
            f"layer '{layer.kind}': cotangent shape {lam.shape}, expected ({layer.d_out},)")
    part = layer.part
    lins = tape.stage_lins[t]

    w = lam
    H = np.zeros((part.d_out, part.d_out))
    if lins:
        H = lins[-1].hess_contract(w)
        w = lins[-1].vjp(w)
        for lin in reversed(lins[:-1]):
            # J^T H J as two stacked adjoints: the rows of vjp(H) are those of H J
            H = lin.vjp(lin.vjp(H).T).T + lin.hess_contract(w)
            w = lin.vjp(w)

    # stacked adjoints: the rows of vjp_x(u, M) are those of M Jx
    u = tape.u.blocks[t]
    JxH = part.vjp_x(u, H.T).T
    return part.vjp_x(u, JxH), JxH, H, w
