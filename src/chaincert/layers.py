"""Layer descriptors: one bi-affine part followed by nonlinear stages.

A layer computes ``a(b(x, u))`` where ``b`` is the parameter-bearing
bi-affine part and ``a`` is a (possibly empty) pipeline of parameter-free
stages.  Constructors cover the usual catalogue; ``custom_layer`` admits
anything that satisfies the part/stage interfaces.
"""

from __future__ import annotations

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
    "custom_layer",
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
        return self.part.second_order and all(st.second_order for st in self.stages)

    def describe(self) -> str:
        return f"{self.kind} (d_in={self.d_in}, d_out={self.d_out}, p={self.p})"


# patch tables -----------------------------------------------------------

def _valid_grid(height, width, kh, kw, sh, sw):
    """Output grid ``(rows, cols)`` of a valid (unpadded) 2-d window sweep."""
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


def _valid_patches_1d(length, k, s):
    if k > length:
        raise DimensionMismatch(f"kernel {k} exceeds input length {length}")
    starts = np.arange(0, length - k + 1, s)
    return (starts[:, None] + np.arange(k)).astype(int, copy=False)


def _pair(v):
    if isinstance(v, (tuple, list)):
        if len(v) != 2:
            raise DimensionMismatch(f"expected a pair, got {v}")
        return int(v[0]), int(v[1])
    return int(v), int(v)


def _act_stages(batch, total, activation):
    if activation in (None, "identity"):
        return ()
    return (ElementwiseStage(get_activation(activation), total),)


# constructors -----------------------------------------------------------

def fully_connected(batch: int, in_features: int, out_features: int,
                    activation: str = "identity", bias: bool = True) -> LayerDescriptor:
    part = FCPart(batch, in_features, out_features, bias=bias)
    stages = _act_stages(batch, part.d_out, activation)
    return LayerDescriptor("fully-connected", part, stages, batch,
                           {"in_features": in_features, "out_features": out_features,
                            "bias": bias, "activation": activation})


def _conv_layer(batch, channels, spatial, patches, kernel, stride, filters,
                activation, bias, declared_patches, hyper) -> LayerDescriptor:
    if declared_patches is None or declared_patches == len(patches):
        part = ConvPart(batch, channels, spatial, patches, filters, bias=bias,
                        kernel_shape=kernel, stride=stride)
    else:
        part = SymbolicConvPart(batch, channels, spatial, declared_patches,
                                kernel, stride, filters, bias=bias)
    hyper.update(channels=channels, filters=filters, kernel=kernel, stride=stride,
                 bias=bias, activation=activation, patches=part.n_p)
    stages = _act_stages(batch, part.d_out, activation)
    return LayerDescriptor("conv", part, stages, batch, hyper)


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
    patches, _ = _valid_patches_2d(height, width, kh, kw, sh, sw)
    return _conv_layer(batch, channels, height * width, patches, (kh, kw), (sh, sw),
                       filters, activation, bias, declared_patches,
                       {"height": height, "width": width})


def conv1d(batch: int, channels: int, length: int, filters: int, kernel: int,
           stride: int = 1, activation: str = "identity", bias: bool = False,
           declared_patches: Optional[int] = None) -> LayerDescriptor:
    patches = _valid_patches_1d(length, int(kernel), int(stride))
    return _conv_layer(batch, channels, length, patches, (int(kernel),), (int(stride),),
                       filters, activation, bias, declared_patches, {"length": length})


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
    kh, kw = _pair(size)
    sh, sw = _pair(size if stride is None else stride)
    patches, (ph, pw) = _valid_patches_2d(height, width, kh, kw, sh, sw)
    part = IdentityPart(batch * channels * height * width)
    stage = cls(batch, channels, height * width, patches)
    return LayerDescriptor(kind, part, (stage,), batch,
                           {"channels": channels, "height": height, "width": width,
                            "size": (kh, kw), "stride": (sh, sw),
                            "out_shape": (ph, pw)})


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


def custom_layer(kind: str, part: BiAffinePart, stages, batch: int,
                 hyper: Optional[dict] = None) -> LayerDescriptor:
    return LayerDescriptor(kind, part, tuple(stages), batch, dict(hyper or {}))


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
    so nothing is evaluated forward again.  Returns ``(Hxx, Hxu, H)`` with
    shapes (d_in, d_in), (d_in, p), (d_part, d_part), where ``H`` is the
    contracted Hessian of the stages at the part output: the parameter
    block is ``Huu = Ju^T H Ju``, which callers keep factored instead of
    forming a (p, p) array.  The bi-affine part is affine in each argument
    separately, so its only second-order contribution is the cross block.
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
            J = lin.dense_jacobian()
            H = J.T @ H @ J + lin.hess_contract(w)
            w = lin.vjp(w)

    Jx = part.dense_jx(tape.u.blocks[t])
    Ju = part.dense_ju(tape.states[t])
    Hxx = Jx.T @ H @ Jx
    Hxu = Jx.T @ H @ Ju + part.second_cross(w)
    return Hxx, Hxu, H
