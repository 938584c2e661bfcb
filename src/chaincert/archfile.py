"""Architecture files: a flat, line-based chain description.

Grammar (one record per line, ``#`` starts a comment):

    input samples=<int> channels=<int> height=<int> width=<int> norm=<float>
    input samples=<int> features=<int> norm=<float>
    radius <float> [<float> ...]          # one value, or one per layer
    objective squared | logistic | convex-cluster
    layer conv filters=<int> kernel=<KxK|K> [stride=<KxK|K>] [patches=<HxW|N>]
          [bias=<bool>] [batchnorm=<eps>] [activation=<name>] [pool=<max|avg>:<K>:<K>]
    layer fully-connected out=<int> [activation=<name|softmax>] [bias=<bool>]
    layer activation name=<name>
    layer softmax
    layer maxpool size=<KxK|K> [stride=<KxK|K>]
    layer avgpool size=<KxK|K> [stride=<KxK|K>]
    layer batchnorm eps=<float>

Every count, size and ``K``/``KxK`` pair is positive; ``norm`` is finite
and nonnegative, each radius finite and positive, and ``eps`` positive.
A conv record's stages apply in the order batchnorm, activation, pool.
``patches`` may declare a padded output grid; when it differs from the
valid-window grid (rows and columns, not only their product) the layer
becomes symbolic (constants and cost figures only).  Every layer is made
by the constructors in ``layers``.  Supervised objectives get
deterministic synthetic targets: one-hot class ``i mod q`` for logistic,
zeros for squared, built when the objective first reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .activations import ACTIVATIONS
from .chain import ChainSpec
from .errors import DimensionMismatch
from .layers import (LayerDescriptor, _conv_layer, _valid_grid, _valid_patches_2d,
                     activation_layer, avgpool2d, batchnorm_layer, fully_connected,
                     maxpool2d, softmax_layer)
from .objectives import _LabelsOnRead, cluster_objective
from .smoothness import BoundedDomain

__all__ = ["ParseError", "ArchFile", "read_archfile", "parse_arch_text",
           "build_arch", "parse_arch"]


class ParseError(ValueError):
    """Malformed architecture file; the message carries the line number."""


@dataclass(eq=False)
class ArchFile:
    """Parsed records, faithful to the source but normalized."""

    input: dict
    objective: str
    radii: List[float]
    layers: List[dict]

    def emit(self) -> str:
        lines = [_emit_fields("input", _input_kind(self.input), self.input),
                 "radius " + " ".join(_fmt(r) for r in self.radii),
                 f"objective {self.objective}"]
        lines += [_emit_fields(f"layer {rec['kind']}", rec["kind"], rec) for rec in self.layers]
        return "\n".join(lines) + "\n"


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        # a pair is KxK; a pool spec (kind, size, stride) is kind:KxK:KxK
        return (":" if isinstance(v[0], str) else "x").join(_fmt(x) for x in v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _emit_fields(head: str, kind: str, rec: dict) -> str:
    return " ".join([head] + [f"{k}={_fmt(rec[k])}" for k, _, _ in _GRAMMAR[kind]
                              if rec.get(k) is not None])


def _parse_bool(s: str, where: str) -> bool:
    if s in ("true", "false"):
        return s == "true"
    raise ParseError(f"{where}: expected true/false, got '{s}'")


def _parse_count(s: str, where: str) -> int:
    try:
        v = int(s)
    except ValueError:
        raise ParseError(f"{where}: expected an integer, got '{s}'") from None
    if v < 1:
        raise ParseError(f"{where}: expected a positive integer, got '{s}'")
    return v


def _parse_float(s: str, where: str) -> float:
    try:
        return float(s)
    except ValueError:
        raise ParseError(f"{where}: expected a number, got '{s}'") from None


def _checked_float(ok, what: str):
    """Parser of a number ``v`` with ``ok(v)`` true; ``what`` states the condition."""
    def parse(s: str, where: str) -> float:
        v = _parse_float(s, where)
        if not ok(v):
            raise ParseError(f"{where}: {what}, got '{s}'")
        return v
    return parse


# NaN fails every comparison, so each condition below also refuses it.
_parse_norm = _checked_float(lambda v: 0 <= v < math.inf,
                             "input norm must be finite and nonnegative")
_parse_radius = _checked_float(lambda v: 0 < v < math.inf, "radius needs finite positive values")
_parse_eps = _checked_float(lambda v: v > 0, "batchnorm eps must be positive")


def _parse_pair(s: str, where: str) -> Tuple[int, int]:
    try:
        a, b = s.split("x") if "x" in s else (s, s)
        pair = int(a), int(b)
    except ValueError:
        raise ParseError(f"{where}: expected K or KxK, got '{s}'") from None
    if min(pair) < 1:
        raise ParseError(f"{where}: expected positive K or KxK, got '{s}'")
    return pair


def _parse_pool(s: str, where: str) -> tuple:
    bits = s.split(":")
    if len(bits) != 3 or bits[0] not in ("max", "avg"):
        raise ParseError(
            f"{where}: pool must be max:<size>:<stride> or avg:<size>:<stride>")
    return bits[0], _parse_pair(bits[1], where), _parse_pair(bits[2], where)


def _activation(names):
    def parse(s: str, where: str) -> str:
        if s not in names:
            raise ParseError(f"{where}: unknown activation '{s}'")
        return s
    return parse


_ACT_NAMES = tuple(ACTIVATIONS)
_REQUIRED = object()
_POOL = (("size", _parse_pair, _REQUIRED),
         ("stride", _parse_pair, lambda rec: rec["size"]))

# Per record kind, its keys in emit order with their parsers and defaults.  A
# default is _REQUIRED, None (the key stays out of the record when absent), a
# fixed value, or a function of the fields before it.  The input shapes' names
# hold a space, so no layer kind (one token) can name them.
_GRAMMAR = {
    "input image": (("samples", _parse_count, _REQUIRED), ("channels", _parse_count, _REQUIRED),
                    ("height", _parse_count, _REQUIRED), ("width", _parse_count, _REQUIRED),
                    ("norm", _parse_norm, _REQUIRED)),
    "input flat": (("samples", _parse_count, _REQUIRED), ("features", _parse_count, _REQUIRED),
                   ("norm", _parse_norm, _REQUIRED)),
    "conv": (("filters", _parse_count, _REQUIRED), ("kernel", _parse_pair, _REQUIRED),
             ("stride", _parse_pair, (1, 1)), ("patches", _parse_pair, None),
             ("bias", _parse_bool, False), ("batchnorm", _parse_eps, None),
             ("activation", _activation(_ACT_NAMES), None), ("pool", _parse_pool, None)),
    "fully-connected": (("out", _parse_count, _REQUIRED),
                        ("activation", _activation(_ACT_NAMES + ("softmax",)), None),
                        ("bias", _parse_bool, True)),
    "activation": (("name", _activation(_ACT_NAMES), _REQUIRED),),
    "softmax": (),
    "maxpool": _POOL,
    "avgpool": _POOL,
    "batchnorm": (("eps", _parse_eps, _REQUIRED),),
}


def _input_kind(rec) -> str:
    return "input flat" if "features" in rec else "input image"


def _parse_fields(kind: str, tokens, ln: int, rec: dict) -> dict:
    """Fill ``rec`` from ``key=value`` tokens by the ``_GRAMMAR`` entry of ``kind``."""
    if kind not in _GRAMMAR:
        raise ParseError(f"line {ln}: unknown layer kind '{kind}'")
    keys = [key for key, _, _ in _GRAMMAR[kind]]
    given = {}
    for tok in tokens:
        key, eq, value = tok.partition("=")
        if not eq:
            raise ParseError(f"line {ln}: expected key=value, got '{tok}'")
        if key in given:
            raise ParseError(f"line {ln}: duplicate key '{key}'")
        if key not in keys:
            raise ParseError(f"line {ln}: unknown key '{key}'")
        given[key] = value
    for key, parse, default in _GRAMMAR[kind]:
        if key in given:
            rec[key] = parse(given[key], f"line {ln}")
        elif default is _REQUIRED:
            raise ParseError(f"line {ln}: missing required key '{key}'")
        elif callable(default):
            rec[key] = default(rec)
        elif default is not None:
            rec[key] = default
    return rec


def parse_arch_text(text: str) -> ArchFile:
    input_rec = None
    objective = None
    radii: Optional[List[float]] = None
    layers: List[dict] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        if head == "input":
            if input_rec is not None:
                raise ParseError(f"line {ln}: duplicate input record")
            kind = _input_kind([tok.partition("=")[0] for tok in tokens])
            input_rec = _parse_fields(kind, tokens[1:], ln, {})
        elif head == "radius":
            if radii is not None:
                raise ParseError(f"line {ln}: duplicate radius record")
            radii = [_parse_radius(t, f"line {ln}") for t in tokens[1:]]
            if not radii:
                raise ParseError(f"line {ln}: radius needs finite positive values")
        elif head == "objective":
            if objective is not None:
                raise ParseError(f"line {ln}: duplicate objective record")
            if len(tokens) != 2 or tokens[1] not in ("squared", "logistic", "convex-cluster"):
                raise ParseError(
                    f"line {ln}: objective must be squared, logistic or convex-cluster")
            objective = tokens[1]
        elif head == "layer":
            if len(tokens) < 2:
                raise ParseError(f"line {ln}: layer record needs a kind")
            layers.append(_parse_fields(tokens[1], tokens[2:], ln, dict(kind=tokens[1], line=ln)))
        else:
            raise ParseError(f"line {ln}: unknown record '{head}'")
    if input_rec is None:
        raise ParseError("line 0: no input record (empty architecture file?)")
    if objective is None:
        raise ParseError("line 0: no objective record")
    if not layers:
        raise ParseError("line 0: no layer records")
    if radii is None:
        radii = [1.0]
    if len(radii) == 1:
        radii = radii * len(layers)
    if len(radii) != len(layers):
        raise ParseError(
            f"line 0: {len(radii)} radius values for {len(layers)} layers")
    return ArchFile(input_rec, objective, radii, layers)


def read_archfile(path: str) -> ArchFile:
    with open(path, "r") as fh:
        return parse_arch_text(fh.read())


def _build_conv(rec: dict, m: int, shape, ln: int) -> Tuple[LayerDescriptor, tuple]:
    if shape[0] != "image":
        raise ParseError(f"line {ln}: conv needs an image-shaped state")
    _, C, H, W = shape
    kh, kw = rec["kernel"]
    sh, sw = rec["stride"]
    layer, grid = _conv_layer(
        m, C, H * W, _valid_grid(H, W, kh, kw, sh, sw), rec.get("patches"),
        lambda: _valid_patches_2d(H, W, kh, kw, sh, sw)[0], (kh, kw), (sh, sw),
        rec["filters"], rec.get("activation", "identity"), rec["bias"],
        {"height": H, "width": W}, rec.get("batchnorm"), rec.get("pool"))
    return layer, ("image", rec["filters"], *grid)


def build_arch(af: ArchFile):
    """Materialize (ChainSpec, BoundedDomain, Objective) from records."""
    m = af.input["samples"]
    if "features" in af.input:
        shape = ("flat", af.input["features"])
    else:
        shape = ("image", af.input["channels"], af.input["height"], af.input["width"])
    layers = []
    for rec in af.layers:
        ln = rec["line"]
        total_ps = shape[1] if shape[0] == "flat" else shape[1] * shape[2] * shape[3]
        kind = rec["kind"]
        try:
            if kind == "conv":
                layer, shape = _build_conv(rec, m, shape, ln)
            elif kind == "fully-connected":
                layer = fully_connected(m, total_ps, rec["out"],
                                        activation=rec.get("activation", "identity"),
                                        bias=rec["bias"])
                shape = ("flat", rec["out"])
            elif kind == "activation":
                layer = activation_layer(m, total_ps, rec["name"])
            elif kind == "softmax":
                if shape[0] != "flat":
                    raise ParseError(f"line {ln}: softmax needs a flat state")
                layer = softmax_layer(m, shape[1])
            elif kind in ("maxpool", "avgpool"):
                if shape[0] != "image":
                    raise ParseError(f"line {ln}: pooling needs an image-shaped state")
                _, C, H, W = shape
                pool = maxpool2d if kind == "maxpool" else avgpool2d
                layer = pool(m, C, H, W, rec["size"], rec["stride"])
                shape = ("image", C, *layer.hyper["out_shape"])
            elif kind == "batchnorm":
                layer = batchnorm_layer(m, total_ps, rec["eps"])
            else:
                raise ParseError(f"line {ln}: unknown layer kind '{kind}'")
        except DimensionMismatch as exc:
            raise ParseError(f"line {ln}: {exc}") from exc
        layers.append(layer)
    try:
        chain = ChainSpec(tuple(layers))
    except DimensionMismatch as exc:
        raise ParseError(f"chain assembly failed: {exc}") from exc

    dom = BoundedDomain(tuple(af.radii), af.input["norm"])
    q = chain.d_out // m
    if chain.d_out % m:
        raise ParseError(
            f"output dim {chain.d_out} does not split over {m} samples")
    if af.objective == "squared":
        h = _LabelsOnRead("squared", m, q, lambda n, q: np.zeros((n, q)))
    elif af.objective == "logistic":
        h = _LabelsOnRead("logistic", m, q, _cyclic_one_hot)
    else:
        h = cluster_objective(m, q)
    return chain, dom, h


def _cyclic_one_hot(n: int, q: int) -> np.ndarray:
    """One-hot rows of class ``i mod q``, the synthetic logistic targets."""
    y = np.zeros((n, q))
    y[np.arange(n), np.arange(n) % q] = 1.0
    return y


def parse_arch(path: str, batch: Optional[int] = None, radius: Optional[float] = None,
               norm: Optional[float] = None, bn_eps: Optional[float] = None):
    """Load, override and build an architecture file.

    Overrides replace the batch size, use one uniform radius, change the
    input norm bound, or reset every batch-norm epsilon; they exist so one
    fixture file can drive parameter studies.  Each goes through the parser
    of the value it replaces, so a bad one raises ``ParseError`` naming it.
    """
    def override(parse, value, name):
        return None if value is None else parse(str(value), f"override {name}")

    batch = override(_parse_count, batch, "batch")
    radius = override(_parse_radius, radius, "radius")
    norm = override(_parse_norm, norm, "norm")
    bn_eps = override(_parse_eps, bn_eps, "bn_eps")
    af = read_archfile(path)
    if batch is not None:
        af.input["samples"] = batch
    if radius is not None:
        af.radii = [radius] * len(af.layers)
    if norm is not None:
        af.input["norm"] = norm
    if bn_eps is not None:
        for rec in af.layers:
            if rec["kind"] == "batchnorm":
                rec["eps"] = bn_eps
            if rec["kind"] == "conv" and "batchnorm" in rec:
                rec["batchnorm"] = bn_eps
    return build_arch(af)
