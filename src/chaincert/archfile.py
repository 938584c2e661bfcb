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

A conv record's stages apply in the order batchnorm, activation, pool.
``patches`` may declare a padded output grid; when it differs from the
valid-window grid (rows and columns, not only their product) the layer
becomes symbolic (constants and cost figures only).  Every layer is made
by the constructors in ``layers``.  Supervised objectives get
deterministic synthetic targets: one-hot class ``i mod q`` for logistic,
zeros for squared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .chain import ChainSpec
from .errors import DimensionMismatch
from .layers import (LayerDescriptor, _conv_layer, _valid_grid, _valid_patches_2d,
                     activation_layer, avgpool2d, batchnorm_layer, fully_connected,
                     maxpool2d, softmax_layer)
from .objectives import Objective, cluster_objective
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
        lines = []
        ik = ["samples", "channels", "height", "width", "features", "norm"]
        lines.append("input " + " ".join(
            f"{k}={_fmt(self.input[k])}" for k in ik if k in self.input))
        lines.append("radius " + " ".join(_fmt(r) for r in self.radii))
        lines.append(f"objective {self.objective}")
        order = {
            "conv": ["filters", "kernel", "stride", "patches", "bias",
                     "batchnorm", "activation", "pool"],
            "fully-connected": ["out", "activation", "bias"],
            "activation": ["name"],
            "softmax": [],
            "maxpool": ["size", "stride"],
            "avgpool": ["size", "stride"],
            "batchnorm": ["eps"],
        }
        for rec in self.layers:
            kind = rec["kind"]
            parts = [f"layer {kind}"]
            for k in order[kind]:
                if k in rec and rec[k] is not None:
                    if k == "pool":
                        pk, ps, pt = rec[k]
                        parts.append(f"pool={pk}:{_fmt(ps)}:{_fmt(pt)}")
                    else:
                        parts.append(f"{k}={_fmt(rec[k])}")
            lines.append(" ".join(parts))
        return "\n".join(lines) + "\n"


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return "x".join(str(x) for x in v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _parse_bool(s: str, ln: int) -> bool:
    if s in ("true", "false"):
        return s == "true"
    raise ParseError(f"line {ln}: expected true/false, got '{s}'")


def _parse_int(s: str, ln: int) -> int:
    try:
        return int(s)
    except ValueError:
        raise ParseError(f"line {ln}: expected an integer, got '{s}'") from None


def _parse_float(s: str, ln: int) -> float:
    try:
        return float(s)
    except ValueError:
        raise ParseError(f"line {ln}: expected a number, got '{s}'") from None


def _parse_pair(s: str, ln: int) -> Tuple[int, int]:
    try:
        if "x" in s:
            a, b = s.split("x")
            return int(a), int(b)
        v = int(s)
        return v, v
    except ValueError:
        raise ParseError(f"line {ln}: expected K or KxK, got '{s}'") from None


def _kv(tokens, ln: int) -> dict:
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise ParseError(f"line {ln}: expected key=value, got '{tok}'")
        k, v = tok.split("=", 1)
        if k in out:
            raise ParseError(f"line {ln}: duplicate key '{k}'")
        out[k] = v
    return out


def _require(kv: dict, keys, allowed, ln: int):
    for k in keys:
        if k not in kv:
            raise ParseError(f"line {ln}: missing required key '{k}'")
    for k in kv:
        if k not in allowed:
            raise ParseError(f"line {ln}: unknown key '{k}'")


_ACT_NAMES = ("identity", "relu", "softplus", "softplus-centered", "sigmoid")


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
            kv = _kv(tokens[1:], ln)
            if "features" in kv:
                _require(kv, ("samples", "features", "norm"),
                         ("samples", "features", "norm"), ln)
                input_rec = {"samples": _parse_int(kv["samples"], ln),
                             "features": _parse_int(kv["features"], ln),
                             "norm": _parse_float(kv["norm"], ln)}
            else:
                _require(kv, ("samples", "channels", "height", "width", "norm"),
                         ("samples", "channels", "height", "width", "norm"), ln)
                input_rec = {"samples": _parse_int(kv["samples"], ln),
                             "channels": _parse_int(kv["channels"], ln),
                             "height": _parse_int(kv["height"], ln),
                             "width": _parse_int(kv["width"], ln),
                             "norm": _parse_float(kv["norm"], ln)}
            if input_rec["samples"] < 1 or input_rec["norm"] < 0:
                raise ParseError(f"line {ln}: invalid input record values")
        elif head == "radius":
            if radii is not None:
                raise ParseError(f"line {ln}: duplicate radius record")
            try:
                radii = [float(t) for t in tokens[1:]]
            except ValueError:
                raise ParseError(f"line {ln}: radius values must be numbers") from None
            if not radii or any(r <= 0 for r in radii):
                raise ParseError(f"line {ln}: radius needs positive values")
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
            layers.append(_parse_layer(tokens[1], tokens[2:], ln))
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


def _parse_layer(kind: str, tokens, ln: int) -> dict:
    kv = _kv(tokens, ln)
    rec = {"kind": kind, "line": ln}
    if kind == "conv":
        _require(kv, ("filters", "kernel"),
                 ("filters", "kernel", "stride", "patches", "bias",
                  "batchnorm", "activation", "pool"), ln)
        rec["filters"] = _parse_int(kv["filters"], ln)
        rec["kernel"] = _parse_pair(kv["kernel"], ln)
        rec["stride"] = _parse_pair(kv.get("stride", "1"), ln)
        if "patches" in kv:
            rec["patches"] = _parse_pair(kv["patches"], ln)
        rec["bias"] = _parse_bool(kv["bias"], ln) if "bias" in kv else False
        if "batchnorm" in kv:
            rec["batchnorm"] = _parse_float(kv["batchnorm"], ln)
            if rec["batchnorm"] <= 0:
                raise ParseError(f"line {ln}: batchnorm eps must be positive")
        if "activation" in kv:
            if kv["activation"] not in _ACT_NAMES:
                raise ParseError(f"line {ln}: unknown activation '{kv['activation']}'")
            rec["activation"] = kv["activation"]
        if "pool" in kv:
            bits = kv["pool"].split(":")
            if len(bits) != 3 or bits[0] not in ("max", "avg"):
                raise ParseError(
                    f"line {ln}: pool must be max:<size>:<stride> or avg:<size>:<stride>")
            rec["pool"] = (bits[0], _parse_pair(bits[1], ln), _parse_pair(bits[2], ln))
    elif kind == "fully-connected":
        _require(kv, ("out",), ("out", "activation", "bias"), ln)
        rec["out"] = _parse_int(kv["out"], ln)
        if "activation" in kv:
            if kv["activation"] not in _ACT_NAMES + ("softmax",):
                raise ParseError(f"line {ln}: unknown activation '{kv['activation']}'")
            rec["activation"] = kv["activation"]
        rec["bias"] = _parse_bool(kv["bias"], ln) if "bias" in kv else True
    elif kind == "activation":
        _require(kv, ("name",), ("name",), ln)
        if kv["name"] not in _ACT_NAMES:
            raise ParseError(f"line {ln}: unknown activation '{kv['name']}'")
        rec["name"] = kv["name"]
    elif kind == "softmax":
        _require(kv, (), (), ln)
    elif kind in ("maxpool", "avgpool"):
        _require(kv, ("size",), ("size", "stride"), ln)
        rec["size"] = _parse_pair(kv["size"], ln)
        rec["stride"] = _parse_pair(kv["stride"], ln) if "stride" in kv else rec["size"]
    elif kind == "batchnorm":
        _require(kv, ("eps",), ("eps",), ln)
        rec["eps"] = _parse_float(kv["eps"], ln)
        if rec["eps"] <= 0:
            raise ParseError(f"line {ln}: batchnorm eps must be positive")
    else:
        raise ParseError(f"line {ln}: unknown layer kind '{kind}'")
    return rec


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
    n = m
    q = chain.d_out // n
    if chain.d_out % n:
        raise ParseError(
            f"output dim {chain.d_out} does not split over {n} samples")
    if af.objective == "squared":
        h = Objective("squared", n, q, np.zeros((n, q)))
    elif af.objective == "logistic":
        y = np.zeros((n, q))
        y[np.arange(n), np.arange(n) % q] = 1.0
        h = Objective("logistic", n, q, y)
    else:
        h = cluster_objective(n, q)
    return chain, dom, h


def parse_arch(path: str, batch: Optional[int] = None, radius: Optional[float] = None,
               norm: Optional[float] = None, bn_eps: Optional[float] = None):
    """Load, override and build an architecture file.

    Overrides replace the batch size, use one uniform radius, change the
    input norm bound, or reset every batch-norm epsilon; they exist so one
    fixture file can drive parameter studies.
    """
    af = read_archfile(path)
    if batch is not None:
        af.input["samples"] = int(batch)
    if radius is not None:
        af.radii = [float(radius)] * len(af.layers)
    if norm is not None:
        af.input["norm"] = float(norm)
    if bn_eps is not None:
        for rec in af.layers:
            if rec["kind"] == "batchnorm":
                rec["eps"] = float(bn_eps)
            if rec["kind"] == "conv" and "batchnorm" in rec:
                rec["batchnorm"] = float(bn_eps)
    return build_arch(af)
