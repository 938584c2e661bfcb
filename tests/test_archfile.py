"""Architecture file grammar: parsing, error reporting with line numbers,
emit/parse roundtrips, builder output, and the shipped fixtures."""

import os
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chaincert import (ArchFile, ParseError, SymbolicConvPart, archfile, build_arch,
                       catalog_constants, parse_arch, parse_arch_text)
from chaincert.biaffine import ConvPart, FCPart

FIXDIR = os.path.join(os.path.dirname(__import__("chaincert").__file__), "fixtures")

SMALL = """\
# small smooth network
input samples=2 channels=1 height=4 width=4 norm=1
radius 1 1 1
objective squared

layer conv filters=2 kernel=2x2 stride=1 bias=true activation=softplus-centered pool=avg:3:3
layer fully-connected out=5 activation=sigmoid bias=true
layer fully-connected out=3 bias=false
"""

IMAGE6 = "input samples=2 channels=1 height=6 width=6 norm=1\nradius 1\nobjective squared\n"


def test_small_text_parses_and_builds():
    af = parse_arch_text(SMALL)
    assert af.input == {"samples": 2, "channels": 1, "height": 4, "width": 4,
                        "norm": 1.0}
    assert af.objective == "squared"
    assert af.radii == [1.0, 1.0, 1.0]
    assert [rec["kind"] for rec in af.layers] == ["conv", "fully-connected",
                                                  "fully-connected"]

    chain, dom, h = build_arch(af)
    assert chain.tau == 3
    assert dom.radii == (1.0, 1.0, 1.0)
    assert dom.m0 == 1.0
    assert isinstance(chain.layers[0].part, ConvPart)
    # conv 4x4 k=2 s=1 -> 3x3, avg pool 3x3 -> 1x1, 2 filters, 2 samples
    assert chain.layers[0].d_out == 2 * 2 * 1 * 1
    assert chain.d_out == 2 * 3
    assert h.kind == "squared"
    assert np.array_equal(h.y, np.zeros((2, 3)))


def test_radius_broadcast_and_flat_input():
    af = parse_arch_text("""\
input samples=3 features=4 norm=2
radius 0.5
objective logistic
layer fully-connected out=4 activation=softplus
layer fully-connected out=2
""")
    assert af.radii == [0.5, 0.5]
    chain, dom, h = build_arch(af)
    assert dom.m0 == 2.0
    assert h.kind == "logistic"
    # one-hot labels cycle over classes
    assert np.array_equal(h.y, np.array([[1, 0], [0, 1], [1, 0]], float))


@pytest.mark.parametrize("text,fragment", [
    ("", "line 0"),
    ("input samples=2 features=3 norm=1\nradius 1\n", "objective"),
    ("input samples=2 features=3 norm=1\nradius 1\nobjective squared\n", "layer"),
    ("input samples=2 features=3 norm=1\ninput samples=2 features=3 norm=1\n"
     "radius 1\nobjective squared\nlayer fully-connected out=2\n", "line 2"),
    ("input samples=2 features=3 norm=1\nradius 1\nobjective squared\n"
     "objective squared\nlayer fully-connected out=2\n", "line 4"),
    ("input samples=2 features=3\nradius 1\nobjective squared\n"
     "layer fully-connected out=2\n", "line 1"),
    ("input samples=2 features=3 norm=1 color=red\nradius 1\n"
     "objective squared\nlayer fully-connected out=2\n", "color"),
    ("input samples=2 features=3 norm=1\nradius 1\nobjective banana\n"
     "layer fully-connected out=2\n", "line 3"),
    ("input samples=2 features=3 norm=1\nradius 1 1\nobjective squared\n"
     "layer fully-connected out=2\n", "radius"),
    ("input samples=2 features=3 norm=1\nradius 1\nobjective squared\n"
     "layer teleport out=2\n", "line 4"),
    ("input samples=2 features=3 norm=1\nradius 1\nobjective squared\n"
     "layer fully-connected out=2 frobnicate=9\n", "frobnicate"),
    ("input samples=2 features=3 norm=1\nradius 1\nobjective squared\n"
     "layer fully-connected out=abc\n", "line 4"),
    ("input samples=2 features=3 norm=1\nradius 1\nobjective squared\n"
     "layer fully-connected out=2 out=3\n", "duplicate"),
    ("input samples=2 features=3 norm=1\nradius 1\nobjective squared\n"
     "layer conv filters=2 kernel=2x2\n", "line 4"),
    ("input samples=2 channels=1 height=4 width=4 norm=1\nradius 1\n"
     "objective squared\nlayer conv filters=2 kernel=2x2 pool=med:2:2\n", "pool"),
    ("input samples=2 features=3 norm=1\nradius 1\nobjective squared\n"
     "layer fully-connected out=2 bias=perhaps\n", "line 4"),
    # out-of-range values on a 6x6 image input
    (IMAGE6 + "layer conv filters=2 kernel=3 stride=0\n", "line 4"),
    (IMAGE6 + "layer maxpool size=0\n", "line 4"),
    (IMAGE6 + "layer maxpool size=2 stride=0\n", "line 4"),
    (IMAGE6 + "layer conv filters=2 kernel=0\n", "line 4"),
    (IMAGE6 + "layer conv filters=0 kernel=2\n", "line 4"),
    (IMAGE6 + "layer conv filters=2 kernel=2 patches=0\n", "line 4"),
    (IMAGE6 + "layer batchnorm eps=nan\n", "line 4"),
    (IMAGE6.replace("norm=1", "norm=nan") + "layer maxpool size=2\n", "line 1"),
    (IMAGE6.replace("norm=1", "norm=inf") + "layer maxpool size=2\n", "line 1"),
    (IMAGE6.replace("radius 1", "radius nan") + "layer maxpool size=2\n", "line 2"),
])
def test_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        af = parse_arch_text(text)
        build_arch(af)


def test_conv_on_flat_state_is_rejected():
    text = ("input samples=2 features=9 norm=1\nradius 1 1\nobjective squared\n"
            "layer fully-connected out=4\n"
            "layer conv filters=1 kernel=2x2\n")
    with pytest.raises(ParseError, match="line 5"):
        build_arch(parse_arch_text(text))


def test_pool_on_flat_state_is_rejected():
    text = ("input samples=2 features=9 norm=1\nradius 1 1\nobjective squared\n"
            "layer fully-connected out=4\n"
            "layer maxpool size=2\n")
    with pytest.raises(ParseError, match="line 5"):
        build_arch(parse_arch_text(text))


def test_emit_parse_roundtrip():
    af = parse_arch_text(SMALL)
    text2 = af.emit()
    af2 = parse_arch_text(text2)
    assert af2.input == af.input
    assert af2.radii == af.radii
    assert af2.objective == af.objective
    recs1 = [{k: v for k, v in r.items() if k != "line"} for r in af.layers]
    recs2 = [{k: v for k, v in r.items() if k != "line"} for r in af2.layers]
    assert recs1 == recs2


def _fixture(name):
    return os.path.join(FIXDIR, name)


@pytest.mark.parametrize("name", ["vgg16.arch", "vgg16-smooth.arch",
                                  "vgg16-batchnorm.arch"])
def test_fixtures_have_sixteen_records(name):
    from chaincert.archfile import read_archfile
    af = read_archfile(_fixture(name))
    assert len(af.layers) == 16
    kinds = [r["kind"] for r in af.layers]
    assert kinds == ["conv"] * 13 + ["fully-connected"] * 3
    # emit/parse roundtrip on the real fixtures
    af2 = parse_arch_text(af.emit())
    assert [dict(r, line=0) for r in af2.layers] == [dict(r, line=0) for r in af.layers]


def test_vgg_fixture_builds_symbolic_chain():
    chain, dom, h = parse_arch(_fixture("vgg16-smooth.arch"))
    assert chain.tau == 16
    assert all(isinstance(l.part, SymbolicConvPart) for l in chain.layers[:13])
    assert all(isinstance(l.part, FCPart) for l in chain.layers[13:])
    assert chain.d_out == 128 * 1000
    assert dom.m0 == 1.0 and dom.radii == tuple([1.0] * 16)
    assert h.kind == "logistic"
    assert chain.layers[15].hyper["activation"] == "softmax"


def test_parse_overrides():
    chain, dom, h = parse_arch(_fixture("vgg16-smooth.arch"), batch=4,
                               radius=0.5, norm=3.0)
    assert chain.layers[0].batch == 4
    assert dom.radii == tuple([0.5] * 16)
    assert dom.m0 == 3.0
    assert h.n == 4


def test_bn_eps_override_changes_bound():
    from chaincert import catalog_constants, propagate_chain
    small = parse_arch(_fixture("vgg16-batchnorm.arch"), bn_eps=1e-2)
    large = parse_arch(_fixture("vgg16-batchnorm.arch"), bn_eps=1e2)
    lip_small = propagate_chain(small[0], small[1],
                                [catalog_constants(l) for l in small[0].layers]).lip.lg
    lip_large = propagate_chain(large[0], large[1],
                                [catalog_constants(l) for l in large[0].layers]).lip.lg
    assert lip_small > lip_large


def test_parse_missing_file():
    with pytest.raises(OSError):
        parse_arch(_fixture("nope.arch"))


def test_vgg16_parse_builds_no_conv_patch_table():
    # Every VGG16 conv layer is symbolic, so its window table would be thrown
    # away; the first layer's (222 * 222 windows of 9 int64 entries) alone
    # would take 3.5 MB.  The pooling tables are not built either (see below).
    import tracemalloc

    table_bytes = 222 * 222 * 9 * 8
    tracemalloc.start()
    try:
        chain, _, _ = parse_arch(_fixture("vgg16.arch"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(isinstance(l.part, SymbolicConvPart) for l in chain.layers[:13])
    assert peak < table_bytes


@pytest.mark.parametrize("name", ["vgg16", "vgg16-smooth", "vgg16-batchnorm"])
def test_vgg16_parse_builds_no_pool_window_table(name):
    # Pool stages build their window tables on first numeric use, and
    # certification makes none.  The largest VGG16 pool table, 112 * 112
    # windows of 4 int64 entries, is 0.4 MB; with all five tables built a
    # parse peaked at about 1.84 MB.  The objective's 128 x 1000 label
    # matrix (1 MB) is built when first read, so a parse peaks near 30 KB.
    import tracemalloc

    path = _fixture(name + ".arch")
    parse_arch(path)  # warm the parser's caches
    tracemalloc.start()
    try:
        parse_arch(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200_000


def test_synthetic_labels_are_built_when_first_read():
    # A parse builds no label matrix (128 x 1000 floats for VGG16), and the
    # labels read later are the documented synthetic targets.
    _, _, h = parse_arch(_fixture("vgg16.arch"))
    assert "y" not in vars(h)
    y = h.y
    assert y.shape == (128, 1000) and np.array_equal(y.argmax(axis=1), np.arange(128))
    assert np.array_equal(y.sum(axis=1), np.ones(128)) and h.y is y


def test_declared_grid_with_valid_count_but_other_shape_stays_symbolic():
    # 5x5 input, 2x2 kernel: the valid grid is 4x4.  A declared 2x8 grid has
    # the same count but another shape, so the part is symbolic and the pool
    # windows run over the declared 2x8 grid.
    chain, _, _ = build_arch(parse_arch_text(
        "input samples=1 channels=1 height=5 width=5 norm=1\nradius 1\n"
        "objective squared\nlayer conv filters=1 kernel=2x2 patches=2x8 pool=avg:2:2\n"))
    layer = chain.layers[0]
    assert isinstance(layer.part, SymbolicConvPart)
    assert layer.part.n_p == 16
    pool = layer.stages[-1]
    assert pool.spatial_in == 16
    assert pool.patches.tolist() == [[0, 1, 8, 9], [2, 3, 10, 11],
                                     [4, 5, 12, 13], [6, 7, 14, 15]]


_ACTS = ("identity", "relu", "softplus", "softplus-centered", "sigmoid")
_POSITIVE = st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False)


def _pair_within(draw, rows, cols):
    return draw(st.integers(1, rows)), draw(st.integers(1, cols))


@st.composite
def _archfiles(draw):
    """Normalized records of a random small architecture that builds."""
    m = draw(st.integers(1, 3))
    norm = draw(st.floats(0.0, 1e3, allow_nan=False))
    if draw(st.booleans()):
        shape = ("flat", draw(st.integers(1, 5)))
        inp = {"samples": m, "features": shape[1], "norm": norm}
    else:
        shape = ("image", *(draw(st.integers(lo, 6)) for lo in (1, 2, 2)))
        inp = {"samples": m, "channels": shape[1], "height": shape[2],
               "width": shape[3], "norm": norm}
    recs = []
    for ln in range(4, 4 + draw(st.integers(1, 4))):
        if shape[0] == "image":
            kind = draw(st.sampled_from(["conv", "conv", "maxpool", "avgpool", "activation",
                                         "batchnorm", "fully-connected"]))
        else:
            kind = draw(st.sampled_from(["fully-connected", "activation", "softmax",
                                         "batchnorm"]))
        rec = {"kind": kind, "line": ln}
        if kind == "conv":
            _, _, H, W = shape
            rec["filters"] = draw(st.integers(1, 2))
            rec["kernel"] = _pair_within(draw, H, W)
            rec["stride"] = _pair_within(draw, 2, 2)
            grid = ((H - rec["kernel"][0]) // rec["stride"][0] + 1,
                    (W - rec["kernel"][1]) // rec["stride"][1] + 1)
            declared = draw(st.sampled_from(["none", "valid", "other"]))
            if declared != "none":
                if declared == "other":
                    grid = _pair_within(draw, 6, 6)
                rec["patches"] = grid
            rec["bias"] = draw(st.booleans())
            if draw(st.booleans()):
                rec["batchnorm"] = draw(_POSITIVE)
            if draw(st.booleans()):
                rec["activation"] = draw(st.sampled_from(_ACTS))
            if draw(st.booleans()):
                size = _pair_within(draw, *grid)
                stride = _pair_within(draw, 2, 2)
                rec["pool"] = (draw(st.sampled_from(["max", "avg"])), size, stride)
                grid = ((grid[0] - size[0]) // stride[0] + 1,
                        (grid[1] - size[1]) // stride[1] + 1)
            shape = ("image", rec["filters"], *grid)
        elif kind in ("maxpool", "avgpool"):
            rec["size"] = _pair_within(draw, shape[2], shape[3])
            rec["stride"] = _pair_within(draw, 2, 2)
            shape = ("image", shape[1],
                     (shape[2] - rec["size"][0]) // rec["stride"][0] + 1,
                     (shape[3] - rec["size"][1]) // rec["stride"][1] + 1)
        elif kind == "fully-connected":
            rec["out"] = draw(st.integers(1, 4))
            if draw(st.booleans()):
                rec["activation"] = draw(st.sampled_from(_ACTS + ("softmax",)))
            rec["bias"] = draw(st.booleans())
            shape = ("flat", rec["out"])
        elif kind == "activation":
            rec["name"] = draw(st.sampled_from(_ACTS))
        elif kind == "batchnorm":
            rec["eps"] = draw(_POSITIVE)
        recs.append(rec)
    radii = draw(st.lists(_POSITIVE, min_size=len(recs), max_size=len(recs)))
    objective = draw(st.sampled_from(["squared", "logistic", "convex-cluster"]))
    return ArchFile(inp, objective, radii, recs)


def _without_lines(af):
    return [{k: v for k, v in rec.items() if k != "line"} for rec in af.layers]


@settings(max_examples=60, deadline=None)
@given(_archfiles())
def test_emit_parse_roundtrip_random(af):
    af2 = parse_arch_text(af.emit())
    assert (af2.input, af2.objective, af2.radii) == (af.input, af.objective, af.radii)
    assert _without_lines(af2) == _without_lines(af)
    (chain, dom, h), (chain2, dom2, h2) = build_arch(af), build_arch(af2)
    assert dom2 == dom and (h2.kind, h2.n, h2.q) == (h.kind, h.n, h.q)
    for a, b in zip(chain.layers, chain2.layers, strict=True):
        assert (a.kind, a.d_in, a.d_out, a.p) == (b.kind, b.d_in, b.d_out, b.p)
        assert type(a.part) is type(b.part)
        assert [type(s) for s in a.stages] == [type(s) for s in b.stages]
        assert catalog_constants(a) == catalog_constants(b)


def _documented_keys(block):
    """Keys per record kind, in order, from the grammar lines of ``block``."""
    keys, kind = {}, None
    for line in block.splitlines():
        words = line.split() or [""]
        if words[0] == "input":
            kind = "input flat" if "features=" in line else "input image"
        elif words[0] == "layer":
            kind = words[1]
        elif not words[0].startswith("["):  # not a continuation line
            kind = None
        if kind is not None:
            keys.setdefault(kind, []).extend(re.findall(r"([a-z-]+)=", line))
    return keys


def test_docs_name_exactly_the_grammar_table_keys():
    table = {kind: [key for key, _, _ in fields]
             for kind, fields in archfile._GRAMMAR.items()}
    doc = archfile.__doc__.split("Grammar", 1)[1].split("\n\n")[1]
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        block = fh.read().split("The grammar:\n\n```\n", 1)[1].split("```", 1)[0]
    assert _documented_keys(doc) == table
    assert _documented_keys(block) == table
