"""Architecture file grammar: parsing, error reporting with line numbers,
emit/parse roundtrips, builder output, and the shipped fixtures."""

import os

import numpy as np
import pytest

from chaincert import (ParseError, SymbolicConvPart, build_arch,
                       parse_arch, parse_arch_text)
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
    # would take 3.5 MB.  Only the small pooling tables are built.
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
