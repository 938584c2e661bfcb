"""Command line driver, exercised in process through ``main(argv)``."""

import csv
import os

import pytest

from chaincert import cli
from chaincert.cli import main

FIXDIR = os.path.join(os.path.dirname(__import__("chaincert").__file__), "fixtures")


def _fixture(name):
    return os.path.join(FIXDIR, name)


@pytest.fixture
def tiny_arch(tmp_path):
    path = tmp_path / "tiny.arch"
    path.write_text(
        "input samples=4 features=5 norm=1\n"
        "radius 1\n"
        "objective logistic\n"
        "layer fully-connected out=6 activation=softplus-centered bias=true\n"
        "layer fully-connected out=3 activation=identity bias=true\n")
    return str(path)


@pytest.fixture
def relu_arch(tmp_path):
    path = tmp_path / "relu.arch"
    path.write_text(
        "input samples=2 features=3 norm=1\n"
        "radius 1\n"
        "objective squared\n"
        "layer fully-connected out=3 activation=relu bias=true\n")
    return str(path)


def test_smoothness_report(tiny_arch, capsys):
    assert main(["smoothness", tiny_arch]) == 0
    out = capsys.readouterr().out
    assert "final log lipschitz" in out
    assert "fully-connected" in out


def test_smoothness_compare_identical_is_zero(tiny_arch, capsys):
    assert main(["smoothness", tiny_arch, "--compare", tiny_arch]) == 0
    out = capsys.readouterr().out
    assert "log lipschitz difference  (b - a) = 0" in out
    assert "log smoothness difference (b - a) = 0" in out


def test_smoothness_vgg_fixtures(capsys):
    rc = main(["smoothness", _fixture("vgg16.arch"),
               "--compare", _fixture("vgg16-smooth.arch")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "log lipschitz difference  (b - a) = 0" in out


def test_smoothness_overrides_change_output(tiny_arch, capsys):
    main(["smoothness", tiny_arch])
    base = capsys.readouterr().out
    main(["smoothness", tiny_arch, "--radius", "0.25", "--batch", "2",
          "--input-norm", "0.5"])
    small = capsys.readouterr().out
    assert base != small


def test_gradcheck_passes_on_smooth_arch(tiny_arch, capsys):
    assert main(["gradcheck", tiny_arch, "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out and "FAIL" not in out
    assert "max relative error" in out


@pytest.fixture
def no_sampling(monkeypatch):
    """Fail the test if a command draws parameters or states."""
    def refuse(*args, **kwargs):
        raise AssertionError("sampled before checking the architecture is numeric")
    monkeypatch.setattr(cli, "sample_params", refuse)
    monkeypatch.setattr(cli, "sample_state", refuse)


def test_gradcheck_rejects_symbolic_arch(capsys, no_sampling):
    rc = main(["gradcheck", _fixture("vgg16-smooth.arch")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_train_rejects_symbolic_arch(capsys, no_sampling):
    rc = main(["train", _fixture("vgg16-smooth.arch"), "--steps", "1", "--certified"])
    assert rc == 1
    assert "declared symbolically" in capsys.readouterr().err


def test_oracle_bench_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    rc = main(["oracle-bench", "--tau", "1", "2", "--width", "3",
               "--reps", "1", "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["tau", "width", "params", "dp_seconds", "dense_seconds",
                       "gn_dual_seconds", "newton_agree", "gn_agree", "gn_ad_calls"]
    assert len(rows) == 3
    for row in rows[1:]:
        assert float(row[6]) < 1e-8
        assert float(row[7]) < 1e-6
        # two set-up calls, then two per CG iteration, at most d_tau = 3 of them
        assert int(row[8]) in (2, 4, 6, 8)


def test_train_certified(tiny_arch, capsys):
    rc = main(["train", tiny_arch, "--steps", "5", "--certified"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "certified smoothness" in out
    assert "final objective" in out


def test_train_explicit_gamma_with_trace(tiny_arch, tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    rc = main(["train", tiny_arch, "--steps", "4", "--gamma", "0.05",
               "--out", str(trace)])
    assert rc == 0
    with open(trace, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iter", "value", "mapping_norm"]
    assert len(rows) == 5


def test_train_sgd_variance_line(tiny_arch, capsys):
    rc = main(["train", tiny_arch, "--steps", "4", "--certified",
               "--batch", "2"])
    assert rc == 0
    assert "gradient variance" in capsys.readouterr().out


def test_train_certified_refusal_is_check_failure(relu_arch, capsys):
    rc = main(["train", relu_arch, "--steps", "3", "--certified"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.arch"
    bad.write_text("input samples=2 features=3 norm=1\nradius 1\n"
                   "objective squared\nlayer teleport out=2\n")
    assert main(["smoothness", str(bad)]) == 2
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize("fixture, flag, value, name", [
    ("vgg16-smooth.arch", "--radius", "nan", "radius"),
    ("vgg16-smooth.arch", "--input-norm", "nan", "norm"),
    ("vgg16-batchnorm.arch", "--bn-eps", "nan", "bn_eps"),
    ("vgg16-smooth.arch", "--batch", "0", "batch"),
], ids=["radius-nan", "input-norm-nan", "bn-eps-nan", "batch-0"])
def test_bad_override_is_a_parse_error_naming_it(fixture, flag, value, name, capsys):
    assert main(["smoothness", _fixture(fixture), flag, value]) == 2
    captured = capsys.readouterr()
    assert f"parse error: override {name}:" in captured.err
    assert f"got '{value}'" in captured.err
    assert captured.out == ""


def test_missing_file_exit_code(capsys):
    assert main(["smoothness", "/nonexistent/x.arch"]) == 2
    capsys.readouterr()


def test_compare_of_two_infinite_or_zero_bounds_is_undefined(relu_arch, tmp_path, capsys):
    # a relu network has no finite smoothness bound and a network without
    # parameters a zero one in them; inf - inf has no value
    assert main(["smoothness", relu_arch, "--compare", relu_arch]) == 0
    out = capsys.readouterr().out
    assert "log lipschitz difference  (b - a) = 0\n" in out
    assert "log smoothness difference (b - a) = undefined (both bounds infinite)\n" in out
    free = tmp_path / "free.arch"
    free.write_text("input samples=2 features=3 norm=1\nradius 1\nobjective squared\n"
                    "layer activation name=softplus\n")
    assert main(["smoothness", str(free), "--compare", str(free)]) == 0
    out += capsys.readouterr().out
    assert "log lipschitz difference  (b - a) = undefined (both bounds zero)\n" in out
    assert "nan" not in out


@pytest.mark.parametrize("argv", [
    ["gradcheck", "{arch}", "--step", "0"],
    ["gradcheck", "{arch}", "--step", "nan"],
    ["gradcheck", "{arch}", "--tol", "-1"],
    ["gradcheck", "{arch}", "--tol", "nan"],
    ["gradcheck", "{arch}", "--seed", "-1"],
    ["train", "{arch}", "--certified", "--steps", "0"],
    ["train", "{arch}", "--certified", "--steps", "-1"],
    ["train", "{arch}", "--certified", "--steps", "3", "--batch", "-1"],
    ["train", "{arch}", "--certified", "--steps", "3", "--batch", "9"],
    ["train", "{arch}", "--certified", "--steps", "3", "--eps", "nan"],
    ["train", "{arch}", "--steps", "3", "--gamma", "0"],
    ["train", "{arch}", "--steps", "3", "--gamma", "nan"],
    ["train", "{arch}", "--steps", "3"],
    ["oracle-bench", "--tau", "0"],
    ["oracle-bench", "--width", "0"],
    ["oracle-bench", "--reps", "0"],
    ["oracle-bench", "--kappa", "0"],
], ids=lambda argv: " ".join(a for a in argv if a != "{arch}"))
def test_usage_errors_exit_2_before_any_work(argv, tiny_arch, capsys, no_sampling):
    # tiny_arch holds 4 samples, so a batch of 9 is refused after the parse
    assert main([a.format(arch=tiny_arch) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error" in captured.err


def test_parser_is_built_once_and_keeps_no_options(tiny_arch, relu_arch, capsys):
    cli._parser.cache_clear()  # the next call builds it as a fresh process would
    runs = [["smoothness", tiny_arch], ["train", tiny_arch, "--steps", "2", "--certified"]]
    fresh = []
    for argv in runs:
        assert main(argv) == 0
        fresh.append(capsys.readouterr().out)
    parser = cli._parser()
    for argv, extra, out in zip(runs, (["--compare", relu_arch], ["--batch", "2"]), fresh):
        assert main(argv + extra) == 0
        assert capsys.readouterr().out != out
        assert main(argv) == 0
        assert capsys.readouterr().out == out
    assert cli._parser() is parser
