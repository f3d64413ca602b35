"""CLI surface: CSV/JSON schemas, manifests, exit codes, reproducibility."""
import csv
import json
import re
import shlex
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from immse import ct, dt, scalar
from immse.cli import (build_parser, db_to_snr, main, parse_input_spec,
                       parse_snr_grid)
from immse.laws import DiscreteAtoms, Gaussian, GaussianMixture
from immse.quadrature import McConfig
from immse.report import Report


MANIFEST_KEYS = ["command", "params", "seeds", "version", "tolerances",
                 "wall_clock_s"]


def _read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _manifest(path):
    return json.loads((path.parent / (path.name + ".manifest.json")).read_text())


# ---------------------------------------------------------------------------
# argument parsing helpers
# ---------------------------------------------------------------------------

def test_parse_input_specs():
    assert isinstance(parse_input_spec("gaussian"), Gaussian)
    g = parse_input_spec("gaussian:1,2")
    assert (g.mean, g.variance) == (1.0, 2.0)
    mix = parse_input_spec("mixture:0.5,-1,0.25;0.5,1,0.25")
    assert isinstance(mix, GaussianMixture) and mix.weights.size == 2
    atoms = parse_input_spec("atoms:-1,0.5;1,0.5")
    assert isinstance(atoms, DiscreteAtoms)
    with pytest.raises(ValueError):
        parse_input_spec("cauchy")


@pytest.mark.parametrize("spec, layout", [
    pytest.param("binary:3", "binary", id="binary-body"),
    pytest.param("gaussian:0,1,5", "gaussian[:mean,var]", id="gaussian-3"),
    pytest.param("gaussian:0", "gaussian[:mean,var]", id="gaussian-1"),
    pytest.param("gaussian:0,1;2,3", "gaussian[:mean,var]", id="gaussian-2x2"),
    pytest.param("mixture:0.5,-1;0.5,1,0.25", "mixture:w,m,v;...",
                 id="mixture-short-part"),
    pytest.param("atoms:-1,0.5,3;1,0.5", "atoms:v,p;...", id="atoms-long-part"),
])
def test_input_spec_fields_must_match_the_layout(spec, layout):
    # no field is dropped: a body on binary, or a part with too few or too
    # many fields, is an error naming the spec and the layout expected
    with pytest.raises(ValueError) as exc:
        parse_input_spec(spec)
    assert f"input spec {spec!r} does not match {layout}" in str(exc.value)


def test_parse_snr_grid():
    grid = parse_snr_grid("0:10:0.1")
    assert grid.size == 101 and grid[0] == 0.0 and grid[-1] == pytest.approx(10.0)
    assert parse_snr_grid("2.5").tolist() == [2.5]
    db = parse_snr_grid("0:20:10", db=True)
    assert db.tolist() == pytest.approx([1.0, 10.0, 100.0])
    with pytest.raises(ValueError):
        parse_snr_grid("5:1:1")


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------

def test_curve_gaussian_mi(tmp_path):
    out = tmp_path / "mi.csv"
    assert main(["curve", "mi", "--input", "gaussian", "--snr", "0:10:0.1",
                 "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert len(rows) == 101
    at_one = [r for r in rows if float(r["snr"]) == 1.0][0]
    assert float(at_one["value"]) == pytest.approx(0.5 * np.log(2.0),
                                                   abs=1e-12)
    assert list(rows[0].keys()) == ["snr", "value", "method", "tol"]
    manifest = json.loads((tmp_path / "mi.csv.manifest.json").read_text())
    assert manifest["command"] == "curve"
    assert set(manifest) == {"command", "params", "seeds", "version",
                             "tolerances", "wall_clock_s"}
    assert list(manifest) == MANIFEST_KEYS


def test_curve_binary_mmse_at_zero(tmp_path):
    out = tmp_path / "mmse.csv"
    assert main(["curve", "mmse", "--input", "binary", "--snr", "0",
                 "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert len(rows) == 1 and float(rows[0]["value"]) == 1.0


def test_curve_bits_conversion(tmp_path):
    out = tmp_path / "bits.csv"
    assert main(["curve", "mi", "--input", "gaussian", "--snr", "1",
                 "--bits", "--out", str(out)]) == 0
    assert float(_read_csv(out)[0]["value"]) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("quantity, source", [
    ("mmse", ["--input", "binary"]), ("fisher", ["--input", "binary"]),
    ("cmmse", ["--telegraph", "nu=1"]), ("pmmse", ["--ar", "a=0.9,n=50"]),
])
def test_curve_bits_without_mi_is_usage_error(tmp_path, capsys, monkeypatch,
                                              quantity, source):
    # --bits converts information only; refused before any value is computed
    def boom(*args):
        raise AssertionError("a value was computed")
    for mod, name in [(scalar, "mmse"), (scalar, "fisher_information"),
                      (ct, "telegraph_cmmse"), (dt, "kalman_triple")]:
        monkeypatch.setattr(mod, name, boom)
    out = tmp_path / "b.csv"
    assert main(["curve", quantity, *source, "--snr", "1", "--bits",
                 "--out", str(out)]) == 2
    assert "--bits" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_curve_telegraph_monotone(tmp_path):
    out = tmp_path / "cm.csv"
    assert main(["curve", "cmmse", "--telegraph", "nu=1",
                 "--snr-db=-5:20:2.5", "--out", str(out)]) == 0
    vals = [float(r["value"]) for r in _read_csv(out)]
    assert len(vals) == 11 and all(np.diff(vals) < 0)


def test_curve_telegraph_mmse_high_snr(tmp_path):
    # snr up to 1000 nu: a stalled quadrature would exit 3
    out = tmp_path / "sm.csv"
    assert main(["curve", "mmse", "--telegraph", "nu=1", "--snr-db",
                 "10:30:5", "--out", str(out)]) == 0
    vals = [float(r["value"]) for r in _read_csv(out)]
    assert len(vals) == 5 and all(np.diff(vals) < 0)


@pytest.mark.parametrize("argv, exact", [
    (["mi", "--input", "binary", "--snr", "3e7"], np.log(2.0)),
    (["mmse", "--telegraph", "nu=1", "--snr", "1e7"], 2.00004621495615e-07),
], ids=["binary-mi", "telegraph-mmse"])
def test_curve_at_snr_1e7_and_above(tmp_path, argv, exact):
    # a stalled quadrature would exit 3; the telegraph value is mpmath's
    out = tmp_path / "hi.csv"
    assert main(["curve", *argv, "--out", str(out)]) == 0
    assert float(_read_csv(out)[0]["value"]) == pytest.approx(exact, rel=1e-12,
                                                             abs=0.0)


def test_curve_ar_quantities(tmp_path):
    out = tmp_path / "ar.csv"
    assert main(["curve", "pmmse", "--ar", "a=0.9,n=20", "--snr", "1",
                 "--out", str(out)]) == 0
    assert 0.0 < float(_read_csv(out)[0]["value"]) <= 1.0


def test_curve_golden_bytes(tmp_path):
    # pinned invocation: schema stability check against exact bytes
    out = tmp_path / "g.csv"
    assert main(["curve", "mmse", "--input", "gaussian", "--snr", "0:2:1",
                 "--out", str(out)]) == 0
    golden = (b"snr,value,method,tol\r\n"
              b"0,1,quadrature,1e-10\r\n"
              b"1,0.5,quadrature,1e-10\r\n"
              b"2,0.33333333333333331,quadrature,1e-10\r\n")
    assert out.read_bytes() == golden


def test_curve_usage_errors(tmp_path):
    assert main(["curve", "mi", "--input", "nonsense",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["curve", "mi", "--input", "binary:3",
                 "--out", str(tmp_path / "b.csv")]) == 2
    assert main(["curve", "pmmse", "--input", "gaussian",
                 "--out", str(tmp_path / "y.csv")]) == 2


def test_curve_snr_db_past_the_float_range_is_usage_error(tmp_path, capsys,
                                                         monkeypatch):
    # 10^(4000/10) overflows to inf with no RuntimeWarning (which the suite
    # turns into an error), and the model rejects the infinite snr
    monkeypatch.chdir(tmp_path)
    assert main(["curve", "mmse", "--input", "binary", "--snr-db=0:4000:2000",
                 "--out", "c.csv"]) == 2
    assert "snr must be finite" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["curve", "mmse", "--telegraph", "nu=1", "--ar", "a=0.9,n=5"],
    ["curve", "mmse", "--input", "binary", "--telegraph", "nu=1"],
    ["curve", "mmse", "--input", "gaussian", "--telegraph", "nu=1"],
    ["curve", "mi", "--input", "gaussian", "--ar", "a=0.9,n=5"],
    ["curve", "mi", "--snr", "1", "--snr-db", "10"],
    ["simulate", "telegraph", "--snr", "4", "--snr-db", "0"],
])
def test_conflicting_flags_are_usage_errors(tmp_path, argv, capsys,
                                            monkeypatch):
    # one flag of the pair would be ignored; argparse refuses both, even
    # when a value given equals the flag's former default
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "c.out")])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flag, spec, message", [
    ("--telegraph", "nu=1,snr=5", "unknown key 'snr'"),
    ("--telegraph", "nu=1,nu=3", "repeated key 'nu'"),
    ("--telegraph", "mu=1", "unknown key 'mu'"),
    ("--ar", "a=0.9,n=5,b=3", "unknown key 'b'"),
    ("--ar", "a=0.9", "missing key 'n'"),
    ("--ar", "n=5,a=0.9,a=0.5", "repeated key 'a'"),
])
def test_model_spec_keys_are_checked(tmp_path, capsys, flag, spec, message):
    # a key the model does not read, a key given twice or a key left out is
    # a usage error that names it, and nothing is written
    assert main(["curve", "mi", flag, spec, "--snr", "1",
                 "--out", str(tmp_path / "k.csv")]) == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_curve_defaults_to_gaussian_input_at_snr_1(tmp_path):
    out, ref = tmp_path / "d.csv", tmp_path / "ref.csv"
    assert main(["curve", "mi", "--out", str(out)]) == 0
    assert main(["curve", "mi", "--input", "gaussian", "--snr", "1",
                 "--out", str(ref)]) == 0
    assert out.read_bytes() == ref.read_bytes()


def test_curve_ar_horizon_must_be_whole(tmp_path, capsys):
    out = tmp_path / "ar.csv"
    assert main(["curve", "mi", "--ar", "a=0.9,n=2.7", "--out", str(out)]) == 2
    assert "whole number" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
    ref = tmp_path / "ref.csv"
    assert main(["curve", "mi", "--ar", "a=0.9,n=5e1", "--out", str(out)]) == 0
    assert main(["curve", "mi", "--ar", "a=0.9,n=50", "--out", str(ref)]) == 0
    assert out.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("source", [["--input", "gaussian"],
                                    ["--input", "binary"],
                                    ["--telegraph", "nu=1"],
                                    ["--ar", "a=0.9,n=50"]])
def test_curve_nonfinite_snr_is_usage_error(tmp_path, source):
    out = tmp_path / "nan.csv"
    assert main(["curve", "mmse", *source, "--snr", "nan",
                 "--out", str(out)]) == 2
    assert not out.exists()
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["curve", "mmse", "--input", "binary", "--snr", "0:inf:1"],
    ["verify", "corollary3", "--snr", "nan"],
    ["verify", "lemmas", "--snr", "nan"],
    ["verify", "appendixE", "--xi=nan"],
])
def test_nonfinite_input_is_usage_error(tmp_path, argv):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("suite", ["corollary3", "thm9"])
def test_negative_snr_is_usage_error(tmp_path, suite):
    out = tmp_path / "out"
    assert main(["verify", suite, "--snr", "-1", "--out", str(out)]) == 2
    assert not out.exists()


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_json_schema(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["verify", "thm9", "--a", "0.9", "--n", "50", "--snr", "1",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert list(payload.keys()) == ["suite", "checks", "notes", "pass"]
    assert payload["pass"] is True
    for check in payload["checks"]:
        assert list(check.keys()) == ["name", "lhs", "rhs", "deviation",
                                      "tolerance", "pass"]
    manifest = _manifest(out)
    assert list(manifest) == MANIFEST_KEYS
    # a suite that draws nothing has no seed, and params holds its own flags
    assert manifest["command"] == "verify" and manifest["seeds"] == []
    assert manifest["params"] == {"command": "verify", "suite": "thm9",
                                  "a": 0.9, "n": 50, "snr": 1.0,
                                  "out": str(out)}
    assert manifest["tolerances"] == {c["name"]: c["tolerance"]
                                      for c in payload["checks"]}
    seeded = tmp_path / "lemmas.json"
    assert main(["verify", "lemmas", "--seed", "5", "--out", str(seeded)]) == 0
    assert _manifest(seeded)["seeds"] == [5]


def test_verify_stdout_and_exit(capsys):
    assert main(["verify", "corollary3", "--a", "0.5", "--n", "10"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True


def test_verify_appendix_e(capsys):
    assert main(["verify", "appendixE", "--xi=-2"]) == 0


@pytest.mark.parametrize("xi", ["-1e-5", "-1e-7"])
def test_verify_appendix_e_near_zero_xi(xi, capsys):
    assert main(["verify", "appendixE", f"--xi={xi}"]) == 0


def test_verify_debruijn_zero_snr_is_usage_error(capsys):
    assert main(["verify", "debruijn", "--snr", "0"]) == 2


@pytest.mark.parametrize("spec", ["nonsense", "gaussian:3,2", "atoms:0,1"])
def test_verify_debruijn_unknown_input_is_usage_error(tmp_path, spec, capsys):
    # the vector model has a Gaussian and a +/-1 input only
    out = tmp_path / "r.json"
    assert main(["verify", "debruijn", "--input", spec, "--out", str(out)]) == 2
    assert not list(tmp_path.iterdir())


def test_verify_negative_paths_is_usage_error(capsys):
    assert main(["verify", "debruijn", "--paths", "-1"]) == 2


def test_verify_failure_exit_code(monkeypatch, capsys):
    failing = Report("forced")
    failing.add("impossible", 0.0, 1.0, 1e-9)
    monkeypatch.setattr("immse.scalar.verify_immse",
                        lambda *a, **k: failing)
    assert main(["verify", "immse", "--input", "binary"]) == 1


def test_verify_failure_writes_manifest(tmp_path, monkeypatch):
    # exit 1 is a finished run: its report and manifest are written
    failing = Report("forced")
    failing.add("impossible", 0.0, 1.0, 1e-9)
    monkeypatch.setattr("immse.scalar.verify_immse",
                        lambda *a, **k: failing)
    out = tmp_path / "r.json"
    assert main(["verify", "immse", "--input", "binary",
                 "--out", str(out)]) == 1
    assert json.loads(out.read_text())["pass"] is False
    manifest = _manifest(out)
    assert list(manifest) == MANIFEST_KEYS
    assert manifest["tolerances"] == {"impossible": 1e-9}


def test_nonconvergence_writes_nothing(tmp_path, monkeypatch):
    from immse.errors import NonConvergence

    def boom(*a, **k):
        raise NonConvergence("stalled")

    monkeypatch.setattr("immse.scalar.mmse", boom)
    out = tmp_path / "c.csv"
    assert main(["curve", "mmse", "--input", "binary", "--snr", "1",
                 "--out", str(out)]) == 3
    assert not list(tmp_path.iterdir())


def test_verify_nonconvergence_exit_code(monkeypatch, capsys):
    from immse.errors import NonConvergence

    def boom(*a, **k):
        raise NonConvergence("stalled")

    monkeypatch.setattr("immse.scalar.verify_immse", boom)
    assert main(["verify", "immse", "--input", "binary"]) == 3


def test_verify_thm7_snr_integral_nonconvergence(monkeypatch, capsys):
    # a jump in the noncausal MMSE at an irrational snr stalls the snr integral
    monkeypatch.setattr("immse.ct.telegraph_mmse",
                        lambda m: float(m.snr > np.sqrt(0.5)))
    assert main(["verify", "thm7"]) == 3


def test_verify_thm7_zero_snr_passes(capsys):
    assert main(["verify", "thm7", "--snr", "0"]) == 0


def test_verify_corollary3_low_snr_passes(capsys):
    assert main(["verify", "corollary3", "--snr", "0.01"]) == 0


@pytest.mark.parametrize("argv", [
    pytest.param(["verify", "thm7", "--input", "binary"], id="thm7-input"),
    pytest.param(["verify", "thm7", "--dt", "1e-3"], id="thm7-dt"),
    pytest.param(["verify", "thm7", "--horizon", "1e-3"], id="thm7-horizon"),
    pytest.param(["verify", "thm7", "--n", "50"], id="thm7-n"),
    pytest.param(["verify", "immse", "--nu", "3"], id="immse-nu"),
    pytest.param(["verify", "immse", "--paths", "5"], id="immse-paths"),
    pytest.param(["verify", "representations", "--snr", "3"],
                 id="representations-snr"),
    pytest.param(["verify", "corollary3", "--seed", "4"], id="corollary3-seed"),
    pytest.param(["verify", "appendixE", "--snr", "9"], id="appendixE-snr"),
    pytest.param(["simulate", "constant-input", "--nu", "50"],
                 id="constant-input-nu"),
    pytest.param(["simulate", "constant-input", "--dt", "1e-5"],
                 id="constant-input-dt"),
    pytest.param(["simulate", "constant-input", "--paths", "100", "--dump",
                  "d.csv"], id="constant-input-dump"),
])
def test_unread_flag_is_usage_error(tmp_path, argv, capsys, monkeypatch):
    # each suite and model parses only the flags it reads, spelt out in full
    # (`thm7 --n` is not taken for `--nu`); any other flag exits 2, names
    # itself and writes nothing
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "u.out")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]} " in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


FLAGS = {
    ("verify", "immse"): {"input"},
    ("verify", "duncan"): {"nu", "snr"},
    ("verify", "thm7"): {"nu", "snr"},
    ("verify", "debruijn"): {"input", "snr", "seed", "paths"},
    ("verify", "corollary3"): {"a", "n", "snr"},
    ("verify", "thm9"): {"a", "n", "snr"},
    ("verify", "lemmas"): {"snr", "seed"},
    ("verify", "representations"): set(),
    ("verify", "appendixE"): {"xi"},
    ("simulate", "telegraph"): {"nu", "snr", "snr-db", "paths", "dt",
                                "horizon", "seed", "dump"},
    ("simulate", "constant-input"): {"snr", "snr-db", "paths", "horizon",
                                     "seed"},
}


@pytest.mark.parametrize("command, name", list(FLAGS))
def test_help_lists_only_the_flags_read(command, name, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, name, "-h"])
    assert exc.value.code == 0
    listed = set(re.findall(r"--([a-z-]+)", capsys.readouterr().out))
    assert listed == FLAGS[command, name] | {"help", "out"}


def test_verify_flags_follow_the_suite(tmp_path, capsys):
    # a flag before the suite name belongs to no parser that reads it
    out = tmp_path / "r.json"
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--out", str(out), "thm9"])
    assert exc.value.code == 2
    assert not list(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_dump_columns(tmp_path):
    dump = tmp_path / "path.csv"
    out = tmp_path / "sum.json"
    assert main(["simulate", "telegraph", "--nu", "1", "--snr-db", "15",
                 "--paths", "1", "--horizon", "1.0", "--dump", str(dump),
                 "--out", str(out)]) == 0
    rows = _read_csv(dump)
    assert list(rows[0].keys()) == ["t", "x", "dy", "xhat_causal",
                                    "xhat_smooth"]
    assert all(float(r["x"]) in (-1.0, 1.0) for r in rows[:50])
    assert (tmp_path / "path.csv.manifest.json").exists()
    for artifact in (dump, out):
        manifest = _manifest(artifact)
        assert list(manifest) == MANIFEST_KEYS
        assert manifest["command"] == "simulate" and manifest["seeds"] == [0]


def test_simulate_dump_streams_its_rows(tmp_path):
    # each row is written as it is formatted: a list of every row's strings
    # held about 440 bytes per step, the path and its filters about 60
    tracemalloc.start()
    try:
        assert main(["simulate", "telegraph", "--paths", "1", "--horizon", "20",
                     "--dump", str(tmp_path / "d.csv"),
                     "--out", str(tmp_path / "s.json")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    steps = len(_read_csv(tmp_path / "d.csv"))
    assert steps == 20_000
    assert peak < 150 * steps


def test_simulate_dump_of_no_steps_is_usage_error(tmp_path, capsys, monkeypatch):
    # --horizon 1e-4 rounds to 0 steps of the default dt 1e-3
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "telegraph", "--horizon", "1e-4",
                 "--dump", "d.csv"]) == 2
    assert "holds no step" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_simulate_ensemble_within_mc_error(tmp_path):
    out = tmp_path / "ens.json"
    assert main(["simulate", "telegraph", "--paths", "1500", "--snr", "2.0",
                 "--horizon", "6.0", "--seed", "3", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    dev = abs(payload["cmmse_empirical"] - payload["cmmse_closed"])
    assert dev <= 4.0 * payload["cmmse_se"]


def test_simulate_same_seed_identical_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert main(["simulate", "telegraph", "--paths", "40", "--snr", "1",
                     "--horizon", "3.0", "--seed", "9",
                     "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_constant_input(tmp_path, capsys):
    assert main(["simulate", "constant-input", "--snr", "2", "--paths",
                 "20000", "--horizon", "2.0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["model", "snr", "n_paths", "horizon", "seed",
                             "mse_empirical", "mse_se", "mmse_closed"]
    dev = abs(payload["mse_empirical"] - payload["mmse_closed"])
    assert dev <= 3.0 * payload["mse_se"]


def test_simulate_constant_input_runs_at_its_defaults(tmp_path, capsys,
                                                      monkeypatch):
    # its ensemble MSE needs at least 2 paths; telegraph's default 1 only dumps
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "constant-input"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_paths"] == McConfig().n_paths
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["telegraph", "--dt", "0", "--paths", "2"],
    ["telegraph", "--paths", "-5"],
    ["constant-input", "--horizon", "0"],
    ["constant-input", "--paths", "1"],
    # the default step divides by max(nu, snr), so the model is checked first
    pytest.param(["telegraph", "--nu", "0", "--snr", "0"],
                 id="telegraph-zero-rates"),
    # 10^400 overflows a float: an infinite snr, which the models reject
    pytest.param(["telegraph", "--snr-db", "4000"], id="telegraph-snr-db-4000"),
    pytest.param(["constant-input", "--snr-db", "4000", "--paths", "100"],
                 id="constant-input-snr-db-4000"),
])
def test_simulate_unrunnable_config_is_usage_error(tmp_path, argv, capsys,
                                                   monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "s.json"
    assert main(["simulate", *argv, "--out", str(out)]) == 2
    assert not out.exists()
    assert not list(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# one snr rule, one dB rule, one step rule
# ---------------------------------------------------------------------------

SNR_COMMANDS = ([("verify", suite) for suite in
                 ("duncan", "thm7", "debruijn", "corollary3", "thm9", "lemmas")]
                + [("simulate", "telegraph"), ("simulate", "constant-input")])


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command, name", SNR_COMMANDS)
def test_bad_snr_is_usage_error(tmp_path, command, name, value, capsys,
                                monkeypatch):
    # every model holds its snr to laws.require_snr where it is built
    monkeypatch.chdir(tmp_path)
    assert main([command, name, f"--snr={value}", "--out", "o.json"]) == 2
    err = capsys.readouterr().err
    assert "usage error" in err and "snr" in err
    assert not list(tmp_path.iterdir())


def test_db_to_snr_converts_as_the_grid_does():
    # the benchmark's 201 points, each converted alone, against the grid
    grid = parse_snr_grid("-10:30:0.2", db=True)
    points = -10.0 + 0.2 * np.arange(201)
    assert np.array_equal([db_to_snr(repr(float(d))) for d in points], grid)
    assert np.array_equal([db_to_snr(float(d)) for d in points], grid)
    assert np.array_equal(db_to_snr(points), grid)
    assert db_to_snr("4000") == np.inf


def test_simulate_snr_db_converts_as_the_curve_grid(capsys):
    # at 8.8 dB, Python's 10.0 ** 0.88 is one ulp away from the grid's value
    grid_snr = parse_snr_grid("-10:30:0.2", db=True)[94]
    assert 10.0 ** (8.8 / 10.0) != grid_snr
    assert main(["simulate", "constant-input", "--snr-db", "8.8",
                 "--paths", "100", "--horizon", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["snr"] == grid_snr


@pytest.mark.parametrize("nu, snr", [(1.0, 1.0), (0.3, 7.0), (40.0, 2.0),
                                     (3.0, 1234.5)])
def test_default_step_is_half_the_ct_bound(tmp_path, nu, snr):
    out = tmp_path / "s.json"
    assert main(["simulate", "telegraph", "--nu", repr(nu), "--snr", repr(snr),
                 "--paths", "1", "--out", str(out)]) == 0
    step = json.loads(out.read_text())["dt"]
    # bit for bit the literal rule the CLI used before the bound moved to ct
    assert step == min(1e-3, 0.005 / max(nu, snr))
    assert step <= ct.MAX_STEP / max(nu, snr)
    assert _manifest(out)["params"]["dt"] is None


# ---------------------------------------------------------------------------
# documentation
# ---------------------------------------------------------------------------

def test_readme_cli_examples_parse():
    # parse only: an example with a flag its suite or model lacks fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1]
    lines = [line for line in block.split("```", 1)[0].splitlines()
             if line.startswith("immse ")]
    assert len(lines) >= 10
    for line in lines:
        try:
            build_parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")
