"""CLI surface: CSV/JSON schemas, manifests, exit codes, reproducibility."""
import csv
import json

import numpy as np
import pytest

from immse.cli import main, parse_input_spec, parse_snr_grid
from immse.laws import DiscreteAtoms, Gaussian, GaussianMixture
from immse.report import Report


def _read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


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
    assert main(["curve", "pmmse", "--input", "gaussian",
                 "--out", str(tmp_path / "y.csv")]) == 2


@pytest.mark.parametrize("source", [["--input", "gaussian"],
                                    ["--input", "binary"],
                                    ["--telegraph", "nu=1"],
                                    ["--ar", "a=0.9,n=50"]])
def test_curve_nonfinite_snr_is_usage_error(tmp_path, source):
    out = tmp_path / "nan.csv"
    assert main(["curve", "mmse", *source, "--snr", "nan",
                 "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["curve", "mmse", "--input", "binary", "--snr", "0:inf:1"],
    ["verify", "corollary3", "--snr", "nan"],
    ["verify", "lemmas", "--snr", "nan"],
])
def test_nonfinite_input_is_usage_error(tmp_path, argv):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
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


def test_verify_negative_paths_is_usage_error(capsys):
    assert main(["verify", "immse", "--paths", "-1"]) == 2


def test_verify_failure_exit_code(monkeypatch, capsys):
    failing = Report("forced")
    failing.add("impossible", 0.0, 1.0, 1e-9)
    monkeypatch.setattr("immse.scalar.verify_immse",
                        lambda *a, **k: failing)
    assert main(["verify", "immse", "--input", "binary"]) == 1


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


@pytest.mark.parametrize("flag", ["--dt", "--horizon"])
def test_verify_has_no_sde_flags(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "thm7", flag, "1e-3"])
    assert exc.value.code == 2


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
    dev = abs(payload["mse_empirical"] - payload["mmse_closed"])
    assert dev <= 3.0 * payload["mse_se"]


@pytest.mark.parametrize("argv", [
    ["telegraph", "--dt", "0", "--paths", "2"],
    ["telegraph", "--paths", "-5"],
    ["constant-input", "--horizon", "0"],
    ["constant-input", "--paths", "1"],
])
def test_simulate_unrunnable_config_is_usage_error(tmp_path, argv, capsys):
    out = tmp_path / "s.json"
    assert main(["simulate", *argv, "--out", str(out)]) == 2
    assert not out.exists()
