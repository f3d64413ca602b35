"""Command-line surface: curves, verification suites, and simulations.

Artifacts are CSV (RFC-4180-style, header row) and JSON (stable key order);
every output file gets a RunManifest written beside it so a run can be
replayed bit-identically.  Exit codes: 0 pass, 1 verification failure,
2 usage error, 3 numerical non-convergence.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__, ct, dt, represent, scalar, vector
from .errors import NonConvergence, StepTooLarge
from .laws import (DiscreteAtoms, Gaussian, GaussianMixture, InputLaw,
                   binary_law, require_finite)
from .quadrature import REL_TOL, McConfig
from .report import Report
from .scalar import ScalarChannel

LN2 = float(np.log(2.0))


@dataclass
class RunManifest:
    """Replay record written beside every artifact."""
    command: str
    params: dict
    seeds: list
    version: str = __version__
    tolerances: dict = field(default_factory=dict)
    wall_clock_s: float = 0.0

    def write(self, artifact_path: str) -> None:
        payload = {
            "command": self.command,
            "params": self.params,
            "seeds": self.seeds,
            "version": self.version,
            "tolerances": self.tolerances,
            "wall_clock_s": self.wall_clock_s,
        }
        with open(artifact_path + ".manifest.json", "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2)
            f.write("\n")


def _params(args) -> dict:
    return {k: v for k, v in vars(args).items() if k not in ("fn",)}


def parse_input_spec(spec: str) -> InputLaw:
    """Input laws: gaussian[:mean,var], binary, mixture:w,m,v;..., atoms:v,p;..."""
    kind, _, body = spec.partition(":")
    if kind == "gaussian":
        if not body:
            return Gaussian(0.0, 1.0)
        mean, var = (float(t) for t in body.split(","))
        return Gaussian(mean, var)
    if kind == "binary":
        return binary_law()
    if kind == "mixture":
        rows = [tuple(float(t) for t in part.split(","))
                for part in body.split(";")]
        w, m, v = (np.array(col) for col in zip(*rows))
        return GaussianMixture(weights=w, means=m, variances=v)
    if kind == "atoms":
        rows = [tuple(float(t) for t in part.split(","))
                for part in body.split(";")]
        vals, probs = (np.array(col) for col in zip(*rows))
        return DiscreteAtoms(values=vals, probs=probs)
    raise ValueError(f"unknown input spec {spec!r}")


def parse_kv(spec: str) -> dict:
    """'nu=1,snr=2' -> {'nu': 1.0, 'snr': 2.0}; bare 'a=0.9' works too."""
    out = {}
    for part in spec.split(","):
        key, _, val = part.partition("=")
        if not val:
            raise ValueError(f"expected key=value in {spec!r}")
        out[key.strip()] = float(val)
    return out


def parse_snr_grid(spec: str, db: bool = False) -> np.ndarray:
    """Single value 'x' or inclusive range 'a:b:step'."""
    if ":" in spec:
        a, b, step = (float(t) for t in spec.split(":"))
        require_finite(start=a, stop=b, step=step)
        if step <= 0 or b < a:
            raise ValueError(f"bad snr range {spec!r}")
        n = int(np.floor((b - a) / step + 1e-9)) + 1
        grid = a + step * np.arange(n)
    else:
        grid = np.array([float(spec)])
    if db:
        grid = 10.0 ** (grid / 10.0)
    return grid


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path: str, header: list, rows: list) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\r\n")
        writer.writerow(header)
        writer.writerows(rows)


def _emit_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------

def _scalar_curve(quantity: str, law: InputLaw, grid: np.ndarray):
    fns = {"mi": scalar.mutual_information, "mmse": scalar.mmse,
           "fisher": scalar.fisher_information}
    if quantity not in fns:
        raise ValueError(f"quantity {quantity!r} needs --telegraph or --ar")
    fn = fns[quantity]
    return [fn(ScalarChannel(law, s)) for s in grid], "quadrature", REL_TOL


def _telegraph_curve(quantity: str, nu: float, grid: np.ndarray):
    if quantity == "cmmse":
        vals = [ct.telegraph_cmmse(ct.TelegraphModel(nu, s)) for s in grid]
    elif quantity == "mmse":
        vals = [ct.telegraph_mmse(ct.TelegraphModel(nu, s)) for s in grid]
    elif quantity == "mi":
        # information rate by the causal-MMSE identity
        vals = [0.5 * s * ct.telegraph_cmmse(ct.TelegraphModel(nu, s))
                for s in grid]
    else:
        raise ValueError(f"quantity {quantity!r} undefined for --telegraph")
    return vals, "closed-form", 1e-9


def _ar_curve(quantity: str, a: float, n: int, grid: np.ndarray):
    p = dt.ARProcess(a, n)
    vals = []
    for s in grid:
        triple = dt.kalman_triple(p, s)
        if quantity == "mi":
            vals.append(dt.block_mi(p, s))
        elif quantity == "mmse":
            vals.append(float(triple.mmse.mean()))
        elif quantity == "cmmse":
            vals.append(float(triple.cmmse.mean()))
        elif quantity == "pmmse":
            vals.append(float(triple.pmmse.mean()))
        else:
            raise ValueError(f"quantity {quantity!r} undefined for --ar")
    return vals, "kalman", 0.0


def cmd_curve(args) -> int:
    t0 = time.perf_counter()
    grid = parse_snr_grid(args.snr_db, db=True) if args.snr_db \
        else parse_snr_grid(args.snr)
    if args.telegraph:
        nu = parse_kv(args.telegraph)["nu"]
        values, method, tol = _telegraph_curve(args.quantity, nu, grid)
    elif args.ar:
        kv = parse_kv(args.ar)
        values, method, tol = _ar_curve(args.quantity, kv["a"], int(kv["n"]),
                                        grid)
    else:
        law = parse_input_spec(args.input)
        values, method, tol = _scalar_curve(args.quantity, law, grid)
    if args.bits and args.quantity == "mi":
        values = [v / LN2 for v in values]
    rows = [(_fmt(s), _fmt(v), method, _fmt(tol))
            for s, v in zip(grid, values)]
    _write_csv(args.out, ["snr", "value", "method", "tol"], rows)
    manifest = RunManifest(
        command="curve", params=_params(args), seeds=[],
        tolerances={"tol": tol}, wall_clock_s=time.perf_counter() - t0)
    manifest.write(args.out)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _suite_representations(args) -> Report:
    report = Report("representations")
    four = DiscreteAtoms(values=np.array([-3.0, -1.0, 1.0, 3.0]),
                         probs=np.full(4, 0.25))
    report.add("entropy of 4 equiprobable atoms vs ln 4",
               represent.entropy_via_mmse(four), np.log(4.0), 1e-3)
    report.add("non-Gaussianness of the standard Gaussian",
               represent.nongaussianness(Gaussian(0.0, 1.0)), 0.0, 1e-9)
    j = represent.JointAtoms(x=np.array([-1.0, 1.0]), z=np.array([-1.0, 1.0]),
                             probs=np.array([0.5, 0.5]))
    report.add("I(X;X) for fair binary vs ln 2",
               represent.mi_via_mmse_difference(j), np.log(2.0), 2e-3)
    return report


def _default_vector_model(args, gaussian: bool = True):
    rng = np.random.default_rng(args.seed)
    h = rng.standard_normal((2, 2))
    if gaussian:
        inp = vector.GaussianVec(mean=np.zeros(2), cov=np.eye(2))
    else:
        pts = np.array([[a, b] for a in (-1.0, 1.0) for b in (-1.0, 1.0)])
        inp = vector.AtomSet(points=pts, probs=np.full(4, 0.25))
    return vector.VectorChannelModel(H=h, input=inp,
                                     snr_diag=np.full(2, args.snr))


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    mc = McConfig(seed=args.seed, n_paths=args.paths)
    if args.suite == "immse":
        law = parse_input_spec(args.input)
        report = scalar.verify_immse(law, [0.1, 0.5, 1.0, 2.0, 5.0, 10.0])
    elif args.suite == "duncan":
        report = ct.duncan_check(ct.TelegraphModel(args.nu, args.snr))
    elif args.suite == "thm7":
        report = ct.verify_thm7(args.nu, [0.5, 1.0, args.snr])
    elif args.suite == "debruijn":
        gaussian = args.input.startswith("gaussian")
        model = _default_vector_model(args, gaussian)
        report = vector.de_bruijn_check(model, args.snr, mc=mc)
    elif args.suite == "corollary3":
        report = dt.verify_corollary3(dt.ARProcess(args.a, args.n), args.snr)
    elif args.suite == "thm9":
        report = dt.verify_thm9(dt.ARProcess(args.a, args.n), args.snr)
    elif args.suite == "lemmas":
        model = _default_vector_model(args, gaussian=False)
        rng = np.random.default_rng(args.seed + 1)
        report = vector.likelihood_lemmas_check(model, rng.standard_normal(2),
                                                args.snr)
    elif args.suite == "representations":
        report = _suite_representations(args)
    elif args.suite == "appendixE":
        report = ct.verify_f_recurrences(args.xi)
    else:  # pragma: no cover - argparse choices guard this
        raise ValueError(f"unknown suite {args.suite!r}")
    payload = report.to_dict()
    _emit_json(payload, args.out)
    if args.out:
        manifest = RunManifest(
            command="verify", params=_params(args), seeds=[args.seed],
            tolerances={c.name: c.tolerance for c in report.checks},
            wall_clock_s=time.perf_counter() - t0)
        manifest.write(args.out)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _dump_telegraph_path(path, model, dump_file: str) -> None:
    fwd = ct.wonham_filter(path, model.snr, model.nu)
    bwd = ct.wonham_filter(path, model.snr, model.nu, backward=True)
    smooth = ct.yao_smoother(fwd, bwd)
    n = path.dy.size
    rows = [(_fmt(k * path.dt), _fmt(path.x[k]), _fmt(path.dy[k]),
             _fmt(fwd[k]), _fmt(smooth[k])) for k in range(n)]
    _write_csv(dump_file, ["t", "x", "dy", "xhat_causal", "xhat_smooth"], rows)


def _simulate_telegraph(args, mc: McConfig) -> dict:
    model = ct.TelegraphModel(args.nu, args.snr)
    summary = {
        "model": "telegraph", "nu": args.nu, "snr": args.snr,
        "n_paths": mc.n_paths, "dt": mc.dt, "horizon": mc.horizon,
        "seed": mc.seed,
        "cmmse_closed": ct.telegraph_cmmse(model),
        "mmse_closed": ct.telegraph_mmse(model),
    }
    if args.dump:
        path = ct.simulate_telegraph(model, mc.horizon, mc.dt, mc.seed)
        _dump_telegraph_path(path, model, args.dump)
        summary["dump"] = args.dump
    if mc.n_paths > 1:
        res = ct.wonham_ensemble(model, mc)
        summary.update({
            "cmmse_empirical": res.cmmse, "cmmse_se": res.cmmse_se,
            "mmse_empirical": res.smmse, "mmse_se": res.smmse_se,
        })
    return summary


def _simulate_constant(args, mc: McConfig) -> dict:
    """Constant binary input observed through time: Y_t = sqrt(snr) X t + W_t.

    Observing up to T is equivalent to one scalar look at snr * T, so the
    ensemble MSE of the conditional mean is checked against that closed form.
    """
    mse, se, closed = ct.constant_input_ensemble(binary_law(), args.snr,
                                                 mc.horizon, mc)
    return {
        "model": "constant-input", "snr": args.snr, "n_paths": mc.n_paths,
        "horizon": mc.horizon, "seed": mc.seed,
        "mse_empirical": mse, "mse_se": se, "mmse_closed": closed,
        "n_steps": int(round(mc.horizon / mc.dt)),
    }


def cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    if args.snr_db is not None:
        args.snr = 10.0 ** (args.snr_db / 10.0)
    dtstep = args.dt
    if dtstep is None:
        # respect the SDE stability bound dt <= 0.01 / max(nu, snr)
        dtstep = min(1e-3, 0.005 / max(args.nu, args.snr))
    mc = McConfig(seed=args.seed, n_paths=args.paths, dt=dtstep,
                  horizon=args.horizon)
    if args.model == "telegraph":
        summary = _simulate_telegraph(args, mc)
    else:
        summary = _simulate_constant(args, mc)
    _emit_json(summary, args.out)
    for artifact in filter(None, (args.out, args.dump)):
        RunManifest(command="simulate", params=_params(args),
                    seeds=[mc.seed], tolerances={},
                    wall_clock_s=time.perf_counter() - t0).write(artifact)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="immse",
        description="Mutual information and MMSE curves, identity "
                    "verification suites, and filtering simulations for "
                    "inputs in Gaussian noise.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_curve = sub.add_parser("curve", help="emit a quantity-vs-snr CSV")
    p_curve.add_argument("quantity",
                         choices=["mi", "mmse", "cmmse", "pmmse", "fisher"])
    p_curve.add_argument("--input", default="gaussian",
                         help="gaussian[:m,v] | binary | mixture:w,m,v;... "
                              "| atoms:v,p;...")
    p_curve.add_argument("--telegraph", help="telegraph model, e.g. nu=1")
    p_curve.add_argument("--ar", help="AR(1) model, e.g. a=0.9,n=50")
    p_curve.add_argument("--snr", default="1", help="value or a:b:step")
    p_curve.add_argument("--snr-db", dest="snr_db",
                         help="snr grid in dB, converted as 10^(dB/10)")
    p_curve.add_argument("--bits", action="store_true",
                         help="report information in bits instead of nats")
    p_curve.add_argument("--out", default="curve.csv")
    p_curve.set_defaults(fn=cmd_curve)

    p_verify = sub.add_parser("verify", help="run an identity suite")
    p_verify.add_argument("suite",
                          choices=["immse", "duncan", "thm7", "debruijn",
                                   "corollary3", "thm9", "lemmas",
                                   "representations", "appendixE"])
    p_verify.add_argument("--input", default="gaussian")
    p_verify.add_argument("--snr", type=float, default=1.0)
    p_verify.add_argument("--nu", type=float, default=1.0)
    p_verify.add_argument("--xi", type=float, default=-2.0)
    p_verify.add_argument("--a", type=float, default=0.9)
    p_verify.add_argument("--n", type=int, default=50)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--paths", type=int, default=200_000)
    p_verify.add_argument("--out", help="JSON report path (default stdout)")
    p_verify.set_defaults(fn=cmd_verify)

    p_sim = sub.add_parser("simulate", help="Monte Carlo filtering runs")
    p_sim.add_argument("model", choices=["telegraph", "constant-input"])
    p_sim.add_argument("--nu", type=float, default=1.0)
    p_sim.add_argument("--snr", type=float, default=1.0)
    p_sim.add_argument("--snr-db", dest="snr_db", type=float)
    p_sim.add_argument("--paths", type=int, default=1)
    p_sim.add_argument("--dt", type=float,
                       help="SDE step (default respects the stability bound)")
    p_sim.add_argument("--horizon", type=float, default=10.0)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--dump", help="write one sample-path CSV here")
    p_sim.add_argument("--out", help="summary JSON path (default stdout)")
    p_sim.set_defaults(fn=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except NonConvergence as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, StepTooLarge) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
