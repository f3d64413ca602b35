"""Command-line surface: curves, verification suites, and simulations.

Artifacts are CSV (RFC-4180-style, header row) and JSON (stable key order).
Each command returns its exit code, the files it wrote, its seeds and its
tolerances; on exit 0 or 1 ``main`` writes ``<file>.manifest.json`` beside
each of those files, so a run can be replayed bit-identically.  Each `verify`
suite (a row of ``SUITES``) and `simulate` model parses only the flags it
reads, so any other flag (`--dump` on `constant-input`, say) is a usage
error.  dB converts by ``db_to_snr`` alone, and each snr must meet
``laws.require_snr``.  Exit codes: 0 pass, 1 verification failure, 2 usage
error (nothing is written), 3 numerical non-convergence.
"""
from __future__ import annotations

import argparse
import csv
import inspect
import json
import sys
import time

import numpy as np

from . import __version__, ct, dt, represent, scalar, vector
from .errors import NonConvergence, StepTooLarge
from .laws import (DiscreteAtoms, Gaussian, GaussianMixture, InputLaw,
                   binary_law, require_finite)
from .quadrature import REL_TOL, McConfig
from .report import Report
from .scalar import ScalarChannel

LN2 = float(np.log(2.0))


def parse_input_spec(spec: str) -> InputLaw:
    """Input laws: gaussian[:mean,var], binary, mixture:w,m,v;..., atoms:v,p;...
    Fields that do not match the layout are an error that names it."""
    kind, _, body = spec.partition(":")
    layout = {"gaussian": "gaussian[:mean,var]", "binary": "binary",
              "mixture": "mixture:w,m,v;...", "atoms": "atoms:v,p;..."}.get(kind)
    if layout is None:
        raise ValueError(f"unknown input spec {spec!r}")
    if not body and kind in ("gaussian", "binary"):
        return Gaussian(0.0, 1.0) if kind == "gaussian" else binary_law()
    parts = [part.split(",") for part in body.split(";")]
    if (kind == "binary" or any(len(p) != layout.count(",") + 1 for p in parts)
            or (kind == "gaussian" and len(parts) > 1)):
        raise ValueError(f"input spec {spec!r} does not match {layout}")
    if kind == "gaussian":
        return Gaussian(*(float(t) for t in parts[0]))
    cols = [np.array([float(t) for t in col]) for col in zip(*parts)]
    if kind == "mixture":
        w, m, v = cols
        return GaussianMixture(weights=w, means=m, variances=v)
    vals, probs = cols
    return DiscreteAtoms(values=vals, probs=probs)


def parse_kv(spec: str, keys: tuple) -> dict:
    """'a=0.9,n=50' -> {'a': 0.9, 'n': 50.0}; each of ``keys`` must be given
    once, and no other key."""
    out = {}
    for part in spec.split(","):
        key, _, val = part.partition("=")
        key = key.strip()
        if not val:
            raise ValueError(f"expected key=value in {spec!r}")
        if key not in keys or key in out:
            raise ValueError(f"{'repeated' if key in out else 'unknown'} key "
                             f"{key!r} in {spec!r} (keys: {', '.join(keys)})")
        out[key] = float(val)
    for key in keys:
        if key not in out:
            raise ValueError(f"missing key {key!r} in {spec!r}")
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
    return db_to_snr(grid) if db else grid


def db_to_snr(db):
    """10^(dB/10) on a 1-d array, so a value converts as it does in a grid (inf
    past the float range, which models reject): an array, or a float for text."""
    with np.errstate(over="ignore"):
        snr = 10.0 ** (np.atleast_1d(np.asarray(db, dtype=float)) / 10.0)
    return snr if np.ndim(db) else float(snr[0])


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path: str, header: list, rows) -> None:
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

def _curve_model(args):
    """Quantity -> value at one snr for the chosen model, its method and tol."""
    if args.telegraph:
        nu = parse_kv(args.telegraph, ("nu",))["nu"]
        tm = lambda s: ct.TelegraphModel(nu, s)
        return {"cmmse": lambda s: ct.telegraph_cmmse(tm(s)),
                "mmse": lambda s: ct.telegraph_mmse(tm(s)),
                # information rate by the causal-MMSE identity
                "mi": lambda s: 0.5 * s * ct.telegraph_cmmse(tm(s)),
                }, "closed-form", 1e-9
    if args.ar:
        kv = parse_kv(args.ar, ("a", "n"))
        p = dt.ARProcess(kv["a"], kv["n"])
        mean = lambda name: lambda s: float(
            getattr(dt.kalman_triple(p, s), name).mean())
        return {"mi": lambda s: dt.block_mi(p, s), "mmse": mean("mmse"),
                "cmmse": mean("cmmse"), "pmmse": mean("pmmse")}, "kalman", 0.0
    law = parse_input_spec("gaussian" if args.input is None else args.input)
    fns = {"mi": scalar.mutual_information, "mmse": scalar.mmse,
           "fisher": scalar.fisher_information}
    return ({q: (lambda s, f=f: f(ScalarChannel(law, s))) for q, f in fns.items()},
            "quadrature", REL_TOL)


def cmd_curve(args):
    if args.bits and args.quantity != "mi":
        raise ValueError(f"--bits applies to mi only, not {args.quantity}")
    grid = parse_snr_grid(args.snr_db, db=True) if args.snr_db \
        else parse_snr_grid("1" if args.snr is None else args.snr)
    quantities, method, tol = _curve_model(args)
    if args.quantity not in quantities:
        flag = "--telegraph" if args.telegraph else "--ar" if args.ar else None
        raise ValueError(f"quantity {args.quantity!r} " + (
            f"undefined for {flag}" if flag else "needs --telegraph or --ar"))
    scale = LN2 if args.bits else 1.0
    values = [quantities[args.quantity](s) / scale for s in grid]
    rows = [(_fmt(s), _fmt(v), method, _fmt(tol))
            for s, v in zip(grid, values)]
    _write_csv(args.out, ["snr", "value", "method", "tol"], rows)
    return 0, [args.out], [], {"tol": tol}


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verify_representations() -> Report:
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


def _vector_model(input: str, snr: float, seed: int):
    """2x2 H drawn from ``seed``; standard Gaussian or equiprobable +/-1 input."""
    h = np.random.default_rng(seed).standard_normal((2, 2))
    if input == "gaussian":
        inp = vector.GaussianVec(mean=np.zeros(2), cov=np.eye(2))
    elif input == "binary":
        pts = np.array([[a, b] for a in (-1.0, 1.0) for b in (-1.0, 1.0)])
        inp = vector.AtomSet(points=pts, probs=np.full(4, 0.25))
    else:
        raise ValueError("verify debruijn takes --input gaussian or binary")
    return vector.VectorChannelModel(H=h, input=inp, snr_diag=np.full(2, snr))


# suite -> the function that builds its report.  Its keywords are the suite's
# flags, `--<keyword>`, typed and defaulted as the keyword is; the lambdas
# look their module's function up at call time.
SUITES = {
    "immse": lambda input="gaussian": scalar.verify_immse(
        parse_input_spec(input), [0.1, 0.5, 1.0, 2.0, 5.0, 10.0]),
    "duncan": lambda nu=1.0, snr=1.0: ct.duncan_check(ct.TelegraphModel(nu, snr)),
    "thm7": lambda nu=1.0, snr=1.0: ct.verify_thm7(nu, [0.5, 1.0, snr]),
    "debruijn": lambda input="gaussian", snr=1.0, seed=0, paths=200_000:
        vector.de_bruijn_check(_vector_model(input, snr, seed), snr,
                               mc=McConfig(seed=seed, n_paths=paths)),
    "corollary3": lambda a=0.9, n=50, snr=1.0: dt.verify_corollary3(
        dt.ARProcess(a, n), snr),
    "thm9": lambda a=0.9, n=50, snr=1.0: dt.verify_thm9(dt.ARProcess(a, n), snr),
    "lemmas": lambda snr=1.0, seed=0: vector.likelihood_lemmas_check(
        _vector_model("binary", snr, seed),
        np.random.default_rng(seed + 1).standard_normal(2), snr),
    "representations": _verify_representations,
    "appendixE": lambda xi=-2.0: ct.verify_f_recurrences(xi),
}


def cmd_verify(args):
    suite = SUITES[args.suite]
    flags = {k: getattr(args, k) for k in inspect.signature(suite).parameters}
    report = suite(**flags)
    _emit_json(report.to_dict(), args.out)
    return (0 if report.passed else 1, [args.out] if args.out else [],
            [flags["seed"]] if "seed" in flags else [],
            {c.name: c.tolerance for c in report.checks})


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _dump_telegraph_path(path, model, dump_file: str) -> None:
    fwd = ct.wonham_filter(path, model.snr, model.nu)
    bwd = ct.wonham_filter(path, model.snr, model.nu, backward=True)
    smooth = ct.yao_smoother(fwd, bwd)
    rows = ((_fmt(k * path.dt), _fmt(path.x[k]), _fmt(path.dy[k]),
             _fmt(fwd[k]), _fmt(smooth[k])) for k in range(path.dy.size))
    _write_csv(dump_file, ["t", "x", "dy", "xhat_causal", "xhat_smooth"], rows)


def cmd_telegraph(args):
    model = ct.TelegraphModel(args.nu, args.snr)
    # the default step: half the largest that ``ct`` allows, at most 1e-3
    step = min(1e-3, 0.5 * ct.MAX_STEP / max(args.nu, args.snr))
    mc = McConfig(seed=args.seed, n_paths=args.paths, horizon=args.horizon,
                  dt=step if args.dt is None else args.dt)
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
    _emit_json(summary, args.out)
    return 0, [p for p in (args.out, args.dump) if p], [mc.seed], {}


def cmd_constant_input(args):
    """Constant binary input, Y_t = sqrt(snr) X t + W_t: observing up to T is
    one scalar look at snr * T, whose MMSE the ensemble MSE is checked against."""
    mc = McConfig(seed=args.seed, n_paths=args.paths, horizon=args.horizon)
    mse, se, closed = ct.constant_input_ensemble(binary_law(), args.snr,
                                                 mc.horizon, mc)
    _emit_json({
        "model": "constant-input", "snr": args.snr, "n_paths": mc.n_paths,
        "horizon": mc.horizon, "seed": mc.seed,
        "mse_empirical": mse, "mse_se": se, "mmse_closed": closed,
    }, args.out)
    return 0, [args.out] if args.out else [], [mc.seed], {}


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
    # these flags have no default: argparse lets a conflict through when the
    # value given is the default object itself, as "1" or "gaussian" can be
    source = p_curve.add_mutually_exclusive_group()
    source.add_argument("--input",
                        help="gaussian[:m,v] | binary | mixture:w,m,v;... "
                             "| atoms:v,p;... (default gaussian)")
    source.add_argument("--telegraph", help="telegraph model, e.g. nu=1")
    source.add_argument("--ar", help="AR(1) model, e.g. a=0.9,n=50")
    snr = p_curve.add_mutually_exclusive_group()
    snr.add_argument("--snr", help="value or a:b:step (default 1)")
    snr.add_argument("--snr-db", dest="snr_db",
                     help="snr grid in dB, converted as 10^(dB/10)")
    p_curve.add_argument("--bits", action="store_true",
                         help="report mi in bits instead of nats")
    p_curve.add_argument("--out", default="curve.csv")
    p_curve.set_defaults(fn=cmd_curve)

    # a suite or model parser takes only its own flags, spelt out in full
    p_verify = sub.add_parser("verify", help="run an identity suite")
    suites = p_verify.add_subparsers(dest="suite", required=True)
    for name, suite in SUITES.items():
        p = suites.add_parser(name, allow_abbrev=False)
        for flag, param in inspect.signature(suite).parameters.items():
            p.add_argument(f"--{flag}", type=type(param.default),
                           default=param.default, help="default %(default)s")
        p.add_argument("--out", help="JSON report path (default stdout)")
        p.set_defaults(fn=cmd_verify)

    p_sim = sub.add_parser("simulate", help="Monte Carlo filtering runs")
    models = p_sim.add_subparsers(dest="model", required=True)
    for name, fn in (("telegraph", cmd_telegraph),
                     ("constant-input", cmd_constant_input)):
        p = models.add_parser(name, allow_abbrev=False)
        if fn is cmd_telegraph:     # the one model with a rate, steps and a path
            p.add_argument("--nu", type=float, default=1.0)
            p.add_argument("--dt", type=float, help="time step (default "
                           "respects the discretisation bound)")
            p.add_argument("--dump", help="write one sample-path CSV here")
        snr = p.add_mutually_exclusive_group()
        snr.add_argument("--snr", type=float, default=1.0)
        snr.add_argument("--snr-db", dest="snr", type=db_to_snr, metavar="DB",
                         help="snr in dB, converted as 10^(dB/10)")
        p.add_argument("--paths", type=int,  # telegraph's 1 path: a dump alone
                       default=1 if fn is cmd_telegraph else McConfig().n_paths)
        p.add_argument("--horizon", type=float, default=10.0)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="summary JSON path (default stdout)")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        code, written, seeds, tolerances = args.fn(args)
    except NonConvergence as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, StepTooLarge) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    manifest = {"command": args.command,
                "params": {k: v for k, v in vars(args).items() if k != "fn"},
                "seeds": seeds, "version": __version__, "tolerances": tolerances,
                "wall_clock_s": time.perf_counter() - t0}
    for path in written:
        with open(path + ".manifest.json", "w", encoding="utf-8") as f:
            json.dump(manifest, f, indent=2)
            f.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
