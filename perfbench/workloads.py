"""The benchmark's workloads and the oracle checks on their outputs.

There are four parts (curve, represent, telegraph, mc_atoms); the two
benchmark workloads in SUITES each run two of them.  A part is a fixed job:
a list of operations, each calling into immse and checking every output it
produces against a stored oracle (refs.json) or an identity gate.  The seed
seeds every Monte Carlo estimate; curve and represent are deterministic, so
their inputs are the same for every seed and a run's work does not depend
on it.  Operations call immse through module
attributes at call time, so the traced run's wrappers see every call.

Check kinds:
  fixed   deterministic output on a fixed input; a miss that is not in
          known_misses.json makes the run incorrect
  seeded  check of a Monte Carlo path that has no numeric oracle
  mc      Monte Carlo output gated at 3 standard errors; beyond 5 the run is
          incorrect (3-SE misses happen by chance, 5-SE ones do not)
Every miss counts in fail_frac; every fixed check with a numeric oracle
counts in max_rel_err.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import inputs
from immse import ct, cli, laws, represent, scalar, vector
from immse.quadrature import McConfig

HERE = os.path.dirname(os.path.abspath(__file__))
MC_GATE, MC_GROSS = 3.0, 5.0
CURVE_RTOL = 1e-6


class OpFailed(Exception):
    """The operation produced no checkable output (nonzero CLI exit, ...)."""


@dataclass
class Outcome:
    label: str
    kind: str                  # fixed | seeded | mc
    ok: bool
    rel_err: float | None = None
    z: float | None = None     # |estimate - oracle| / SE for mc checks


@dataclass
class Op:
    name: str
    n_outputs: int
    run: object                # () -> (list[Outcome], digest bytes, bytes written)


@dataclass
class Workload:
    name: str
    ops: list
    warmup: object
    known_misses: set = field(default_factory=set)


def fixed(label, value, ref, rtol=0.0, atol=0.0):
    err = abs(value - ref)
    ok = math.isfinite(value) and err <= atol + rtol * abs(ref)
    return Outcome(label, "fixed", ok, rel_err=err / abs(ref) if ref else None)


def mc(label, value, ref, se):
    z = abs(value - ref) / se if se > 0 else math.inf
    return Outcome(label, "mc", math.isfinite(value) and z <= MC_GATE, z=z)


def gate(label, report, kind):
    """A verification Report as one output; for mc reports the check
    tolerance is the 3-SE band, so z = 3 * deviation / tolerance."""
    z = max(3.0 * c.deviation / c.tolerance if c.tolerance > 0 else math.inf
            for c in report.checks)
    return Outcome(label, kind, report.passed, z=z if kind == "mc" else None)


def _digest(*values):
    return repr(values).encode()


def load_refs(plant_miss=False):
    with open(os.path.join(HERE, "refs.json"), encoding="utf-8") as f:
        refs = json.load(f)
    if plant_miss:
        # one wrong oracle value, for the self-check
        refs["curve"]["mix3"]["mmse"][100] *= 1.01
    return refs


def _read_curve(path):
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))[1:]
    return [float(r[0]) for r in rows], [float(r[1]) for r in rows]


def _size(*paths):
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


# ---------------------------------------------------------------------------
# curve: the `immse curve` command on a 201-point dB grid
# ---------------------------------------------------------------------------

def _curve_op(label, argv, refs_values, out_dir, snr_refs, fisher=False):
    out = os.path.join(out_dir, label.replace(":", "_") + ".csv")

    def run():
        code = cli.main(argv + [f"--snr-db={inputs.SNR_DB_SPEC}", "--out", out])
        if code != 0:
            raise OpFailed(f"immse {' '.join(argv)} exited {code}")
        snr, values = _read_curve(out)
        if snr != snr_refs:
            raise OpFailed(f"{label}: the CLI grid differs from the stored one")
        outcomes = []
        for i, (s, v) in enumerate(zip(snr, values)):
            # fisher is gated by the identity J = 1 - snr * mmse
            ref = 1.0 - s * refs_values[i] if fisher else refs_values[i]
            outcomes.append(fixed(f"{label}:{i}", v, ref, rtol=CURVE_RTOL))
        return outcomes, _digest(values), _size(out, out + ".manifest.json")

    return Op(label, len(snr_refs), run)


def build_curve(seed, scale, refs, out_dir):
    snr = refs["snr"]
    ops = []
    quantities = inputs.CURVE_QUANTITIES if scale == "full" else ("mmse",)
    for kind, spec in inputs.CURVE_INPUTS.items():
        if scale != "full" and kind == "pam16":
            continue
        for q in quantities:
            ref = refs["curve"][kind]["mi" if q == "mi" else "mmse"]
            ops.append(_curve_op(f"{q}:{kind}", ["curve", q, "--input", spec],
                                 ref, out_dir, snr, fisher=q == "fisher"))
    ops.append(_curve_op("cmmse:telegraph",
                         ["curve", "cmmse", "--telegraph",
                          f"nu={inputs.TELEGRAPH_NU:g}"],
                         refs["curve"]["telegraph_cmmse"], out_dir, snr))
    ops.append(_curve_op("mmse:ar", ["curve", "mmse", "--ar",
                                     f"a={inputs.AR_A:g},n={inputs.AR_N}"],
                         refs["curve"]["ar_mmse"], out_dir, snr))

    def warmup():
        for spec in inputs.CURVE_INPUTS.values():
            scalar.mmse(scalar.ScalarChannel(cli.parse_input_spec(spec), 1.0))
        ct.telegraph_cmmse(ct.TelegraphModel(inputs.TELEGRAPH_NU, 1.0))

    return Workload("curve", ops, warmup)


# ---------------------------------------------------------------------------
# represent: entropy, non-Gaussianness and MI as MMSE integrals over snr
# ---------------------------------------------------------------------------

def _uniform_law():
    x = np.linspace(-math.sqrt(3.0), math.sqrt(3.0), inputs.UNIFORM_POINTS)
    return laws.GriddedDensity(grid=x, pdf=np.full_like(x, 1.0 / (2.0 * math.sqrt(3.0))))


def _mixture(d):
    return laws.GaussianMixture(weights=np.array(d["weights"]),
                                means=np.array(d["means"]),
                                variances=np.array(d["variances"]))


def _epi_pairs(n):
    """The random mixture pairs of acceptance criterion 13."""
    rng = np.random.default_rng(inputs.EPI_SEED)

    def draw():
        w = rng.uniform(0.2, 1.0, 2)
        w /= w.sum()
        return laws.GaussianMixture(weights=w, means=rng.uniform(-1.5, 1.5, 2),
                                    variances=rng.uniform(0.2, 1.5, 2))
    return [(draw(), draw()) for _ in range(n)]


def _value_op(label, fn, ref, atol):
    def run():
        value = fn()
        return [fixed(label, value, ref, atol=atol)], _digest(value), 0
    return Op(label, 1, run)


def build_represent(seed, scale, refs, out_dir):
    r = refs["represent"]
    pam4 = laws.DiscreteAtoms(values=np.array(inputs.PAM4_VALUES),
                              probs=np.full(4, 0.25))
    pam16 = laws.DiscreteAtoms(values=np.array(inputs.PAM16_VALUES),
                               probs=np.array(inputs.PAM16_PROBS))
    mix2 = _mixture(inputs.MIX2)
    joint = represent.JointAtoms(x=np.array([-1.0, 1.0]), z=np.array([-1.0, 1.0]),
                                 probs=np.array([0.5, 0.5]))
    uniform = _uniform_law()
    tail = represent.TailPolicy(*inputs.UNIFORM_TAIL)
    # gates are the acceptance-suite tolerances of the same quantities
    ops = [
        _value_op("entropy:pam4", lambda: represent.entropy_via_mmse(pam4),
                  r["ln4"], 1e-3),
        _value_op("nongaussianness:mix2", lambda: represent.nongaussianness(mix2),
                  r["kl_mix2"], 1e-4),
        _value_op("mi:binary_self", lambda: represent.mi_via_mmse_difference(joint),
                  r["ln2"], 2e-3),
    ]
    if scale == "full":
        ops += [
            _value_op("entropy:pam16", lambda: represent.entropy_via_mmse(pam16),
                      r["ln16"], 1e-3),
            _value_op("diff_entropy:uniform201",
                      lambda: represent.differential_entropy_via_mmse(uniform, tail),
                      r["h_uniform"], 5e-3),
        ]
    for k, (a, b) in enumerate(_epi_pairs(5 if scale == "full" else 1)):
        def run(a=a, b=b, k=k):
            report = represent.gamma_epi_check(a, b)
            return ([gate(f"gamma_epi:{k}", report, "fixed")],
                    _digest(report.notes), 0)
        ops.append(Op(f"gamma_epi:{k}", 1, run))

    def warmup():
        for law in (pam4, mix2, uniform):
            scalar.mmse(scalar.ScalarChannel(law, 1.0))

    return Workload("represent", ops, warmup)


# ---------------------------------------------------------------------------
# telegraph: Wonham filter / Yao smoother ensemble and one CLI path dump
# ---------------------------------------------------------------------------

def build_telegraph(seed, scale, refs, out_dir):
    e, d, r = inputs.ENSEMBLE, inputs.DUMP, refs["telegraph"]
    paths = e["paths"] if scale == "full" else 2000

    def ensemble():
        model = ct.TelegraphModel(e["nu"], e["snr"])
        res = ct.wonham_ensemble(model, McConfig(seed=seed, n_paths=paths,
                                                 dt=e["dt"], horizon=e["horizon"]))
        return ([mc("ensemble:cmmse", res.cmmse, r["ensemble_cmmse"], res.cmmse_se),
                 mc("ensemble:smmse", res.smmse, r["ensemble_mmse"], res.smmse_se)],
                _digest(res), 0)

    dump_csv = os.path.join(out_dir, "telegraph_path.csv")
    summary = os.path.join(out_dir, "telegraph_summary.json")

    def dump():
        code = cli.main(["simulate", "telegraph", "--nu", f"{d['nu']:g}",
                         "--snr", f"{d['snr']:g}", "--paths", "1",
                         "--horizon", f"{d['horizon']:g}", "--seed", str(seed + 1),
                         "--dump", dump_csv, "--out", summary])
        if code != 0:
            raise OpFailed(f"immse simulate exited {code}")
        with open(summary, encoding="utf-8") as f:
            info = json.load(f)
        with open(dump_csv, newline="", encoding="utf-8") as f:
            rows = np.array([[float(v) for v in row] for row in list(csv.reader(f))[1:]])
        n = int(round(d["horizon"] / info["dt"]))
        t, x, _, causal, smooth = rows.T
        shape_ok = (rows.shape == (n, 5) and np.all(np.isfinite(rows))
                    and np.array_equal(np.abs(x), np.ones(n))
                    and np.all(np.abs(causal) <= 1.0) and np.all(np.abs(smooth) <= 1.0)
                    and np.allclose(t, info["dt"] * np.arange(n), rtol=0, atol=1e-9))
        outcomes = [
            fixed("dump:cmmse_closed", info["cmmse_closed"], r["dump_cmmse"], rtol=1e-8),
            fixed("dump:mmse_closed", info["mmse_closed"], r["dump_mmse"], rtol=1e-8),
            Outcome("dump:path_columns", "seeded", bool(shape_ok)),
        ]
        with open(dump_csv, "rb") as f:
            raw = f.read()
        return outcomes, raw, _size(dump_csv, summary, dump_csv + ".manifest.json",
                                    summary + ".manifest.json")

    ops = [Op("ensemble", 2, ensemble), Op("dump", 3, dump)]

    def warmup():
        ct.telegraph_cmmse(ct.TelegraphModel(d["nu"], d["snr"]))
        ct.wonham_ensemble(ct.TelegraphModel(e["nu"], e["snr"]),
                           McConfig(seed=0, n_paths=4, dt=e["dt"], horizon=1.0))

    return Workload("telegraph", ops, warmup)


# ---------------------------------------------------------------------------
# mc_atoms: atom-posterior Monte Carlo engines (acceptance criteria 4-7 and a
# 16-point constellation through a 3x2 H)
# ---------------------------------------------------------------------------

def _binary_pair_model(snr):
    pts = np.array([[a, b] for a in (-1.0, 1.0) for b in (-1.0, 1.0)])
    atoms = vector.AtomSet(points=pts, probs=np.full(4, 0.25))
    return vector.VectorChannelModel(H=np.diag(inputs.C4_GAINS), input=atoms,
                                     snr_diag=np.full(2, snr))


def _qam_model():
    h = np.random.default_rng(inputs.QAM_H_SEED).standard_normal((3, 2))
    pts = np.array(inputs.QAM16)
    atoms = vector.AtomSet(points=pts, probs=np.full(16, 1 / 16))
    return vector.VectorChannelModel(H=h, input=atoms,
                                     snr_diag=np.full(2, inputs.QAM_SNR))


def build_mc_atoms(seed, scale, refs, out_dir):
    r = refs["mc_atoms"]
    q = r["qam"]
    div = 1 if scale == "full" else 10

    def cfg(offset, n):
        return McConfig(seed=seed + offset, n_paths=n // div)

    def c4():
        model = _binary_pair_model(inputs.C4_SNR)
        mi = vector.atom_mi(model, cfg(0, 1_000_000))
        err = vector.atom_mmse(model, cfg(0, 1_000_000))
        return ([mc("c4:atom_mi", mi.value, r["c4_mi"], mi.se),
                 mc("c4:atom_mmse", err.value, r["c4_mmse"], err.se)],
                _digest(mi, err), 0)

    def c5():
        rep = vector.de_bruijn_check(_binary_pair_model(1.0), 1.0, mc=cfg(1, 200_000))
        return [gate("c5:de_bruijn", rep, "mc")], _digest(rep.checks), 0

    def c6():
        binary = laws.binary_law()
        plus = scalar.divergence_derivative(binary, 1.0, inputs.C6_SNR, cfg(2, 500_000))
        minus = scalar.divergence_derivative(binary, -1.0, inputs.C6_SNR, cfg(3, 500_000))
        est = 0.5 * (plus.value + minus.value)
        se = 0.5 * math.hypot(plus.se, minus.se)
        return ([mc("c6:divergence_derivative", est, r["c6_half_mmse"], se)],
                _digest(plus, minus), 0)

    def c7():
        model = _binary_pair_model(1.0).with_snr(np.array([0.8, 1.5]))
        rep = vector.multiuser_derivative(model, 0, mc=cfg(4, 400_000))
        return [gate("c7:multiuser", rep, "mc")], _digest(rep.checks), 0

    def qam_engines():
        model = _qam_model()
        mi = vector.atom_mi(model, cfg(5, 1_000_000))
        err = vector.atom_mmse(model, cfg(5, 1_000_000))
        fm = vector.fisher_matrix(model, cfg(5, 1_000_000))
        j_ref = float(np.trace(np.array(q["fisher"])))
        tr_se = fm.se * fm.score_route.shape[0]
        return ([mc("qam:atom_mi", mi.value, q["mi"], mi.se),
                 mc("qam:atom_mmse", err.value, q["mmse"], err.se),
                 mc("qam:fisher_cov_trace", float(np.trace(fm.covariance_route)),
                    j_ref, tr_se),
                 mc("qam:fisher_score_trace", float(np.trace(fm.score_route)),
                    j_ref, tr_se)],
                _digest(mi, err, fm.covariance_route.tobytes(),
                        fm.score_route.tobytes()), 0)

    def qam_checks():
        model = _qam_model()
        mu = vector.multiuser_derivative(model, 0, mc=cfg(6, 400_000))
        db = vector.de_bruijn_check(model, inputs.QAM_SNR, mc=cfg(7, 400_000))
        return ([gate("qam:multiuser", mu, "mc"), gate("qam:de_bruijn", db, "mc")],
                _digest(mu.checks, db.checks), 0)

    ops = [Op("c4", 2, c4), Op("c5", 1, c5), Op("c6", 1, c6), Op("c7", 1, c7),
           Op("qam_engines", 4, qam_engines), Op("qam_checks", 2, qam_checks)]

    def warmup():
        small = McConfig(seed=0, n_paths=1000)
        vector.atom_mi(_binary_pair_model(1.0), small)
        vector.atom_mi(_qam_model(), small)
        scalar.divergence_derivative(laws.binary_law(), 1.0, 1.0, small)

    return Workload("mc_atoms", ops, warmup)


BUILDERS = {"curve": build_curve, "represent": build_represent,
            "telegraph": build_telegraph, "mc_atoms": build_mc_atoms}

# The benchmark's two workloads each join two of the parts above into one
# fixed job, so that a run can be long enough to average out the host's
# speed changes; every part can still be run alone.
SUITES = {"deterministic": ("curve", "represent"),
          "montecarlo": ("telegraph", "mc_atoms")}


def build(name, seed, scale, out_dir, plant_miss=False):
    refs = load_refs(plant_miss)
    parts = [BUILDERS[p](seed, scale, refs, out_dir)
             for p in SUITES.get(name, (name,))]

    def warmup():
        for part in parts:
            part.warmup()

    wl = Workload(name, [op for part in parts for op in part.ops], warmup)
    with open(os.path.join(HERE, "known_misses.json"), encoding="utf-8") as f:
        known = json.load(f)
    wl.known_misses = set().union(*(known.get(part.name, []) for part in parts))
    return wl


def digest_hex(chunks):
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()
