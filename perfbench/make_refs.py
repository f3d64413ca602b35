"""Generate perfbench/refs.json: the stored oracle values of the benchmark.

    python3 perfbench/make_refs.py            # from the repository root

The timed runs only read refs.json; nothing here runs while a workload is
measured.  Every value is computed independently of the quadrature, filter
and Monte Carlo code it checks:

* scalar mmse / mi on the curve grid: composite Gauss-Legendre over the
  output with every integrand value in mpmath, the posterior variance
  written as the cancellation-free pair sum sum_{j<k} w_j w_k (x_j - x_k)^2
  wherever the moment form would cancel,
* telegraph causal / noncausal MMSE: mpmath integrals of the f(i, j) ratio
  and of the two-sided G(xi) integral,
* AR(1) smoothing MMSE: diagonal of the inverse tridiagonal posterior
  precision, in mpmath,
* the 16-point 2-D constellation: a tensor Gauss-Hermite cubature over the
  3-D output whose order is doubled until two levels agree,
* the scipy binary closed forms (the package's own Monte Carlo gates) are
  recorded next to their mpmath values; where scipy warns, the two are
  compared and the difference is stored.

It takes about twelve minutes with two worker processes.  The CLI grid is
built by the package's own parser, so the stored snr values are the CLI's
bit for bit.
"""
from __future__ import annotations

import json
import math
import multiprocessing
import os
import sys
import warnings

import mpmath as mp
import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
from immse import cli, scalar  # noqa: E402

mp.mp.dps = 20
WORKERS = 2


# ---------------------------------------------------------------------------
# scalar laws as mixtures of output Gaussians
# ---------------------------------------------------------------------------

def _components(kind):
    """(weights, means, variances) of the input law as mpf lists."""
    if kind == "binary":
        w, m, v = [0.5, 0.5], [-1.0, 1.0], [0.0, 0.0]
    elif kind == "pam16":
        w, m, v = inputs.PAM16_PROBS, inputs.PAM16_VALUES, [0.0] * 16
    elif kind == "mix3":
        w, m, v = (inputs.MIX3[k] for k in ("weights", "means", "variances"))
    else:
        raise ValueError(kind)
    return [mp.mpf(x) for x in w], [mp.mpf(x) for x in m], [mp.mpf(x) for x in v]


def _breakpoints(centers, sds, sharp):
    """Panel edges: component centres, a geometric cluster around each sharp
    decision boundary, and a fill that keeps every panel under half the
    narrowest output standard deviation."""
    reach = 20.0 * max(sds)
    lo, hi = min(centers) - reach, max(centers) + reach
    pts = {lo, hi, *centers}
    order = sorted(range(len(centers)), key=lambda k: centers[k])
    for j, k in zip(order[:-1], order[1:]):
        if sharp[j] and sharp[k] and centers[k] > centers[j]:
            mid = 0.5 * (centers[j] + centers[k])
            width = 1.0 / (centers[k] - centers[j])  # logit scale of w_j / w_k
            for d in (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0):
                pts.update((mid - d * width, mid + d * width))
    pts = sorted(p for p in pts if lo <= p <= hi)
    h_max = 0.5 * min(sds)
    edges = [pts[0]]
    for p in pts[1:]:
        n = max(1, math.ceil((p - edges[-1]) / h_max))
        edges.extend(edges[-1] + (p - edges[-1]) * np.arange(1, n + 1) / n)
    return np.array(edges)


def _scalar_refs(kind, snr):
    """mmse and mutual information (nats) of one law at one snr.

    Composite Gauss-Legendre over the output with every integrand value in
    mpmath (the tails reach e^-2000, far below float64); the 20- and 28-node
    rules must agree to 1e-11 relative.  Components whose log weight is more
    than 80 below the largest are dropped at that node.
    """
    w, m, v = _components(kind)
    s = mp.mpf(snr)
    rs = mp.sqrt(s)
    n = len(w)
    centers = [rs * mk for mk in m]
    out_var = [1 + s * vk for vk in v]
    post_var = [vk / ov for vk, ov in zip(v, out_var)]
    gain = [rs * vk / ov for vk, ov in zip(v, out_var)]
    log_norm = [mp.log(wk) - mp.log(2 * mp.pi * ov) / 2 for wk, ov in zip(w, out_var)]
    cf = [float(c) for c in centers]
    ovf = [float(x) for x in out_var]
    lnf = [float(x) for x in log_norm]
    edges = _breakpoints(cf, [math.sqrt(x) for x in ovf],
                         [float(vk) == 0.0 for vk in v])

    def integrands(yf):
        ef = [lnf[k] - (yf - cf[k]) ** 2 / (2 * ovf[k]) for k in range(n)]
        top = max(ef)
        live = [k for k in range(n) if ef[k] > top - 80.0]
        y = mp.mpf(yf)
        a = {k: mp.exp(log_norm[k] - (y - centers[k]) ** 2 / (2 * out_var[k]))
             for k in live}
        p = mp.fsum(a.values())
        mu = {k: m[k] + gain[k] * (y - centers[k]) for k in live}
        within = mp.fsum(a[k] * post_var[k] for k in live)
        s1 = mp.fsum(a[k] * mu[k] for k in live)
        s2 = mp.fsum(a[k] * mu[k] ** 2 for k in live)
        between = s2 - s1 * s1 / p
        if between < mp.mpf(10) ** -6 * s2:
            # the moment form lost more than 6 of 20 digits: use pairs
            between = mp.fsum(a[j] * a[k] * (mu[j] - mu[k]) ** 2
                              for i, j in enumerate(live)
                              for k in live[i + 1:]) / p
        return within + between, -p * mp.log(p)

    def rule(n_nodes):
        x, wt = np.polynomial.legendre.leggauss(n_nodes)
        mm = hh = mp.mpf(0)
        for a, b in zip(edges[:-1], edges[1:]):
            half, mid = 0.5 * (b - a), 0.5 * (a + b)
            for xi, wi in zip(x, wt):
                f_mm, f_h = integrands(mid + half * xi)
                mm += (wi * half) * f_mm
                hh += (wi * half) * f_h
        return mm, hh - mp.log(2 * mp.pi * mp.e) / 2

    mm1, mi1 = rule(20)
    mm2, mi2 = rule(28)
    gap = max(abs(mm1 - mm2) / mm2, abs(mi1 - mi2) / mi2)
    if gap > 1e-11:
        raise RuntimeError(f"{kind} at snr={snr}: rules differ by {float(gap):.2e}")
    return float(mm2), float(mi2)


# ---------------------------------------------------------------------------
# telegraph closed forms
# ---------------------------------------------------------------------------

def _f_scaled(i, xi):
    """e^{-xi} f(i, -1, xi) = 2 int_0^inf (1 + v^2)^{i/2} e^{xi v^2} dv."""
    scale = 1 / mp.sqrt(-xi)
    return 2 * mp.quad(lambda u: (1 + u * u) ** (mp.mpf(i) / 2) * mp.exp(xi * u * u),
                       [0, scale, 4 * scale, mp.inf])


def telegraph_cmmse(nu, snr):
    xi = -2 * mp.mpf(nu) / mp.mpf(snr)
    return _f_scaled(-1, xi) / _f_scaled(1, xi)


def telegraph_mmse(nu, snr):
    """4 G(xi) / F(1,-1)^2, G in polar coordinates (radial part in closed
    form is not available, so both angle and radius are integrated)."""
    xi = -2 * mp.mpf(nu) / mp.mpf(snr)
    scale = 1 / mp.sqrt(-xi)

    def inner(theta):
        c2, s2 = mp.cos(theta) ** 2, mp.sin(theta) ** 2
        return mp.quad(lambda r: r * mp.sqrt((1 + r * r * c2) * (1 + r * r * s2))
                       * mp.exp(xi * r * r) / (1 + r * r),
                       [0, scale, 4 * scale, mp.inf])

    g = mp.quad(inner, [0, mp.pi / 4, mp.pi / 2])
    return 4 * g / _f_scaled(1, xi) ** 2


# ---------------------------------------------------------------------------
# AR(1) smoothing error, mean over the block
# ---------------------------------------------------------------------------

def ar_mean_mmse(a, n, snr):
    """mean_i [(Sigma^{-1} + snr I)^{-1}]_ii for the unit-variance AR(1)."""
    a, s = mp.mpf(a), mp.mpf(snr)
    q = 1 - a * a
    diag = [(1 if i in (0, n - 1) else 1 + a * a) / q + s for i in range(n)]
    off = -a / q
    # theta (leading minors) and phi (trailing minors) of the tridiagonal
    theta = [mp.mpf(1), diag[0]]
    for i in range(1, n):
        theta.append(diag[i] * theta[i] - off * off * theta[i - 1])
    phi = [mp.mpf(0)] * (n + 2)
    phi[n + 1], phi[n] = mp.mpf(1), diag[n - 1]
    for i in range(n - 1, 0, -1):
        phi[i] = diag[i - 1] * phi[i + 1] - off * off * phi[i + 2]
    inv_diag = [theta[i] * phi[i + 2] / theta[n] for i in range(n)]
    return float(mp.fsum(inv_diag) / n)


# ---------------------------------------------------------------------------
# 16-point constellation through a 3x2 H: tensor Gauss-Hermite cubature
# ---------------------------------------------------------------------------

def _qam_model():
    h = np.random.default_rng(inputs.QAM_H_SEED).standard_normal((3, 2))
    pts = np.array(inputs.QAM16)
    return h, pts, np.sqrt(inputs.QAM_SNR) * h


def _qam_cubature(order):
    h, pts, a = _qam_model()
    z, wz = np.polynomial.hermite_e.hermegauss(order)
    wz = wz / wz.sum()
    grid = np.stack(np.meshgrid(z, z, z, indexing="ij"), -1).reshape(-1, 3)
    wn = np.einsum("i,j,k->ijk", wz, wz, wz).ravel()
    centers = pts @ a.T                                    # (16, 3)
    hx = pts @ h.T
    n_atoms = len(pts)
    mi = mmse = 0.0
    fisher = np.zeros((3, 3))
    for i in range(n_atoms):
        y = centers[i] + grid
        d = y[:, None, :] - centers[None, :, :]
        logw = -0.5 * np.einsum("nkl,nkl->nk", d, d)
        top = logw.max(axis=1, keepdims=True)
        wts = np.exp(logw - top)
        tot = wts.sum(axis=1, keepdims=True)
        post = wts / tot
        log_py_rel = (top + np.log(tot))[:, 0] - np.log(n_atoms)
        mi += np.sum(wn * (-0.5 * np.sum(grid ** 2, axis=1) - log_py_rel)) / n_atoms
        mean_hx = post @ hx
        dev = hx[None, :, :] - mean_hx[:, None, :]
        mmse += np.sum(wn * np.einsum("nk,nkl,nkl->n", post, dev, dev)) / n_atoms
        g = post @ centers - y
        fisher += np.einsum("n,ni,nj->ij", wn, g, g) / n_atoms
    return mi, mmse, fisher


def qam_refs():
    prev = _qam_cubature(24)
    for order in (32, 48):
        cur = _qam_cubature(order)
        gap = max(abs(cur[0] - prev[0]), abs(cur[1] - prev[1]),
                  float(np.max(np.abs(cur[2] - prev[2]))))
        prev = cur
    if gap > 1e-9:
        raise RuntimeError(f"constellation cubature did not settle: {gap:.2e}")
    mi, mmse, fisher = prev
    return {"h_seed": inputs.QAM_H_SEED, "snr": inputs.QAM_SNR, "mi": mi,
            "mmse": mmse, "fisher": fisher.tolist(), "cubature_gap": gap}


# ---------------------------------------------------------------------------
# scipy binary closed forms, checked against mpmath where scipy warns
# ---------------------------------------------------------------------------

def binary_closed_form(fn, snr, reference):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = fn(snr)
    warned = any("Integration" in type(w.message).__name__ for w in caught)
    rel = abs(value - reference) / abs(reference)
    return value, warned, rel


def kl_mix2():
    w, m, v = (inputs.MIX2[k] for k in ("weights", "means", "variances"))
    var = mp.fsum(wk * (vk + mk * mk) for wk, mk, vk in zip(w, m, v))

    def dens(x):
        return mp.fsum(wk * mp.npdf(x, mk, mp.sqrt(vk)) for wk, mk, vk in zip(w, m, v))

    def integrand(x):
        p = dens(x)
        return p * mp.log(p / mp.npdf(x, 0, mp.sqrt(var))) if p > 0 else mp.mpf(0)

    return float(mp.quad(integrand, [-mp.inf, -1, 0, 1, mp.inf]))


def main():
    grid = cli.parse_snr_grid(inputs.SNR_DB_SPEC, db=True)
    refs = {"snr": [float(s) for s in grid], "curve": {}, "notes": {}}
    jobs = [(kind, float(s)) for kind in inputs.CURVE_INPUTS for s in grid]
    with multiprocessing.get_context("spawn").Pool(WORKERS) as pool:
        values = pool.starmap(_scalar_refs, jobs, chunksize=4)
    for kind in inputs.CURVE_INPUTS:
        pairs = [v for (k, _), v in zip(jobs, values) if k == kind]
        refs["curve"][kind] = {"mmse": [a for a, _ in pairs],
                               "mi": [b for _, b in pairs]}
    print("scalar curves: done", flush=True)
    refs["curve"]["telegraph_cmmse"] = [
        float(telegraph_cmmse(inputs.TELEGRAPH_NU, float(s))) for s in grid]
    refs["curve"]["ar_mmse"] = [ar_mean_mmse(inputs.AR_A, inputs.AR_N, float(s))
                                for s in grid]
    print("telegraph and ar curves: done", flush=True)

    checks = []
    for i, s in enumerate(grid):
        for name, fn, ref in (("mmse", scalar.mmse_binary_closed,
                               refs["curve"]["binary"]["mmse"][i]),
                              ("mi", scalar.mi_binary_closed,
                               refs["curve"]["binary"]["mi"][i])):
            value, warned, rel = binary_closed_form(fn, float(s), ref)
            if warned:
                checks.append({"quantity": name, "snr": float(s),
                               "scipy": value, "mpmath": ref, "rel_diff": rel})
    refs["notes"]["binary_closed_form_vs_mpmath_where_scipy_warns"] = checks

    e, t = inputs.ENSEMBLE, inputs.DUMP
    refs["telegraph"] = {
        "ensemble_cmmse": float(telegraph_cmmse(e["nu"], e["snr"])),
        "ensemble_mmse": float(telegraph_mmse(e["nu"], e["snr"])),
        "dump_cmmse": float(telegraph_cmmse(t["nu"], t["snr"])),
        "dump_mmse": float(telegraph_mmse(t["nu"], t["snr"])),
    }
    print("telegraph points: done", flush=True)

    refs["represent"] = {
        "ln4": math.log(4.0), "ln16": math.log(16.0), "ln2": math.log(2.0),
        "kl_mix2": kl_mix2(),
        "h_uniform": float(mp.log(2 * mp.sqrt(3))),
    }

    c4, g2 = inputs.C4_SNR, inputs.C4_GAINS[1] ** 2
    mmse_a, mi_a = _scalar_refs("binary", c4)
    mmse_b, mi_b = _scalar_refs("binary", c4 * g2)
    mmse_c6, _ = _scalar_refs("binary", inputs.C6_SNR)
    refs["mc_atoms"] = {
        "c4_mi": mi_a + mi_b,
        "c4_mmse": mmse_a + g2 * mmse_b,
        "c6_half_mmse": 0.5 * mmse_c6,
        "qam": qam_refs(),
    }
    closed = {
        "c4_mi": scalar.mi_binary_closed(c4) + scalar.mi_binary_closed(c4 * g2),
        "c4_mmse": scalar.mmse_binary_closed(c4)
        + g2 * scalar.mmse_binary_closed(c4 * g2),
        "c6_half_mmse": 0.5 * scalar.mmse_binary_closed(inputs.C6_SNR),
    }
    refs["notes"]["mc_gates_scipy_closed_form_rel_diff"] = {
        k: abs(v - refs["mc_atoms"][k]) / refs["mc_atoms"][k]
        for k, v in closed.items()}
    with open(os.path.join(HERE, "refs.json"), "w", encoding="utf-8") as f:
        json.dump(refs, f, indent=1)
        f.write("\n")
    print("wrote refs.json")


if __name__ == "__main__":
    main()
