"""Acceptance suite: fifteen numbered criteria, one pass/fail line each.

Each test prints "[criterion NN] PASS/FAIL <summary>" and asserts the stated
tolerance.  Monte Carlo runs record their configuration and results in
RESULTS so the final reproducibility criterion can replay them bit-identically.
"""
import time

import numpy as np
import pytest

from immse.ct import (OUSpectrum, TelegraphModel, spectral_quantities,
                      spectral_report, telegraph_cmmse, telegraph_mmse,
                      thm7_differential_check, verify_f_recurrences,
                      verify_thm7, wonham_ensemble)
from immse.dt import ARProcess, verify_corollary3, verify_thm9
from immse.laws import (DiscreteAtoms, Gaussian, GaussianMixture, binary_law,
                        moments, standard_gaussian_law)
from immse.quadrature import McConfig
from immse.represent import (JointAtoms, TailPolicy, entropy_via_mmse,
                             gamma_epi_check, mi_via_mmse_difference,
                             nongaussianness)
from immse.scalar import (ScalarChannel, divergence_derivative,
                          fisher_from_mmse, fisher_information,
                          mi_binary_closed, mi_taylor, mmse,
                          mmse_binary_closed, mmse_taylor,
                          mutual_information, verify_immse,
                          verify_immse_integral)
from immse.vector import (AtomSet, GaussianVec, VectorChannelModel, atom_mi,
                          atom_mmse, de_bruijn_check, gaussian_mmse,
                          multiuser_derivative, verify_immse_vector)

SNR_GRID = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0]
MIX3 = GaussianMixture(weights=np.array([0.3, 0.5, 0.2]),
                       means=np.array([-1.5, 0.2, 1.8]),
                       variances=np.array([0.4, 0.9, 0.2]))

RESULTS = {}


def _line(num, ok, summary):
    tag = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {tag} {summary}")
    assert ok, f"criterion {num}: {summary}"


def _binary_atoms_model(snr):
    pts = np.array([[a, b] for a in (-1.0, 1.0) for b in (-1.0, 1.0)])
    return VectorChannelModel(H=np.diag([1.0, 1.5]),
                              input=AtomSet(points=pts, probs=np.full(4, 0.25)),
                              snr_diag=np.full(2, snr))


def _gaussian_model(seed, snr):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((3, 3))
    a = rng.standard_normal((3, 3))
    cov = a @ a.T + 0.5 * np.eye(3)
    return VectorChannelModel(H=h, input=GaussianVec(np.zeros(3), cov),
                              snr_diag=np.full(3, snr))


def test_criterion_01_scalar_derivative_identity():
    t0 = time.time()
    ok = True
    worst = 0.0
    for law in (standard_gaussian_law(), binary_law(), MIX3):
        report = verify_immse(law, SNR_GRID)
        ok &= report.passed
        worst = max(worst, report.max_deviation)
    elapsed = time.time() - t0
    ok &= elapsed < 10.0
    _line(1, ok, f"dI/dsnr vs mmse/2, 3 laws x 6 snrs, max dev "
                 f"{worst:.2e} <= 1e-6, {elapsed:.1f}s < 10s")


def test_criterion_02_closed_form_cross_checks():
    as_mix = GaussianMixture(weights=np.array([1.0]), means=np.array([0.0]),
                             variances=np.array([1.0]))
    worst_g = worst_b = 0.0
    for s in SNR_GRID:
        chg = ScalarChannel(as_mix, s)
        worst_g = max(worst_g,
                      abs(mmse(chg) - 1.0 / (1.0 + s)),
                      abs(mutual_information(chg) - 0.5 * np.log1p(s)))
        chb = ScalarChannel(binary_law(), s)
        worst_b = max(worst_b,
                      abs(mmse(chb) - mmse_binary_closed(s)),
                      abs(mutual_information(chb) - mi_binary_closed(s)))
    ok = worst_g <= 1e-10 and worst_b <= 1e-9
    _line(2, ok, f"engine vs closed forms: gaussian dev {worst_g:.2e} <= "
                 f"1e-10, binary dev {worst_b:.2e} <= 1e-9")


def test_criterion_03_integral_form_binary():
    report = verify_immse_integral(binary_law(), 4.0)
    dev = report.checks[0].deviation
    ok = dev <= 1e-6
    _line(3, ok, f"I(4) vs half-integral of mmse (binary), adaptive "
                 f"quadrature dev {dev:.2e} <= 1e-6")


def test_criterion_04_vector_identity():
    worst = 0.0
    ok = True
    for seed in (0, 1, 2):
        report = verify_immse_vector(_gaussian_model(seed, 1.0))
        ok &= report.passed
        worst = max(worst, report.max_deviation)
    mc = McConfig(seed=41, n_paths=1_000_000)
    model = _binary_atoms_model(1.2)
    mi = atom_mi(model, mc)
    err = atom_mmse(model, mc)
    mi_exact = mi_binary_closed(1.2) + mi_binary_closed(1.2 * 2.25)
    mmse_exact = mmse_binary_closed(1.2) + 2.25 * mmse_binary_closed(1.2 * 2.25)
    ok &= abs(mi.value - mi_exact) <= 3 * mi.se
    ok &= abs(err.value - mmse_exact) <= 3 * err.se
    RESULTS["c4"] = (mc, mi.value, err.value)
    _line(4, ok, f"gaussian FD dev {worst:.2e} <= 1e-7; atom MC at 1e6: "
                 f"mi dev {abs(mi.value - mi_exact):.2e} <= {3 * mi.se:.2e}, "
                 f"mmse dev {abs(err.value - mmse_exact):.2e} <= "
                 f"{3 * err.se:.2e}")


def test_criterion_05_fisher_and_de_bruijn():
    worst = 0.0
    for s in (0.5, 1.0, 3.0):
        ch = ScalarChannel(binary_law(), s)
        worst = max(worst, abs(fisher_information(ch) - fisher_from_mmse(ch)))
    ok = worst <= 1e-8
    rg = de_bruijn_check(_gaussian_model(5, 1.0), 1.0)
    ok &= rg.passed and rg.max_deviation <= 1e-7
    mc = McConfig(seed=52, n_paths=200_000)
    rb = de_bruijn_check(_binary_atoms_model(1.0), 1.0, mc=mc)
    ok &= rb.passed
    RESULTS["c5"] = (mc, rb.checks[0].lhs, rb.checks[0].rhs)
    _line(5, ok, f"fisher dual-route dev {worst:.2e} <= 1e-8; de Bruijn "
                 f"gaussian dev {rg.max_deviation:.2e} <= 1e-7; binary MC "
                 f"dev {rb.max_deviation:.2e} <= {rb.checks[0].tolerance:.2e}")


def test_criterion_06_divergence_derivative():
    mc = McConfig(seed=6, n_paths=500_000)
    plus = divergence_derivative(binary_law(), 1.0, 1.0, mc)
    minus = divergence_derivative(binary_law(), -1.0, 1.0,
                                  McConfig(seed=7, n_paths=500_000))
    est = 0.5 * (plus.value + minus.value)
    se = 0.5 * np.hypot(plus.se, minus.se)
    target = 0.5 * mmse_binary_closed(1.0)
    ok = abs(est - target) <= 3 * se
    RESULTS["c6"] = (mc, plus.value, minus.value)
    _line(6, ok, f"E_x[d/dsnr divergence] {est:.6f} vs mmse/2 {target:.6f}, "
                 f"dev {abs(est - target):.2e} <= {3 * se:.2e} at 1e6 draws")


def test_criterion_07_per_user_derivative():
    mc = McConfig(seed=73, n_paths=400_000)
    model = _binary_atoms_model(1.0).with_snr(np.array([0.8, 1.5]))
    r0 = multiuser_derivative(model, 0, mc=mc)
    ok = r0.passed
    RESULTS["c7"] = (mc, r0.checks[0].lhs, r0.checks[0].rhs)
    # equal-snr reduction, exact Gaussian routes: per-user RHS terms sum to
    # the common-snr derivative mmse/2 of criterion 4
    g = _gaussian_model(0, 1.0)
    rhs_sum = sum(multiuser_derivative(g, k).checks[0].rhs for k in range(3))
    dev = abs(rhs_sum - 0.5 * gaussian_mmse(g))
    ok &= dev <= 1e-6
    _line(7, ok, f"two-user MC dev {r0.max_deviation:.2e} <= "
                 f"{r0.checks[0].tolerance:.2e}; equal-snr reduction dev "
                 f"{dev:.2e} <= 1e-6")


def test_criterion_08_f_recurrences():
    ok = True
    worst = 0.0
    for xi in (-0.5, -2.0, -8.0):
        report = verify_f_recurrences(xi)
        ok &= report.passed
        worst = max(worst, report.max_deviation)
    rd = thm7_differential_check(1.0, 2.0)
    ok &= rd.passed and rd.max_deviation <= 1e-4
    _line(8, ok, f"f(i,j) recurrences at xi in {{-0.5,-2,-8}} max rel dev "
                 f"{worst:.2e} <= 1e-8; differential causal identity dev "
                 f"{rd.max_deviation:.2e} <= 1e-4")


def test_criterion_09_telegraph_causal_identity():
    t0 = time.time()
    report = verify_thm7(1.0, [0.5, 1.0, 3.16, 10.0, 31.6])
    elapsed = time.time() - t0
    ok = report.passed and elapsed < 60.0
    _line(9, ok, f"cmmse vs snr-averaged mmse at 5 snrs, max dev "
                 f"{report.max_deviation:.2e} <= 1e-4, {elapsed:.1f}s < 60s")


def test_criterion_10_wonham_yao_monte_carlo():
    t0 = time.time()
    m = TelegraphModel(1.0, 10.0 ** 0.5)
    mc = McConfig(seed=2024, n_paths=100_000, dt=1e-3, horizon=10.0)
    res = wonham_ensemble(m, mc)
    elapsed = time.time() - t0
    dev_c = abs(res.cmmse - telegraph_cmmse(m))
    dev_s = abs(res.smmse - telegraph_mmse(m))
    ok = dev_c <= 3 * res.cmmse_se and dev_s <= 3 * res.smmse_se
    ok &= elapsed < 300.0
    RESULTS["c10"] = (mc, res)
    _line(10, ok, f"1e5 paths: causal dev {dev_c:.2e} <= {3 * res.cmmse_se:.2e},"
                  f" smoothed dev {dev_s:.2e} <= {3 * res.smmse_se:.2e}, "
                  f"{elapsed:.0f}s < 300s")


def test_criterion_11_spectral_ou():
    report = spectral_report(OUSpectrum(), 1.0)
    ok = report.passed
    dev = max(c.deviation for c in report.checks[:3])
    ok &= dev <= 1e-8
    _, mm_hi, cm_hi = spectral_quantities(OUSpectrum(), 1e4)
    hi_ratio = cm_hi / mm_hi
    ok &= 1.96 <= hi_ratio <= 2.04
    _, mm_lo, cm_lo = spectral_quantities(OUSpectrum(), 1e-3)
    lo_ratio = (1.0 - mm_lo) / (1.0 - cm_lo)
    ok &= 1.99 <= lo_ratio <= 2.01
    _line(11, ok, f"quadrature vs closed forms dev {dev:.2e} <= 1e-8; "
                  f"cmmse/mmse at 1e4 = {hi_ratio:.4f} in [1.96,2.04]; "
                  f"low-snr excess ratio {lo_ratio:.4f} in [1.99,2.01]")


def test_criterion_12_discrete_time_lattice():
    ok = True
    worst = 0.0
    for a in (0.3, 0.6, 0.9):
        for s in (0.5, 1.0, 5.0):
            for n in (8, 32):
                p = ARProcess(a, n)
                rc = verify_corollary3(p, s)
                ok &= rc.passed
                worst = max(worst, rc.max_deviation)
                ok &= verify_thm9(p, s).passed
    _line(12, ok, f"per-index derivative dev {worst:.2e} <= 1e-6 and "
                  f"sandwich bounds hold on the 3x3x2 lattice")


def test_criterion_13_representations():
    four = DiscreteAtoms(values=np.array([-3.0, -1.0, 1.0, 3.0]),
                         probs=np.full(4, 0.25))
    h = entropy_via_mmse(four)
    ok = abs(h - np.log(4.0)) <= 1e-3
    dg = nongaussianness(standard_gaussian_law())
    ok &= abs(dg) <= 1e-9
    mix = GaussianMixture(weights=np.array([0.5, 0.5]),
                          means=np.array([-1.0, 1.0]),
                          variances=np.array([0.25, 0.25]))
    from scipy import integrate as si
    var = 1.25

    def kl_int(x):
        p = sum(w * np.exp(-(x - m) ** 2 / (2 * v)) / np.sqrt(2 * np.pi * v)
                for w, m, v in zip(mix.weights, mix.means, mix.variances))
        phi = np.exp(-x * x / (2 * var)) / np.sqrt(2 * np.pi * var)
        return p * np.log(p / phi)

    kl, _ = si.quad(kl_int, -14, 14, limit=400)
    dm = nongaussianness(mix)
    ok &= abs(dm - kl) <= 1e-4
    j = JointAtoms(x=np.array([-1.0, 1.0]), z=np.array([-1.0, 1.0]),
                   probs=np.array([0.5, 0.5]))
    mi = mi_via_mmse_difference(j)
    ok &= abs(mi - np.log(2.0)) <= 2e-3
    epi_ok = True
    rng = np.random.default_rng(13)
    for _ in range(5):
        def rand_mix():
            w = rng.uniform(0.2, 1.0, 2)
            w /= w.sum()
            return GaussianMixture(weights=w,
                                   means=rng.uniform(-1.5, 1.5, 2),
                                   variances=rng.uniform(0.2, 1.5, 2))

        epi_ok &= gamma_epi_check(rand_mix(), rand_mix()).passed
    ok &= epi_ok
    _line(13, ok, f"entropy dev {abs(h - np.log(4)):.2e} <= 1e-3; "
                  f"D(gaussian) {abs(dg):.1e} <= 1e-9; mixture vs KL dev "
                  f"{abs(dm - kl):.2e} <= 1e-4; MI identity dev "
                  f"{abs(mi - np.log(2)):.2e} <= 2e-3; EPI holds on 5 pairs")


def test_criterion_14_taylor_remainder_orders():
    m = moments(binary_law())
    grid = np.geomspace(1e-2, 1e-1, 9)
    rm = np.array([abs(mmse_binary_closed(s) - mmse_taylor(m, s))
                   for s in grid])
    ri = np.array([abs(mi_binary_closed(s) - mi_taylor(m, s)) for s in grid])
    slope_m = np.polyfit(np.log(grid), np.log(rm), 1)[0]
    slope_i = np.polyfit(np.log(grid), np.log(ri), 1)[0]
    ok = slope_m >= 3.8 and slope_i >= 4.8
    _line(14, ok, f"remainder log-log slopes: mmse {slope_m:.2f} >= 3.8, "
                  f"mi {slope_i:.2f} >= 4.8 on snr in [1e-2, 1e-1]")


def test_criterion_15_monte_carlo_reproducibility():
    ok = True
    # criterion 4: atom engines
    mc, mi_v, err_v = RESULTS["c4"]
    model = _binary_atoms_model(1.2)
    ok &= atom_mi(model, mc).value == mi_v
    ok &= atom_mmse(model, mc).value == err_v
    # criterion 5: binary de Bruijn
    mc, lhs, rhs = RESULTS["c5"]
    rb = de_bruijn_check(_binary_atoms_model(1.0), 1.0, mc=mc)
    ok &= rb.checks[0].lhs == lhs and rb.checks[0].rhs == rhs
    # criterion 6: divergence derivative
    mc, plus_v, minus_v = RESULTS["c6"]
    ok &= divergence_derivative(binary_law(), 1.0, 1.0, mc).value == plus_v
    ok &= divergence_derivative(
        binary_law(), -1.0, 1.0,
        McConfig(seed=7, n_paths=500_000)).value == minus_v
    # criterion 7: per-user derivative
    mc, lhs, rhs = RESULTS["c7"]
    r0 = multiuser_derivative(
        _binary_atoms_model(1.0).with_snr(np.array([0.8, 1.5])), 0, mc=mc)
    ok &= r0.checks[0].lhs == lhs and r0.checks[0].rhs == rhs
    # criterion 10: Wonham/Yao ensemble
    mc, res = RESULTS["c10"]
    rerun = wonham_ensemble(TelegraphModel(1.0, 10.0 ** 0.5), mc)
    ok &= rerun == res
    _line(15, ok, "all Monte Carlo criteria rerun from their manifests "
                  "reproduce bit-identical numbers")
