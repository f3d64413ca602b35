"""Continuous time: telegraph filtering/smoothing and OU spectra."""
import mpmath as mp
import numpy as np
import pytest

from immse.ct import (OUSpectrum, SamplePath, TelegraphModel, build_f_table,
                      duncan_check, f_integral, f_scaled, ou_closed_forms,
                      simulate_telegraph, spectral_quantities, spectral_report,
                      telegraph_cmmse, telegraph_mmse, thm7_differential_check,
                      time_snr_average_check, time_snr_transform_check,
                      verify_f_recurrences, verify_thm7, wonham_ensemble,
                      wonham_filter, yao_smoother)
from immse import ct
from immse.errors import StepTooLarge
from immse.laws import binary_law
from immse.quadrature import McConfig

SNR_ACCEPT = 10.0 ** 0.5


@pytest.mark.parametrize("xi", [-0.5, -2.0, -8.0])
def test_f_recurrences(xi):
    report = verify_f_recurrences(xi)
    assert report.passed, report.to_dict()


def test_f_table_contains_expected_indices():
    table = build_f_table(-2.0)
    assert (1, -1) in table.values and (-1, -1) in table.values
    assert table.values[(1, -1)] == pytest.approx(f_integral(1, -1, -2.0),
                                                  rel=1e-12)


def test_telegraph_closed_forms_shape():
    grid = [0.5, 1.0, 3.16, 10.0]
    cm = [telegraph_cmmse(TelegraphModel(1.0, s)) for s in grid]
    sm = [telegraph_mmse(TelegraphModel(1.0, s)) for s in grid]
    assert all(np.diff(cm) < 0) and all(np.diff(sm) < 0)
    # smoothing beats filtering, both below the prior variance 1
    for c, s in zip(cm, sm):
        assert 0.0 < s < c < 1.0
    assert telegraph_cmmse(TelegraphModel(1.0, 0.0)) == 1.0


def test_telegraph_low_snr_limit():
    m = TelegraphModel(1.0, 1e-4)
    assert telegraph_cmmse(m) == pytest.approx(1.0, abs=1e-3)
    assert telegraph_mmse(m) == pytest.approx(1.0, abs=1e-3)


def _telegraph_mmse_mpmath(nu, snr):
    """∫_0^∞ e^{-s} F(lam+s)^2 ds / F(lam)^2 at 20 digits, lam = 2 nu/snr,
    F(x) = e^{x/2} (K_0(x/2) + K_1(x/2)) / 2."""
    with mp.workdps(20):
        lam = 2 * mp.mpf(nu) / mp.mpf(snr)

        def f(x):
            return mp.exp(x / 2) * (mp.besselk(0, x / 2)
                                    + mp.besselk(1, x / 2)) / 2

        num = mp.quad(lambda s: mp.exp(-s) * f(lam + s) ** 2, [0, mp.inf])
        return float(num / f(lam) ** 2)


@pytest.mark.parametrize("snr", [1e-3, 1.0, 100.0, 1e4])
def test_telegraph_mmse_matches_mpmath(snr):
    assert telegraph_mmse(TelegraphModel(1.0, snr)) == pytest.approx(
        _telegraph_mmse_mpmath(1.0, snr), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("lam", [1e-4, 1e-2, 1.0, 10.0, 1e3])
def test_f11_closed_form_matches_f_scaled(lam):
    assert ct._f11(lam) == pytest.approx(f_scaled(1, -1, -lam), rel=1e-12,
                                         abs=0.0)


def test_thm7_and_time_average_at_zero_snr():
    # the snr averages at 0 are their limits: mmse(0) = 1 and Var X
    assert verify_thm7(1.0, [0.0]).passed
    report = time_snr_average_check(binary_law(), 0.0)
    assert report.passed, report.to_dict()


def test_thm7_differential_and_integral():
    assert thm7_differential_check(1.0, 2.0).passed
    assert verify_thm7(1.0, [0.5, 2.0]).passed
    assert duncan_check(TelegraphModel(1.0, 2.0)).passed


def test_thm7_differential_below_the_step():
    # snr 5e-6 < d = 1e-4: the difference may not step to a negative snr
    report = thm7_differential_check(1.0, 5e-6)
    assert report.passed, report.to_dict()


@pytest.mark.parametrize("snr", [1e5, 1e6])
def test_thm7_differential_at_high_snr(snr):
    # xi = -2/snr is within 2e-5 of 0: the A' difference may not step past it
    report = thm7_differential_check(1.0, snr)
    assert report.passed, report.to_dict()


def test_simulate_telegraph_path_values():
    m = TelegraphModel(1.0, 2.0)
    path = simulate_telegraph(m, T=2.0, dt=1e-3, seed=0)
    assert set(np.unique(path.x)).issubset({-1.0, 1.0})
    assert path.x.size == 2000 and path.dy.size == 2000
    # increments track sqrt(snr) * x * dt plus O(sqrt(dt)) noise
    assert np.abs(path.dy).max() < 0.2


def test_step_too_large_guard():
    with pytest.raises(StepTooLarge):
        simulate_telegraph(TelegraphModel(1.0, 100.0), T=1.0, dt=1e-2, seed=0)


@pytest.mark.parametrize("nu, snr", [(np.nan, 1.0), (1.0, np.inf)])
def test_telegraph_model_rejects_nonfinite(nu, snr):
    with pytest.raises(ValueError, match="finite"):
        TelegraphModel(nu, snr)


def test_backward_filter_is_forward_filter_on_reversed_path():
    m = TelegraphModel(1.0, 2.0)
    path = simulate_telegraph(m, T=2.0, dt=1e-3, seed=4)
    mirrored = SamplePath(path.dt, path.x[::-1].copy(), path.dy[::-1].copy())
    bwd = wonham_filter(path, m.snr, m.nu, backward=True)
    assert np.array_equal(bwd, wonham_filter(mirrored, m.snr, m.nu)[::-1])


def test_yao_smoother_symmetric_and_clipped():
    f = np.array([0.2, -0.9, 0.99])
    b = np.array([-0.5, -0.8, 0.97])
    s = yao_smoother(f, b)
    assert np.allclose(s, yao_smoother(b, f))
    assert np.all(np.abs(s) <= 1.0)


def test_wonham_filter_tracks_state():
    m = TelegraphModel(0.2, 4.0)
    mses = []
    for seed in range(10):
        path = simulate_telegraph(m, T=10.0, dt=1e-3, seed=seed)
        xh = wonham_filter(path, m.snr, m.nu)
        assert np.all(np.abs(xh) < 1.0)
        mses.append(np.mean((xh[2000:-1] - path.x[2000:]) ** 2))
    # small ensemble sits near the closed-form filtering error, far below
    # the prior variance 1
    assert abs(np.mean(mses) - telegraph_cmmse(m)) < 0.15


def test_wonham_ensemble_matches_closed_forms_small():
    m = TelegraphModel(1.0, SNR_ACCEPT)
    res = wonham_ensemble(m, McConfig(seed=5, n_paths=2000, dt=1e-3,
                                      horizon=6.0))
    assert abs(res.cmmse - telegraph_cmmse(m)) <= 4.0 * res.cmmse_se
    assert abs(res.smmse - telegraph_mmse(m)) <= 4.0 * res.smmse_se
    # time reversibility: the anticausal filter has the causal error
    assert abs(res.anticausal - telegraph_cmmse(m)) <= 4.0 * res.anticausal_se


def test_wonham_ensemble_matches_single_path_filters():
    # the ensemble's in-pass error sums against each path's full filter,
    # anticausal filter and smoother over the same windows
    m = TelegraphModel(1.0, 2.0)
    mc = McConfig(seed=11, n_paths=3, dt=1e-3, horizon=2.0)
    res = wonham_ensemble(m, mc)
    n = int(round(mc.horizon / mc.dt))
    k0 = int(round(min(10.0 / m.nu, mc.horizon / 2.0) / mc.dt))
    sm_lo = int(round(min(10.0 / m.nu, mc.horizon / 3.0) / mc.dt))
    sm_hi = n - sm_lo
    x_edges, dy = ct._telegraph_paths(m.nu, m.snr, n, mc.dt, mc.n_paths,
                                      np.random.default_rng(mc.seed))
    causal, anti, smooth = [], [], []
    for p in range(mc.n_paths):
        x = x_edges[p].astype(float)
        path = SamplePath(mc.dt, x[:-1], dy[p].copy())
        fwd = wonham_filter(path, m.snr, m.nu)
        bwd = wonham_filter(path, m.snr, m.nu, backward=True)
        causal.append(np.mean((x[k0:] - fwd[k0:]) ** 2))
        anti.append(np.mean((x[:n - k0 + 1] - bwd[:n - k0 + 1]) ** 2))
        sm = yao_smoother(fwd[sm_lo:sm_hi + 1], bwd[sm_lo:sm_hi + 1])
        smooth.append(np.mean((x[sm_lo:sm_hi + 1] - sm) ** 2))
    assert res.n_paths == 3
    assert res.cmmse == pytest.approx(np.mean(causal), rel=1e-6)
    assert res.anticausal == pytest.approx(np.mean(anti), rel=1e-6)
    assert res.smmse == pytest.approx(np.mean(smooth), rel=1e-6)


def test_ou_spectral_closed_forms():
    sp = OUSpectrum(variance=1.0, beta=1.0)
    mi, mm, cm = ou_closed_forms(sp, 1.0)
    assert mi == pytest.approx((np.sqrt(3.0) - 1.0) / 2.0, abs=1e-14)
    assert mm == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-14)
    assert cm == pytest.approx(np.sqrt(3.0) - 1.0, abs=1e-14)


@pytest.mark.parametrize("snr", [0.0, 0.3, 1.0, 10.0])
def test_spectral_quadrature_report(snr):
    report = spectral_report(OUSpectrum(), snr)
    assert report.passed, report.to_dict()


def test_spectral_report_catches_a_log_integral_error(monkeypatch):
    # mi_rate and cmmse both come from the log integral; an error in it that
    # is below the closed-form tolerances must still fail the identity check
    exact = ct.spectral_quantities

    def skewed(spectrum, snr):
        mi_rate, mmse_nc, cmmse = exact(spectrum, snr)
        return mi_rate * (1 + 1e-9), mmse_nc, cmmse * (1 + 1e-9)

    monkeypatch.setattr(ct, "spectral_quantities", skewed)
    report = spectral_report(OUSpectrum(), 1.0)
    assert [c.passed for c in report.checks] == [True, True, True, False, True]


def test_spectral_zero_snr():
    assert spectral_quantities(OUSpectrum(), 0.0) == (0.0, 1.0, 1.0)


def test_time_snr_transform_binary():
    report = time_snr_transform_check(binary_law(), 2.0,
                                      mc=McConfig(seed=6, n_paths=50_000))
    assert report.passed, report.to_dict()


def test_time_snr_average_binary():
    report = time_snr_average_check(binary_law(), 2.0)
    assert report.passed, report.to_dict()


def test_time_snr_average_detects_scaled_mmse(monkeypatch):
    # the time average must be tied to I(snr), not to the same mmse integral
    exact = ct.scalar_mmse
    monkeypatch.setattr(ct, "scalar_mmse", lambda ch: 1.001 * exact(ch))
    assert not time_snr_average_check(binary_law(), 2.0).passed
