"""Continuous time: telegraph filtering/smoothing and OU spectra."""
import hashlib
import threading
from concurrent.futures import ThreadPoolExecutor

import mpmath as mp
import numpy as np
import pytest
from scipy.special import kve

from immse.ct import (OUSpectrum, SamplePath, TelegraphModel, duncan_check,
                      f_scaled, ou_closed_forms, simulate_telegraph,
                      spectral_quantities, spectral_report, telegraph_cmmse,
                      telegraph_mmse, thm7_differential_check,
                      time_snr_average_check, time_snr_transform_check,
                      verify_f_recurrences, verify_thm7, wonham_ensemble,
                      wonham_filter, yao_smoother)
from immse import ct, quadrature
from immse.errors import StepTooLarge
from immse.laws import binary_law
from immse.quadrature import McConfig, draw_thread

SNR_ACCEPT = 10.0 ** 0.5


@pytest.mark.parametrize("xi", [-0.5, -2.0, -8.0])
def test_f_recurrences(xi):
    report = verify_f_recurrences(xi)
    assert report.passed, report.to_dict()


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


# the [0, inf] reference agrees in every double digit with a 30-digit one
# split at lam * 10**k, at each of these snr up to 1e8
@pytest.mark.parametrize("snr", [1e-3] + [
    pytest.param(s, marks=pytest.mark.slow)
    for s in (1.0, 100.0, 1e4, 1e7, 1e8)])
def test_telegraph_mmse_matches_mpmath(snr):
    assert telegraph_mmse(TelegraphModel(1.0, snr)) == pytest.approx(
        _telegraph_mmse_mpmath(1.0, snr), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("lam", [1e-4, 1e-2, 1.0, 10.0, 1e3])
def test_f11_closed_form_matches_f_scaled(lam):
    f11, fm1 = f_scaled(1, -1, -lam), f_scaled(-1, -1, -lam)
    # nu = 1 and snr = 2 / lam put xi at -lam
    for closed, quad in [(ct._f11(lam), f11), (kve(0, 0.5 * lam), fm1),
                         (telegraph_cmmse(TelegraphModel(1.0, 2.0 / lam)),
                          fm1 / f11)]:
        assert closed == pytest.approx(quad, rel=1e-12, abs=0.0)


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


@pytest.mark.parametrize("xi", [-2e-8, -2e-7, -1e-4, -1.0, -1e3])
@pytest.mark.parametrize("i", [-1, 1, 3])
def test_f_scaled_matches_bessel_forms(i, xi):
    # v = sinh(u/2) gives F(i,-1) in scaled Bessel K functions at z = -xi/2
    z = -0.5 * xi
    closed = {-1: kve(0, z), 1: 0.5 * (kve(0, z) + kve(1, z)),
              3: 0.375 * kve(0, z) + 0.5 * kve(1, z) + 0.125 * kve(2, z)}[i]
    assert f_scaled(i, -1, xi) == pytest.approx(closed, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("snr", [1e5, 1e6, 1e7, 1e8])
def test_thm7_differential_at_high_snr(snr):
    # xi = -2/snr is within 2e-5 of 0: the A' difference may not step past it
    report = thm7_differential_check(1.0, snr)
    assert report.passed, report.to_dict()


def test_thm7_integral_and_duncan_at_high_snr():
    # lam = 2e-7: the smoothing MMSE integral is of order one only as a ratio
    # to F(lam)^2, where the quadrature's absolute stop can be met
    assert verify_thm7(1.0, [1e7]).passed
    assert duncan_check(TelegraphModel(1.0, 1e7)).passed


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


def test_simulate_telegraph_rejects_a_horizon_of_no_steps(monkeypatch):
    draws = []
    monkeypatch.setattr(ct, "_telegraph_paths", lambda *a: draws.append(a))
    with pytest.raises(ValueError, match="holds no step"):
        simulate_telegraph(TelegraphModel(1.0, 2.0), T=1e-4, dt=1e-3, seed=0)
    assert draws == []


def test_sample_path_rejects_nan_dt():
    with pytest.raises(ValueError, match="dt must be finite"):
        SamplePath(np.nan, np.ones(5), np.full(5, 0.01))
    with pytest.raises(ValueError, match="dt must be finite"):
        simulate_telegraph(TelegraphModel(1.0, 1.0), T=1.0, dt=np.nan, seed=0)


def test_sample_path_rejects_nan_increment():
    dy = np.full(5, 0.01)
    dy[2] = np.nan
    with pytest.raises(ValueError, match="dy must be finite"):
        SamplePath(1e-3, np.ones(5), dy)


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


def _hmm_forward_means(dy, nu, snr, dt):
    """P[X=+1] - P[X=-1] from the two-state forward recursion: a flip with
    probability (1 - e^{-2 nu dt})/2, then the likelihoods
    N(dy_k; ±sqrt(snr) dt, dt), dy_k observing X at t_{k+1}."""
    q = 0.5 * (1.0 - np.exp(-2.0 * nu * dt))
    mean = np.sqrt(snr) * dt * np.array([1.0, -1.0])
    p, out = np.array([0.5, 0.5]), [0.0]
    for d in dy:
        p = np.array([(1 - q) * p[0] + q * p[1], q * p[0] + (1 - q) * p[1]])
        p = p * np.exp(-(d - mean) ** 2 / (2 * dt)) / np.sqrt(2 * np.pi * dt)
        p /= p.sum()
        out.append(p[0] - p[1])
    return np.array(out)


def test_wonham_filter_matches_hmm_forward_recursion():
    m = TelegraphModel(1.0, 2.0)
    path = simulate_telegraph(m, T=2.0, dt=1e-3, seed=3)
    assert path.dy.size == 2000
    oracle = _hmm_forward_means(path.dy, m.nu, m.snr, path.dt)
    assert np.abs(wonham_filter(path, m.snr, m.nu) - oracle).max() <= 1e-12


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


def _step_by_step_errors(m, dt, n, k0, sm_lo, sm_hi, x_edges, dy):
    """Per-path time-averaged squared errors of the causal filter, the
    anticausal filter and the smoother, summed one step at a time: the
    reference that the ensemble's block sums must equal bit for bit."""
    x, tau = x_edges.T, np.tanh(dy.T * np.sqrt(m.snr))
    decay = np.exp(-2.0 * m.nu * dt)
    add = lambda a, b: (a + b) / (1.0 + a * b)
    p = tau.shape[1]
    xh, fwd = np.zeros(p), {}
    causal = np.full(p, float(k0 == 0))
    for k in range(n):
        xh = add(xh * decay, tau[k])
        if k + 1 >= k0:
            causal += (x[k + 1] - xh) ** 2
        if sm_lo <= k + 1 <= sm_hi:
            fwd[k + 1] = xh.astype(np.float32)
    bh, anti, smooth, n_anti = np.zeros(p), np.zeros(p), np.zeros(p), 0
    for k in range(n - 1, -1, -1):
        bh = add(bh * decay, tau[k])
        if k <= n - k0:
            anti += (x[k] - bh) ** 2
            n_anti += 1
        if sm_lo <= k <= sm_hi:
            smooth += (x[k] - add(fwd[k].astype(float), bh)) ** 2
    return causal / (n - k0 + 1), anti / n_anti, smooth / (sm_hi - sm_lo + 1)


@pytest.mark.parametrize("n_paths", [1, 3])
def test_ensemble_block_sums_equal_step_by_step_sums(n_paths):
    # 1,370 steps are not whole blocks, and no window edge falls on a block
    # edge; a single path is the case numpy would sum pairwise
    m, dt, n, k0, sm_lo, sm_hi = TelegraphModel(1.0, 2.0), 1e-3, 1370, 685, 457, 913
    with draw_thread() as pool:
        [got] = ct._ensemble_chunks(m, dt, n, k0, sm_lo, sm_hi, [n_paths],
                                    np.random.default_rng(5), pool)
    x_edges, dy = ct._telegraph_paths(m.nu, m.snr, n, dt, n_paths,
                                      np.random.default_rng(5))
    want = _step_by_step_errors(m, dt, n, k0, sm_lo, sm_hi, x_edges, dy)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_mirrored_and_narrow_chunks_equal_step_by_step_sums():
    # chunks 2 to 5 are drawn into the rows the backward pass frees, the
    # narrower last chunk into the flat prefix of each block's rows; each
    # must equal the step-by-step sums on the paths that one-chunk draws
    # read from the same stream
    m, dt, n, k0, sm_lo, sm_hi = TelegraphModel(1.0, 2.0), 1e-3, 1370, 685, 457, 913
    sizes = [3, 3, 3, 3, 2]
    with draw_thread() as pool:
        got = list(ct._ensemble_chunks(m, dt, n, k0, sm_lo, sm_hi, sizes,
                                       np.random.default_rng(5), pool))
    rng = np.random.default_rng(5)
    for chunk, n_paths in zip(got, sizes, strict=True):
        x_edges, dy = ct._telegraph_paths(m.nu, m.snr, n, dt, n_paths, rng)
        want = _step_by_step_errors(m, dt, n, k0, sm_lo, sm_hi, x_edges, dy)
        for g, w in zip(chunk, want):
            assert np.array_equal(g, w)


# float.hex of (cmmse, cmmse_se, smmse, smmse_se, anticausal, anticausal_se),
# recorded from the implementation that summed each error step by step and
# drew a chunk's normals in one call.  The runs end on partial chunks of 3
# and 1 paths, and 1,370 and 1,100 steps are not whole blocks of STEP_BLOCK.
ENSEMBLE_PINS = [
    ((1.0, 2.0), dict(seed=19, n_paths=2003, horizon=1.37),
     ["0x1.729d88173db18p-1", "0x1.5d523b8f3d799p-7", "0x1.244be5a9e5cc1p-1",
      "0x1.dae4577ca0d25p-7", "0x1.753f93728f25fp-1", "0x1.59c9be7492bb4p-7"]),
    ((2.5, 6.0), dict(seed=23, n_paths=2001, horizon=1.1),
     ["0x1.5ef2890862011p-1", "0x1.08eece66a6d7ap-7", "0x1.fdf5e3d2e5436p-2",
      "0x1.6d48486d42d3fp-7", "0x1.5ef4e2d7a9dd3p-1", "0x1.0b2fc2908e33bp-7"]),
]


@pytest.mark.parametrize("model, cfg, pins", ENSEMBLE_PINS)
def test_wonham_ensemble_pinned_bits(model, cfg, pins):
    res = wonham_ensemble(TelegraphModel(*model), McConfig(dt=1e-3, **cfg))
    got = [res.cmmse, res.cmmse_se, res.smmse, res.smmse_se, res.anticausal,
           res.anticausal_se]
    assert [float(v).hex() for v in got] == pins


def test_wonham_ensemble_pinned_bits_across_chunk_layouts():
    # three full chunks (block layouts in step order, mirrored, in step
    # order) and a narrower fourth; 670 steps end on a 30-step block.
    # float.hex recorded from the implementation that drew every chunk into
    # its own buffer in step order
    res = wonham_ensemble(TelegraphModel(1.5, 4.0),
                          McConfig(seed=29, n_paths=6005, dt=1e-3, horizon=0.67))
    got = [res.cmmse, res.cmmse_se, res.smmse, res.smmse_se, res.anticausal,
           res.anticausal_se]
    assert [float(v).hex() for v in got] == [
        "0x1.57aed62615423p-1", "0x1.bf707c10e006dp-8", "0x1.edf378d8136bap-2",
        "0x1.0d35a28393090p-7", "0x1.568225c6fbc01p-1", "0x1.bfae279b0454bp-8"]


def test_simulate_telegraph_pinned_digest():
    # SHA-256 of x then dy, recorded as for ENSEMBLE_PINS
    path = simulate_telegraph(TelegraphModel(1.0, 2.0), T=2.5, dt=1e-3, seed=31)
    digest = hashlib.sha256(path.x.tobytes() + path.dy.tobytes()).hexdigest()
    assert digest == ("cdebf0d9720a605feef7530192468366"
                      "cdab7d48623e958d324841ac1dfb82a1")


def test_simulate_telegraph_starts_no_thread(monkeypatch):
    # a single path draws its normals on the calling thread: only the
    # ensemble waits on the helper
    def no_pool(*args):
        raise AssertionError("a helper thread was started")

    monkeypatch.setattr(quadrature, "ThreadPoolExecutor", no_pool)
    before = threading.active_count()
    path = simulate_telegraph(TelegraphModel(1.0, 2.0), T=2.5, dt=1e-3, seed=31)
    digest = hashlib.sha256(path.x.tobytes() + path.dy.tobytes()).hexdigest()
    assert digest == ("cdebf0d9720a605feef7530192468366"
                      "cdab7d48623e958d324841ac1dfb82a1")
    assert threading.active_count() == before


def test_ensemble_failure_cancels_draws_and_joins_helper(monkeypatch):
    submitted = []

    class Recorder(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            submitted.append((fn, super().submit(fn, *args, **kwargs)))
            return submitted[-1][1]

    real_step, calls = ct._wonham_step, []

    def failing_step(*args):
        calls.append(args)
        if len(calls) == 5:
            raise RuntimeError("step 5 fails")
        real_step(*args)

    monkeypatch.setattr(quadrature, "ThreadPoolExecutor", Recorder)
    monkeypatch.setattr(ct, "_wonham_step", failing_step)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="step 5 fails"):
        wonham_ensemble(TelegraphModel(1.0, 2.0),
                        McConfig(seed=3, n_paths=2000, dt=1e-3, horizon=4.0))
    assert len(calls) == 5
    assert threading.active_count() == before
    # the helper thread draws normals only, and the 63 draws of the chunk
    # that were still queued when the step failed are dropped
    assert len(submitted) == 63
    for fn, _ in submitted:
        assert fn.__name__ == "standard_normal"
        assert isinstance(fn.__self__, np.random.Generator)
    assert all(fut.done() for _, fut in submitted)
    assert any(fut.cancelled() for _, fut in submitted)


@pytest.mark.parametrize("n_paths", [4000, 2500])
def test_backward_failure_cancels_next_chunk_draws_and_joins_helper(monkeypatch,
                                                                    n_paths):
    # 4,000 steps are 63 blocks, the last one 32 steps: the step fails in
    # chunk 0's sixth backward block, after five of chunk 1's blocks were
    # queued into the rows that chunk 0 freed, whether chunk 1 is as wide
    # as chunk 0 or narrower.  The helper holds chunk 1's first draw until
    # the failure, so the other four are still queued
    n_steps, fail_at = 4000, 4000 + 32 + 4 * 64 + 1
    gate, submitted = threading.Event(), []

    class Recorder(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            task = fn
            if len(submitted) == 63:
                def task(*a, **k):
                    gate.wait(10.0)
                    return fn(*a, **k)
            submitted.append((fn, super().submit(task, *args, **kwargs)))
            return submitted[-1][1]

    real_step, calls = ct._wonham_step, []

    def failing_step(*args):
        calls.append(None)
        if len(calls) == fail_at:
            gate.set()
            raise RuntimeError("backward step fails")
        real_step(*args)

    monkeypatch.setattr(quadrature, "ThreadPoolExecutor", Recorder)
    monkeypatch.setattr(ct, "_wonham_step", failing_step)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="backward step fails"):
        wonham_ensemble(TelegraphModel(1.0, 2.0),
                        McConfig(seed=3, n_paths=n_paths, dt=1e-3,
                                 horizon=n_steps * 1e-3))
    assert len(calls) == fail_at
    assert threading.active_count() == before
    assert len(submitted) == 63 + 5
    for fn, fut in submitted:
        assert fn.__name__ == "standard_normal"
        assert isinstance(fn.__self__, np.random.Generator)
        assert fut.done()
    # chunk 0's draws all ran; chunk 1's queued ones were dropped
    assert not any(fut.cancelled() for _, fut in submitted[:64])
    assert all(fut.cancelled() for _, fut in submitted[64:])


def test_ensemble_rejects_one_path_before_drawing(monkeypatch):
    chunks = []
    monkeypatch.setattr(ct, "_ensemble_chunks",
                        lambda *args: chunks.append(args))
    before = threading.active_count()
    with pytest.raises(ValueError, match="needs >= 2 draws"):
        wonham_ensemble(TelegraphModel(1.0, 2.0),
                        McConfig(seed=3, n_paths=1, dt=1e-3, horizon=4.0))
    assert chunks == []
    assert threading.active_count() == before


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


@pytest.mark.parametrize("field", ["variance", "beta"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
def test_ou_spectrum_rejects_bad_parameters(field, bad):
    # such a spectrum would give NaN or -inf from the spectral formulas
    with pytest.raises(ValueError, match="must be (finite|positive)"):
        OUSpectrum(**{field: bad})


def test_spectral_zero_snr():
    assert spectral_quantities(OUSpectrum(), 0.0) == (0.0, 1.0, 1.0)


def test_time_snr_transform_binary():
    report = time_snr_transform_check(binary_law(), 2.0,
                                      mc=McConfig(seed=6, n_paths=50_000))
    assert report.passed, report.to_dict()


def test_constant_input_rejects_negative_snr_before_drawing():
    # under the suite's error::RuntimeWarning, a sqrt of the negative snr
    # would raise a RuntimeWarning before the channel rejects it
    with pytest.raises(ValueError, match="nonnegative"):
        ct.constant_input_ensemble(binary_law(), -1.0, 0.5)
    with pytest.raises(ValueError, match="nonnegative"):
        time_snr_transform_check(binary_law(), -1.0)


@pytest.mark.parametrize("t", [0.0, -1.0, np.inf, np.nan])
def test_constant_input_rejects_bad_t_before_drawing(t, monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("a random number was drawn for a bad t")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(ValueError, match="^t must be"):
        ct.constant_input_ensemble(binary_law(), 1.0, t)


def test_time_snr_average_binary():
    report = time_snr_average_check(binary_law(), 2.0)
    assert report.passed, report.to_dict()


def test_time_snr_average_detects_scaled_mmse(monkeypatch):
    # the time average must be tied to I(snr), not to the same mmse integral
    exact = ct.scalar_mmse
    monkeypatch.setattr(ct, "scalar_mmse", lambda ch: 1.001 * exact(ch))
    assert not time_snr_average_check(binary_law(), 2.0).passed
