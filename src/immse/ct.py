"""Continuous-time white-noise channel dY_t = sqrt(snr) * X_t dt + dW_t.

Covers the random telegraph input (+/-1 Markov process with transition rate
nu): closed-form causal and noncausal MMSEs built from the one-sided
integrals f(i,j), the Wonham filter / two-filter smoother Monte Carlo,
Duncan's relation I = (snr/2)*cmmse, the causal = snr-averaged-noncausal
identity, stationary-Gaussian spectral formulas for the
Ornstein-Uhlenbeck family, and the constant-input time-snr transform.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import kve

from .errors import NonConvergence, StepTooLarge
from .laws import InputLaw, moments, require_finite, sample_with_rng
from .quadrature import McConfig, fd_derivative, snr_integral
from .report import Report
from .scalar import (McEstimate, ScalarChannel, conditional_mean,
                     mmse as scalar_mmse, mutual_information)

ENSEMBLE_CHUNK = 2000  # telegraph paths per block of ``wonham_ensemble``


@dataclass(frozen=True)
class TelegraphModel:
    """+/-1 Markov input with transition rate nu, observed at a given snr."""
    nu: float
    snr: float

    def __post_init__(self):
        require_finite(nu=self.nu, snr=self.snr)
        if self.nu <= 0:
            raise ValueError("nu must be positive")
        if self.snr < 0:
            raise ValueError("snr must be nonnegative")

    @property
    def xi(self) -> float:
        return -2.0 * self.nu / self.snr


@dataclass(frozen=True)
class SamplePath:
    """One realized input path and its observation increments on a dt grid."""
    dt: float
    x: np.ndarray    # input value at the left edge of each step
    dy: np.ndarray   # observation increment over each step

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.x.shape != self.dy.shape:
            raise ValueError("x and dy must have equal lengths")


@dataclass(frozen=True)
class OUSpectrum:
    """Ornstein-Uhlenbeck power spectrum S(w) = 2*variance*beta/(beta^2+w^2)."""
    variance: float = 1.0
    beta: float = 1.0

    def __call__(self, omega):
        return 2.0 * self.variance * self.beta / (self.beta ** 2 + np.asarray(omega) ** 2)


@dataclass(frozen=True)
class FIntegralTable:
    """Values of f(i,j) = ∫_1^∞ u^{i/2} (u-1)^{j/2} e^{xi*u} du for i,j in {-1,1,3}."""
    xi: float
    values: dict


# ---------------------------------------------------------------------------
# f(i,j) integrals and telegraph closed forms
# ---------------------------------------------------------------------------

def f_scaled(i: int, j: int, xi: float) -> float:
    """e^{-xi} * f(i,j,xi), free of the e^{xi} underflow as xi -> -inf.

    Substituting u = 1 + v^2 regularizes the (u-1)^{-1/2} endpoint:
    e^{-xi} f(i,j) = 2 ∫_0^∞ (1+v^2)^{i/2} v^{j+1} e^{xi v^2} dv.
    """
    if xi >= 0:
        raise ValueError("xi must be negative")
    if j < -1:
        raise ValueError("j must be >= -1")

    def integrand(v):
        return 2.0 * (1.0 + v * v) ** (0.5 * i) * v ** (j + 1) * np.exp(xi * v * v)

    val, err = integrate.quad(integrand, 0.0, np.inf,
                              epsabs=1e-300, epsrel=1e-12, limit=400)
    if not np.isfinite(val) or (val != 0 and err > 1e-8 * abs(val)):
        raise NonConvergence(f"f integral did not converge at i={i}, j={j}, xi={xi}")
    return val


def f_integral(i: int, j: int, xi: float) -> float:
    """f(i,j) = ∫_1^∞ u^{i/2} (u-1)^{j/2} e^{xi*u} du for xi < 0."""
    return np.exp(xi) * f_scaled(i, j, xi)


def build_f_table(xi: float) -> FIntegralTable:
    values = {(i, j): f_integral(i, j, xi) for i in (-1, 1, 3) for j in (-1, 1, 3)}
    return FIntegralTable(xi, values)


def _xi_derivative(f, xi: float) -> float:
    """df/dxi at xi < 0: (4 D(h/2) - D(h)) / 3 on the central difference D,
    h = 1e-4 * min(1, |xi|), so no point crosses the singularity at xi = 0."""
    h = 1e-4 * min(1.0, abs(xi))
    central = lambda d: (f(xi + d) - f(xi - d)) / (2.0 * d)
    return (4.0 * central(0.5 * h) - central(h)) / 3.0


def verify_f_recurrences(xi: float) -> Report:
    """The three algebraic/differential recurrences of the f(i,j) family."""
    report = Report("f-recurrences")
    f = lambda i, j: f_integral(i, j, xi)
    # f(i,j) = f(i+2,j) - f(i,j+2)
    for (i, j) in [(-1, -1), (1, -1), (-1, 1)]:
        lhs, rhs = f(i, j), f(i + 2, j) - f(i, j + 2)
        report.add(f"difference recurrence (i,j)=({i},{j})", lhs, rhs,
                   1e-8 * abs(lhs))
    # -xi f(i,j) = (i/2) f(i-2,j) + (j/2) f(i,j-2)
    for (i, j) in [(1, 1), (3, 1), (1, 3)]:
        lhs = -xi * f(i, j)
        rhs = 0.5 * i * f(i - 2, j) + 0.5 * j * f(i, j - 2)
        report.add(f"parts recurrence (i,j)=({i},{j})", lhs, rhs, 1e-8 * abs(lhs))
    # d f(i,j)/d xi = f(i+2,j)
    for (i, j) in [(-1, -1), (1, -1)]:
        fd = _xi_derivative(lambda x: f_integral(i, j, x), xi)
        rhs = f(i + 2, j)
        report.add(f"xi-derivative (i,j)=({i},{j})", fd, rhs, 1e-6 * abs(rhs))
    return report


def telegraph_cmmse(m: TelegraphModel) -> float:
    """Causal (filtering) MMSE of the random telegraph input: f(-1,-1)/f(1,-1)."""
    if m.snr == 0:
        return 1.0
    xi = m.xi
    return f_scaled(-1, -1, xi) / f_scaled(1, -1, xi)


def _f11(lam: float) -> float:
    """F(lam) = f_scaled(1, -1, -lam) = 2 ∫_0^∞ sqrt(1+v^2) e^{-lam v^2} dv,
    in closed form (v = sinh(u/2)) as (kve(0, lam/2) + kve(1, lam/2)) / 2."""
    return 0.5 * (kve(0, 0.5 * lam) + kve(1, 0.5 * lam))


def telegraph_mmse(m: TelegraphModel) -> float:
    """Noncausal (smoothing) MMSE of the random telegraph input.

    With lam = 2 nu / snr it is 4 G / F(lam)^2, G the two-sided integral
    ∫∫_{a,b>0} sqrt((1+a^2)(1+b^2)) e^{-lam(a^2+b^2)} / (1+a^2+b^2) da db.
    Writing 1/(1+a^2+b^2) = ∫_0^∞ e^{-s(1+a^2+b^2)} ds factors G, so
    mmse = ∫_0^∞ e^{-s} F(lam+s)^2 ds / F(lam)^2, run on ``snr_integral``
    in g = s/lam (the integrand then falls like 1/(1+g)) up to s = 60.
    """
    if m.snr == 0:
        return 1.0
    lam = -m.xi
    num = snr_integral(
        lambda g: lam * np.exp(-lam * g) * _f11(lam * (1.0 + g)) ** 2,
        60.0 / lam)
    return num / _f11(lam) ** 2


def thm7_differential_check(nu: float, snr: float) -> Report:
    """Differential form of the causal/noncausal identity.

    Checks mmse(snr) = d/dsnr [snr * cmmse(snr)], plus the equivalent scaled
    f-family identity A(xi) + A'(xi) = F(1,-1)^2 with
    A = F(-1,-1)F(1,-1) - xi F(1,-1)^2 + xi F(-1,-1)F(3,-1) and F = e^{-xi} f.
    """
    report = Report("thm7-differential")
    fd = fd_derivative(lambda g: g * telegraph_cmmse(TelegraphModel(nu, g)), snr)
    report.add(f"mmse vs d/dsnr[snr*cmmse] at snr={snr:g}", fd,
               telegraph_mmse(TelegraphModel(nu, snr)), 1e-4)

    xi = TelegraphModel(nu, snr).xi

    def a_of(x):
        f11, fm1, f31 = f_scaled(1, -1, x), f_scaled(-1, -1, x), f_scaled(3, -1, x)
        return fm1 * f11 - x * f11 ** 2 + x * fm1 * f31

    lhs = a_of(xi) + _xi_derivative(a_of, xi)
    rhs = f_scaled(1, -1, xi) ** 2
    report.add(f"A + A' vs F(1,-1)^2 at xi={xi:g}", lhs, rhs,
               1e-4 * max(abs(rhs), 1.0))
    return report


def verify_thm7(nu: float, snr_grid) -> Report:
    """cmmse(snr) = (1/snr) ∫_0^snr mmse(g) dg for the telegraph input.

    The right side may be read as E[mmse(G)] with G ~ Uniform(0, snr).
    """
    report = Report("thm7-telegraph")
    report.notes = ("rhs equals E[mmse(G)] for G uniform on (0, snr); "
                    "quadrature of the noncausal MMSE over the snr interval")
    for s in np.atleast_1d(snr_grid):
        s = float(s)
        # at snr 0 the average is its limit, mmse(0) = 1
        avg = 1.0 if s == 0 else snr_integral(
            lambda g: telegraph_mmse(TelegraphModel(nu, g)), s) / s
        report.add(f"cmmse vs snr-averaged mmse at snr={s:g}",
                   telegraph_cmmse(TelegraphModel(nu, s)), avg, 1e-4)
    return report


def duncan_check(m: TelegraphModel) -> Report:
    """Information rate two ways: (snr/2)*cmmse vs (1/2)∫_0^snr mmse dg."""
    report = Report("duncan-telegraph")
    route_a = 0.5 * m.snr * telegraph_cmmse(m)
    route_b = 0.5 * snr_integral(
        lambda g: telegraph_mmse(TelegraphModel(m.nu, g)), m.snr)
    report.add(f"(snr/2)*cmmse vs half-integral of mmse at snr={m.snr:g}",
               route_a, route_b, 1e-4)
    return report


# ---------------------------------------------------------------------------
# Telegraph path simulation, Wonham filter, two-filter smoother
# ---------------------------------------------------------------------------

def _check_step(nu: float, snr: float, dt: float) -> None:
    if dt > 0.01 / max(nu, snr):
        raise StepTooLarge(
            f"dt={dt:g} exceeds 0.01/max(nu, snr)={0.01 / max(nu, snr):g}")


def _telegraph_paths(nu: float, snr: float, n_steps: int, dt: float,
                     n_paths: int, rng: np.random.Generator):
    """Exact-holding-time telegraph paths on a dt grid, stored time-major.

    Returns (x_edges, dy), (n_paths, n_steps+1) and (n_paths, n_steps) views
    of C-order (steps, paths) arrays, so step k of every path is one
    contiguous row (``x_edges[:, k]``, ``dy[:, k]``).  x_edges[p, k] is the
    int8 state +/-1 at t_k; dy[p, k] is sqrt(snr) * ∫ X dt + dW over step k,
    with the occupation integral computed exactly from the flip times.  The
    stream is consumed as x0, flip times, then the step normals in (steps,
    paths) order, so a single path draws the same numbers at any layout.
    """
    horizon = n_steps * dt
    x0 = rng.choice(np.array([-1.0, 1.0]), size=n_paths)
    # flip times: cumulative exponential holding times, enough columns that
    # running past the horizon is (astronomically) unlikely
    mean_flips = nu * horizon
    m_cols = int(mean_flips + 10.0 * np.sqrt(mean_flips + 1.0) + 25)
    flips = np.cumsum(rng.exponential(1.0 / nu, size=(n_paths, m_cols)), axis=1)
    while np.any(flips[:, -1] < horizon):
        extra = np.cumsum(rng.exponential(1.0 / nu, size=(n_paths, m_cols)), axis=1)
        flips = np.concatenate([flips, flips[:, -1:] + extra], axis=1)
    valid = flips < horizon
    rows, cols = np.nonzero(valid)
    ft = flips[rows, cols]
    step_idx = np.minimum((ft / dt).astype(np.int64), n_steps - 1)

    # state at each edge: x0 * (-1)^(flips before the edge), the parity an
    # XOR-accumulate over steps of each step's flips
    x_edges = np.zeros((n_steps + 1, n_paths), dtype=np.int8)
    np.bitwise_xor.at(x_edges, (step_idx + 1, rows), 1)
    np.bitwise_xor.accumulate(x_edges, axis=0, out=x_edges)
    x_edges *= -2
    x_edges += 1
    x_edges *= x0.astype(np.int8)

    # dy = sqrt(snr) * occupation + sqrt(dt) * normal.  The occupation is
    # left-state * dt on a step without a flip; a step with flips adds
    # 2 * (state before the flip) * (flip time - step end) per flip, in
    # flip order
    dy = rng.standard_normal((n_steps, n_paths))
    dy *= np.sqrt(dt)
    cells, which = np.unique(step_idx * n_paths + rows, return_inverse=True)
    occ = x_edges.ravel()[cells] * dt
    state_before = x0[rows] * np.where(cols % 2 == 0, 1.0, -1.0)
    np.add.at(occ, which, 2.0 * state_before * (ft - (step_idx + 1) * dt))
    flipped = dy.ravel()[cells] + np.sqrt(snr) * occ
    held, left = np.sqrt(snr) * dt, x_edges[:-1]
    for k in range(0, n_steps, 256):    # in blocks: no full-size temporary
        dy[k:k + 256] += held * left[k:k + 256]
    dy.ravel()[cells] = flipped
    return x_edges.T, dy.T


def simulate_telegraph(m: TelegraphModel, T: float, dt: float, seed: int) -> SamplePath:
    """One telegraph sample path with exact exponential holding times."""
    _check_step(m.nu, m.snr, dt)
    n_steps = int(round(T / dt))
    rng = np.random.default_rng(seed)
    x_edges, dy = _telegraph_paths(m.nu, m.snr, n_steps, dt, 1, rng)
    return SamplePath(dt, x_edges[0, :-1].astype(float), dy[0].copy())


def _wonham_step(xh: np.ndarray, dy: np.ndarray, nu: float, snr: float,
                 dt: float) -> np.ndarray:
    one_minus = 1.0 - xh * xh
    xh = xh + (-2.0 * nu * xh - snr * xh * one_minus) * dt \
        + np.sqrt(snr) * one_minus * dy
    return np.clip(xh, -1.0 + 1e-12, 1.0 - 1e-12)


def _wonham_pass(dy: np.ndarray, nu: float, snr: float, dt: float,
                 backward: bool = False):
    """Run the Wonham filter over the steps of ``dy`` (paths x steps).

    Step k reads the column ``dy[:, k]``; for the time-major views of
    ``_telegraph_paths`` that column is one contiguous row.  Yields (k, xh)
    after each step, xh holding every path's filter mean of X at t_k.
    Forward passes start at t_0 and read the increments in order; backward
    (anticausal) passes start at t_n and read them reversed.  Both start
    from the stationary prior mean 0.
    """
    n = dy.shape[1]
    xh = np.zeros(dy.shape[0])
    for k in (range(n - 1, -1, -1) if backward else range(n)):
        xh = _wonham_step(xh, dy[:, k], nu, snr, dt)
        yield (k if backward else k + 1), xh


def wonham_filter(path: SamplePath, snr: float, nu: float,
                  backward: bool = False) -> np.ndarray:
    """Posterior mean sequence; entry k estimates X at t_k = k*dt.

    Euler-Maruyama integration of the filter SDE
    dX̂ = -[2 nu X̂ + snr X̂ (1 - X̂²)] dt + sqrt(snr) (1 - X̂²) dY
    from the stationary prior mean X̂_0 = 0.  With ``backward`` the same
    filter runs on the reversed increments, so entry k estimates X at t_k
    from the observations after t_k (the anticausal filter).
    """
    _check_step(nu, snr, path.dt)
    out = np.zeros(path.dy.size + 1)
    for k, xh in _wonham_pass(path.dy[None, :], nu, snr, path.dt, backward):
        out[k] = xh[0]
    return out


def yao_smoother(forward: np.ndarray, backward: np.ndarray) -> np.ndarray:
    """Combine forward and backward filter means: (f + b) / (1 + f*b)."""
    forward = np.asarray(forward, dtype=float)
    backward = np.asarray(backward, dtype=float)
    return (forward + backward) / (1.0 + forward * backward)


@dataclass(frozen=True)
class EnsembleResult:
    """Ensemble MSE estimates for the Wonham filter and two-filter smoother."""
    cmmse: float
    cmmse_se: float
    smmse: float
    smmse_se: float
    anticausal: float
    anticausal_se: float
    n_paths: int
    dt: float
    horizon: float
    burn_in: float


def wonham_ensemble(m: TelegraphModel, mc: McConfig) -> EnsembleResult:
    """Monte Carlo MSEs of filter, anticausal filter and smoother.

    Causal and anticausal errors are time-averaged over [burn_in, T] (resp.
    its mirror); the smoother over [burn_in, T - burn_in].  Per-path time
    averages are i.i.d. across paths, so the reported SE is the ensemble
    standard error of those averages.

    Paths are made ``ENSEMBLE_CHUNK`` at a time, time-major (see
    ``_telegraph_paths``).
    Each pass adds up its squared errors as it steps: the causal error on
    the float64 forward mean, which is kept (as float32) only on the
    smoother window; the anticausal and smoother errors in the backward pass.
    """
    nu, snr, dt, horizon = m.nu, m.snr, mc.dt, mc.horizon
    _check_step(nu, snr, dt)
    n_steps = int(round(horizon / dt))
    burn = min(10.0 / nu, horizon / 2.0)
    k0 = int(round(burn / dt))  # causal window [k0, n_steps]
    burn_sm = min(10.0 / nu, horizon / 3.0)
    sm_lo = int(round(burn_sm / dt))
    sm_hi = n_steps - sm_lo
    if sm_hi <= sm_lo:
        raise ValueError("horizon too short for the smoother window")
    rng = np.random.default_rng(mc.seed)
    cms, ams, sms = [], [], []
    remaining = mc.n_paths
    while remaining > 0:
        p = min(ENSEMBLE_CHUNK, remaining)
        remaining -= p
        x_edges, dy = _telegraph_paths(nu, snr, n_steps, dt, p, rng)
        # the pass yields from t_1 on; at t_0 the error is (X_0 - 0)^2 = 1
        fwd_err_acc = np.full(p, float(k0 == 0))
        fwd = np.zeros((sm_hi - sm_lo + 1, p), dtype=np.float32)
        for k, xh in _wonham_pass(dy, nu, snr, dt):
            if k >= k0:
                fwd_err_acc += (x_edges[:, k] - xh) ** 2
            if sm_lo <= k <= sm_hi:
                fwd[k - sm_lo] = xh
        cms.append(fwd_err_acc / (n_steps - k0 + 1))
        # backward filter on reversed increments; bh estimates X at t_idx
        # from the future
        bwd_err_acc = np.zeros(p)
        sm_err_acc = np.zeros(p)
        n_anti = 0
        for idx, bh in _wonham_pass(dy, nu, snr, dt, backward=True):
            if idx <= n_steps - k0:
                bwd_err_acc += (x_edges[:, idx] - bh) ** 2
                n_anti += 1
            if sm_lo <= idx <= sm_hi:
                sm = yao_smoother(fwd[idx - sm_lo], bh)
                sm_err_acc += (x_edges[:, idx] - sm) ** 2
        ams.append(bwd_err_acc / n_anti)
        sms.append(sm_err_acc / (sm_hi - sm_lo + 1))
        del x_edges, dy, fwd    # free this chunk before the next is drawn
    c, a, s = (McEstimate.of(np.concatenate(v)) for v in (cms, ams, sms))
    return EnsembleResult(c.value, c.se, s.value, s.se, a.value, a.se, c.n,
                          dt, horizon, burn)


# ---------------------------------------------------------------------------
# Stationary Gaussian spectra (Ornstein-Uhlenbeck family)
# ---------------------------------------------------------------------------

def spectral_quantities(spectrum: OUSpectrum, snr: float):
    """(mi_rate, mmse_nc, cmmse) by frequency quadrature of the spectrum.

    mi_rate = (1/4pi) ∫ log(1 + snr S) dw, mmse = (1/2pi) ∫ S/(1+snr S) dw,
    cmmse = 2 * mi_rate / snr.
    """
    if snr == 0:
        return 0.0, spectrum.variance, spectrum.variance

    def log_term(w):
        return np.log1p(snr * spectrum(w))

    def wiener_term(w):
        s = spectrum(w)
        return s / (1.0 + snr * s)

    opts = dict(epsabs=1e-12, epsrel=1e-12, limit=400)
    log_int, _ = integrate.quad(log_term, 0.0, np.inf, **opts)
    mmse_nc, _ = integrate.quad(wiener_term, 0.0, np.inf, **opts)
    mi_rate = log_int / (2.0 * np.pi)
    return mi_rate, mmse_nc / np.pi, log_int / (np.pi * snr)


def ou_closed_forms(spectrum: OUSpectrum, snr: float):
    """Contour-integral closed forms for the OU spectrum."""
    beta, var = spectrum.beta, spectrum.variance
    if snr == 0:
        return 0.0, var, var
    a = np.sqrt(beta ** 2 + 2.0 * beta * var * snr)
    return 0.5 * (a - beta), var * beta / a, (a - beta) / snr


def spectral_report(spectrum: OUSpectrum, snr: float) -> Report:
    """Spectral quadrature vs closed forms, the causal/noncausal identity
    cmmse(snr) = (1/snr) ∫_0^snr mmse(g) dg, and dI/dsnr = mmse/2."""
    mi_rate, mmse_nc, cmmse = spectral_quantities(spectrum, snr)
    mi_c, mmse_c, cmmse_c = ou_closed_forms(spectrum, snr)
    report = Report("spectral-ou")
    report.add("mi_rate vs closed form", mi_rate, mi_c, 1e-8)
    report.add("mmse vs closed form", mmse_nc, mmse_c, 1e-8)
    report.add("cmmse vs closed form", cmmse, cmmse_c, 1e-8)
    # causal = snr-averaged noncausal MMSE; the noncausal MMSE comes from the
    # Wiener-term quadrature, independent of cmmse's log integral
    avg = mmse_nc if snr == 0 else snr_integral(
        lambda g: spectral_quantities(spectrum, g)[1], snr) / snr
    report.add("cmmse vs snr-averaged mmse", cmmse, avg, 1e-10)
    fd = fd_derivative(lambda g: spectral_quantities(spectrum, g)[0], snr)
    report.add("d(mi_rate)/dsnr vs mmse/2", fd, 0.5 * mmse_nc, 1e-6)
    return report


# ---------------------------------------------------------------------------
# Constant-input time-snr transform
# ---------------------------------------------------------------------------

def constant_input_ensemble(law: InputLaw, snr: float, t: float,
                            mc: McConfig = McConfig()):
    """Ensemble MSE of the causal estimate of a constant input X_t = X at t > 0.

    Y_t = sqrt(snr)*t*X + W_t is a sufficient statistic for the observation up
    to t, so Y_t/sqrt(t) realizes a scalar channel at snr*t and the scalar
    conditional mean applied to it is the causal estimate.  Returns
    (ensemble MSE, its standard error, scalar mmse(snr*t)).
    """
    rng = np.random.default_rng(mc.seed)
    n = mc.n_paths
    x = sample_with_rng(law, rng, n)
    y_t = np.sqrt(snr) * t * x + np.sqrt(t) * rng.standard_normal(n)
    ch = ScalarChannel(law, t * snr)
    err = McEstimate.of((x - conditional_mean(ch, y_t / np.sqrt(t))) ** 2)
    return err.value, err.se, scalar_mmse(ch)


def time_snr_transform_check(law: InputLaw, snr: float,
                             mc: McConfig = McConfig()) -> Report:
    """Constant input X_t = X on [0,1]: causal MSE at time 1/2 equals the
    scalar MMSE at snr/2 (see ``constant_input_ensemble``)."""
    report = Report("time-snr-transform")
    mse, se, closed = constant_input_ensemble(law, snr, 0.5, mc)
    report.add(f"ensemble causal MSE at u=0.5 vs scalar mmse({0.5 * snr:g})",
               mse, closed, 3.0 * se)
    report.notes = f"standard error {se:.3e}"
    return report


def time_snr_average_check(law: InputLaw, snr: float) -> Report:
    """Constant input on [0,1]: the causal MSE at time u is mmse(u*snr), so
    its time average ∫_0^1 mmse(u*snr) du equals Duncan's 2*I(snr)/snr."""
    time_avg = snr_integral(
        lambda u: scalar_mmse(ScalarChannel(law, u * snr)), 1.0)
    # at snr 0, Duncan's 2*I/snr is its limit Var X
    duncan = moments(law).variance if snr == 0 else \
        2.0 * mutual_information(ScalarChannel(law, snr)) / snr
    report = Report("time-snr-average")
    report.add("time-averaged causal MSE vs 2*I(snr)/snr",
               time_avg, duncan, 1e-6)
    return report
