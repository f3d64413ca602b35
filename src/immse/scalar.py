"""The scalar Gaussian channel Y = sqrt(snr)*X + N.

Provides the conditional-mean estimator, MMSE and mutual information for any
supported input law, closed forms for the symmetric binary input, Fisher
information via two independent routes, low-snr Taylor expansions, the
snr-incremental decomposition, a Monte Carlo estimator of the divergence
derivative, and verification helpers for the derivative identity

    dI/dsnr = (1/2) * mmse(snr),

in both differential and integral form.  All information is in nats.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import expit, logsumexp

from .laws import (Gaussian, GriddedDensity, InputLaw, Moments, components,
                   gaussian_raw_moments, moments, require_finite)
from .errors import NonConvergence
from .quadrature import REL_TOL, McConfig, by_rows, integrate_output
from .report import Report

LOG_2PI = np.log(2.0 * np.pi)
HALF_LOG_2PIE = 0.5 * (LOG_2PI + 1.0)


@dataclass(frozen=True)
class ScalarChannel:
    """Input law observed at a given snr through additive N(0,1) noise."""
    law: InputLaw
    snr: float

    def __post_init__(self):
        require_finite(snr=self.snr)
        if self.snr < 0:
            raise ValueError("snr must be nonnegative")


@dataclass(frozen=True)
class IncrementalPair:
    """Noise split of a channel at snr into a slightly better one plus extra noise."""
    snr: float
    delta: float
    sigma1_sq: float
    sigma2_sq: float


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo estimate with its standard error."""
    value: float
    se: float
    n: int


# ---------------------------------------------------------------------------
# Posterior statistics
# ---------------------------------------------------------------------------

def _component_log_weights(ch: ScalarChannel, y: np.ndarray):
    """Log posterior component weights and per-component posterior (mean, var).

    Each mixture component j of the law (``laws.components``) contributes an
    output Gaussian N(sqrt(snr)*m_j, 1 + snr*v_j); conditioning within a
    component is Gaussian algebra.  Returns (logw, mu, var) with shapes
    (m, K), where logw is unnormalized.
    """
    w, m, v = components(ch.law)
    s = ch.snr
    rs = np.sqrt(s)
    out_var = 1.0 + s * v
    with np.errstate(divide="ignore"):
        logw = (np.log(w)[None, :]
                - 0.5 * np.log(out_var)[None, :]
                - 0.5 * (y[:, None] - rs * m[None, :]) ** 2 / out_var[None, :])
    gain = rs * v / out_var
    mu = m[None, :] + gain[None, :] * (y[:, None] - rs * m[None, :])
    post_var = v / out_var
    return logw, mu, np.broadcast_to(post_var[None, :], mu.shape)


def _posterior_stats(ch: ScalarChannel, y: np.ndarray):
    """Conditional mean and conditional variance of X given Y=y (vectorized)."""
    def block(ys):
        logw, mu, pv = _component_log_weights(ch, ys)
        logw = logw - logw.max(axis=1, keepdims=True)
        wgt = np.exp(logw)
        wgt /= wgt.sum(axis=1, keepdims=True)
        xhat = np.sum(wgt * mu, axis=1)
        var = np.sum(wgt * (pv + (mu - xhat[:, None]) ** 2), axis=1)
        return xhat, var

    return by_rows(block, np.atleast_1d(np.asarray(y, dtype=float)))


def conditional_mean(ch: ScalarChannel, y):
    """E[X | Y=y].  Accepts a scalar or array y."""
    xhat, _ = _posterior_stats(ch, np.asarray(y, dtype=float))
    return float(xhat[0]) if np.isscalar(y) or np.ndim(y) == 0 else xhat


def posterior_variance(ch: ScalarChannel, y):
    """Var(X | Y=y)."""
    _, var = _posterior_stats(ch, np.asarray(y, dtype=float))
    return float(var[0]) if np.isscalar(y) or np.ndim(y) == 0 else var


def q_moment(ch: ScalarChannel, y: float, i: int) -> float:
    """E[X^i * p_{Y|X}(y | X)]; i = 0 gives the output density at y."""
    if i < 0:
        raise ValueError("i must be >= 0")
    ya = np.atleast_1d(np.asarray(y, dtype=float))
    logw, mu, pv = _component_log_weights(ch, ya)
    logw = logw - 0.5 * LOG_2PI
    mom = gaussian_raw_moments(mu, pv, i)[i]
    val, sign = logsumexp(logw, b=mom, axis=1, return_sign=True)
    return float(sign[0] * np.exp(val[0]))


def log_output_density(ch: ScalarChannel, y) -> np.ndarray:
    """log p_Y(y), stable in the tails."""
    def block(ys):
        logw, _, _ = _component_log_weights(ch, ys)
        return logsumexp(logw - 0.5 * LOG_2PI, axis=1)

    return by_rows(block, np.atleast_1d(np.asarray(y, dtype=float)))


# ---------------------------------------------------------------------------
# MMSE / mutual information / Fisher information
# ---------------------------------------------------------------------------

def mmse(ch: ScalarChannel) -> float:
    """Noncausal MMSE E[(X - E[X|Y])^2] = E_Y[Var(X|Y)]."""
    if ch.snr == 0:
        return moments(ch.law).variance
    if isinstance(ch.law, Gaussian):
        return ch.law.variance / (1.0 + ch.snr * ch.law.variance)
    val = integrate_output(lambda y: _posterior_stats(ch, y)[1],
                           ch.law, ch.snr)
    return _nonnegative(val, "mmse", ch)


def mutual_information(ch: ScalarChannel) -> float:
    """I(X; Y) in nats, via I = -0.5*log(2*pi*e) - E_Y[log p_Y(Y)]."""
    if ch.snr == 0:
        return 0.0
    if isinstance(ch.law, Gaussian):
        return 0.5 * np.log1p(ch.snr * ch.law.variance)
    ent = -integrate_output(lambda y: log_output_density(ch, y),
                            ch.law, ch.snr)
    return _nonnegative(ent - HALF_LOG_2PIE, "mutual information", ch)


def _nonnegative(val: float, what: str, ch: ScalarChannel) -> float:
    """Clamp a quadrature value that is negative by at most REL_TOL to 0; a
    value below -REL_TOL raises NonConvergence."""
    if val < -REL_TOL:
        raise NonConvergence(
            f"{what} quadrature gave {val:.3e}, below -{REL_TOL:g}, "
            f"at snr={ch.snr:g}")
    return max(val, 0.0)


def score(ch: ScalarChannel, y):
    """d/dy log p_Y(y) = sqrt(snr)*E[X|Y=y] - y."""
    return np.sqrt(ch.snr) * conditional_mean(ch, y) - np.asarray(y, dtype=float)


def fisher_information(ch: ScalarChannel) -> float:
    """Fisher information of the output density, J(Y) = E[(d/dy log p_Y)^2]."""
    if isinstance(ch.law, Gaussian):
        return 1.0 / (1.0 + ch.snr * ch.law.variance)
    rs = np.sqrt(ch.snr)
    return integrate_output(
        lambda y: (rs * _posterior_stats(ch, y)[0] - y) ** 2,
        ch.law, ch.snr)


def fisher_from_mmse(ch: ScalarChannel) -> float:
    """Complementary route: J(Y) = 1 - snr * mmse(snr)."""
    return 1.0 - ch.snr * mmse(ch)


# ---------------------------------------------------------------------------
# Binary closed forms
# ---------------------------------------------------------------------------

def _normal_pdf(y):
    return np.exp(-0.5 * y * y) / np.sqrt(2.0 * np.pi)


def mmse_binary_closed(snr: float) -> float:
    """MMSE of equiprobable +/-1 input: 1 - E[tanh(snr - sqrt(snr)*Y)], Y ~ N(0,1).

    Evaluated as E[2*expit(-2u)] with u = snr - sqrt(snr)*y, which is free of
    the 1 - (1 - eps) cancellation at high snr.
    """
    if snr == 0:
        return 1.0
    rs = np.sqrt(snr)

    def integrand(y):
        return _normal_pdf(y) * 2.0 * expit(-2.0 * (snr - rs * y))

    cut = rs + 40.0
    val, _ = integrate.quad(integrand, -cut, cut, points=[rs],
                            epsabs=1e-300, epsrel=1e-13, limit=400)
    return val


def mi_binary_closed(snr: float) -> float:
    """Mutual information of equiprobable +/-1 input (nats):
    snr - E[log cosh(snr - sqrt(snr)*Y)], Y ~ N(0,1)."""
    if snr == 0:
        return 0.0
    rs = np.sqrt(snr)

    def integrand(y):
        u = snr - rs * y
        logcosh = np.abs(u) + np.log1p(np.exp(-2.0 * np.abs(u))) - np.log(2.0)
        return _normal_pdf(y) * (snr - logcosh)

    cut = rs + 40.0
    val, _ = integrate.quad(integrand, -cut, cut, points=[rs],
                            epsabs=1e-14, epsrel=1e-13, limit=400)
    return val


# ---------------------------------------------------------------------------
# Derivative-identity verification
# ---------------------------------------------------------------------------

def fd_derivative(f, snr: float, delta_fd: float) -> float:
    """df/dsnr by finite differences with step d = delta_fd * max(1, snr).

    Central where snr - d >= 0, divided by the distance between the two
    points as rounded; otherwise the second-order one-sided rule
    (-3 f(snr) + 4 f(snr + d) - f(snr + 2d)) / (2d), so f is never taken at
    a negative snr.
    """
    d = delta_fd * max(1.0, snr)
    hi, lo = snr + d, snr - d
    if lo >= 0:
        return (f(hi) - f(lo)) / (hi - lo)
    return (-3.0 * f(snr) + 4.0 * f(hi) - f(snr + 2.0 * d)) / (2.0 * d)


def verify_immse(law: InputLaw, snr_grid, delta_fd: float = 1e-4) -> Report:
    """Compare the finite difference of I(snr) against mmse(snr)/2."""
    report = Report("immse-scalar")
    for s in np.atleast_1d(snr_grid):
        s = float(s)
        fd = fd_derivative(lambda g: mutual_information(ScalarChannel(law, g)),
                           s, delta_fd)
        half_mmse = 0.5 * mmse(ScalarChannel(law, s))
        report.add(f"dI/dsnr vs mmse/2 at snr={s:g}", fd, half_mmse, 1e-6)
    return report


def verify_immse_integral(law: InputLaw, snr: float, n_grid: int = 400,
                          tolerance: float = 1e-5) -> Report:
    """Integral form: I(snr) vs (1/2) * integral of mmse over [0, snr]."""
    report = Report("immse-integral")
    direct = mutual_information(ScalarChannel(law, snr))
    half_int, _ = integrate.quad(
        lambda g: 0.5 * mmse(ScalarChannel(law, g)), 0.0, snr,
        epsabs=1e-10, epsrel=1e-10, limit=200)
    report.add(f"I(snr) vs half-integral of mmse at snr={snr:g}",
               direct, half_int, tolerance)
    grid = np.linspace(0.0, snr, n_grid)
    vals = np.array([mmse(ScalarChannel(law, float(g))) for g in grid])
    report.add(f"trapezoid {n_grid}-point integral at snr={snr:g}",
               direct, 0.5 * float(np.trapezoid(vals, grid)), tolerance)
    return report


def incremental_decompose(snr: float, delta: float) -> IncrementalPair:
    """Split a channel at snr into an snr+delta channel plus independent noise.

    The first stage sees noise variance 1/(snr+delta) and the two stages
    satisfy sigma1^2 + sigma2^2 = 1/snr exactly.
    """
    if snr <= 0 or delta <= 0:
        raise ValueError("snr and delta must be positive")
    s1 = 1.0 / (snr + delta)
    return IncrementalPair(snr, delta, s1, 1.0 / snr - s1)


def lemma1_low_snr(law: InputLaw, deltas) -> Report:
    """Low-snr behavior I(delta) = (delta/2)*Var(X) + o(delta).

    Reports the ratio I(delta)/delta against Var/2 and fits the log-log slope
    of the deficiency (delta/2)*Var - I(delta), which should be ~2.
    """
    var = moments(law).variance
    deltas = np.sort(np.atleast_1d(np.asarray(deltas, dtype=float)))
    report = Report("lemma1-low-snr")
    deficits = []
    for d in deltas:
        mi = mutual_information(ScalarChannel(law, float(d)))
        report.add(f"I(d)/d vs Var/2 at delta={d:g}", mi / d, 0.5 * var,
                   0.01 * 0.5 * var + 1e-12)
        deficits.append(0.5 * var * d - mi)
    deficits = np.asarray(deficits)
    if np.all(deficits > 0) and deltas.size >= 2:
        slope = np.polyfit(np.log(deltas), np.log(deficits), 1)[0]
        report.add("deficiency log-log slope", slope, 2.0, 0.1)
    return report


# ---------------------------------------------------------------------------
# Divergence derivative (posterior resampling Monte Carlo)
# ---------------------------------------------------------------------------

def posterior_sample(ch: ScalarChannel, y: np.ndarray,
                     rng: np.random.Generator) -> np.ndarray:
    """One exact draw from P(X | Y=y_i) for each y_i (mixture laws only)."""
    if isinstance(ch.law, GriddedDensity):
        raise TypeError("gridded laws have no exact posterior draws; their "
                        "atom view is a discretisation")
    y = np.asarray(y, dtype=float)
    logw, mu, pv = _component_log_weights(ch, y)
    logw = logw - logw.max(axis=1, keepdims=True)
    wgt = np.exp(logw)
    wgt /= wgt.sum(axis=1, keepdims=True)
    cum = np.cumsum(wgt, axis=1)
    u = rng.random(y.size)
    idx = np.minimum((u[:, None] > cum).sum(axis=1), wgt.shape[1] - 1)
    rows = np.arange(y.size)
    draw = mu[rows, idx]
    var = pv[rows, idx]
    hot = var > 0
    if np.any(hot):
        draw = draw + np.sqrt(np.where(hot, var, 0.0)) * rng.standard_normal(y.size) * hot
    return draw


def divergence_derivative(law: InputLaw, x: float, snr: float,
                          mc: McConfig = McConfig()) -> McEstimate:
    """Monte Carlo estimate of d/dsnr D(P_{Y|X=x} || P_Y).

    Draws Y = sqrt(snr)*x + N, samples X' from the posterior given Y
    (independent of the conditioning x given Y), and averages
    0.5*(x - X')^2 - X'*N/(2*sqrt(snr)).  The two expectations share the same
    draws (common random numbers).
    """
    if snr <= 0:
        raise ValueError("divergence_derivative requires snr > 0")
    rng = np.random.default_rng(mc.seed)
    n = mc.n_paths
    rs = np.sqrt(snr)
    noise = rng.standard_normal(n)
    y = rs * x + noise
    xp = posterior_sample(ScalarChannel(law, snr), y, rng)
    vals = 0.5 * (x - xp) ** 2 - xp * noise / (2.0 * rs)
    return McEstimate(float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n)), n)


# ---------------------------------------------------------------------------
# Taylor expansions, preprocessor identity, high-snr decay
# ---------------------------------------------------------------------------

def _taylor_coefficient(m: Moments) -> float:
    if abs(m.mean) > 1e-9 or abs(m.variance - 1.0) > 1e-9:
        raise ValueError("Taylor expansions require mean 0, variance 1")
    return m.fourth ** 2 - 6.0 * m.fourth - 2.0 * m.third ** 2 + 15.0


def mmse_taylor(m: Moments, snr: float) -> float:
    """Cubic low-snr truncation of the MMSE for a zero-mean unit-variance law."""
    c = _taylor_coefficient(m)
    return 1.0 - snr + snr ** 2 - (c / 6.0) * snr ** 3


def mi_taylor(m: Moments, snr: float) -> float:
    """Quartic low-snr truncation of the mutual information (nats)."""
    c = _taylor_coefficient(m)
    return 0.5 * snr - 0.25 * snr ** 2 + snr ** 3 / 6.0 - (c / 48.0) * snr ** 4


def preprocessor_derivative(law_x: InputLaw, noise_var: float, snr: float,
                            delta_fd: float = 1e-4) -> Report:
    """Markov chain X -- Z -- Y with Z = X + sigma*N' and Gaussian X.

    Checks dI(X;Y)/dsnr = 0.5*[mmse(Z|Y) - mmse(Z|Y,X)] against the closed
    form I(snr) = 0.5*ln(1 + snr*var_x/(1 + snr*noise_var)).
    """
    if not isinstance(law_x, Gaussian):
        raise TypeError("preprocessor_derivative requires a Gaussian input law")
    if noise_var < 0:
        raise ValueError("noise_var must be >= 0")
    vx, vn = law_x.variance, noise_var
    vz = vx + vn

    def mi_closed(s):
        return 0.5 * np.log1p(s * vx / (1.0 + s * vn))

    fd = fd_derivative(mi_closed, snr, delta_fd)
    rhs = 0.5 * (vz / (1.0 + snr * vz) - vn / (1.0 + snr * vn))
    symbolic = 0.5 * vx / ((1.0 + snr * vn) * (1.0 + snr * vz))
    report = Report("preprocessor-derivative")
    report.add("finite difference vs half-MMSE-difference", fd, rhs, 1e-8)
    report.add("half-MMSE-difference vs symbolic derivative", rhs, symbolic, 1e-12)
    return report


def high_snr_decay(snr_grid=None) -> Report:
    """High-snr decay rates: binary MMSE exponential, Gaussian MMSE ~ 1/snr.

    The two output mixture components separate at speed sqrt(snr), so the
    binary MMSE is dominated by the overlap region and decays like
    e^{-snr/2} (up to a 1/sqrt(snr) factor); the fitted log-slope on
    snr in [5, 15] is about -0.54.
    """
    if snr_grid is None:
        snr_grid = np.linspace(5.0, 15.0, 11)
    snr_grid = np.asarray(snr_grid, dtype=float)
    vals = np.array([mmse_binary_closed(float(s)) for s in snr_grid])
    slope = np.polyfit(snr_grid, np.log(vals), 1)[0]
    report = Report("high-snr-decay")
    report.add("binary log-mmse slope vs -1/2", slope, -0.5, 0.1)
    ggrid = np.geomspace(1e2, 1e4, 9)
    gslope = np.polyfit(np.log(ggrid), np.log(1.0 / (1.0 + ggrid)), 1)[0]
    report.add("gaussian log-log mmse slope vs -1", gslope, -1.0, 0.05)
    if not (np.all(vals > 0) and np.all(np.diff(vals) < 0)):
        report.add("binary mmse positive decreasing", 0.0, 1.0, 0.0)
    return report
