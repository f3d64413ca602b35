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
from scipy.special import expit

from .laws import (Gaussian, GaussianMixture, InputLaw, Moments, binary_law,
                   components, gaussian_components, gaussian_raw_moments,
                   moments, require_finite, require_snr, shift)
from .errors import NonConvergence
from .quadrature import (REL_TOL, McConfig, fd_derivative, integrate_output,
                         snr_integral)
from .report import Report

LOG_2PI = np.log(2.0 * np.pi)
HALF_LOG_2PIE = 0.5 * (LOG_2PI + 1.0)
# posterior weights per ``_at`` block.  Medians of 30 alternating mmse calls at
# snr 1000, at 2**12 to 2**17: 16-PAM 3.20 2.54 2.27 2.23 2.13 2.11 ms, a
# 201-point gridded law 13.2 10.1 8.3 7.2 7.4 8.9 ms.  2**15 and 2**16 beat
# 2**14 on both, and 2**15 holds half the memory of 2**16
BLOCK_WEIGHTS = 2 ** 15


@dataclass(frozen=True)
class ScalarChannel:
    """Input law observed at a given snr through additive N(0,1) noise."""
    law: InputLaw
    snr: float

    def __post_init__(self):
        # NaN fails this too; cheaper than require_snr where snr is valid
        if not 0.0 <= self.snr < np.inf:
            require_snr(snr=self.snr)


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

    @classmethod
    def of(cls, draws) -> "McEstimate":
        """Mean of i.i.d. draws and its standard error: the sample standard
        deviation (n - 1 in the denominator) over sqrt(n)."""
        d = np.asarray(draws, dtype=float)
        if d.size < 2:
            raise ValueError("a Monte Carlo standard error needs >= 2 draws")
        return cls(float(d.mean()), float(d.std(ddof=1) / np.sqrt(d.size)), d.size)


# ---------------------------------------------------------------------------
# Posterior statistics
# ---------------------------------------------------------------------------

def _posterior(comps, snr: float, y: np.ndarray):
    """The posterior at outputs y: (wgt, total, p, q, pv, log p_Y).

    Component j of the law's view ``comps`` (``laws.components``: weight w,
    mean m, variance v) is seen at the output as N(b, o), b = sqrt(snr)*m,
    o = 1 + snr*v.  Its log weight at y, less ln(2 pi)/2, is ln w - ln(o)/2 -
    (y - b)**2/(2o), and given y and j, X is N(p + q*y, pv): p = m/o, q =
    sqrt(snr)*v/o, pv = v/o.  ``wgt`` is e^{logw - top} for the column
    maximum top, one row per component and one column per y, ``total`` its
    column sums, and log p_Y = top + ln(total) - ln(2 pi)/2.  Each log
    weight is taken about its own centre, so no term of size snr is added
    and taken away again: every log weight is at most ln w, and log p_Y at
    most -ln(2 pi)/2, so exp(log p_Y) cannot overflow.  Component-major, so
    that every sum over components adds whole rows, in component order.
    """
    w, m, v = comps
    rs = np.sqrt(snr)
    o = 1.0 + snr * v
    with np.errstate(divide="ignore"):
        a = np.log(w) - 0.5 * np.log(o)
    wgt = np.subtract.outer(rs * m, y)
    wgt *= wgt
    wgt *= (-0.5 / o)[:, None]
    wgt += a[:, None]
    top = wgt.max(axis=0)
    wgt -= top
    np.exp(wgt, out=wgt)
    total = wgt.sum(axis=0)
    return wgt, total, m / o, rs * v / o, v / o, top + np.log(total) - 0.5 * LOG_2PI


def _mean(post, y):
    """E[X | Y=y] from a ``_posterior`` block: the weighted sums of p and q
    over the weights' sum."""
    wgt, total, p, q, _, _ = post
    return (np.einsum("ij,i->j", wgt, p)
            + y * np.einsum("ij,i->j", wgt, q)) / total


def _variance(post, y):
    """Var(X | Y=y) from a ``_posterior`` block: the centred sum of
    w_j (pv_j + (p_j + q_j y - E[X|y])**2), in which nothing cancels where
    the MMSE is tiny."""
    wgt, total, p, q, pv, _ = post
    dev = np.multiply.outer(q, y)
    dev += p[:, None]
    dev -= _mean(post, y)
    dev *= dev
    return (np.einsum("ij,i->j", wgt, pv)
            + np.einsum("ij,ij->j", wgt, dev)) / total


def _at(comps, snr: float, stat, y, *cols):
    """``stat(post, block, *col_blocks)`` on blocks of y of at most
    BLOCK_WEIGHTS posterior weights, each with its own ``_posterior``, joined
    (a scalar y gives a float); ``cols`` are arrays aligned with y.  Numpy
    adds the components of two or more columns in order, but not those of a
    lone column, so a block of one output is evaluated as two copies of it
    and the first kept: each y gets the same bits in whatever block."""
    ys = np.atleast_1d(np.asarray(y, dtype=float))
    rows = max(1, BLOCK_WEIGHTS // comps[0].size)

    def block(lo):
        size = min(rows, ys.size - lo)
        b = [lo, lo] if size == 1 else slice(lo, lo + size)
        return stat(_posterior(comps, snr, ys[b]), ys[b], *(c[b] for c in cols))[:size]

    out = np.concatenate([block(lo) for lo in range(0, ys.size or 1, rows)])
    return float(out[0]) if np.ndim(y) == 0 else out


def conditional_mean(ch: ScalarChannel, y):
    """E[X | Y=y].  Accepts a scalar or array y."""
    return _at(components(ch.law), ch.snr, _mean, y)


def posterior_variance(ch: ScalarChannel, y):
    """Var(X | Y=y).  Accepts a scalar or array y."""
    return _at(components(ch.law), ch.snr, _variance, y)


def q_moment(ch: ScalarChannel, y, i: int):
    """E[X^i * p_{Y|X}(y | X)] = p_Y(y) E[X^i | Y=y]; i = 0 gives p_Y(y).
    Accepts a scalar or array y."""
    if i < 0:
        raise ValueError("i must be >= 0")

    def moment(post, y):
        wgt, total, p, q, pv, logp = post
        mom = gaussian_raw_moments(np.multiply.outer(q, y) + p[:, None],
                                   pv[:, None], i)[i]
        return np.exp(logp) * np.einsum("ij,ij->j", wgt, mom) / total

    return _at(components(ch.law), ch.snr, moment, y)


def log_output_density(ch: ScalarChannel, y) -> np.ndarray:
    """log p_Y(y), stable in the tails; an array also for a scalar y."""
    return _at(components(ch.law), ch.snr, lambda post, y: post[-1],
               np.atleast_1d(y))


# ---------------------------------------------------------------------------
# MMSE / mutual information / Fisher information
# ---------------------------------------------------------------------------

def _expect(ch: ScalarChannel, stat) -> float:
    """E_Y[stat(post, y)], ``post`` a ``_posterior`` block at outputs y: the
    integrand p_Y * stat is built by ``_at``, all on one ``components`` view
    of the law, and each stat computes only the posterior statistic it
    reads.  Each stat is invariant under a shift of X, so the law is centred
    at its mean first: far from 0 the output nodes would carry the rounding
    of their centre, ulp(sqrt(snr) * mean), which no relative stop meets."""
    w, m, _ = components(ch.law)
    law = shift(ch.law, -float(w @ m))
    comps = components(law)

    weighted = lambda post, y: np.exp(post[-1]) * stat(post, y)
    return integrate_output(lambda y: _at(comps, ch.snr, weighted, y), law,
                            ch.snr)


def mmse(ch: ScalarChannel) -> float:
    """Noncausal MMSE E[(X - E[X|Y])^2] = E_Y[Var(X|Y)]."""
    if ch.snr == 0:
        return moments(ch.law).variance
    if isinstance(ch.law, Gaussian):
        return ch.law.variance / (1.0 + ch.snr * ch.law.variance)
    val = _expect(ch, _variance)
    return _nonnegative(val, "mmse", ch.snr)


def mutual_information(ch: ScalarChannel) -> float:
    """I(X; Y) in nats, via I = -0.5*log(2*pi*e) - E_Y[log p_Y(Y)]."""
    if ch.snr == 0:
        return 0.0
    if isinstance(ch.law, Gaussian):
        return 0.5 * np.log1p(ch.snr * ch.law.variance)
    ent = -_expect(ch, lambda post, y: post[-1])
    return _nonnegative(ent - HALF_LOG_2PIE, "mutual information", ch.snr)


def _nonnegative(val: float, what: str, snr: float) -> float:
    """Clamp a quadrature value that is negative by at most REL_TOL to 0; a
    value below -REL_TOL raises NonConvergence."""
    if val < -REL_TOL:
        raise NonConvergence(
            f"{what} quadrature gave {val:.3e}, below -{REL_TOL:g}, "
            f"at snr={snr:g}")
    return max(val, 0.0)


def score(ch: ScalarChannel, y):
    """d/dy log p_Y(y) = sqrt(snr)*E[X|Y=y] - y."""
    return np.sqrt(ch.snr) * conditional_mean(ch, y) - np.asarray(y, dtype=float)


def fisher_information(ch: ScalarChannel) -> float:
    """Fisher information of the output density, J(Y) = E[(d/dy log p_Y)^2]."""
    if isinstance(ch.law, Gaussian):
        return 1.0 / (1.0 + ch.snr * ch.law.variance)
    rs = np.sqrt(ch.snr)
    return _expect(ch, lambda post, y: (rs * _mean(post, y) - y) ** 2)


def fisher_from_mmse(ch: ScalarChannel) -> float:
    """Complementary route: J(Y) = 1 - snr * mmse(snr)."""
    return 1.0 - ch.snr * mmse(ch)


# ---------------------------------------------------------------------------
# Binary closed forms
# ---------------------------------------------------------------------------

def _normal_pdf(y):
    return np.exp(-0.5 * y * y) / np.sqrt(2.0 * np.pi)


def mmse_binary_closed(snr: float) -> float:
    """MMSE of equiprobable +/-1 input: 1 - E[tanh(snr + sqrt(snr)*Y)], Y ~ N(0,1).

    Substituting y = z - sqrt(snr) gives e^{-snr/2} * E[sech(sqrt(snr)*Z)],
    Z ~ N(0,1): the integral is of order 1/sqrt(snr) and only the prefactor
    is small, so the value is right down to the double underflow.
    """
    require_snr(snr=snr)
    if snr == 0:
        return 1.0
    rs = np.sqrt(snr)

    def integrand(z):        # 2 * phi(z) * sech(a), sech(a) = 2 e^{-a} expit(2a)
        a = rs * z
        return 4.0 * _normal_pdf(z) * np.exp(-a) * expit(2.0 * a)

    val, _ = integrate.quad(integrand, 0.0, 40.0, points=[min(1.0 / rs, 1.0)],
                            epsabs=1e-300, epsrel=1e-13, limit=400)
    return float(np.exp(-0.5 * snr) * val)


def mi_binary_closed(snr: float) -> float:
    """Mutual information of equiprobable +/-1 input (nats):
    ln 2 - E[ln(1 + e^{-2u})], u = snr + sqrt(snr)*Z, Z ~ N(0,1).

    This is snr - E[log cosh(u)] with log cosh(u) = u + ln(1 + e^{-2u}) - ln 2
    and E[u] = snr taken in closed form, so no two terms near snr cancel.
    """
    require_snr(snr=snr)
    if snr == 0:
        return 0.0
    rs = np.sqrt(snr)

    def integrand(z):
        return _normal_pdf(z) * np.logaddexp(0.0, -2.0 * (snr + rs * z))

    val, _ = integrate.quad(integrand, -rs - 40.0, 40.0, points=[-rs],
                            epsabs=1e-14, epsrel=1e-13, limit=400)
    return float(np.log(2.0) - val)


# ---------------------------------------------------------------------------
# Derivative-identity verification
# ---------------------------------------------------------------------------

def verify_immse(law: InputLaw, snr_grid) -> Report:
    """Compare the finite difference of I(snr) against mmse(snr)/2."""
    report = Report("immse-scalar")
    for s in np.atleast_1d(snr_grid):
        s = float(s)
        fd = fd_derivative(lambda g: mutual_information(ScalarChannel(law, g)), s)
        half_mmse = 0.5 * mmse(ScalarChannel(law, s))
        report.add(f"dI/dsnr vs mmse/2 at snr={s:g}", fd, half_mmse, 1e-6)
    return report


def verify_immse_integral(law: InputLaw, snr: float) -> Report:
    """Integral form: I(snr) vs (1/2) * integral of mmse over [0, snr]."""
    report = Report("immse-integral")
    direct = mutual_information(ScalarChannel(law, snr))
    half_int = 0.5 * snr_integral(lambda g: mmse(ScalarChannel(law, g)), snr)
    report.add(f"I(snr) vs half-integral of mmse at snr={snr:g}",
               direct, half_int, 1e-5)
    grid = np.linspace(0.0, snr, 400)
    vals = np.array([mmse(ScalarChannel(law, float(g))) for g in grid])
    report.add(f"trapezoid 400-point integral at snr={snr:g}",
               direct, 0.5 * float(np.trapezoid(vals, grid)), 1e-5)
    return report


def incremental_decompose(snr: float, delta: float) -> IncrementalPair:
    """Split a channel at snr into an snr+delta channel plus independent noise.

    The first stage sees noise variance 1/(snr+delta) and the two stages
    satisfy sigma1^2 + sigma2^2 = 1/snr exactly.
    """
    require_snr(snr=snr)
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
    require_finite(deltas=deltas)
    if not np.all(deltas > 0):
        raise ValueError("deltas must be positive")
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

def posterior_sample(ch: ScalarChannel, y, rng: np.random.Generator):
    """One exact draw from P(X | Y=y_i) for each y_i (mixture laws only), for
    scalar or array y: every uniform, then every normal (none for atoms)."""
    comps = gaussian_components(ch.law)
    if comps is None:
        raise TypeError("gridded laws have no exact posterior draws; their "
                        "atom view is a discretisation")
    u = rng.random(np.size(y))
    z = rng.standard_normal(u.size) if np.any(comps[2] > 0) else np.zeros(u.size)

    def pick(post, y, u, z):     # the component by inverse CDF, then X given it
        wgt, total, p, q, pv, _ = post
        cum = np.cumsum(wgt, axis=0)
        idx = np.minimum((u * total > cum).sum(axis=0), wgt.shape[0] - 1)
        return p[idx] + q[idx] * y + np.sqrt(pv[idx]) * z
    return _at(comps, ch.snr, pick, y, u, z)


def divergence_derivative(law: InputLaw, x: float, snr: float,
                          mc: McConfig = McConfig()) -> McEstimate:
    """Monte Carlo estimate of d/dsnr D(P_{Y|X=x} || P_Y).

    Draws Y = sqrt(snr)*x + N, samples X' from the posterior given Y
    (independent of the conditioning x given Y), and averages
    0.5*(x - X')^2 - X'*N/(2*sqrt(snr)).  The two expectations share the same
    draws (common random numbers).
    """
    require_snr(snr=snr)
    if snr <= 0:
        raise ValueError("divergence_derivative requires snr > 0")
    rng = np.random.default_rng(mc.seed)
    rs = np.sqrt(snr)
    noise = rng.standard_normal(mc.n_paths)
    y = rs * x + noise
    xp = posterior_sample(ScalarChannel(law, snr), y, rng)
    return McEstimate.of(0.5 * (x - xp) ** 2 - xp * noise / (2.0 * rs))


# ---------------------------------------------------------------------------
# Taylor expansions, preprocessor identity, high-snr decay
# ---------------------------------------------------------------------------

def _taylor_coefficient(m: Moments, snr: float) -> float:
    require_snr(snr=snr)
    if abs(m.mean) > 1e-9 or abs(m.variance - 1.0) > 1e-9:
        raise ValueError("Taylor expansions require mean 0, variance 1")
    return m.fourth ** 2 - 6.0 * m.fourth - 2.0 * m.third ** 2 + 15.0


def mmse_taylor(m: Moments, snr: float) -> float:
    """Cubic low-snr truncation of the MMSE for a zero-mean unit-variance law."""
    c = _taylor_coefficient(m, snr)
    return 1.0 - snr + snr ** 2 - (c / 6.0) * snr ** 3


def mi_taylor(m: Moments, snr: float) -> float:
    """Quartic low-snr truncation of the mutual information (nats)."""
    c = _taylor_coefficient(m, snr)
    return 0.5 * snr - 0.25 * snr ** 2 + snr ** 3 / 6.0 - (c / 48.0) * snr ** 4


def preprocessor_derivative(law_x: InputLaw, noise_var: float,
                            snr: float) -> Report:
    """Markov chain X -- Z -- Y with Z = X + sigma*N' and Gaussian X.

    Checks dI(X;Y)/dsnr = 0.5*[mmse(Z|Y) - mmse(Z|Y,X)] against the closed
    form I(snr) = 0.5*ln(1 + snr*var_x/(1 + snr*noise_var)).
    """
    if not isinstance(law_x, Gaussian):
        raise TypeError("preprocessor_derivative requires a Gaussian input law")
    require_snr(snr=snr)
    require_finite(noise_var=noise_var)
    if noise_var < 0:
        raise ValueError("noise_var must be >= 0")
    vx, vn = law_x.variance, noise_var
    vz = vx + vn

    def mi_closed(s):
        return 0.5 * np.log1p(s * vx / (1.0 + s * vn))

    fd = fd_derivative(mi_closed, snr)
    rhs = 0.5 * (vz / (1.0 + snr * vz) - vn / (1.0 + snr * vn))
    symbolic = 0.5 * vx / ((1.0 + snr * vn) * (1.0 + snr * vz))
    report = Report("preprocessor-derivative")
    report.add("finite difference vs half-MMSE-difference", fd, rhs, 1e-8)
    report.add("half-MMSE-difference vs symbolic derivative", rhs, symbolic, 1e-12)
    return report


def high_snr_decay() -> Report:
    """High-snr decay rates of ``mmse``: binary exponential, Gaussian ~ 1/snr.

    The two output mixture components separate at speed sqrt(snr), so the
    binary MMSE is dominated by the overlap region and decays like
    e^{-snr/2} (up to a 1/sqrt(snr) factor); the fitted log-slope on
    snr in [5, 15] is about -0.54.  The Gaussian is given as a one-component
    mixture, so that its MMSE runs through the quadrature kernel and not the
    closed form.
    """
    snr_grid = np.linspace(5.0, 15.0, 11)
    vals = np.array([mmse(ScalarChannel(binary_law(), float(s)))
                     for s in snr_grid])
    slope = np.polyfit(snr_grid, np.log(vals), 1)[0]
    report = Report("high-snr-decay")
    report.add("binary log-mmse slope vs -1/2", slope, -0.5, 0.1)
    ggrid = np.geomspace(1e2, 1e4, 9)
    unit = GaussianMixture([1.0], [0.0], [1.0])
    gvals = [mmse(ScalarChannel(unit, float(g))) for g in ggrid]
    gslope = np.polyfit(np.log(ggrid), np.log(gvals), 1)[0]
    report.add("gaussian log-log mmse slope vs -1", gslope, -1.0, 0.05)
    if not (np.all(vals > 0) and np.all(np.diff(vals) < 0)):
        report.add("binary mmse positive decreasing", 0.0, 1.0, 0.0)
    return report
