"""Continuous-time white-noise channel dY_t = sqrt(snr) * X_t dt + dW_t.

Covers the random telegraph input (+/-1 Markov process with transition rate
nu): closed-form causal and noncausal MMSEs built from the one-sided
integrals f(i,j), the exact Wonham filter / Yao smoother Monte Carlo,
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
from .laws import InputLaw, moments, require_finite, require_snr, sample_with_rng
from .quadrature import McConfig, draw_thread, fd_derivative, snr_integral
from .report import Report
from .scalar import (McEstimate, ScalarChannel, conditional_mean,
                     mmse as scalar_mmse, mutual_information)

ENSEMBLE_CHUNK = 2000  # telegraph paths per chunk of ``wonham_ensemble``
STEP_BLOCK = 64        # time steps per block of normals drawn, filtered and summed
MAX_STEP = 0.01        # the largest dt * max(nu, snr) a telegraph run may take


@dataclass(frozen=True)
class TelegraphModel:
    """+/-1 Markov input with transition rate nu, observed at a given snr."""
    nu: float
    snr: float

    def __post_init__(self):
        require_finite(nu=self.nu)
        require_snr(snr=self.snr)
        if self.nu <= 0:
            raise ValueError("nu must be positive")

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
        require_finite(dt=self.dt, dy=self.dy)
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.x.shape != self.dy.shape:
            raise ValueError("x and dy must have equal lengths")


@dataclass(frozen=True)
class OUSpectrum:
    """Ornstein-Uhlenbeck power spectrum S(w) = 2*variance*beta/(beta^2+w^2)."""
    variance: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        require_finite(variance=self.variance, beta=self.beta)
        if min(self.variance, self.beta) <= 0:
            raise ValueError("variance and beta must be positive")

    def __call__(self, omega):
        return 2.0 * self.variance * self.beta / (self.beta ** 2 + np.asarray(omega) ** 2)


# ---------------------------------------------------------------------------
# f(i,j) integrals and telegraph closed forms
# ---------------------------------------------------------------------------

def f_scaled(i: int, j: int, xi: float) -> float:
    """e^{-xi} * f(i,j,xi), free of the e^{xi} underflow as xi -> -inf.

    Substituting u = 1 + v^2 regularizes the (u-1)^{-1/2} endpoint, and
    w = sqrt(-xi) v keeps the Gaussian factor at unit width for every xi:
    e^{-xi} f(i,j) = 2 (-xi)^{-(j+2)/2} ∫_0^∞ (1 + w^2/(-xi))^{i/2} w^{j+1} e^{-w^2} dw.
    The first factor bends at w = sqrt(-xi); breaks at its octaves up to
    w = 1 hold each value to a few ulps, which the f recurrences need at
    xi near 0, where they difference values of size xi^-2.
    """
    require_finite(xi=xi)
    if xi >= 0:
        raise ValueError("xi must be negative")
    if j < -1:
        raise ValueError("j must be >= -1")
    lam = np.float64(-xi)

    def integrand(w):
        return (1.0 + w * w / lam) ** (0.5 * i) * w ** (j + 1) * np.exp(-w * w)

    knees = np.sqrt(lam) * 2.0 ** np.arange(-0.5 * np.log2(lam))
    # a value past the float range comes out inf or nan and raises below
    with np.errstate(over="ignore", invalid="ignore"):
        parts = [integrate.quad(integrand, a, b, points=pts, epsabs=1e-300,
                                epsrel=1e-12, limit=400 + knees.size)
                 for a, b, pts in [(0.0, 1.0, knees if knees.size else None),
                                   (1.0, np.inf, None)]]
        val, err = (2.0 * lam ** (-0.5 * (j + 2)) * sum(col) for col in zip(*parts))
    if not np.isfinite(val) or (val != 0 and err > 1e-8 * abs(val)):
        raise NonConvergence(f"f integral did not converge at i={i}, j={j}, xi={xi}")
    return float(val)


def f_integral(i: int, j: int, xi: float) -> float:
    """f(i,j) = ∫_1^∞ u^{i/2} (u-1)^{j/2} e^{xi*u} du for xi < 0."""
    return np.exp(xi) * f_scaled(i, j, xi)


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
    """Causal (filtering) MMSE of the random telegraph input, f(-1,-1)/f(1,-1):
    by v = sinh(u/2) (see ``_f11``), f_scaled(-1, -1, -lam) = kve(0, lam/2)."""
    if m.snr == 0:
        return 1.0
    return kve(0, -0.5 * m.xi) / _f11(-m.xi)


def _f11(lam: float) -> float:
    """F(lam) = f_scaled(1, -1, -lam) = 2 ∫_0^∞ sqrt(1+v^2) e^{-lam v^2} dv,
    in closed form (v = sinh(u/2)) as (kve(0, lam/2) + kve(1, lam/2)) / 2."""
    return 0.5 * (kve(0, 0.5 * lam) + kve(1, 0.5 * lam))


def telegraph_mmse(m: TelegraphModel) -> float:
    """Noncausal (smoothing) MMSE of the random telegraph input.

    With lam = 2 nu / snr it is 4 G / F(lam)^2, G the two-sided integral
    ∫∫_{a,b>0} sqrt((1+a^2)(1+b^2)) e^{-lam(a^2+b^2)} / (1+a^2+b^2) da db.
    Writing 1/(1+a^2+b^2) = ∫_0^∞ e^{-s(1+a^2+b^2)} ds factors G, so
    mmse = ∫_0^∞ e^{-s} (F(lam+s) / F(lam))^2 ds, run on ``snr_integral``
    in g = s/lam (the integrand then falls like 1/(1+g)) up to s = 60.  The
    ratio keeps the integral of order one, where the quadrature's absolute
    stop can be met; F(lam) alone grows like 1/lam.
    """
    if m.snr == 0:
        return 1.0
    lam = -m.xi
    f0 = _f11(lam)
    return snr_integral(
        lambda g: lam * np.exp(-lam * g) * (_f11(lam * (1.0 + g)) / f0) ** 2,
        60.0 / lam)


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
    require_finite(dt=dt)
    if dt > MAX_STEP / max(nu, snr):
        raise StepTooLarge(f"dt={dt:g} exceeds {MAX_STEP:g}/max(nu, snr)="
                           f"{MAX_STEP / max(nu, snr):g}")


def _flip_times(nu: float, horizon: float, n_paths: int,
                rng: np.random.Generator):
    """x0 and the flip times (n_paths, m) of ``n_paths`` telegraph paths,
    drawn on the calling thread."""
    x0 = rng.choice(np.array([-1.0, 1.0]), size=n_paths)
    # flip times: cumulative exponential holding times, enough columns that
    # running past the horizon is (astronomically) unlikely
    mean_flips = nu * horizon
    m_cols = int(mean_flips + 10.0 * np.sqrt(mean_flips + 1.0) + 25)
    flips = np.cumsum(rng.exponential(1.0 / nu, size=(n_paths, m_cols)), axis=1)
    while np.any(flips[:, -1] < horizon):
        extra = np.cumsum(rng.exponential(1.0 / nu, size=(n_paths, m_cols)), axis=1)
        flips = np.concatenate([flips, flips[:, -1:] + extra], axis=1)
    return x0, flips


def _row_blocks(a: np.ndarray) -> list:
    """(k, a[k:k + STEP_BLOCK]) per block of STEP_BLOCK rows of ``a``, in row
    order: a time-major array's blocks of steps, as views."""
    return [(k, a[k:k + STEP_BLOCK]) for k in range(0, len(a), STEP_BLOCK)]


def _telegraph_blocks(snr: float, n_steps: int, dt: float, x0: np.ndarray,
                      flips: np.ndarray, x_edges: np.ndarray, blocks):
    """Exact-holding-time telegraph paths on a dt grid from x0 and the flip
    times (``_flip_times``), made a block of steps at a time.

    x_edges (n_steps+1, paths) is C-order, so step k of every path is one
    contiguous row; x_edges[k, p] is the int8 state +/-1 at t_k, filled
    before the first block is read.  ``blocks`` is any iterable of (k, rows)
    in step order, rows a C-order (m, paths) view holding the standard
    normals of steps k, ..., k + m - 1.  Each block is made final in place
    and yielded: row j is dy at step k + j, sqrt(snr) * ∫ X dt + dW over the
    step, with the occupation integral computed exactly from the flip times.
    """
    n_paths = x0.size
    rows, cols = np.nonzero(flips < n_steps * dt)
    ft = flips[rows, cols]
    step_idx = np.minimum((ft / dt).astype(np.int64), n_steps - 1)
    # state at each edge: x0 * (-1)^(flips before the edge), the parity of
    # each step's flips XOR-ed in row by row
    x_edges.fill(0)
    np.bitwise_xor.at(x_edges, (step_idx + 1, rows), 1)
    for k in range(1, n_steps + 1):
        np.bitwise_xor(x_edges[k], x_edges[k - 1], out=x_edges[k])
    x_edges *= -2
    x_edges += 1
    x_edges *= x0.astype(np.int8)

    # dy = sqrt(snr) * occupation + sqrt(dt) * normal.  The occupation is
    # left-state * dt on a step without a flip; a step with flips (a cell)
    # adds 2 * (state before the flip) * (flip time - step end) per flip, in
    # flip order
    cells, which = np.unique(step_idx * n_paths + rows, return_inverse=True)
    occ = x_edges.ravel()[cells] * dt
    state_before = x0[rows] * np.where(cols % 2 == 0, 1.0, -1.0)
    np.add.at(occ, which, 2.0 * state_before * (ft - (step_idx + 1) * dt))
    occ *= np.sqrt(snr)
    held = np.sqrt(snr) * dt
    for k, blk in blocks:
        lo, hi = np.searchsorted(cells, [k * n_paths, (k + len(blk)) * n_paths])
        blk *= np.sqrt(dt)
        local = cells[lo:hi] - k * n_paths
        flipped = blk.ravel()[local] + occ[lo:hi]
        blk += held * x_edges[k:k + len(blk)]
        blk.ravel()[local] = flipped
        yield k, blk


def _telegraph_paths(nu: float, snr: float, n_steps: int, dt: float,
                     n_paths: int, rng: np.random.Generator):
    """Telegraph paths made by ``_telegraph_blocks``: (x_edges, dy) as
    (n_paths, n_steps+1) and (n_paths, n_steps) views of the time-major
    arrays, so step k of every path is one contiguous row (``x_edges[:, k]``,
    ``dy[:, k]``).  The generator is read on the calling thread as x0, flip
    times, then the normals in one (steps, paths) draw, the order in which
    ``wonham_ensemble`` reads each chunk's, so a single path draws the same
    numbers at any layout."""
    x_edges = np.empty((n_steps + 1, n_paths), dtype=np.int8)
    x0, flips = _flip_times(nu, n_steps * dt, n_paths, rng)
    dy = rng.standard_normal((n_steps, n_paths))
    for _ in _telegraph_blocks(snr, n_steps, dt, x0, flips, x_edges,
                               _row_blocks(dy)):
        pass
    return x_edges.T, dy.T


def simulate_telegraph(m: TelegraphModel, T: float, dt: float, seed: int) -> SamplePath:
    """One telegraph sample path with exact exponential holding times."""
    _check_step(m.nu, m.snr, dt)
    n_steps = int(round(T / dt))
    if n_steps < 1:
        raise ValueError(f"T={T:g} holds no step of dt={dt:g}")
    rng = np.random.default_rng(seed)
    x_edges, dy = _telegraph_paths(m.nu, m.snr, n_steps, dt, 1, rng)
    return SamplePath(dt, x_edges[0, :-1].astype(float), dy[0].copy())


def _tanh_add(a, b):
    """tanh(atanh a + atanh b): adds two log-odds."""
    return (a + b) / (1.0 + a * b)


def _wonham_step(xh: np.ndarray, tau: np.ndarray, decay: float,
                 out: np.ndarray, tmp: np.ndarray) -> None:
    """Exact step on the dt grid: the mean decays by ``decay`` = e^{-2 nu dt}
    (flip probability (1 - decay)/2), then atanh X̂ gains sqrt(snr) dy, added
    as ``_tanh_add(xh * decay, tau)`` with tau = tanh(sqrt(snr) dy).  Writes
    the new mean into ``out``, which may be ``xh``; ``tmp`` is scratch."""
    a = np.multiply(xh, decay, out=out)
    np.multiply(a, tau, out=tmp)
    tmp += 1.0
    a += tau
    a /= tmp


def _filter_blocks(blocks, decay: float, n_paths: int):
    """Run the Wonham filter over row blocks (k, tau[k:k+m]) of tau.

    Row k of tau is step k for every path; the filter starts from the
    stationary prior mean 0 and reads the rows in order.  Yields (k + 1, est)
    per block, est[j] holding every path's filter mean after step k + j, in
    a buffer that the next block overwrites.
    """
    est = np.empty((STEP_BLOCK, n_paths))
    tmp = np.empty(n_paths)
    xh = np.zeros(n_paths)
    for k, tau in blocks:
        out = est[:len(tau)]
        for j in range(len(tau)):
            _wonham_step(xh, tau[j], decay, out[j], tmp)
            xh = out[j]
        yield k + 1, out


def wonham_filter(path: SamplePath, snr: float, nu: float,
                  backward: bool = False) -> np.ndarray:
    """Posterior mean sequence; entry k estimates X at t_k = k*dt.

    The exact two-state filter (``_wonham_step``), dy_k observing X at
    t_{k+1}, from the stationary prior mean X̂_0 = 0.  With ``backward`` the
    same filter runs on the reversed increments, so entry k estimates X at
    t_k from the observations after t_k (the anticausal filter).
    """
    require_snr(snr=snr)
    _check_step(nu, snr, path.dt)
    tau = np.tanh(np.sqrt(snr) * path.dy)[:, None]
    out = np.zeros(path.dy.size + 1)
    # backward: entry J of the mirrored rows is t_{n-J}
    rows, tau = (out[::-1], tau[::-1]) if backward else (out, tau)
    decay = np.exp(-2.0 * nu * path.dt)
    for first, est in _filter_blocks(_row_blocks(tau), decay, 1):
        rows[first:first + len(est)] = est[:, 0]
    return out


def yao_smoother(forward: np.ndarray, backward: np.ndarray) -> np.ndarray:
    """Combine forward and backward filter means: (f + b) / (1 + f*b)."""
    return _tanh_add(np.asarray(forward, dtype=float),
                     np.asarray(backward, dtype=float))


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


def _window(lo: int, hi: int, first: int, n: int):
    """(a, b), a <= b: the indices first, ..., first + n - 1 in [lo, hi] are
    a, ..., b - 1."""
    a = max(lo, first)
    return a, max(a, min(hi + 1, first + n))


def _fold(acc: np.ndarray, x: np.ndarray, est: np.ndarray, buf: np.ndarray):
    """acc += sum over j of (x[j] - est[j])^2, added row by row in order: bit
    for bit the sum taken one step at a time.  ``acc`` and ``buf`` carry one
    zero column past the paths, because numpy sums a lone column pairwise,
    not in order."""
    n = len(est)
    if n:
        d = buf[:n, :-1]
        np.square(np.subtract(x, est, out=d), out=d)
        buf[0] += acc
        np.sum(buf[:n], axis=0, out=acc)


def _prefix(a: np.ndarray, n_paths: int) -> np.ndarray:
    """The C-order (len(a), n_paths) array on the flat prefix of ``a``."""
    return a.ravel()[:len(a) * n_paths].reshape(len(a), n_paths)


def _ensemble_chunks(m: TelegraphModel, dt: float, n_steps: int, k0: int,
                     sm_lo: int, sm_hi: int, sizes: list,
                     rng: np.random.Generator, helper):
    """Per-path time-averaged squared errors of the causal filter, the
    anticausal filter and the smoother, yielded per chunk of ``sizes[c]`` new
    paths, the first chunk the widest (see ``wonham_ensemble``)."""
    decay = np.exp(-2.0 * m.nu * dt)
    # one buffer each for the normals, the states and the kept forward
    # means, a narrower chunk taking the flat prefix of each
    wide, edges, kept = (np.empty((rows, sizes[0]), dtype) for rows, dtype in
                         ((n_steps, float), (n_steps + 1, np.int8),
                          (sm_hi - sm_lo + 1, np.float32)))
    blocks = _row_blocks(wide)
    x0, flips = _flip_times(m.nu, n_steps * dt, sizes[0], rng)
    drawn = [helper.submit(rng.standard_normal, out=blk) for _, blk in blocks]
    for c, n_paths in enumerate(sizes):
        x_edges, fwd = _prefix(edges, n_paths), _prefix(kept, n_paths)
        # each block once its draw is done: the draw returns the block's rows
        made = _telegraph_blocks(m.snr, n_steps, dt, x0, flips, x_edges,
                                 ((k, d.result()) for (k, _), d in zip(blocks, drawn)))
        buf = np.zeros((STEP_BLOCK, n_paths + 1))
        causal, anti, smooth = np.zeros((3, n_paths + 1))
        # the filter yields from t_1 on; at t_0 the error is (X_0 - 0)^2 = 1
        causal[:-1] = float(k0 == 0)
        # tau = tanh(sqrt(snr) dy), made in place over each block as it is made
        tanh_blocks = ((k, np.tanh(np.multiply(b, np.sqrt(m.snr), out=b), out=b))
                       for k, b in made)
        for first, est in _filter_blocks(tanh_blocks, decay, n_paths):
            a, b = _window(k0, n_steps, first, len(est))
            _fold(causal, x_edges[a:b], est[a - first:b - first], buf)
            a, b = _window(sm_lo, sm_hi, first, len(est))
            fwd[a - sm_lo:b - sm_lo] = est[a - first:b - first]
        # every normal of this chunk is drawn, so the next chunk's x0 and
        # flip times come next in the stream
        following = sizes[c + 1] if c + 1 < len(sizes) else 0
        if following:
            x0, flips = _flip_times(m.nu, n_steps * dt, following, rng)
        # the backward filter is the forward filter on the mirrored steps,
        # the chunk's blocks walked in reverse: row J of x_rev is
        # t_{n_steps - J}, and the three windows are their own mirror images
        x_rev, fwd_rev = x_edges[::-1], fwd[::-1]
        freed = blocks[::-1]
        backward = ((n_steps - k - len(blk), blk[::-1]) for k, blk in freed)
        blocks, drawn = [], []
        for (first, est), (_, blk) in zip(_filter_blocks(backward, decay, n_paths),
                                          freed):
            if following:   # the next chunk's steps first - 1, ... take blk's rows
                blocks.append((first - 1, _prefix(blk, following)))
                drawn.append(helper.submit(rng.standard_normal, out=blocks[-1][1]))
            a, b = _window(k0, n_steps, first, len(est))
            _fold(anti, x_rev[a:b], est[a - first:b - first], buf)
            a, b = _window(sm_lo, sm_hi, first, len(est))
            sm = yao_smoother(fwd_rev[a - sm_lo:b - sm_lo], est[a - first:b - first])
            _fold(smooth, x_rev[a:b], sm, buf)
        # the anticausal window leaves out t_{n_steps}, where the error is 1
        yield (causal[:-1] / (n_steps - k0 + 1),
               anti[:-1] / (n_steps - max(k0, 1) + 1),
               smooth[:-1] / (sm_hi - sm_lo + 1))


def wonham_ensemble(m: TelegraphModel, mc: McConfig) -> EnsembleResult:
    """Monte Carlo MSEs of filter, anticausal filter and smoother.

    Causal and anticausal errors are time-averaged over [burn_in, T] (resp.
    its mirror); the smoother over [burn_in, T - burn_in].  Per-path time
    averages are i.i.d. across paths, so the reported SE is the ensemble
    standard error of those averages.

    Paths are made ``ENSEMBLE_CHUNK`` at a time, time-major, by
    ``_telegraph_blocks``, in one (steps, paths) buffer of step normals,
    STEP_BLOCK steps to a block.  The helper thread (``draw_thread``) draws
    the normals a block at a time, ahead of this thread, which builds the
    chunk's states meanwhile.  ``_ensemble_chunks`` is the one place that
    waits on the helper: it hands each block to ``_telegraph_blocks`` once
    its draw is done, then makes tau = tanh(sqrt(snr) dy) in place over the
    block and runs the forward filter on it.  The backward filter walks the
    same blocks in reverse, and as it frees the i-th of them the helper
    draws the next chunk's i-th block of steps into the flat prefix of its
    rows, whatever that chunk's width.  The generator is read in one order,
    x0, flip times, then the chunk's normals in (steps, paths) order, chunk
    after chunk: this thread draws a chunk's x0 and flip times once the
    previous chunk's forward pass has read all its normals.  So the results
    depend neither on the blocks nor on the thread timing.  The states and
    the kept forward means reuse one buffer each as well.  The causal error
    is summed on the float64 forward means, which are kept (as float32) only
    on the smoother window; the anticausal and smoother errors are summed on
    the backward pass.  Each error is summed a block of steps at a time,
    adding the steps in the order they were filtered, so every sum equals
    the step-by-step sum bit for bit.
    """
    nu, snr, dt, horizon = m.nu, m.snr, mc.dt, mc.horizon
    _check_step(nu, snr, dt)
    if mc.n_paths < 2:
        raise ValueError("a Monte Carlo standard error needs >= 2 draws")
    n_steps = int(round(horizon / dt))
    burn = min(10.0 / nu, horizon / 2.0)
    k0 = int(round(burn / dt))  # causal window [k0, n_steps]
    burn_sm = min(10.0 / nu, horizon / 3.0)
    sm_lo = int(round(burn_sm / dt))
    sm_hi = n_steps - sm_lo
    if sm_hi <= sm_lo:
        raise ValueError("horizon too short for the smoother window")
    sizes = [min(ENSEMBLE_CHUNK, mc.n_paths - start)
             for start in range(0, mc.n_paths, ENSEMBLE_CHUNK)]
    with draw_thread() as helper:
        chunks = list(_ensemble_chunks(m, dt, n_steps, k0, sm_lo, sm_hi, sizes,
                                       np.random.default_rng(mc.seed), helper))
    c, a, s = (McEstimate.of(np.concatenate(v)) for v in zip(*chunks))
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
    require_snr(snr=snr)
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
    return log_int / (2.0 * np.pi), mmse_nc / np.pi, log_int / (np.pi * snr)


def ou_closed_forms(spectrum: OUSpectrum, snr: float):
    """Contour-integral closed forms for the OU spectrum."""
    require_snr(snr=snr)
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
    require_finite(t=t)
    if t <= 0:
        raise ValueError("t must be > 0")
    ch = ScalarChannel(law, t * snr)     # rejects a bad snr before the draws
    rng = np.random.default_rng(mc.seed)
    n = mc.n_paths
    x = sample_with_rng(law, rng, n)
    y_t = np.sqrt(snr) * t * x + np.sqrt(t) * rng.standard_normal(n)
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
