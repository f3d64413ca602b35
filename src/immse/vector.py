"""The vector Gaussian channel Y = H S X + N with S = diag(sqrt(snr_k)).

Gaussian inputs get closed forms for mutual information, MMSE and the Fisher
matrix; discrete atom sets get Monte Carlo engines with exact log-sum-exp
posteriors per sampled output.  Verification helpers cover the vector
derivative identity dI/dsnr = mmse/2, the entropy/Fisher (de Bruijn) link,
per-user snr derivatives, and the likelihood-ratio lemmas tying the score to
the conditional mean.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import logsumexp

from .errors import DegenerateCovariance
from .laws import require_finite
from .quadrature import McConfig, fd_derivative, fd_difference
from .report import Report
from .scalar import McEstimate

LOG_2PI = np.log(2.0 * np.pi)
MC_CHUNK = 50_000      # draws per block of the atom engines


@dataclass(frozen=True)
class AtomSet:
    """Finitely many points in R^K with probabilities."""
    points: np.ndarray          # (n_atoms, K)
    probs: np.ndarray           # (n_atoms,)

    def __post_init__(self):
        object.__setattr__(self, "points", np.atleast_2d(np.asarray(self.points, dtype=float)))
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=float))
        if self.points.shape[0] != self.probs.size:
            raise ValueError("points/probs length mismatch")
        if self.points.shape[0] > 2 ** 16:
            raise ValueError("atom sets limited to 2^16 points")
        if np.any(self.probs < 0) or abs(self.probs.sum() - 1.0) > 1e-12:
            raise ValueError("probs must be nonnegative and sum to 1")


@dataclass(frozen=True)
class GaussianVec:
    """Gaussian input N(mean, cov) on R^K."""
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "cov", np.asarray(self.cov, dtype=float))
        if not np.allclose(self.cov, self.cov.T, atol=1e-12):
            raise ValueError("covariance must be symmetric")


VectorInput = Union[AtomSet, GaussianVec]


@dataclass(frozen=True)
class VectorChannelModel:
    """Channel Y = H diag(sqrt(snr_k)) X + N with standard Gaussian noise."""
    H: np.ndarray               # (L, K)
    input: VectorInput
    snr_diag: np.ndarray        # (K,)

    def __post_init__(self):
        object.__setattr__(self, "H", np.atleast_2d(np.asarray(self.H, dtype=float)))
        object.__setattr__(self, "snr_diag",
                           np.asarray(self.snr_diag, dtype=float) * np.ones(self.H.shape[1]))
        require_finite(H=self.H, snr_diag=self.snr_diag)
        if np.any(self.snr_diag < 0):
            raise ValueError("snr entries must be nonnegative")
        k = self.H.shape[1]
        if isinstance(self.input, AtomSet) and self.input.points.shape[1] != k:
            raise ValueError("atom dimension does not match H columns")
        if isinstance(self.input, GaussianVec) and self.input.cov.shape[0] != k:
            raise ValueError("covariance dimension does not match H columns")

    @property
    def common_snr(self) -> float:
        s = self.snr_diag
        if not np.allclose(s, s[0], rtol=1e-12, atol=0):
            raise ValueError("model does not have a common snr")
        return float(s[0])

    def with_snr(self, snr_diag) -> "VectorChannelModel":
        return VectorChannelModel(self.H, self.input, np.asarray(snr_diag, dtype=float))

    @property
    def effective_matrix(self) -> np.ndarray:
        """H S with S = diag(sqrt(snr_k))."""
        return self.H * np.sqrt(self.snr_diag)[None, :]


@dataclass(frozen=True)
class FisherMatrix:
    """Fisher matrix of the output density via two independent routes."""
    covariance_route: np.ndarray
    score_route: np.ndarray
    se: float


def _checked_cholesky(cov: np.ndarray):
    eig = np.linalg.eigvalsh(cov)
    if eig[0] <= 0 or eig[-1] / eig[0] > 1e12:
        raise DegenerateCovariance(
            f"covariance condition number {eig[-1] / max(eig[0], 1e-300):.3g} exceeds 1e12")
    return cho_factor(cov)


# ---------------------------------------------------------------------------
# Gaussian closed forms
# ---------------------------------------------------------------------------

def gaussian_mi(model: VectorChannelModel) -> float:
    """I(X;Y) = 0.5 logdet(I + A Σ Aᵀ) nats, with A = H S."""
    if not isinstance(model.input, GaussianVec):
        raise TypeError("gaussian_mi requires a Gaussian input")
    a = model.effective_matrix
    mat = np.eye(a.shape[0]) + a @ model.input.cov @ a.T
    sign, logdet = np.linalg.slogdet(mat)
    if sign <= 0:
        raise DegenerateCovariance("output covariance not positive definite")
    return 0.5 * logdet


def gaussian_error_cov(model: VectorChannelModel) -> np.ndarray:
    """Posterior covariance of X given Y: (Σ⁻¹ + Aᵀ A)⁻¹ with A = H S."""
    if not isinstance(model.input, GaussianVec):
        raise TypeError("requires a Gaussian input")
    a = model.effective_matrix
    chol = _checked_cholesky(model.input.cov)
    prec = cho_solve(chol, np.eye(a.shape[1])) + a.T @ a
    return np.linalg.inv(prec)


def gaussian_mmse(model: VectorChannelModel) -> float:
    """MMSE in estimating H X: tr(H (Σ⁻¹ + snr HᵀH)⁻¹ Hᵀ)."""
    model.common_snr    # enforce a single snr for the H X target
    err = gaussian_error_cov(model)
    return float(np.trace(model.H @ err @ model.H.T))


# ---------------------------------------------------------------------------
# Atom-set Monte Carlo engines
# ---------------------------------------------------------------------------

def _atom_posterior_logweights(model: VectorChannelModel, y: np.ndarray):
    """Unnormalized log posterior over atoms per row of y (n, n_atoms)."""
    atoms = model.input
    centers = atoms.points @ model.effective_matrix.T       # (n_atoms, L)
    d = y[:, None, :] - centers[None, :, :]
    with np.errstate(divide="ignore"):
        return np.log(atoms.probs)[None, :] - 0.5 * np.einsum("nkl,nkl->nk", d, d)


def _atom_mc_sweep(model: VectorChannelModel, mc: McConfig, stats_fn) -> list:
    """Stream MC draws of (X, N); return stats_fn's result for each chunk."""
    atoms = model.input
    if not isinstance(atoms, AtomSet):
        raise TypeError("atom engines require an AtomSet input")
    rng = np.random.default_rng(mc.seed)
    eff = model.effective_matrix
    l_dim = eff.shape[0]
    out = []
    remaining = mc.n_paths
    while remaining > 0:
        n = min(MC_CHUNK, remaining)
        remaining -= n
        idx = rng.choice(atoms.probs.size, size=n, p=atoms.probs)
        noise = rng.standard_normal((n, l_dim))
        y = atoms.points[idx] @ eff.T + noise
        logw = _atom_posterior_logweights(model, y)
        out.append(stats_fn(idx, noise, y, logw))
    return out


def _normalized(logw: np.ndarray) -> np.ndarray:
    w = np.exp(logw - logw.max(axis=1, keepdims=True))
    return w / w.sum(axis=1, keepdims=True)


def atom_mmse(model: VectorChannelModel, mc: McConfig = McConfig()) -> McEstimate:
    """MC estimate of E ||H X - E[H X | Y]||^2 with exact per-draw posteriors."""
    hx = model.input.points @ model.H.T                     # (n_atoms, L)

    def stats(idx, noise, y, logw):
        w = _normalized(logw)
        mean = w @ hx                                       # (n, L)
        dev = hx[None, :, :] - mean[:, None, :]
        return np.einsum("nk,nkl,nkl->n", w, dev, dev)

    return McEstimate.of(np.concatenate(_atom_mc_sweep(model, mc, stats)))


def atom_mi(model: VectorChannelModel, mc: McConfig = McConfig()) -> McEstimate:
    """MC estimate of I(X;Y) = E[log p(Y|X) - log p(Y)] (nats)."""
    def stats(idx, noise, y, logw):
        # log p(y|x_true) - log p(y); the Gaussian normalizer cancels.
        ll_true = -0.5 * np.einsum("nl,nl->n", noise, noise)
        return ll_true - logsumexp(logw, axis=1)

    return McEstimate.of(np.concatenate(_atom_mc_sweep(model, mc, stats)))


def _posterior_cov_sums(model: VectorChannelModel, mc: McConfig):
    """Sums over MC draws of Cov(X | Y) (K x K), of g gᵀ (L x L) and of |g|²,
    where g = A X̂ - y is the score of p_Y at the draw (A = H S)."""
    eff = model.effective_matrix
    points = model.input.points

    def stats(idx, noise, y, logw):
        w = _normalized(logw)
        mean = w @ points                                   # (n, K)
        dev = points[None, :, :] - mean[:, None, :]
        g = mean @ eff.T - y
        return (np.einsum("nk,nki,nkj->ij", w, dev, dev), g.T @ g,
                float(np.einsum("nl,nl->", g, g)))

    cov, outer, sq = zip(*_atom_mc_sweep(model, mc, stats))
    return sum(cov), sum(outer), sum(sq)


def fisher_matrix(model: VectorChannelModel, mc: McConfig = McConfig()) -> FisherMatrix:
    """Fisher matrix of p_Y by (a) I - A Cov(X - X̂) Aᵀ and (b) E[score scoreᵀ]."""
    eff = model.effective_matrix
    l_dim = eff.shape[0]
    if isinstance(model.input, GaussianVec):
        cov_y = np.eye(l_dim) + eff @ model.input.cov @ eff.T
        j = np.linalg.inv(cov_y)
        return FisherMatrix(j, j, 0.0)
    cov_sum, score_sum, score_sq = _posterior_cov_sums(model, mc)
    n = mc.n_paths
    j_cov = np.eye(l_dim) - eff @ (cov_sum / n) @ eff.T
    j_score = score_sum / n
    se = np.sqrt(max(score_sq / n, 1.0)) / np.sqrt(n)
    return FisherMatrix(j_cov, j_score, float(se))


# ---------------------------------------------------------------------------
# Identity checks
# ---------------------------------------------------------------------------

def verify_immse_vector(model: VectorChannelModel) -> Report:
    """Gaussian-input vector identity dI/dsnr = 0.5 * mmse(H X), to 1e-7."""
    s = model.common_snr
    fd = fd_derivative(
        lambda g: gaussian_mi(model.with_snr(np.full_like(model.snr_diag, g))), s)
    report = Report("immse-vector")
    report.add(f"dI/dsnr vs mmse/2 at snr={s:g}", fd, 0.5 * gaussian_mmse(model),
               1e-7)
    return report


def _mi_value(model: VectorChannelModel, mc: McConfig) -> tuple:
    if isinstance(model.input, GaussianVec):
        return gaussian_mi(model), 0.0
    est = atom_mi(model, mc)
    return est.value, est.se


def de_bruijn_check(model: VectorChannelModel, snr: float,
                    mc: McConfig = McConfig()) -> Report:
    """Entropy derivative identity in noise scale t = 1/snr.

    With h(t) the entropy of H X + sqrt(t) N, checks dh/dt = 0.5 tr J(t)
    where J(t) = snr * J(Y) is the Fisher matrix at noise scale t.  h is
    recovered from I(X;Y) as h = I - (L/2) log(snr / (2 pi e)); mutual
    informations at the displaced t points share MC draws (common random
    numbers).
    """
    if snr <= 0:
        raise ValueError("de_bruijn_check requires snr > 0")
    l_dim = model.H.shape[0]
    t = 1.0 / snr

    def entropy_at(tv: float, seed: int) -> float:
        s = 1.0 / tv
        m = model.with_snr(np.full(model.H.shape[1], s))
        mi, _ = _mi_value(m, McConfig(seed=seed, n_paths=mc.n_paths))
        return mi - 0.5 * l_dim * np.log(s / (2.0 * np.pi * np.e))

    fd = fd_difference(lambda tv: entropy_at(tv, mc.seed), t)
    base = model.with_snr(np.full(model.H.shape[1], snr))
    fm = fisher_matrix(base, mc)
    rhs = 0.5 * snr * float(np.trace(fm.score_route))
    is_gaussian = isinstance(model.input, GaussianVec)
    tol = 1e-7 if is_gaussian else 3.0 * max(fm.se * l_dim * snr, 1e-4)
    report = Report("de-bruijn")
    report.add(f"dh/dt vs tr(J)/2 at snr={snr:g}", fd, rhs, tol)
    return report


def _posterior_cross_cov(model: VectorChannelModel, mc: McConfig) -> np.ndarray:
    """E_Y[Cov(X | Y)] (K x K) by exact posteriors per MC draw, or closed form."""
    if isinstance(model.input, GaussianVec):
        return gaussian_error_cov(model)
    return _posterior_cov_sums(model, mc)[0] / mc.n_paths


def multiuser_derivative(model: VectorChannelModel, k: int,
                         mc: McConfig = McConfig()) -> Report:
    """Per-user derivative: dI/dsnr_k vs the weighted posterior-covariance sum.

    RHS = 0.5 * sum_i sqrt(snr_i/snr_k) [HᵀH]_{ki} E[Cov(X_k, X_i | Y)].
    The finite difference on the LHS reuses the same seed at both displaced
    snr_k values (common random numbers).
    """
    s = model.snr_diag.copy()
    if s[k] <= 0:
        raise ValueError("multiuser_derivative requires snr_k > 0")

    def mi_at(sk: float) -> float:
        sd = s.copy()
        sd[k] = sk
        val, _ = _mi_value(model.with_snr(sd),
                           McConfig(seed=mc.seed, n_paths=mc.n_paths))
        return val

    lhs = fd_difference(mi_at, s[k])
    cov = _posterior_cross_cov(model, mc)
    hth = model.H.T @ model.H
    rhs = 0.5 * float(np.sum(np.sqrt(s / s[k]) * hth[k, :] * cov[k, :]))
    is_gaussian = isinstance(model.input, GaussianVec)
    tol = 1e-7 if is_gaussian else max(3.0 / np.sqrt(mc.n_paths), 1e-4)
    report = Report("multiuser-derivative")
    report.add(f"dI/dsnr_{k} vs posterior-covariance sum", lhs, rhs, tol)
    return report


def likelihood_lemmas_check(model: VectorChannelModel, y, snr: float) -> Report:
    """Score/conditional-mean lemmas for the likelihood ratio l(y) = p_Y/p_N.

    With Z = H S X (S = diag(sqrt(snr))): grad log l(y) = E[Z|Y=y];
    Laplacian log l = E[||Z||^2|y] - ||E[Z|y]||^2 - ... entrywise via the
    Hessian; and (Laplacian l)/l = E[...] relations, all checked against
    central finite differences of exactly computed l.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    model = model.with_snr(np.full(model.H.shape[1], snr))
    eff = model.effective_matrix
    l_dim = eff.shape[0]

    if isinstance(model.input, AtomSet):
        z_pts = model.input.points @ eff.T                 # (n_atoms, L)
        logp = np.log(model.input.probs)

        def log_l(pt):
            # log E_Z exp(yᵀZ - ||Z||²/2), exact for atoms.
            return float(logsumexp(logp + z_pts @ pt - 0.5 * np.sum(z_pts ** 2, axis=1)))

        def z_moments(pt):
            lw = logp + z_pts @ pt - 0.5 * np.sum(z_pts ** 2, axis=1)
            w = np.exp(lw - lw.max())
            w /= w.sum()
            zbar = w @ z_pts
            z2 = float(w @ np.sum(z_pts ** 2, axis=1))
            return zbar, z2
    elif isinstance(model.input, GaussianVec):
        cov_z = eff @ model.input.cov @ eff.T
        mean_z = eff @ model.input.mean
        cov_y = np.eye(l_dim) + cov_z
        chol = _checked_cholesky(cov_y)
        sign, logdet = np.linalg.slogdet(cov_y)

        def log_l(pt):
            # log p_Y - log p_N for Gaussian Z.
            quad_y = float(pt @ cho_solve(chol, pt - 2 * mean_z) + mean_z @ cho_solve(chol, mean_z))
            return -0.5 * logdet - 0.5 * quad_y + 0.5 * float(pt @ pt)

        def z_moments(pt):
            gain = cov_z @ np.linalg.inv(cov_y)
            zbar = mean_z + gain @ (pt - mean_z)
            post = cov_z - gain @ cov_z
            return zbar, float(zbar @ zbar + np.trace(post))
    else:
        raise TypeError("unsupported input")

    h = 1e-4 * (1.0 + np.linalg.norm(y))
    grad = np.zeros(l_dim)
    lap_logl = 0.0
    lap_l = 0.0
    f0 = log_l(y)
    for i in range(l_dim):
        e = np.zeros(l_dim)
        e[i] = h
        fp, fm = log_l(y + e), log_l(y - e)
        grad[i] = (fp - fm) / (2 * h)
        lap_logl += (fp - 2 * f0 + fm) / h ** 2
        lap_l += (np.exp(fp) - 2 * np.exp(f0) + np.exp(fm)) / h ** 2

    zbar, z2 = z_moments(y)
    report = Report("likelihood-lemmas")
    report.add("grad log l vs E[Z|Y]", float(np.linalg.norm(grad - zbar)), 0.0,
               1e-6)
    report.add("laplacian log l vs E||Z||^2 - ||E Z||^2",
               lap_logl, z2 - float(zbar @ zbar), 1e-4)
    report.add("(laplacian l)/l vs E||Z||^2", lap_l / np.exp(f0), z2,
               1e-4 * (1.0 + abs(z2)))
    return report
