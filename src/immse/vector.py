"""The vector Gaussian channel Y = H S X + N with S = diag(sqrt(snr_k)).

Gaussian inputs get closed forms, from one Cholesky factor of Cov Y and a
square-root posterior covariance with no Σ⁻¹; discrete atom sets get Monte
Carlo engines with the exact posterior per sampled output from one kernel:
with centres c_k = H S x_k, the log-weights y·c_k + log p_k - ||c_k||²/2 -
||y||²/2 are one matrix product per block of draws, one max/exp/sum gives
the weights and log p_Y(y), and each engine's statistic is a matrix product
of the weights.  Verification helpers cover the vector derivative identity
dI/dsnr = mmse/2, the entropy/Fisher (de Bruijn) link, per-user snr
derivatives, and the likelihood-ratio lemmas tying the score to the
conditional mean.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np
from scipy.linalg import cho_factor, cho_solve, lapack, solve_triangular
from scipy.spatial.distance import cdist

from .laws import require_finite, require_probs, require_snr
from .quadrature import McConfig, draw_thread, fd_derivative, fd_difference
from .report import Report
from .scalar import McEstimate

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
        require_finite(points=self.points)
        require_probs(probs=self.probs)
        if self.points.shape[0] > 2 ** 16:
            raise ValueError("atom sets limited to 2^16 points")


@dataclass(frozen=True)
class GaussianVec:
    """Gaussian input N(mean, cov) on R^K, cov symmetric positive semidefinite."""
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "cov", np.asarray(self.cov, dtype=float))
        require_finite(mean=self.mean, cov=self.cov)
        k = self.mean.size
        if self.mean.ndim != 1 or k == 0:
            raise ValueError("mean must be a nonempty 1-d vector")
        if self.cov.shape != (k, k):
            raise ValueError(f"cov must be {k}x{k}, as mean has length {k}")
        if not np.allclose(self.cov, self.cov.T, atol=1e-12):
            raise ValueError("cov must be symmetric")
        eig = np.linalg.eigvalsh(self.cov)
        if eig[0] < -1e-12 * max(eig[-1], 1.0):
            raise ValueError(f"cov must be positive semidefinite (eigenvalue {eig[0]:.3g})")


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
        require_finite(H=self.H)
        if 0 in self.H.shape:
            raise ValueError(f"H must have a row and a column, not shape {self.H.shape}")
        require_snr(snr_diag=self.snr_diag)
        if not isinstance(self.input, (AtomSet, GaussianVec)):
            raise TypeError("input must be an AtomSet or a GaussianVec")
        x = self.input.points if isinstance(self.input, AtomSet) else self.input.mean
        if x.shape[-1] != self.H.shape[1]:
            raise ValueError("input dimension does not match H columns")

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


# ---------------------------------------------------------------------------
# Gaussian closed forms
# ---------------------------------------------------------------------------

def _gaussian_output(model: VectorChannelModel):
    """E Z, cho_factor(Cov Y) and 0.5 logdet Cov Y (the sum of the logs of the
    factor's diagonal), with Cov Y = I + A Σ Aᵀ, for Z = A X and A = H S.
    GaussianVec holds Σ ⪰ 0, so Cov Y ⪰ I and the factorization succeeds."""
    if not isinstance(model.input, GaussianVec):
        raise TypeError("requires a Gaussian input")
    a = model.effective_matrix
    chol = cho_factor(np.eye(a.shape[0]) + a @ model.input.cov @ a.T)
    return a @ model.input.mean, chol, float(np.sum(np.log(np.diag(chol[0]))))


def gaussian_mi(model: VectorChannelModel) -> float:
    """I(X;Y) = 0.5 logdet(I + A Σ Aᵀ) nats, with A = H S."""
    return _gaussian_output(model)[2]


def gaussian_error_cov(model: VectorChannelModel) -> np.ndarray:
    """Posterior covariance of X given Y: L (I + BᵀB)⁻¹ Lᵀ = GᵀG, with Σ = L Lᵀ
    by pivoted Cholesky (L is K x rank), B = A L, A = H S, Rᵀ R = I + BᵀB from
    the QR of [B; I] and G = R⁻ᵀ Lᵀ.  It takes no Σ⁻¹, so Σ may be singular
    (even 0), and no term of size snr cancels, so it keeps its digits."""
    if not isinstance(model.input, GaussianVec):
        raise TypeError("requires a Gaussian input")
    c, piv, rank, _ = lapack.dpstrf(model.input.cov, lower=1)
    chol = np.empty((c.shape[0], rank))
    chol[piv - 1] = np.tril(c)[:, :rank]    # dpstrf leaves the rest of c as it was
    b = model.effective_matrix @ chol
    r = np.linalg.qr(np.vstack([b, np.eye(rank)]), mode="r")
    g = solve_triangular(r, chol.T, trans="T")
    return g.T @ g


def gaussian_mmse(model: VectorChannelModel) -> float:
    """MMSE in estimating H X: tr(H E Hᵀ), E from ``gaussian_error_cov``."""
    model.common_snr    # enforce a single snr for the H X target
    err = gaussian_error_cov(model)
    return float(np.trace(model.H @ err @ model.H.T))


# ---------------------------------------------------------------------------
# Atom-set Monte Carlo engines
# ---------------------------------------------------------------------------

def _atom_centers(model: VectorChannelModel):
    """Centres c_k = H S x_k (n_atoms, L) and log p_k - ||c_k||²/2."""
    centers = model.input.points @ model.effective_matrix.T
    with np.errstate(divide="ignore"):
        return centers, np.log(model.input.probs) - 0.5 * np.einsum(
            "kl,kl->k", centers, centers)


def _atom_posterior(y: np.ndarray, centers: np.ndarray, const: np.ndarray):
    """Posterior weights (n, n_atoms) and log p_Y(y) + (L/2) ln 2π per row of
    y.  Built atom-major, so that the max and the sum run along rows."""
    w = centers @ y.T                                       # (n_atoms, n)
    w += const[:, None]
    top = w.max(axis=0)
    w -= top
    np.exp(w, out=w)
    total = w.sum(axis=0)
    w /= total
    return w.T, top + np.log(total) - 0.5 * np.einsum("nl,nl->n", y, y)


def _atom_mc_sweep(model: VectorChannelModel, mc: McConfig, stats_fn) -> list:
    """Stream MC draws of (X, N); return stats_fn(noise, y, w, log p_Y) for
    each block.  A block holds at most 2^20 posterior weights.

    One block is in flight: the helper thread (``draw_thread``) draws block
    b + 1, its atoms, its normals and y, while this thread runs the kernel
    and ``stats_fn`` on block b.  The draws are submitted in block order and
    only the helper reads the generator, so the results equal a one-thread
    sweep's bit for bit, and they are returned in block order."""
    atoms = model.input
    if not isinstance(atoms, AtomSet):
        raise TypeError("atom engines require an AtomSet input")
    rng = np.random.default_rng(mc.seed)
    centers, const = _atom_centers(model)
    rows = min(MC_CHUNK, 2 ** 20 // atoms.probs.size)
    sizes = [min(rows, mc.n_paths - start) for start in range(0, mc.n_paths, rows)]

    def draw(n):
        idx = rng.choice(atoms.probs.size, size=n, p=atoms.probs)
        noise = rng.standard_normal((n, centers.shape[1]))
        return noise, centers[idx] + noise

    out = []
    with draw_thread() as helper:
        pending = helper.submit(draw, sizes[0])
        for b in range(len(sizes)):
            noise, y = pending.result()
            if b + 1 < len(sizes):
                pending = helper.submit(draw, sizes[b + 1])
            out.append(stats_fn(noise, y, *_atom_posterior(y, centers, const)))
    return out


def atom_mmse(model: VectorChannelModel, mc: McConfig = McConfig()) -> McEstimate:
    """MC estimate of E ||H X - E[H X | Y]||^2 with exact per-draw posteriors.

    Each draw's variance is taken about its most probable centre c = hx_j,
    sum_k w_k ||hx_k - c||^2 - ||w·hx - c||^2, with the squared distances
    ||hx_k - c||^2 taken directly (a block of them is the size of w): the
    j term is exactly 0, so no O(||hx||^2) terms cancel and a variance far
    below 1e-16 ||hx||^2 keeps its digits."""
    hx = model.input.points @ model.H.T                     # (n_atoms, L)

    def stats(noise, y, w, logp):
        c = hx[w.argmax(axis=1)]                            # (n, L)
        mean = w @ hx - c
        return (np.einsum("nk,nk->n", w, cdist(c, hx, "sqeuclidean"))
                - np.einsum("nl,nl->n", mean, mean))

    return McEstimate.of(np.concatenate(_atom_mc_sweep(model, mc, stats)))


def atom_mi(model: VectorChannelModel, mc: McConfig = McConfig()) -> McEstimate:
    """MC estimate of I(X;Y) = E[log p(Y|X) - log p(Y)] (nats)."""
    def stats(noise, y, w, logp):
        # log p(y|x_true) - log p(y); the Gaussian normalizer cancels.
        return -0.5 * np.einsum("nl,nl->n", noise, noise) - logp

    return McEstimate.of(np.concatenate(_atom_mc_sweep(model, mc, stats)))


def _posterior_cov_sums(model: VectorChannelModel, mc: McConfig):
    """Sums over MC draws of Cov(X | Y) (K x K), of g gᵀ (L x L) and of |g|²,
    where g = A X̂ - y is the score of p_Y at the draw (A = H S).  The first is
    Pᵀ diag(Σₙ wₙ) P - MᵀM, with P the atoms and M the posterior means."""
    eff = model.effective_matrix
    points = model.input.points

    def stats(noise, y, w, logp):
        mean = w @ points                                   # (n, K)
        g = mean @ eff.T - y
        return ((points * w.sum(axis=0)[:, None]).T @ points - mean.T @ mean,
                g.T @ g, float(np.einsum("nl,nl->", g, g)))

    cov, outer, sq = zip(*_atom_mc_sweep(model, mc, stats))
    return sum(cov), sum(outer), sum(sq)


def fisher_matrix(model: VectorChannelModel, mc: McConfig = McConfig()) -> FisherMatrix:
    """Fisher matrix of p_Y by (a) I - A Cov(X - X̂) Aᵀ and (b) E[score scoreᵀ]."""
    eff = model.effective_matrix
    l_dim = eff.shape[0]
    if isinstance(model.input, GaussianVec):
        j = cho_solve(_gaussian_output(model)[1], np.eye(l_dim))
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
    fd = fd_derivative(lambda g: gaussian_mi(model.with_snr(g)), s)
    report = Report("immse-vector")
    report.add(f"dI/dsnr vs mmse/2 at snr={s:g}", fd, 0.5 * gaussian_mmse(model),
               1e-7)
    return report


def _mi_value(model: VectorChannelModel, mc: McConfig) -> float:
    if isinstance(model.input, GaussianVec):
        return gaussian_mi(model)
    return atom_mi(model, mc).value


def de_bruijn_check(model: VectorChannelModel, snr: float,
                    mc: McConfig = McConfig()) -> Report:
    """Entropy derivative identity in noise scale t = 1/snr.

    With h(t) the entropy of H X + sqrt(t) N, checks dh/dt = 0.5 tr J(t)
    where J(t) = snr * J(Y) is the Fisher matrix at noise scale t.  h is
    recovered from I(X;Y) as h = I - (L/2) log(snr / (2 pi e)); mutual
    informations at the displaced t points share MC draws (common random
    numbers).
    """
    require_snr(snr=snr)
    if snr <= 0:
        raise ValueError("de_bruijn_check requires snr > 0")
    l_dim = model.H.shape[0]
    t = 1.0 / snr

    def entropy_at(tv: float) -> float:
        s = 1.0 / tv
        mi = _mi_value(model.with_snr(s), mc)
        return mi - 0.5 * l_dim * np.log(s / (2.0 * np.pi * np.e))

    fd = fd_difference(entropy_at, t)
    fm = fisher_matrix(model.with_snr(snr), mc)
    rhs = 0.5 * snr * float(np.trace(fm.score_route))
    is_gaussian = isinstance(model.input, GaussianVec)
    tol = 1e-7 if is_gaussian else 3.0 * max(fm.se * l_dim * snr, 1e-4)
    report = Report("de-bruijn")
    report.add(f"dh/dt vs tr(J)/2 at snr={snr:g}", fd, rhs, tol)
    return report


def multiuser_derivative(model: VectorChannelModel, k: int,
                         mc: McConfig = McConfig()) -> Report:
    """Per-user derivative: dI/dsnr_k vs the weighted posterior-covariance sum.

    RHS = 0.5 * sum_i sqrt(snr_i/snr_k) [HᵀH]_{ki} E[Cov(X_k, X_i | Y)].
    The finite difference on the LHS reuses the same seed at both displaced
    snr_k values (common random numbers).
    """
    s = model.snr_diag.copy()
    if not (isinstance(k, (int, np.integer)) and 0 <= k < s.size):
        raise ValueError(f"k must be an integer in [0, {s.size}), not {k!r}")
    if s[k] <= 0:
        raise ValueError("multiuser_derivative requires snr_k > 0")

    def mi_at(sk: float) -> float:
        sd = s.copy()
        sd[k] = sk
        return _mi_value(model.with_snr(sd), mc)

    lhs = fd_difference(mi_at, s[k])
    is_gaussian = isinstance(model.input, GaussianVec)
    # E_Y[Cov(X | Y)]: closed form, or exact posteriors per MC draw
    cov = (gaussian_error_cov(model) if is_gaussian
           else _posterior_cov_sums(model, mc)[0] / mc.n_paths)
    hth = model.H.T @ model.H
    rhs = 0.5 * float(np.sum(np.sqrt(s / s[k]) * hth[k, :] * cov[k, :]))
    tol = 1e-7 if is_gaussian else max(3.0 / np.sqrt(mc.n_paths), 1e-4)
    report = Report("multiuser-derivative")
    report.add(f"dI/dsnr_{k} vs posterior-covariance sum", lhs, rhs, tol)
    return report


def likelihood_lemmas_check(model: VectorChannelModel, y, snr: float) -> Report:
    """Score/conditional-mean lemmas for the likelihood ratio l(y) = p_Y/p_N.

    With Z = H S X (S = diag(sqrt(snr))), three identities at y, each against
    central finite differences of exactly computed l: grad log l = E[Z|Y=y];
    Laplacian log l = E[||Z||^2|y] - ||E[Z|y]||^2, the trace of Cov(Z|y);
    and (Laplacian l)/l = E[||Z||^2|y].
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    model = model.with_snr(snr)
    l_dim = model.H.shape[0]

    if isinstance(model.input, AtomSet):
        z_pts, const = _atom_centers(model)

        def log_l(pt):
            # log E_Z exp(yᵀZ - ||Z||²/2) = log p_Y(y) + ||y||²/2 + (L/2) ln 2π
            return float(_atom_posterior(pt[None, :], z_pts, const)[1][0] + 0.5 * pt @ pt)

        def z_moments(pt):
            w = _atom_posterior(pt[None, :], z_pts, const)[0][0]
            return w @ z_pts, float(w @ np.einsum("kl,kl->k", z_pts, z_pts))
    else:
        mean_z, chol, half_logdet = _gaussian_output(model)
        # Cov(Z|y) = Cov Z - Cov Z Cov Y⁻¹ Cov Z = I - Cov Y⁻¹ cancels nothing
        trace_post = l_dim - np.trace(cho_solve(chol, np.eye(l_dim)))

        def log_l(pt):
            # log p_Y - log p_N for Gaussian Z.
            d = pt - mean_z
            return float(0.5 * pt @ pt - 0.5 * d @ cho_solve(chol, d)) - half_logdet

        def z_moments(pt):
            zbar = pt - cho_solve(chol, pt - mean_z)    # y + grad log p_Y(y)
            return zbar, float(zbar @ zbar + trace_post)

    h = 1e-4 * (1.0 + np.linalg.norm(y))
    grad = np.zeros(l_dim)
    lap_logl = lap_l = 0.0
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
