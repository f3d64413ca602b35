"""Discrete-time channel Y_i = sqrt(snr) * X_i + N_i for stationary AR(1) inputs.

The input is the Gauss-Markov process X_{i+1} = a X_i + W_i with innovation
variance 1 - a^2 (stationary variance 1).  Everything here is exact linear
algebra: Kalman filter / predictor / fixed-interval smoother error variances,
the block mutual information 0.5 logdet(I + snr * Sigma), the per-index
derivative identity dI/dsnr = 0.5 * sum_i mmse_i, and the sandwich bounds
(snr/2) sum cmmse_i <= I <= (snr/2) sum pmmse_i.  Dense conditioning and
the block MI are ``vector``'s Gaussian routes on the channel with H = I.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import vector
from .laws import require_snr
from .quadrature import fd_derivative
from .report import Report


@dataclass(frozen=True)
class ARProcess:
    """Stationary AR(1) input: coefficient a (|a| < 1), horizon n."""
    a: float
    n: int

    def __post_init__(self):
        if not abs(self.a) < 1:
            raise ValueError("AR coefficient must satisfy |a| < 1")
        if not float(self.n).is_integer():
            raise ValueError(f"horizon must be a whole number, not {self.n!r}")
        if self.n < 1:
            raise ValueError("horizon must be >= 1")
        object.__setattr__(self, "n", int(self.n))

    def covariance(self) -> np.ndarray:
        """Toeplitz stationary covariance a^|i-j| (unit variance)."""
        idx = np.arange(self.n)
        return self.a ** np.abs(idx[:, None] - idx[None, :])


@dataclass(frozen=True)
class MmseTriple:
    """Per-index filtering, prediction, and smoothing error variances."""
    cmmse: np.ndarray
    pmmse: np.ndarray
    mmse: np.ndarray


def kalman_triple(p: ARProcess, snr: float) -> MmseTriple:
    """Error variances of predictor, filter and fixed-interval smoother.

    Scalar state-space recursions: prediction variance starts at the
    stationary value 1; the smoother runs the standard backward variance
    sweep.
    """
    require_snr(snr=snr)
    a, n = p.a, p.n
    q = 1.0 - a * a
    p_pred = np.empty(n)
    p_filt = np.empty(n)
    p_pred[0] = 1.0
    for i in range(n):
        p_filt[i] = p_pred[i] / (1.0 + snr * p_pred[i])
        if i + 1 < n:
            p_pred[i + 1] = a * a * p_filt[i] + q
    p_sm = np.empty(n)
    p_sm[-1] = p_filt[-1]
    for i in range(n - 2, -1, -1):
        c = a * p_filt[i] / p_pred[i + 1]
        p_sm[i] = p_filt[i] + c * c * (p_sm[i + 1] - p_pred[i + 1])
    return MmseTriple(cmmse=p_filt, pmmse=p_pred, mmse=p_sm)


def _block(p: ARProcess, snr: float) -> vector.VectorChannelModel:
    """The block X^n -> Y^n as the vector channel with H = I."""
    require_snr(snr=snr)
    gauss = vector.GaussianVec(np.zeros(p.n), p.covariance())
    return vector.VectorChannelModel(np.eye(p.n), gauss, snr)


def dense_smoother_mmse(p: ARProcess, snr: float) -> np.ndarray:
    """Smoother error variances by direct joint-Gaussian conditioning: the
    diagonal of the block's posterior covariance.  O(n^3) oracle route."""
    return np.diag(vector.gaussian_error_cov(_block(p, snr))).copy()


def block_mi(p: ARProcess, snr: float) -> float:
    """I(X^n; Y^n) = 0.5 logdet(I + snr * Sigma) nats."""
    return vector.gaussian_mi(_block(p, snr))


def block_mi_eig(p: ARProcess, snr: float) -> float:
    """Eigenvalue route: 0.5 * sum log(1 + snr * lambda_i(Sigma))."""
    require_snr(snr=snr)
    lam = np.linalg.eigvalsh(p.covariance())
    return 0.5 * float(np.sum(np.log1p(snr * lam)))


def verify_corollary3(p: ARProcess, snr: float) -> Report:
    """dI/dsnr = 0.5 * sum of smoother error variances (finite difference)."""
    fd = fd_derivative(lambda g: block_mi(p, g), snr)
    rhs = 0.5 * float(np.sum(kalman_triple(p, snr).mmse))
    report = Report("corollary3-dt")
    report.add(f"dI/dsnr vs sum(mmse_i)/2 at a={p.a:g}, n={p.n}, snr={snr:g}",
               fd, rhs, 1e-6)
    return report


def verify_thm9(p: ARProcess, snr: float) -> Report:
    """(snr/2) sum cmmse_i <= I <= (snr/2) sum pmmse_i, exact arithmetic."""
    triple = kalman_triple(p, snr)
    mi = block_mi(p, snr)
    lower = 0.5 * snr * float(np.sum(triple.cmmse))
    upper = 0.5 * snr * float(np.sum(triple.pmmse))
    report = Report("thm9-sandwich")
    slack_lo, slack_hi = mi - lower, upper - mi
    report.add("lower bound slack (I - (snr/2) sum cmmse) >= 0",
               min(slack_lo, 0.0), 0.0, 1e-12)
    report.add("upper bound slack ((snr/2) sum pmmse - I) >= 0",
               min(slack_hi, 0.0), 0.0, 1e-12)
    report.notes = f"slack_lower={slack_lo:.6e}, slack_upper={slack_hi:.6e}"
    return report
