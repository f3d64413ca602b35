"""Input distributions for the scalar channel Y = sqrt(snr)*X + N.

Four families are supported:

* ``DiscreteAtoms`` -- finitely many atoms with probabilities,
* ``Gaussian`` -- a single Gaussian component,
* ``GaussianMixture`` -- a finite mixture of Gaussians,
* ``GriddedDensity`` -- a piecewise-linear density tabulated on a grid.

``components`` views every law as a probability mixture of Gaussians, and the
scalar channel and its quadrature compute through that view only: atoms are
zero-variance components, and a gridded density is atoms at its grid points
with trapezoid weights scaled to sum to 1, so every sum over its components is
a trapezoid integral over the grid.  This module is the only one that knows
the gridded format.  Raw moments up to order four are exact (trapezoid, for
gridded laws); sampling is deterministic given a seed.  The first three
families are closed under convolution with a Gaussian: their output density
is an exact Gaussian mixture.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Union

import numpy as np

PROB_ATOL = 1e-12
PDF_ATOL = 1e-8


def require_finite(**values) -> None:
    """Raise ValueError naming the first argument that holds NaN or inf."""
    for name, value in values.items():
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite")


def require_snr(**values) -> None:
    """The package's one snr rule: each value finite and >= 0, elementwise."""
    for name, value in values.items():
        # one comparison passes a valid float (NaN fails it); arrays take numpy
        if not (isinstance(value, float) and 0.0 <= value < np.inf):
            require_finite(**{name: value})
            if np.any(np.asarray(value) < 0):
                raise ValueError(f"{name} must be nonnegative")


def require_probs(**values) -> None:
    """Each vector finite and nonnegative, summing to 1 within PROB_ATOL."""
    require_finite(**values)
    for name, p in values.items():
        if np.any(p < 0) or abs(np.sum(p) - 1.0) > PROB_ATOL:
            raise ValueError(f"{name} must be nonnegative and sum to 1")


@dataclass(frozen=True)
class Moments:
    """Raw moments of an input law: mean, central variance, E X^3, E X^4."""
    mean: float
    variance: float
    third: float
    fourth: float


@dataclass(frozen=True)
class DiscreteAtoms:
    """Finitely many atoms ``values`` with probabilities ``probs``."""
    values: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=float))
        if self.values.ndim != 1 or self.probs.shape != self.values.shape:
            raise ValueError("values and probs must be 1D arrays of equal length")
        require_finite(values=self.values)
        require_probs(probs=self.probs)


@dataclass(frozen=True)
class Gaussian:
    """Gaussian law N(mean, variance)."""
    mean: float
    variance: float

    def __post_init__(self):
        require_finite(mean=self.mean, variance=self.variance)
        if self.variance <= 0:
            raise ValueError("variance must be positive")


@dataclass(frozen=True)
class GaussianMixture:
    """Finite Gaussian mixture; components are (weight, mean, variance)."""
    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "means", np.asarray(self.means, dtype=float))
        object.__setattr__(self, "variances", np.asarray(self.variances, dtype=float))
        if not (self.weights.shape == self.means.shape == self.variances.shape):
            raise ValueError("weights, means, variances must have equal shapes")
        require_finite(means=self.means, variances=self.variances)
        require_probs(weights=self.weights)
        if np.any(self.variances <= 0):
            raise ValueError("component variances must be positive")


@dataclass(frozen=True)
class GriddedDensity:
    """Piecewise-linear density ``pdf`` on a strictly increasing ``grid``."""
    grid: np.ndarray
    pdf: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "grid", np.asarray(self.grid, dtype=float))
        object.__setattr__(self, "pdf", np.asarray(self.pdf, dtype=float))
        if self.grid.ndim != 1 or self.pdf.shape != self.grid.shape:
            raise ValueError("grid and pdf must be 1D arrays of equal length")
        require_finite(grid=self.grid, pdf=self.pdf)
        if self.grid.size < 2 or np.any(np.diff(self.grid) <= 0):
            raise ValueError("grid must be strictly increasing with >= 2 points")
        if np.any(self.pdf < 0):
            raise ValueError("pdf values must be nonnegative")
        if abs(np.trapezoid(self.pdf, self.grid) - 1.0) > PDF_ATOL:
            raise ValueError("gridded pdf must integrate to 1 within 1e-8 (trapezoid)")


InputLaw = Union[DiscreteAtoms, Gaussian, GaussianMixture, GriddedDensity]


def binary_law() -> DiscreteAtoms:
    """Equiprobable atoms at -1 and +1."""
    return DiscreteAtoms(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))


def standard_gaussian_law() -> Gaussian:
    return Gaussian(0.0, 1.0)


def gaussian_raw_moments(mean, var, order: int) -> list:
    """Raw moments E V^k, k = 0..order, of V ~ N(mean, var), elementwise over
    arrays, via the recursion M_k = mean*M_{k-1} + (k-1)*var*M_{k-2}."""
    out = [np.ones_like(mean), mean]
    for k in range(2, order + 1):
        out.append(mean * out[k - 1] + (k - 1) * var * out[k - 2])
    return out[: order + 1]


def components(law: InputLaw):
    """View ``law`` as a probability mixture of Gaussians: (weights, means,
    variances) arrays, the weights summing to 1.

    Atoms map to zero-variance components.  A gridded density maps to atoms
    at its grid points with trapezoid weights pdf_i * (h_{i-1} + h_i) / 2
    (h_i the grid spacings, zero beyond the ends) divided by their sum, which
    the constructor holds to 1 within 1e-8 only.
    """
    if isinstance(law, DiscreteAtoms):
        return law.probs, law.values, np.zeros_like(law.values)
    if isinstance(law, Gaussian):
        return (np.array([1.0]), np.array([law.mean]), np.array([law.variance]))
    if isinstance(law, GaussianMixture):
        return law.weights, law.means, law.variances
    if isinstance(law, GriddedDensity):
        h = np.diff(law.grid)
        span = np.concatenate(([0.0], h)) + np.concatenate((h, [0.0]))
        w = law.pdf * span
        return w / w.sum(), law.grid, np.zeros_like(law.grid)
    raise TypeError(f"unsupported law type: {type(law)!r}")


def moments(law: InputLaw) -> Moments:
    """Mean, variance and raw third/fourth moments of ``law``."""
    w, m, v = components(law)
    raw = [float(w @ mk) for mk in gaussian_raw_moments(m, v, 4)]
    mean = raw[1]
    # about the mean, so no term of size mean^2 cancels
    variance = float(w @ (v + (m - mean) ** 2))
    return Moments(mean=mean, variance=variance, third=raw[3], fourth=raw[4])


def variance(law: InputLaw) -> float:
    return moments(law).variance


def shift(law: InputLaw, c: float) -> InputLaw:
    """The law of X + c.  A finite shift keeps a valid law valid, so the copy
    is not checked again: the checks cost several times what the copy does."""
    out = copy.copy(law)
    name = {DiscreteAtoms: "values", Gaussian: "mean", GaussianMixture: "means",
            GriddedDensity: "grid"}[type(law)]
    object.__setattr__(out, name, getattr(law, name) + c)
    return out


def gaussian_components(law: InputLaw):
    """``components`` of the laws that are exact Gaussian mixtures.

    Returns None for gridded laws, whose atom view is a discretisation.
    """
    return None if isinstance(law, GriddedDensity) else components(law)


def convolve(law_a: InputLaw, law_b: InputLaw) -> InputLaw:
    """Law of X_A + X_B for independent inputs (mixture families only)."""
    ca = gaussian_components(law_a)
    cb = gaussian_components(law_b)
    if ca is None or cb is None:
        raise TypeError("convolve supports atom/Gaussian/mixture laws only")
    wa, ma, va = ca
    wb, mb, vb = cb
    w = np.outer(wa, wb).ravel()
    m = np.add.outer(ma, mb).ravel()
    v = np.add.outer(va, vb).ravel()
    # atoms have variance 0 and the other families positive variances, so v
    # is all 0 or all positive
    if np.all(v > 0):
        return GaussianMixture(w, m, v)
    return DiscreteAtoms(*_merge_atoms(m, w))


def _merge_atoms(values: np.ndarray, probs: np.ndarray):
    order = np.argsort(values)
    values, probs = values[order], probs[order]
    out_v, out_p = [values[0]], [probs[0]]
    for v, p in zip(values[1:], probs[1:]):
        if v - out_v[-1] < 1e-12:
            out_p[-1] += p
        else:
            out_v.append(v)
            out_p.append(p)
    return np.array(out_v), np.array(out_p)


def sample(law: InputLaw, seed: int, n: int) -> np.ndarray:
    """Draw ``n`` i.i.d. samples; deterministic given ``seed``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    return sample_with_rng(law, rng, n)


def sample_with_rng(law: InputLaw, rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` draws from ``rng``; a gridded law's from its continuous density."""
    comps = gaussian_components(law)
    if comps is None:
        return _sample_gridded(law, rng.random(n))
    w, m, v = comps
    # a one-component law draws no component index
    idx = rng.choice(w.size, size=n, p=w) if w.size > 1 else np.zeros(n, int)
    if np.any(v > 0):        # atoms draw no normals
        return m[idx] + np.sqrt(v[idx]) * rng.standard_normal(n)
    return m[idx]


def _sample_gridded(law: GriddedDensity, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF sampling for a piecewise-linear density.

    Within a cell [x0, x1] the pdf is linear, so the CDF is a quadratic that
    is inverted exactly per cell.
    """
    x, p = law.grid, law.pdf
    h = np.diff(x)
    cell_mass = 0.5 * (p[:-1] + p[1:]) * h
    cdf = np.concatenate([[0.0], np.cumsum(cell_mass)])
    total = cdf[-1]
    u = u * total
    k = np.clip(np.searchsorted(cdf, u, side="right") - 1, 0, h.size - 1)
    r = u - cdf[k]                      # mass to place inside cell k
    p0, p1, hk = p[k], p[k + 1], h[k]
    slope = (p1 - p0) / hk
    # the root in [0, hk] of 0.5*slope*t^2 + p0*t = r, in the form that is
    # stable for either sign of slope; t = 0 where p0 = 0 and r = 0
    denom = p0 + np.sqrt(np.maximum(p0 ** 2 + 2.0 * slope * r, 0.0))
    t = 2.0 * r / np.where(denom > 0, denom, np.inf)
    return x[k] + np.clip(t, 0.0, hk)
