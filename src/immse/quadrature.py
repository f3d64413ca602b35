"""Quadrature backbone: expectations over the channel output.

The central primitive is ``integrate_output(f, law, snr, spec)`` which
evaluates E[f(Y)] = ∫ f(y) p_Y(y) dy for Y = sqrt(snr)*X + N.  Every law is
seen as a Gaussian mixture (``laws.components``), so the output density is
sum_j w_j N(y; sqrt(snr)*m_j, 1 + snr*v_j).  The rule depends on the law type:

* atom / Gaussian / mixture laws: one Gauss-Hermite sum per component,
* gridded laws: composite 12-point Gauss-Legendre on a y-window around the
  output mean, against that density.  A gridded law has one component per
  grid point, so per-component Gauss-Hermite would evaluate f that many
  times more often.

Refinement doubles the rule's size (Gauss-Hermite order + 1, or the number of
y-panels) until two successive levels agree to ``adaptive_tol``;
NonConvergence is raised when the size cap is reached.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_hermite

from .errors import NonConvergence
from .laws import GriddedDensity, InputLaw, components, moments

Y_CHUNK = 2048


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for output-domain integration.

    hermite_order: starting Gauss-Hermite order (covers ~sqrt(2*order) output
        standard deviations per mixture component).
    adaptive_tol: absolute agreement target between refinement levels.
    y_cutoff: half-width, in output standard deviations, of the composite
        y-window used for gridded-density laws.
    """
    hermite_order: int = 127
    adaptive_tol: float = 1e-10
    y_cutoff: float = 12.0
    max_order: int = 2100

    def __post_init__(self):
        if self.hermite_order < 2:
            raise ValueError("hermite_order must be >= 2")
        if self.adaptive_tol <= 0:
            raise ValueError("adaptive_tol must be positive")


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo / SDE controls."""
    seed: int = 0
    n_paths: int = 100_000
    dt: float = 1e-3
    horizon: float = 10.0


@lru_cache(maxsize=64)
def gauss_hermite(order: int):
    """Nodes z and weights w with sum(w) = 1 so that E_{N(0,1)}[g] ≈ sum(w*g(z))."""
    x, w = roots_hermite(order)
    return np.sqrt(2.0) * x, w / np.sqrt(np.pi)


def normal_expectation(g, mean: float, var: float, order: int) -> float:
    """E[g(V)] for V ~ N(mean, var) by Gauss-Hermite at the given order."""
    z, w = gauss_hermite(order)
    return float(w @ g(mean + np.sqrt(var) * z))


def by_rows(fn, y: np.ndarray):
    """``fn(y)`` evaluated on blocks of at most Y_CHUNK outputs and joined.

    Per-component kernels build (y.size, n_components) arrays; blocking keeps
    them bounded for gridded laws, which have one component per grid point.
    ``fn`` returns an array, or a tuple of arrays, with one entry per y.
    """
    if y.size <= Y_CHUNK:
        return fn(y)
    parts = [fn(y[lo:lo + Y_CHUNK]) for lo in range(0, y.size, Y_CHUNK)]
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(col) for col in zip(*parts))
    return np.concatenate(parts)


def _hermite_rule(f, law: InputLaw, snr: float, size: int,
                  spec: QuadratureSpec) -> float:
    """Gauss-Hermite of order size - 1 under each mixture component."""
    root_snr = np.sqrt(snr)
    w, m, v = components(law)
    total = 0.0
    z, gw = gauss_hermite(size - 1)
    for wk, mk, vk in zip(w, m, v):
        if wk == 0.0:
            continue
        sd = np.sqrt(1.0 + snr * vk)
        total += wk * float(gw @ f(root_snr * mk + sd * z))
    return total


@lru_cache(maxsize=16)
def _gauss_legendre(order: int):
    return np.polynomial.legendre.leggauss(order)


def _output_density(law: InputLaw, snr: float, y: np.ndarray) -> np.ndarray:
    """p_Y(y) summed over the law's mixture components."""
    w, m, v = components(law)
    out_var = 1.0 + snr * v
    rs = np.sqrt(snr)

    def block(ys):
        kern = (np.exp(-0.5 * (ys[:, None] - rs * m[None, :]) ** 2 / out_var)
                / np.sqrt(2 * np.pi * out_var))
        return kern @ w

    return by_rows(block, y)


def _window_rule(f, law: InputLaw, snr: float, panels: int,
                 spec: QuadratureSpec) -> float:
    """E[f(Y)] = ∫ f(y) p_Y(y) dy on the y-window, composite 12-point Gauss-Legendre."""
    mom = moments(law)
    center = np.sqrt(snr) * mom.mean
    reach = spec.y_cutoff * np.sqrt(1.0 + snr * max(mom.variance, 0.0))
    edges = np.linspace(center - reach, center + reach, panels + 1)
    nodes, weights = _gauss_legendre(12)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    y = (mid[:, None] + half * nodes[None, :]).ravel()
    w = (half * np.broadcast_to(weights, (panels, weights.size))).ravel()
    dens = _output_density(law, snr, y)
    return float(np.sum(w * f(y) * dens))


def integrate_output(f, law: InputLaw, snr: float,
                     spec: QuadratureSpec = QuadratureSpec()) -> float:
    """E[f(Y)] for Y = sqrt(snr)*X + N, refined to spec.adaptive_tol.

    ``f`` must accept numpy arrays elementwise.
    """
    if snr < 0:
        raise ValueError("snr must be nonnegative")
    if isinstance(law, GriddedDensity):
        rule, size, cap = _window_rule, 64, 2048
    else:
        rule, size, cap = _hermite_rule, spec.hermite_order + 1, spec.max_order + 1
    prev = rule(f, law, snr, size, spec)
    while True:
        size *= 2
        if size > cap:
            raise NonConvergence(
                f"output quadrature stalled above tol={spec.adaptive_tol:g} "
                f"at size {size // 2} (panels, or Gauss-Hermite order + 1)")
        cur = rule(f, law, snr, size, spec)
        if abs(cur - prev) < spec.adaptive_tol:
            return cur
        prev = cur
