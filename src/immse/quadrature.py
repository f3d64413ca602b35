"""Quadrature backbone: expectations over the channel output.

The central primitive is ``integrate_output(f, law, snr)`` which evaluates
E[f(Y)] = ∫ f(y) p_Y(y) dy for Y = sqrt(snr)*X + N.  Every law is seen as a
Gaussian mixture (``laws.components``), so the output density is
sum_j w_j N(y; sqrt(snr)*m_j, 1 + snr*v_j), and one rule serves every law:
composite 12-point Gauss-Legendre on y against that density.

The panel edges come from the components of positive weight, with output
centres c_j and output standard deviations s_j:

* steps of s_j out to ``REACH`` of them around each c_j;
* between neighbouring centres c_i < c_j, where the posterior switches over
  a width w = s**2 / (c_j - c_i) (s the smaller sd; 1/(sqrt(snr)*dm) for
  atoms) narrower than s, the midpoint and edges at w * 2**k on either side
  of it, out to the two centres.  At high snr that is where the posterior
  variance, and so the MMSE, lives.

The edges are then thinned to the first one in each cell of the finest of
those scales, so a law with hundreds of atoms gets hundreds of panels, not
thousands.

Refinement halves every panel until two levels agree to
``REL_TOL * min(1, |value|)``: absolute at 1e-10 for values of order one,
relative below, where the MMSE at high snr lives.  NonConvergence is raised
after ``MAX_LEVELS`` halvings.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_hermite

from .errors import NonConvergence
from .laws import InputLaw, components

Y_CHUNK = 1024
REACH = 12.0           # output standard deviations covered around each centre
REL_TOL = 1e-10
MAX_LEVELS = 6
# below the smallest normal double, two levels cannot agree to REL_TOL
_TINY = np.finfo(float).tiny
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


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


def _panel_edges(law: InputLaw, snr: float) -> np.ndarray:
    """Sorted panel edges placed from the law's components (module docstring)."""
    w, m, v = components(law)
    pos = w > 0
    centre = np.sqrt(snr) * m[pos]
    sd = np.sqrt(1.0 + snr * v[pos])
    steps = np.arange(-REACH, REACH + 1.0)
    edges = [(centre[:, None] + sd[:, None] * steps).ravel()]
    order = np.argsort(centre)
    c, s = centre[order], sd[order]
    gap = np.diff(c)
    s_pair = np.minimum(s[:-1], s[1:])
    sharp = gap > s_pair                # switch width s**2 / gap below s
    finest = s.min()
    if np.any(sharp):
        width, half_gap = s_pair[sharp] ** 2 / gap[sharp], 0.5 * gap[sharp]
        mid = 0.5 * (c[:-1] + c[1:])[sharp]
        k = np.arange(np.ceil(np.log2(half_gap / width).max()))
        offs = width[:, None] * 2.0 ** k
        offs = np.where(offs < half_gap[:, None], offs, 0.0)
        edges += [mid, (mid[:, None] + offs).ravel(), (mid[:, None] - offs).ravel()]
        finest = min(finest, width.min())
    e = np.sort(np.concatenate(edges))
    cell = np.floor(e / finest)
    first = np.concatenate(([True], cell[1:] != cell[:-1]))
    return np.unique(np.append(e[first], e[-1]))


def _panel_sum(f, law: InputLaw, snr: float, edges: np.ndarray) -> float:
    """Composite 12-point Gauss-Legendre of f * p_Y over the panels."""
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    y = (mid[:, None] + half[:, None] * _GL_NODES).ravel()
    wy = (half[:, None] * _GL_WEIGHTS).ravel()
    return float(np.sum(wy * f(y) * _output_density(law, snr, y)))


def integrate_output(f, law: InputLaw, snr: float) -> float:
    """E[f(Y)] for Y = sqrt(snr)*X + N, refined to REL_TOL * min(1, |value|).

    ``f`` must accept numpy arrays elementwise.
    """
    if snr < 0:
        raise ValueError("snr must be nonnegative")
    edges = _panel_edges(law, snr)
    prev = _panel_sum(f, law, snr, edges)
    for _ in range(MAX_LEVELS):
        edges = np.sort(np.concatenate((edges, 0.5 * (edges[:-1] + edges[1:]))))
        cur = _panel_sum(f, law, snr, edges)
        if abs(cur - prev) <= max(REL_TOL * min(1.0, abs(cur)), _TINY):
            return cur
        prev = cur
    raise NonConvergence(
        f"output quadrature stalled above rel_tol={REL_TOL:g} after "
        f"{MAX_LEVELS} halvings ({edges.size - 1} panels)")
