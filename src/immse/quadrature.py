"""Quadrature backbone: the package's rules for ∫ dy, ∫_0^snr and d/dsnr.

``integrate_output(g, law, snr)`` evaluates ∫ g(y) dy on panels placed for
the output Y = sqrt(snr)*X + N.  The integrand g carries the output density
itself (an expectation E[f(Y)] is handed over as f * p_Y; ``scalar`` builds
p_Y and the posterior from one kernel evaluation).  Every law is seen as a
Gaussian mixture (``laws.components``), so the output density is
sum_j w_j N(y; sqrt(snr)*m_j, 1 + snr*v_j), and one panel rule serves every
law.  Its panel edges come from the components of positive weight, with
output centres c_j and output standard deviations s_j:

* steps of s_j out to ``REACH`` of them around each c_j;
* between neighbouring centres c_i < c_j, where the posterior switches over
  a width w = s**2 / (c_j - c_i) (s the smaller sd; 1/(sqrt(snr)*dm) for
  atoms) narrower than s, the midpoint and edges at w * 2**k on either side
  of it, out to the two centres.  At high snr that is where the posterior
  variance, and so the MMSE, lives.

The edges are then thinned to the first one in each cell of the finest of
those scales, so a law with hundreds of atoms gets hundreds of panels, not
thousands.

``snr_integral(f, snr)`` evaluates ∫_0^snr f(g) dg on the one panel
[0, ln(1+snr)] in t = ln(1+g): an MMSE-like integrand falls like 1/(1+g), so
in t it is flat.  Both integrals are composite 12-point Gauss-Legendre,
halving every panel until two levels agree to ``REL_TOL * min(1, |value|)``:
absolute at 1e-10 for values of order one, relative below, where the MMSE at
high snr lives.  NonConvergence is raised after ``MAX_LEVELS`` halvings.

``fd_derivative`` is d/dsnr by one Richardson step on ``fd_difference``,
both with the one step ``FD_STEP * max(1, snr)``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence
from .laws import InputLaw, components, require_finite

Y_CHUNK = 1024
REACH = 12.0           # output standard deviations covered around each centre
REL_TOL = 1e-10
MAX_LEVELS = 6
FD_STEP = 1e-4         # d/dsnr step, relative above snr 1, absolute below
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

    def __post_init__(self):
        require_finite(dt=self.dt, horizon=self.horizon)
        if self.n_paths < 1 or self.dt <= 0 or self.horizon <= 0:
            raise ValueError("McConfig needs n_paths >= 1, dt > 0 and horizon > 0")


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


def _gauss_legendre(g, edges: np.ndarray, what: str) -> float:
    """∫ g over the panels by the refinement of the module docstring."""
    def level(e):
        mid, half = 0.5 * (e[:-1] + e[1:]), 0.5 * np.diff(e)
        x = (mid[:, None] + half[:, None] * _GL_NODES).ravel()
        return float(np.sum((half[:, None] * _GL_WEIGHTS).ravel() * g(x)))

    prev = level(edges)
    for _ in range(MAX_LEVELS):
        edges = np.sort(np.concatenate((edges, 0.5 * (edges[:-1] + edges[1:]))))
        cur = level(edges)
        if abs(cur - prev) <= max(REL_TOL * min(1.0, abs(cur)), _TINY):
            return cur
        prev = cur
    raise NonConvergence(
        f"{what} stalled above rel_tol={REL_TOL:g} after "
        f"{MAX_LEVELS} halvings ({edges.size - 1} panels)")


def integrate_output(g, law: InputLaw, snr: float) -> float:
    """∫ g(y) dy over the panels placed for ``law`` at ``snr``, refined to
    REL_TOL * min(1, |value|).

    ``g`` must accept numpy arrays elementwise and carries the output density
    itself: for E[f(Y)] it is f * p_Y.
    """
    if snr < 0:
        raise ValueError("snr must be nonnegative")
    return _gauss_legendre(g, _panel_edges(law, snr), "output quadrature")


def snr_integral(f, snr: float) -> float:
    """∫_0^snr f(g) dg, in t = ln(1 + g); ``f`` takes one float snr."""
    if snr < 0:
        raise ValueError("snr must be nonnegative")

    def in_t(t):
        g = np.expm1(t)
        return np.array([f(float(x)) for x in g]) * (1.0 + g)

    return _gauss_legendre(in_t, np.array([0.0, np.log1p(snr)]), "snr integral")


def _difference(f, snr: float, d: float, central: bool) -> float:
    if central:
        hi, lo = snr + d, snr - d
        return (f(hi) - f(lo)) / (hi - lo)
    return (-3.0 * f(snr) + 4.0 * f(snr + d) - f(snr + 2.0 * d)) / (2.0 * d)


def _step(snr: float):
    """The step d = FD_STEP * max(1, snr), and whether snr - d >= 0 leaves
    room for a central difference."""
    d = FD_STEP * max(1.0, snr)
    return d, snr - d >= 0


def fd_difference(f, snr: float) -> float:
    """df/dsnr to second order in the step d of ``_step``: central where
    snr - d >= 0, divided by the two points' distance as rounded, else
    (-3 f(snr) + 4 f(snr + d) - f(snr + 2d)) / (2d)."""
    return _difference(f, snr, *_step(snr))


def fd_derivative(f, snr: float) -> float:
    """df/dsnr as (4 D(d/2) - D(d)) / 3, which cancels the d**2 error of D,
    the rule of ``fd_difference``; D is central or one-sided at both steps."""
    d, central = _step(snr)
    return (4.0 * _difference(f, snr, 0.5 * d, central)
            - _difference(f, snr, d, central)) / 3.0
