"""Quadrature backbone: the package's rules for ∫ dy, ∫_0^snr and d/dsnr.

``integrate_output(g, law, snr)`` evaluates ∫ g(y) dy on panels placed for
the output Y = sqrt(snr)*X + N.  The integrand g carries the output density
itself (an expectation E[f(Y)] is handed over as f * p_Y; ``scalar`` builds
p_Y and the posterior from one kernel evaluation).  Every law is seen as a
Gaussian mixture (``laws.components``), so the output density is
sum_j w_j N(y; sqrt(snr)*m_j, 1 + snr*v_j), and one panel rule serves every
law.  Its panel edges come from the components of positive weight, with
output centres c_j and output standard deviations s_j:

* steps of ``STEP`` s_j out to ``REACH`` of them around each c_j;
* between neighbouring centres c_i < c_j, where the posterior switches over
  a width w = s**2 / (c_j - c_i) (s the smaller sd; 1/(sqrt(snr)*dm) for
  atoms) narrower than s, the midpoint and edges at w * 2**k on either side
  of it, out to the two centres.  At high snr that is where the posterior
  variance, and so the MMSE, lives.

The edges are then thinned to the first one in each cell, and the last
edge, so a law with hundreds of atoms gets hundreds of panels, not
thousands.  When every s_j is the same s (atoms, gridded laws), a cell is
``STEP``/2 of s wide, the widest that never holds two of one centre's own
edges, which are ``STEP`` s apart.  Otherwise a cell is the smallest s_j
wide, so thinning moves an edge by less than the narrowest component's sd
and leaves none of its panels more than ``STEP`` + 1 of those sds wide.
Where a switch width w is narrower, the cells are w wide.

``snr_integral(f, snr)`` evaluates ∫_0^snr f(g) dg in t = ln(1+g), on
ceil(ln(1+snr) / ``T_PANEL``) equal panels of [0, ln(1+snr)], one at least:
an MMSE-like integrand falls like 1/(1+g), so in t it is flat, and panels of
a few e-folds of 1+g stay alike out to snr 1e4 and beyond.

The output quadrature uses the embedded 10-point Gauss / 21-point Kronrod
pair of QUADPACK's ``qk21`` (Piessens et al., 1983).  The snr integral, each
of whose nodes is a whole output quadrature, uses the 43-point rule of
Patterson's nested extension of K21 (Math. Comp. 22, 1968; the third rule of
QUADPACK's ``qng``), with K21 as its embedded rule.  ``tools/make_kronrod.py``
derives both tables in mpmath, K21 from G10 and K43 from K21.  Each level
evaluates the integrand once, on 21 (43) nodes per panel, and takes the
higher rule's sum.  The sum over panels of |K21 - G10| (|K43 - K21|) is the
level's error estimate; it stops when that is at most
``REL_TOL * min(1, |value|)``: absolute at 1e-10 above |value| = 1, relative
below, where the MMSE at high snr lives.  Otherwise every panel is
halved, and NonConvergence is raised after ``MAX_LEVELS`` halvings.  A
caller must therefore hand over an integral of order one or below: at
|value| = 1e6 the stop asks for 1e-16 relative, which no double reaches
(``ct.telegraph_mmse`` integrates a ratio for this reason).

``STEP`` = 3 is the widest whole number of sds at which the rule's own
error estimate on a lone Gaussian output stays well below ``REL_TOL``, so a
call refines only where the switch edges leave the posterior unresolved.
Summed |K21 - G10| over panels of one step across +-REACH sds of a unit
Gaussian phi, on phi and on the shapes of the Fisher-information (the score
squared, y**2 phi) and mutual-information (phi ln phi) integrands:

    ======  ========  ========  ==========
    step    phi       y**2 phi  phi ln phi
    ======  ========  ========  ==========
    1 sd    4.7e-17   1.1e-16   6.9e-17
    2 sd    1.5e-16   4.4e-16   1.6e-16
    3 sd    1.1e-12   1.7e-11   7.4e-12
    4 sd    1.4e-10   3.6e-9    1.7e-9
    ======  ========  ========  ==========

At 3 sd the estimate is at most REL_TOL/5 (and the Kronrod sum is far more
accurate than its estimate); at 4 sd it exceeds REL_TOL = 1e-10, so calls
would refine, and a refined call evaluates three times the nodes of its
first level.  ``REACH`` is a whole number of steps.

``T_PANEL`` = 4 is chosen in the same way: the widest whole number of
e-folds at which the first-level |K43 - K21|, relative to min(1, |value|),
of each MMSE integral of the benchmark's represent workload stays at most
REL_TOL/2, on panels that wide in t with the last one cut short:

    =====  =======  =======  =======  ============
    width  4-PAM    16-PAM   MIX2     uniform 201
    =====  =======  =======  =======  ============
    3      3.3e-12  4.1e-13  7.3e-13  3.9e-13
    4      3.6e-12  5.2e-12  8.4e-12  4.6e-12
    5      1.1e-9   9.7e-12  4.8e-11  2.8e-11
    =====  =======  =======  =======  ============

At width 5 the 4-PAM estimate exceeds REL_TOL.  The equal panels are at
most 4 wide; on them no snr integral of the benchmark refines, the largest
estimate being 2.8e-11 (the binary law's one panel, 3.93 wide).  Equal
panels rather than 0, 4, 8, ... keep a short last panel's 43 nodes off the
top of t, where each output quadrature costs most.

``fd_derivative`` is d/dsnr by one Richardson step on ``fd_difference``,
both with the one step ``FD_STEP * max(1, snr)``.

``draw_thread`` gives the Monte Carlo sweeps of ``ct`` and ``vector`` their
one helper thread, which draws ahead of the arithmetic.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence
from .laws import InputLaw, components, require_finite, require_snr

REACH = 12.0           # output standard deviations covered around each centre
STEP = 3.0             # output standard deviations per panel (module docstring)
T_PANEL = 4.0          # widest snr_integral panel, in ln(1 + snr) (module docstring)
REL_TOL = 1e-10
MAX_LEVELS = 6
FD_STEP = 1e-4         # d/dsnr step, relative above snr 1, absolute below
# below the smallest normal double, no error estimate meets REL_TOL * |value|
_TINY = np.finfo(float).tiny
# QUADPACK qk21 on [-1, 1]: Kronrod nodes from 1 down to 0, their weights, and
# the Gauss weights of the odd-numbered nodes, which are the 10-point rule's
_XK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077600525452698, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.zeros(11)
_WG[1::2] = [
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338]
# Patterson's 43-point extension of qk21 (tools/make_kronrod.py, which also
# gives back _XK and _WK from the 10-point Gauss rule): its 11 new nodes from 1
# down to 0, which interlace with _XK, and the weights of all 22 nodes so merged
_XP = np.array([
    0.999333360901932081394099323919911, 0.987433402908088869795961478381209,
    0.954807934814266299257919200290473, 0.900148695748328293625099494069092,
    0.825198314983114150847066732588520, 0.732148388989304982612354848755461,
    0.622847970537725238641159120344323, 0.499479574071056499952214885499755,
    0.364901661346580768043989548502644, 0.222254919776601296498260928066212,
    0.074650617461383322043914435796506])
_W43 = np.array([
    0.001844477640212414100389106552965, 0.005768556059769796184184327908655,
    0.010798689585891651740465406741293, 0.016296734289666564924281974617663,
    0.021895363867795428102523123075149, 0.027371890593248842081276069289151,
    0.032597463975345689443882222526137, 0.037522876120869501461613795898115,
    0.042163137935191811847627924327955, 0.046560826910428830743339154433824,
    0.050741939600184577780189020092084, 0.054694902058255442147212685465005,
    0.058379395542619248375475369330206, 0.061744995201442564496240336030883,
    0.064746404951445885544689259517511, 0.067355414609478086075553166302174,
    0.069566197912356484528633315038405, 0.071387267268693397768559114425516,
    0.072824441471833208150939535192842, 0.073870199632393953432140695251367,
    0.074507751014175118273571813842889, 0.074722147517403005594425168280423])
_X43, _W21_IN_43 = np.zeros(22), np.zeros(22)
_X43[0::2], _X43[1::2], _W21_IN_43[1::2] = _XP, _XK, _WK


def _rule(x, high, low):
    """(nodes, high weights, embedded low weights) on [-1, 1] from the
    positive halves, listed from the node nearest 1 down to 0."""
    def mirror(a):
        return np.concatenate((a, a[-2::-1]))
    return np.concatenate((-x, x[-2::-1])), mirror(high), mirror(low)


_K21 = _K21_NODES, _K21_WEIGHTS, _G10_WEIGHTS = _rule(_XK, _WK, _WG)
_K43 = _rule(_X43, _W43, _W21_IN_43)


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


@contextmanager
def draw_thread():
    """One helper thread that draws a sweep's random numbers ahead of the
    arithmetic.  A sweep submits every draw to it in stream order, and no
    other thread reads the generator while a draw is pending, so the
    numbers do not depend on the thread timing.  On exit the draws not yet
    started are cancelled and the thread is joined, so a failure stops the
    draws and leaves no thread behind."""
    pool = ThreadPoolExecutor(1)
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)


def _panel_edges(law: InputLaw, snr: float) -> np.ndarray:
    """Sorted panel edges placed from the law's components (module docstring)."""
    w, m, v = components(law)
    pos = w > 0
    centre = np.sqrt(snr) * m[pos]
    sd = np.sqrt(1.0 + snr * v[pos])
    steps = np.arange(-REACH, REACH + 0.5 * STEP, STEP)
    edges = [(centre[:, None] + sd[:, None] * steps).ravel()]
    order = np.argsort(centre)
    c, s = centre[order], sd[order]
    gap = np.diff(c)
    s_pair = np.minimum(s[:-1], s[1:])
    sharp = gap > s_pair                # switch width s**2 / gap below s
    finest = (0.5 * STEP if s.max() == s.min() else 1.0) * s.min()
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
    keep = np.concatenate(([True], cell[1:] != cell[:-1]))
    keep[:-1] &= e[:-1] < e[-1]     # the last edge once, not a repeat of it
    keep[-1] = True
    return e[keep]


def _gauss_kronrod(g, edges: np.ndarray, what: str, rule) -> float:
    """∫ g over the panels by the refinement of the module docstring, with
    ``rule`` = (nodes, high weights, embedded low weights) on [-1, 1]."""
    nodes, high, low = rule
    for _ in range(MAX_LEVELS + 1):
        mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
        x = (mid[:, None] + half[:, None] * nodes).ravel()
        f = g(x).reshape(mid.size, nodes.size) * half[:, None]
        value = float(np.sum(f @ high))
        err = float(np.sum(np.abs(f @ (high - low))))
        if err <= max(REL_TOL * min(1.0, abs(value)), _TINY):
            return value
        edges = np.sort(np.concatenate((edges, mid)))
    raise NonConvergence(
        f"{what} stalled above rel_tol={REL_TOL:g} after "
        f"{MAX_LEVELS} halvings ({mid.size} panels)")


def integrate_output(g, law: InputLaw, snr: float) -> float:
    """∫ g(y) dy over the panels placed for ``law`` at ``snr``, refined to
    REL_TOL * min(1, |value|).

    ``g`` must accept numpy arrays elementwise and carries the output density
    itself: for E[f(Y)] it is f * p_Y.
    """
    require_snr(snr=snr)
    return _gauss_kronrod(g, _panel_edges(law, snr), "output quadrature", _K21)


def snr_integral(f, snr: float) -> float:
    """∫_0^snr f(g) dg, in t = ln(1 + g); ``f`` takes one float snr."""
    require_snr(snr=snr)

    def in_t(t):
        g = np.expm1(t)
        return np.array([f(float(x)) for x in g]) * (1.0 + g)

    t_max = np.log1p(snr)
    edges = np.linspace(0.0, t_max, max(int(np.ceil(t_max / T_PANEL)), 1) + 1)
    return _gauss_kronrod(in_t, edges, "snr integral", _K43)


def _difference(f, snr: float, d: float, central: bool) -> float:
    if central:
        hi, lo = snr + d, snr - d
        return (f(hi) - f(lo)) / (hi - lo)
    return (-3.0 * f(snr) + 4.0 * f(snr + d) - f(snr + 2.0 * d)) / (2.0 * d)


def _step(snr: float):
    """The step d = FD_STEP * max(1, snr), and whether snr - d >= 0 leaves
    room for a central difference."""
    require_snr(snr=snr)
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
