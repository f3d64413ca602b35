"""Output-domain quadrature: the panel rule, its refinement driver and
accuracy against independent oracles."""
import importlib.util
import pathlib

import mpmath as mp
import numpy as np
import pytest

from immse.errors import NonConvergence
from immse.laws import (DiscreteAtoms, Gaussian, GaussianMixture,
                        GriddedDensity, binary_law, moments, variance)
from immse.ct import OUSpectrum, ou_closed_forms
from immse import quadrature, scalar
from immse.cli import parse_snr_grid
from immse.quadrature import (McConfig, fd_derivative, fd_difference,
                              integrate_output, snr_integral)
from immse.represent import gamma_epi_check
from immse.scalar import (ScalarChannel, fisher_information,
                          log_output_density, mi_binary_closed, mmse,
                          mmse_binary_closed, mutual_information)


def expect(f, law, snr):
    """E[f(Y)]: integrate_output integrates f * p_Y as it is given."""
    ch = ScalarChannel(law, snr)
    return integrate_output(lambda y: f(y) * np.exp(log_output_density(ch, y)),
                            law, snr)


MIX3 = GaussianMixture(weights=np.array([0.3, 0.5, 0.2]),
                       means=np.array([-1.5, 0.2, 1.8]),
                       variances=np.array([0.4, 0.9, 0.2]))


def test_kronrod_table_embeds_gauss_10():
    gauss = quadrature._G10_WEIGHTS > 0
    nodes, weights = np.polynomial.legendre.leggauss(10)
    assert np.abs(quadrature._K21_NODES[gauss] - nodes).max() <= 1e-15
    assert np.abs(quadrature._G10_WEIGHTS[gauss] - weights).max() <= 1e-15
    assert gauss.sum() == 10 and quadrature._K21_NODES.size == 21


def test_kronrod_21_exact_to_degree_31():
    for k in range(32):
        exact = (1.0 - (-1.0) ** (k + 1)) / (k + 1)
        got = quadrature._K21_WEIGHTS @ quadrature._K21_NODES ** k
        assert abs(got - exact) <= 1e-15, k


MAKE_KRONROD = pathlib.Path(__file__).resolve().parents[1] / "tools" / "make_kronrod.py"


def test_generator_gives_back_the_checked_in_tables():
    # run on the 10-point Gauss rule, the generator gives QUADPACK's qk21
    # as doubles, and run on that, the checked-in 43-point table
    spec = importlib.util.spec_from_file_location("make_kronrod", MAKE_KRONROD)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    for got, table in zip(gen.tables(), (quadrature._XK, quadrature._WK,
                                         quadrature._XP, quadrature._W43)):
        assert np.array_equal(np.array([float(v) for v in got]), table)


def test_kronrod_43_table():
    nodes, high, low = quadrature._K43
    assert nodes.size == high.size == 43
    assert np.all(high > 0) and np.all(np.abs(nodes) < 1.0)
    for k in range(66):
        exact = (1.0 - (-1.0) ** (k + 1)) / (k + 1)
        assert abs(high @ nodes ** k - exact) <= 1e-15, k
    # nested: the embedded rule is qk21 on its own nodes
    old = low > 0
    assert np.array_equal(nodes[old], quadrature._K21_NODES)
    assert np.array_equal(low[old], quadrature._K21_WEIGHTS)
    # the largest node of QUADPACK qng's 43-point rule
    assert abs(nodes.max() - 0.999333360901932081394099323919911) <= 1e-16


def test_refinement_resolves_a_narrow_bump():
    # a bump of width 0.02 inside a panel of width 0.25: level 0 misses it,
    # and the halvings that follow resolve it to its closed form
    a, sd, snr = np.sqrt(2.0) / 10.0, 0.02, 4.0
    ch = ScalarChannel(binary_law(), snr)
    levels = []

    def g(y):
        levels.append(y.size)
        return (np.exp(-(y - a) ** 2 / (2.0 * sd ** 2))
                * np.exp(log_output_density(ch, y)))

    val = integrate_output(g, binary_law(), snr)
    # N(y; c, 1) * exp(-(y - a)^2 / (2 sd^2)) integrates in closed form
    ref = sum(0.5 * sd / np.sqrt(1.0 + sd ** 2)
              * np.exp(-(a - c) ** 2 / (2.0 * (1.0 + sd ** 2)))
              for c in (2.0, -2.0))
    assert len(levels) >= 2
    assert val == pytest.approx(ref, rel=1e-12, abs=0.0)


def _unit_gaussian_estimates(step):
    """Summed |K21 - G10| on phi, y**2 phi and phi ln phi (phi the unit
    Gaussian) over panels of ``step`` sds across +-REACH sds."""
    edges = np.arange(-quadrature.REACH, quadrature.REACH + 0.5 * step, step)
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
    y = mid[:, None] + half[:, None] * quadrature._K21_NODES
    log_phi = -0.5 * y * y - 0.5 * np.log(2.0 * np.pi)
    phi = np.exp(log_phi)
    diff = quadrature._K21_WEIGHTS - quadrature._G10_WEIGHTS
    return [float(np.sum(np.abs((f * half[:, None]) @ diff)))
            for f in (phi, y * y * phi, phi * log_phi)]


def test_step_is_the_widest_the_error_estimate_allows():
    assert max(_unit_gaussian_estimates(quadrature.STEP)) \
        <= quadrature.REL_TOL / 5
    assert min(_unit_gaussian_estimates(quadrature.STEP + 1.0)) \
        > quadrature.REL_TOL


# the benchmark's four represent integrals of one law each, in u = var * snr
# as represent._mmse_integral runs them: (law, where the integral ends in snr)
REPRESENT_INTEGRALS = {
    "pam4": (DiscreteAtoms(values=np.array([-3.0, -1.0, 1.0, 3.0]),
                           probs=np.full(4, 0.25)), 50.0),
    "pam16": (DiscreteAtoms(values=(2.0 * np.arange(1, 17) - 17.0)
                            / np.sqrt(85.0), probs=np.full(16, 1 / 16)), 4250.0),
    "mix2": (GaussianMixture(weights=np.array([0.5, 0.5]),
                             means=np.array([-1.0, 1.0]),
                             variances=np.array([0.25, 0.25])), 1e4),
    "uniform201": (GriddedDensity(grid=np.linspace(-np.sqrt(3), np.sqrt(3), 201),
                                  pdf=np.full(201, 1 / (2 * np.sqrt(3)))), 400.0),
}


def _snr_integral_estimate(law, snr_max, width):
    """First-level |K43 - K21| of the law's MMSE integral over panels of
    ``width`` in t = ln(1 + var * snr), the last one cut short, relative to
    min(1, |value|)."""
    v = variance(law)
    t_max = np.log1p(v * snr_max)
    edges = np.append(np.arange(0.0, t_max, width), t_max)
    nodes, high, low = quadrature._K43
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
    u = np.expm1(mid[:, None] + half[:, None] * nodes)
    f = np.vectorize(lambda x: mmse(ScalarChannel(law, x / v)))(u) \
        * (1.0 + u) * half[:, None]
    return np.sum(np.abs(f @ (high - low))) / min(1.0, abs(np.sum(f @ high)))


def test_snr_panel_is_the_widest_the_error_estimate_allows():
    def worst(width):
        return max(_snr_integral_estimate(law, s, width)
                   for law, s in REPRESENT_INTEGRALS.values())
    assert worst(quadrature.T_PANEL) <= quadrature.REL_TOL / 2
    assert worst(quadrature.T_PANEL + 1.0) > quadrature.REL_TOL


def _split_in_three(edges):
    third = np.diff(edges) / 3.0
    return np.sort(np.concatenate(
        (edges, edges[:-1] + third, edges[:-1] + 2.0 * third)))


UNIFORM201 = GriddedDensity(grid=np.linspace(-np.sqrt(3), np.sqrt(3), 201),
                            pdf=np.full(201, 1 / (2 * np.sqrt(3))))
CURVE_SNRS = parse_snr_grid("-10:30:0.2", db=True)     # the benchmark's grid


@pytest.mark.parametrize("quantity", [mmse, mutual_information,
                                      fisher_information],
                         ids=["mmse", "mi", "fisher"])
@pytest.mark.parametrize("law", [
    binary_law(),
    DiscreteAtoms(values=(2.0 * np.arange(1, 17) - 17.0) / np.sqrt(85.0),
                  probs=np.full(16, 1 / 16)),
    MIX3,
    pytest.param(UNIFORM201, marks=pytest.mark.slow),
], ids=["binary", "pam16", "mix3", "gridded201"])
def test_wide_panels_match_panels_split_in_three(law, quantity, monkeypatch):
    levels = []

    def wide(g, law, snr):
        def counted(y):
            levels[-1] += 1
            return g(y)
        levels.append(0)
        return integrate_output(counted, law, snr)

    def split(g, law, snr):
        return quadrature._gauss_kronrod(
            g, _split_in_three(quadrature._panel_edges(law, snr)), "split",
            quadrature._K21)

    def both(snr):
        out = []
        for rule in (wide, split):
            monkeypatch.setattr(scalar, "integrate_output", rule)
            out.append(quantity(ScalarChannel(law, float(snr))))
        return out

    for snr in CURVE_SNRS:
        got, ref = both(snr)
        assert abs(got - ref) <= 1e-12 * abs(ref), snr
    assert levels == [1] * CURVE_SNRS.size      # no call refined
    for snr in (1e4, 1e5, 1e6):
        got, ref = both(snr)
        assert abs(got - ref) <= quadrature.REL_TOL * abs(ref), snr


def test_unequal_sd_mixtures_do_not_refine_on_the_epi_pairs(monkeypatch):
    # criterion 13's five random pairs of two-component mixtures, whose
    # components have unequal output sds: thinned to cells of the smallest
    # sd, their panels stay narrow enough that no output call refines; each
    # of the 15 laws takes 3 * 43 MMSEs in its snr integral and 2 in its
    # closure, 1965 output calls in all
    levels, real = [], quadrature._gauss_kronrod

    def counting(g, edges, what, rule):
        calls = []
        value = real(lambda x: calls.append(None) or g(x), edges, what, rule)
        if what == "output quadrature":
            levels.append(len(calls))
        return value

    monkeypatch.setattr(quadrature, "_gauss_kronrod", counting)
    rng = np.random.default_rng(13)

    def rand_mix():
        w = rng.uniform(0.2, 1.0, 2)
        return GaussianMixture(weights=w / w.sum(),
                               means=rng.uniform(-1.5, 1.5, 2),
                               variances=rng.uniform(0.2, 1.5, 2))

    for _ in range(5):
        assert gamma_epi_check(rand_mix(), rand_mix()).passed
    assert len(levels) == 1965 and set(levels) == {1}


@pytest.mark.parametrize("law", [
    binary_law(),
    MIX3,
    GriddedDensity(grid=np.linspace(-np.sqrt(3), np.sqrt(3), 201),
                   pdf=np.full(201, 1 / (2 * np.sqrt(3)))),
], ids=["binary", "mix3", "gridded201"])
@pytest.mark.parametrize("snr", [0.5, 10.0])
def test_integrate_output_integrates_what_it_is_given(law, snr):
    # the output density integrates to one; E[p_Y(Y)] would not
    ch = ScalarChannel(law, snr)
    val = integrate_output(lambda y: np.exp(log_output_density(ch, y)),
                           law, snr)
    assert val == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("law", [
    Gaussian(0.0, 1.0),
    binary_law(),
    GaussianMixture(weights=np.array([0.4, 0.6]),
                    means=np.array([-1.0, 1.0]),
                    variances=np.array([0.5, 0.25])),
    DiscreteAtoms(values=np.array([-2.0, 0.5, 3.0]),
                  probs=np.array([0.2, 0.5, 0.3])),
])
def test_output_second_moment(law):
    # E[Y^2] = 1 + snr * E[X^2] for Y = sqrt(snr) X + N
    snr = 2.5
    m = moments(law)
    ex2 = m.variance + m.mean ** 2
    val = expect(lambda y: y ** 2, law, snr)
    assert val == pytest.approx(1.0 + snr * ex2, abs=1e-9)


def test_output_second_moment_gridded():
    x = np.linspace(-np.sqrt(3), np.sqrt(3), 801)
    unif = GriddedDensity(grid=x, pdf=np.full_like(x, 1 / (2 * np.sqrt(3))))
    val = expect(lambda y: y ** 2, unif, 1.7)
    # the input-grid trapezoid limits accuracy to ~ h^2 for the 801-point grid
    assert val == pytest.approx(1.0 + 1.7 * 1.0, abs=3e-5)


def test_nonconvergence_raised_on_order_cap():
    # a jump at an irrational point is never a panel edge, so each halving
    # only halves the error and the refinement cap comes first
    jump = np.sqrt(2.0) / 10.0
    with pytest.raises(NonConvergence):
        expect(lambda y: (y > jump).astype(float), binary_law(), 4.0)


def test_stop_is_relative_below_one():
    # the same jump scaled by 1e-12: the error estimate is below 1e-10
    # absolute from the first level on, but not below 1e-10 of the value, so
    # the cap is still reached
    jump = np.sqrt(2.0) / 10.0
    with pytest.raises(NonConvergence):
        expect(lambda y: 1e-12 * (y > jump), binary_law(), 4.0)


@pytest.mark.parametrize("s", [1e-3, 1.0, 20.0, 100.0, 1e4])
def test_snr_integral_closed_forms(s):
    # K43 on ceil(ln(1 + snr) / 4) equal panels in ln(1 + snr): one up to
    # snr e**4 - 1, three at 1e4
    assert snr_integral(lambda g: 1.0 / (1.0 + g), s) == pytest.approx(
        np.log1p(s), rel=1e-12, abs=0.0)
    assert snr_integral(lambda g: (1.0 + g) ** -2, s) == pytest.approx(
        s / (1.0 + s), rel=1e-12, abs=0.0)
    assert snr_integral(lambda g: np.exp(-g), s) == pytest.approx(
        -np.expm1(-s), rel=1e-12, abs=0.0)
    ou = OUSpectrum()
    assert snr_integral(lambda g: ou_closed_forms(ou, g)[1], s) == \
        pytest.approx(s * ou_closed_forms(ou, s)[2], rel=1e-12, abs=0.0)


def test_snr_integral_equal_panels_stop_at_level_0():
    # three equal panels in ln(1 + snr) up to snr 1e4, each of 43 nodes, and
    # the first level already meets the stop
    nodes = []
    snr_integral(lambda g: nodes.append(g) or (1.0 + g) ** -2, 1e4)
    assert len(nodes) == 3 * 43


def test_snr_integral_nonconvergence_on_jump():
    jump = np.sqrt(2.0)
    with pytest.raises(NonConvergence):
        snr_integral(lambda g: float(g > jump), 4.0)


def test_zero_weight_components_skipped():
    mix = GaussianMixture(weights=np.array([0.0, 1.0]),
                          means=np.array([100.0, 0.0]),
                          variances=np.array([1.0, 1.0]))
    val = expect(lambda y: y ** 2, mix, 1.0)
    assert val == pytest.approx(2.0, abs=1e-10)


@pytest.mark.parametrize("snr", [10.0, 30.0, 100.0, 300.0, 1000.0])
def test_binary_relative_accuracy_at_high_snr(snr):
    # the MMSE decays like exp(-snr/2), so only a relative error shows it
    ch = ScalarChannel(binary_law(), snr)
    assert mmse(ch) == pytest.approx(mmse_binary_closed(snr), rel=1e-8,
                                     abs=0.0)
    assert mutual_information(ch) == pytest.approx(mi_binary_closed(snr),
                                                   rel=1e-8, abs=0.0)


PAM16 = (2.0 * np.arange(1, 17) - 17.0) / np.sqrt(85.0)


def _pam16_mpmath(snr):
    """(mmse, MI) of uniform 16-PAM by mpmath Gauss-Legendre at 20 digits,
    split at the midpoints between the output centres and, around each
    midpoint m, at m +- w 2^k out to the centres, w = 1/(gap between them):
    the posterior switches over that width, and the MMSE lives there."""
    with mp.workdps(20):
        xs = [mp.mpf(float(x)) for x in PAM16]
        cs = [mp.sqrt(snr) * x for x in xs]

        def density_and_variance(y):
            k = [mp.exp(-(y - c) ** 2 / 2) for c in cs]
            s0 = mp.fsum(k)
            xhat = mp.fdot(k, xs) / s0
            var = mp.fdot(k, [(x - xhat) ** 2 for x in xs]) / s0
            return s0 / (16 * mp.sqrt(2 * mp.pi)), var

        def neg_p_log_p(y):
            p = density_and_variance(y)[0]
            return -p * mp.log(p)

        pts = [cs[0] - 14, cs[-1] + 14]
        for a, b in zip(cs, cs[1:]):
            mid, w = (a + b) / 2, 1 / (b - a)
            pts.append(mid)
            while w < (b - a) / 2:
                pts += [mid - w, mid + w]
                w *= 2
        pts.sort()
        err = mp.quad(lambda y: mp.fprod(density_and_variance(y)), pts,
                      method="gauss-legendre")
        ent = mp.quad(neg_p_log_p, pts, method="gauss-legendre")
        return float(err), float(ent - mp.log(2 * mp.pi * mp.e) / 2)


@pytest.mark.parametrize("snr", [0.1, 10.0] + [
    pytest.param(s, marks=pytest.mark.slow) for s in (1000.0, 4250.0, 1e4)])
def test_pam16_against_mpmath(snr):
    ch = ScalarChannel(DiscreteAtoms(values=PAM16, probs=np.full(16, 1 / 16)),
                       snr)
    ref_mmse, ref_mi = _pam16_mpmath(snr)
    assert mmse(ch) == pytest.approx(ref_mmse, rel=1e-8, abs=0.0)
    assert mutual_information(ch) == pytest.approx(ref_mi, rel=1e-8, abs=0.0)


@pytest.mark.parametrize("snr, ref", [
    (0.5, (0.6616277436389089, 0.20229353585062881, 0.6691861281805463)),
    (10.0, (0.08351020674302004, 1.1397104237915414, 0.16489793256979618)),
    (400.0, (0.0024348580396864987, 2.8453364140361557,
             0.026056784125332577)),
])
def test_gridded_uniform_pinned(snr, ref):
    # values of the earlier y-window rule for the 801-point uniform
    x = np.linspace(-np.sqrt(3), np.sqrt(3), 801)
    unif = GriddedDensity(grid=x, pdf=np.full_like(x, 1 / (2 * np.sqrt(3))))
    ch = ScalarChannel(unif, snr)
    got = (mmse(ch), mutual_information(ch), fisher_information(ch))
    assert got == pytest.approx(ref, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("s", [0.0, 5e-5, 1e-3, 1.0, 10.0, 1e3])
def test_fd_rules_on_log1p(s):
    # one-sided below the step (s < 1e-4), central above it
    exact = 1.0 / (1.0 + s)
    assert fd_derivative(np.log1p, s) == pytest.approx(exact, rel=1e-10, abs=0)
    assert fd_difference(np.log1p, s) == pytest.approx(exact, rel=1e-7, abs=0)


@pytest.mark.parametrize("kw", [
    {"n_paths": 0}, {"n_paths": -5}, {"dt": 0.0}, {"dt": -1e-3},
    {"horizon": 0.0}, {"dt": np.nan}, {"horizon": np.inf},
])
def test_mc_config_rejects_what_it_cannot_run(kw):
    with pytest.raises(ValueError):
        McConfig(**kw)
