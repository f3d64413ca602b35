"""Output-domain quadrature: the panel rule, its refinement driver and
accuracy against independent oracles."""
import mpmath as mp
import numpy as np
import pytest

from immse.errors import NonConvergence
from immse.laws import (DiscreteAtoms, Gaussian, GaussianMixture,
                        GriddedDensity, binary_law, moments)
from immse.ct import OUSpectrum, ou_closed_forms
from immse.quadrature import (McConfig, fd_derivative, fd_difference,
                              integrate_output, snr_integral)
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
    # the same jump scaled by 1e-12: levels agree to 1e-10 absolute after one
    # halving, but not to 1e-10 of the value, so the cap is still reached
    jump = np.sqrt(2.0) / 10.0
    with pytest.raises(NonConvergence):
        expect(lambda y: 1e-12 * (y > jump), binary_law(), 4.0)


@pytest.mark.parametrize("s", [1e-3, 1.0, 100.0])
def test_snr_integral_closed_forms(s):
    assert snr_integral(lambda g: 1.0 / (1.0 + g), s) == pytest.approx(
        np.log1p(s), rel=1e-12, abs=0.0)
    ou = OUSpectrum()
    assert snr_integral(lambda g: ou_closed_forms(ou, g)[1], s) == \
        pytest.approx(s * ou_closed_forms(ou, s)[2], rel=1e-12, abs=0.0)


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
    split at the midpoints between the output centres."""
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

        pts = ([cs[0] - 14] + [(a + b) / 2 for a, b in zip(cs, cs[1:])]
               + [cs[-1] + 14])
        err = mp.quad(lambda y: mp.fprod(density_and_variance(y)), pts,
                      method="gauss-legendre")
        ent = mp.quad(neg_p_log_p, pts, method="gauss-legendre")
        return float(err), float(ent - mp.log(2 * mp.pi * mp.e) / 2)


@pytest.mark.parametrize("snr", [0.1, 10.0, 1000.0])
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
