"""Output-domain quadrature: the panel rule, its refinement driver and
accuracy against independent oracles."""
import mpmath as mp
import numpy as np
import pytest

from immse.errors import NonConvergence
from immse.laws import (DiscreteAtoms, Gaussian, GaussianMixture,
                        GriddedDensity, binary_law, moments)
from immse.quadrature import gauss_hermite, integrate_output
from immse.scalar import (ScalarChannel, fisher_information, mi_binary_closed,
                          mmse, mmse_binary_closed, mutual_information)


def test_gauss_hermite_weights_normalized():
    for order in (2, 31, 127, 511):
        _, w = gauss_hermite(order)
        assert w.sum() == pytest.approx(1.0, abs=1e-13)


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
    val = integrate_output(lambda y: y ** 2, law, snr)
    assert val == pytest.approx(1.0 + snr * ex2, abs=1e-9)


def test_output_second_moment_gridded():
    x = np.linspace(-np.sqrt(3), np.sqrt(3), 801)
    unif = GriddedDensity(grid=x, pdf=np.full_like(x, 1 / (2 * np.sqrt(3))))
    val = integrate_output(lambda y: y ** 2, unif, 1.7)
    # the input-grid trapezoid limits accuracy to ~ h^2 for the 801-point grid
    assert val == pytest.approx(1.0 + 1.7 * 1.0, abs=3e-5)


def test_nonconvergence_raised_on_order_cap():
    # a jump at an irrational point is never a panel edge, so each halving
    # only halves the error and the refinement cap comes first
    jump = np.sqrt(2.0) / 10.0
    with pytest.raises(NonConvergence):
        integrate_output(lambda y: (y > jump).astype(float), binary_law(), 4.0)


def test_stop_is_relative_below_one():
    # the same jump scaled by 1e-12: levels agree to 1e-10 absolute after one
    # halving, but not to 1e-10 of the value, so the cap is still reached
    jump = np.sqrt(2.0) / 10.0
    with pytest.raises(NonConvergence):
        integrate_output(lambda y: 1e-12 * (y > jump), binary_law(), 4.0)


def test_zero_weight_components_skipped():
    mix = GaussianMixture(weights=np.array([0.0, 1.0]),
                          means=np.array([100.0, 0.0]),
                          variances=np.array([1.0, 1.0]))
    val = integrate_output(lambda y: y ** 2, mix, 1.0)
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
