"""Input-law containers: validation, moments, convolution, sampling."""
import numpy as np
import pytest
from scipy import stats

from immse.laws import (DiscreteAtoms, Gaussian, GaussianMixture,
                        GriddedDensity, binary_law, components, convolve,
                        gaussian_components, moments, sample,
                        standard_gaussian_law, variance)
from immse.scalar import (ScalarChannel, fisher_information, mmse,
                          mutual_information)


def test_binary_law_moments():
    m = moments(binary_law())
    assert m.mean == pytest.approx(0.0, abs=1e-15)
    assert m.variance == pytest.approx(1.0, abs=1e-15)
    assert m.third == pytest.approx(0.0, abs=1e-15)
    assert m.fourth == pytest.approx(1.0, abs=1e-15)


def test_gaussian_raw_moments_match_scipy():
    law = Gaussian(mean=0.7, variance=2.3)
    m = moments(law)
    dist = stats.norm(0.7, np.sqrt(2.3))
    assert m.mean == pytest.approx(dist.moment(1), rel=1e-12)
    assert m.third == pytest.approx(dist.moment(3), rel=1e-12)
    assert m.fourth == pytest.approx(dist.moment(4), rel=1e-12)


def test_mixture_moments_weighted():
    mix = GaussianMixture(weights=np.array([0.25, 0.75]),
                          means=np.array([-2.0, 1.0]),
                          variances=np.array([0.5, 1.5]))
    m = moments(mix)
    assert m.mean == pytest.approx(0.25 * -2.0 + 0.75 * 1.0, abs=1e-14)
    # variance = E X^2 - mean^2 with E X^2 = sum w (m^2 + v)
    ex2 = 0.25 * (4.0 + 0.5) + 0.75 * (1.0 + 1.5)
    assert m.variance == pytest.approx(ex2 - m.mean ** 2, abs=1e-14)


@pytest.mark.parametrize("offset", [1e6, 1e7, 1e8])
@pytest.mark.parametrize("build, central", [
    (lambda c: GaussianMixture(weights=[0.3, 0.7], means=[c - 1.0, c + 0.5],
                               variances=[0.25, 0.5]), 0.8975),
    (lambda c: DiscreteAtoms(values=[c - 1.0, c + 1.0], probs=[0.5, 0.5]), 1.0),
], ids=["mixture", "atoms"])
def test_variance_at_large_mean(build, central, offset):
    # E X^2 - mean^2 cancels here: it gave 0.0 for the atoms at 1e8
    law = build(offset)
    assert moments(law).variance == pytest.approx(central, rel=1e-12, abs=0.0)
    assert mmse(ScalarChannel(law, 0.0)) == pytest.approx(central, rel=1e-12,
                                                          abs=0.0)
    # a shift of X moves no output statistic; uncentred, the output nodes
    # near sqrt(snr) * offset carry its rounding, and the quadrature stalls
    # or misses by up to 1e-8
    for snr in (30.0, 1e3):
        for stat in (mmse, mutual_information, fisher_information):
            assert stat(ScalarChannel(law, snr)) == pytest.approx(
                stat(ScalarChannel(build(0.0), snr)), rel=1e-12, abs=0.0)


def test_atom_probs_must_sum_to_one():
    with pytest.raises(ValueError):
        DiscreteAtoms(values=np.array([0.0, 1.0]),
                      probs=np.array([0.5, 0.6]))


def test_gridded_pdf_must_normalize():
    x = np.linspace(-1, 1, 101)
    with pytest.raises(ValueError):
        GriddedDensity(grid=x, pdf=np.full_like(x, 2.0))


@pytest.mark.parametrize("build", [
    lambda: DiscreteAtoms(values=[np.nan, 1.0], probs=[0.5, 0.5]),
    lambda: DiscreteAtoms(values=[0.0, 1.0], probs=[np.nan, 0.5]),
    lambda: Gaussian(np.nan, 1.0),
    lambda: Gaussian(0.0, np.inf),
    lambda: GaussianMixture(weights=[0.5, 0.5], means=[0.0, np.inf],
                            variances=[1.0, 1.0]),
    lambda: GaussianMixture(weights=[0.5, 0.5], means=[0.0, 1.0],
                            variances=[1.0, np.nan]),
    lambda: GriddedDensity(grid=[0.0, np.nan, 1.0], pdf=[1.0, 1.0, 1.0]),
    lambda: GriddedDensity(grid=[0.0, 0.5, 1.0], pdf=[1.0, np.inf, 1.0]),
], ids=["atoms-value", "atoms-prob", "gaussian-mean", "gaussian-var",
        "mixture-mean", "mixture-var", "gridded-grid", "gridded-pdf"])
def test_constructors_reject_nonfinite(build):
    with pytest.raises(ValueError, match="finite"):
        build()


def test_gaussian_components_structure():
    w, m, v = gaussian_components(binary_law())
    assert np.all(v == 0.0)
    assert set(m.tolist()) == {-1.0, 1.0}
    x = np.linspace(-1, 1, 51)
    unif = GriddedDensity(grid=x, pdf=np.full_like(x, 0.5))
    assert gaussian_components(unif) is None


@pytest.mark.parametrize("law", [
    Gaussian(0.3, 2.0),
    GaussianMixture([0.3, 0.5, 0.2], [-1.5, 0.2, 1.8], [0.4, 0.9, 0.2]),
    DiscreteAtoms([-1.0, 0.5, 2.0], [0.2, 0.5, 0.3]),
    GriddedDensity(grid=np.linspace(0.0, 1.0, 61) ** 2, pdf=np.full(61, 1 + 5e-9)),
], ids=["gaussian", "mixture", "atoms", "gridded"])
def test_component_weights_sum_to_one(law):
    # every law is a probability mixture, a gridded one of trapezoid mass
    # 1 + 5e-9 on an uneven grid included
    assert abs(components(law)[0].sum() - 1.0) <= 1e-15


def test_convolve_adds_variances():
    a = GaussianMixture(weights=np.array([0.5, 0.5]),
                        means=np.array([-1.0, 1.0]),
                        variances=np.array([0.25, 0.25]))
    b = Gaussian(mean=0.3, variance=2.0)
    c = convolve(a, b)
    assert variance(c) == pytest.approx(variance(a) + variance(b), rel=1e-12)
    m = moments(c)
    assert m.mean == pytest.approx(moments(a).mean + 0.3, abs=1e-12)


def test_convolve_atoms_merges_duplicates():
    c = convolve(binary_law(), binary_law())
    assert isinstance(c, DiscreteAtoms)
    assert sorted(c.values.tolist()) == [-2.0, 0.0, 2.0]
    assert c.probs[np.argsort(c.values)].tolist() == pytest.approx(
        [0.25, 0.5, 0.25])


def test_sample_matches_law_statistics():
    mix = GaussianMixture(weights=np.array([0.3, 0.7]),
                          means=np.array([-1.0, 0.5]),
                          variances=np.array([0.2, 1.0]))
    draws = sample(mix, seed=11, n=200_000)
    m = moments(mix)
    assert draws.mean() == pytest.approx(m.mean, abs=5e-3)
    assert draws.var() == pytest.approx(m.variance, abs=2e-2)


def test_sample_gridded_uniform_ks():
    x = np.linspace(0.0, 1.0, 401)
    unif = GriddedDensity(grid=x, pdf=np.ones_like(x))
    draws = sample(unif, seed=3, n=50_000)
    assert stats.kstest(draws, "uniform").pvalue > 1e-3


def test_sample_gridded_rising_and_falling_cells_ks():
    # the pdf rises on the first cell and falls on the other two; within a
    # cell the exact CDF is quadratic
    x = np.array([0.0, 0.5, 1.0, 1.5])
    p = np.array([0.0, 2.0, 1.0, 0.0]) / 1.5
    law = GriddedDensity(grid=x, pdf=p)
    h = np.diff(x)
    cell_cdf = np.concatenate(([0.0], np.cumsum(0.5 * (p[:-1] + p[1:]) * h)))

    def cdf(y):
        k = np.clip(np.searchsorted(x, y, side="right") - 1, 0, h.size - 1)
        t = np.clip(y - x[k], 0.0, h[k])
        return cell_cdf[k] + p[k] * t + 0.5 * (p[k + 1] - p[k]) / h[k] * t ** 2

    draws = sample(law, seed=3, n=100_000)
    assert stats.kstest(draws, cdf).pvalue > 1e-3


def test_sample_is_seed_deterministic():
    a = sample(standard_gaussian_law(), seed=5, n=100)
    b = sample(standard_gaussian_law(), seed=5, n=100)
    assert np.array_equal(a, b)
