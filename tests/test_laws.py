"""Input-law containers: validation, moments, convolution, sampling."""
import numpy as np
import pytest
from scipy import stats

from immse import ct, dt, quadrature, represent, scalar, vector
from immse.laws import (DiscreteAtoms, Gaussian, GaussianMixture,
                        GriddedDensity, binary_law, components, convolve,
                        gaussian_components, moments, require_probs,
                        require_snr, sample, standard_gaussian_law, variance)
from immse.quadrature import McConfig
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


# ---------------------------------------------------------------------------
# One rule per input kind: ``require_snr`` and ``require_probs``
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("value, message", [
    (np.nan, "gain must be finite"), (np.inf, "gain must be finite"),
    (-1.0, "gain must be nonnegative"),
    (np.array([1.0, np.nan]), "gain must be finite"),
    (np.array([1.0, -0.5]), "gain must be nonnegative"),
])
def test_require_snr_names_the_argument(value, message):
    with pytest.raises(ValueError, match=message):
        require_snr(snr=1.0, gain=value)


def test_require_snr_accepts_finite_nonnegative_values():
    require_snr(snr=0.0, zero=-0.0, grid=np.array([0.0, 1e300]))


@pytest.mark.parametrize("probs, message", [
    ([0.5, np.nan], "p must be finite"),
    ([1.5, -0.5], "p must be nonnegative and sum to 1"),
    ([0.5, 0.5 + 1e-11], "p must be nonnegative and sum to 1"),
])
def test_require_probs_names_the_vector(probs, message):
    with pytest.raises(ValueError, match=message):
        require_probs(p=np.array(probs))
    require_probs(p=np.array([0.25, 0.75 + 1e-13]))


def _tiny_path():
    return ct.simulate_telegraph(ct.TelegraphModel(1.0, 1.0), 0.05, 1e-3, 0)


def _vector_model(snr=1.0):
    points = np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
    return vector.VectorChannelModel(np.eye(2),
                                     vector.AtomSet(points, np.full(4, 0.25)),
                                     np.full(2, snr))


MC = McConfig(seed=0, n_paths=100)
AR = dt.ARProcess(0.9, 5)

# every public function that takes a raw snr, called with that snr as s
SNR_TAKERS = {
    "ScalarChannel": lambda s: ScalarChannel(binary_law(), s),
    "incremental_decompose": lambda s: scalar.incremental_decompose(s, 1.0),
    "divergence_derivative": lambda s: scalar.divergence_derivative(
        binary_law(), 0.5, s, MC),
    "mmse_binary_closed": scalar.mmse_binary_closed,
    "mi_binary_closed": scalar.mi_binary_closed,
    "mmse_taylor": lambda s: scalar.mmse_taylor(moments(binary_law()), s),
    "mi_taylor": lambda s: scalar.mi_taylor(moments(binary_law()), s),
    "preprocessor_derivative": lambda s: scalar.preprocessor_derivative(
        Gaussian(0.0, 1.0), 0.5, s),
    "verify_immse": lambda s: scalar.verify_immse(binary_law(), [s]),
    "verify_immse_integral": lambda s: scalar.verify_immse_integral(
        binary_law(), s),
    "lemma1_low_snr": lambda s: scalar.lemma1_low_snr(binary_law(), [s]),
    "integrate_output": lambda s: quadrature.integrate_output(
        lambda y: np.exp(-0.5 * y * y), binary_law(), s),
    "snr_integral": lambda s: quadrature.snr_integral(lambda g: 1.0, s),
    "fd_derivative": lambda s: quadrature.fd_derivative(lambda g: g, s),
    "fd_difference": lambda s: quadrature.fd_difference(lambda g: g, s),
    "TelegraphModel": lambda s: ct.TelegraphModel(1.0, s),
    "thm7_differential_check": lambda s: ct.thm7_differential_check(1.0, s),
    "verify_thm7": lambda s: ct.verify_thm7(1.0, [s]),
    "spectral_quantities": lambda s: ct.spectral_quantities(ct.OUSpectrum(), s),
    "ou_closed_forms": lambda s: ct.ou_closed_forms(ct.OUSpectrum(), s),
    "spectral_report": lambda s: ct.spectral_report(ct.OUSpectrum(), s),
    "wonham_filter": lambda s: ct.wonham_filter(_tiny_path(), s, 1.0),
    "constant_input_ensemble": lambda s: ct.constant_input_ensemble(
        binary_law(), s, 0.5, MC),
    "time_snr_transform_check": lambda s: ct.time_snr_transform_check(
        binary_law(), s, MC),
    "time_snr_average_check": lambda s: ct.time_snr_average_check(
        binary_law(), s),
    "kalman_triple": lambda s: dt.kalman_triple(AR, s),
    "dense_smoother_mmse": lambda s: dt.dense_smoother_mmse(AR, s),
    "block_mi": lambda s: dt.block_mi(AR, s),
    "block_mi_eig": lambda s: dt.block_mi_eig(AR, s),
    "verify_corollary3": lambda s: dt.verify_corollary3(AR, s),
    "verify_thm9": lambda s: dt.verify_thm9(AR, s),
    "VectorChannelModel": _vector_model,
    "de_bruijn_check": lambda s: vector.de_bruijn_check(_vector_model(), s, MC),
    "likelihood_lemmas_check": lambda s: vector.likelihood_lemmas_check(
        _vector_model(), np.zeros(2), s),
    "nongauss_integrand": lambda s: represent.nongauss_integrand(
        binary_law(), s),
}
# these draw random numbers: a bad snr must be rejected before the first draw
DRAWS = {"divergence_derivative", "constant_input_ensemble",
         "time_snr_transform_check"}


@pytest.mark.parametrize("snr", [np.nan, np.inf, -1.0], ids=["nan", "inf", "neg"])
@pytest.mark.parametrize("name", list(SNR_TAKERS))
def test_every_raw_snr_is_checked(name, snr, monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("a random number was drawn for a bad snr")

    if name in DRAWS:
        monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(ValueError):
        SNR_TAKERS[name](snr)
