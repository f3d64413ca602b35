"""Scalar channel: closed-form cross-checks, identities, and properties."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from immse import scalar
from immse.errors import NonConvergence
from immse.laws import (DiscreteAtoms, Gaussian, GaussianMixture,
                        GriddedDensity, binary_law, moments, sample,
                        standard_gaussian_law)
from immse.quadrature import McConfig, integrate_output
from immse.scalar import (McEstimate, ScalarChannel, conditional_mean,
                          divergence_derivative, fisher_from_mmse,
                          fisher_information, high_snr_decay,
                          incremental_decompose, lemma1_low_snr,
                          log_output_density, mi_binary_closed, mi_taylor,
                          mmse, mmse_binary_closed, mmse_taylor,
                          posterior_sample, posterior_variance,
                          preprocessor_derivative, q_moment, score,
                          verify_immse, verify_immse_integral)

SNR_GRID = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0]

MIX3 = GaussianMixture(weights=np.array([0.3, 0.5, 0.2]),
                       means=np.array([-1.5, 0.2, 1.8]),
                       variances=np.array([0.4, 0.9, 0.2]))


# ---------------------------------------------------------------------------
# Engine vs closed forms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("snr", SNR_GRID)
def test_engine_matches_gaussian_closed_forms(snr):
    # bypass the internal Gaussian shortcut: a 1-component mixture takes the
    # generic quadrature path
    as_mix = GaussianMixture(weights=np.array([1.0]), means=np.array([0.0]),
                             variances=np.array([1.0]))
    chm = ScalarChannel(as_mix, snr)
    assert mmse(chm) == pytest.approx(1.0 / (1.0 + snr), abs=1e-10)
    from immse.scalar import mutual_information
    assert mutual_information(chm) == pytest.approx(0.5 * np.log1p(snr),
                                                    abs=1e-10)


@pytest.mark.parametrize("snr", SNR_GRID)
def test_engine_matches_binary_closed_forms(snr):
    from immse.scalar import mutual_information
    ch = ScalarChannel(binary_law(), snr)
    assert mmse(ch) == pytest.approx(mmse_binary_closed(snr), abs=1e-9)
    assert mutual_information(ch) == pytest.approx(mi_binary_closed(snr),
                                                   abs=1e-9)


def test_mi_binary_closed_near_underflow():
    # no quadrature warning (an error in this suite) where I is ln 2 to the
    # last digit
    ch = ScalarChannel(binary_law(), 1400.0)
    assert mi_binary_closed(1400.0) == pytest.approx(
        scalar.mutual_information(ch), rel=1e-12, abs=0.0)


def test_binary_closed_forms_reference_values():
    # frozen oracle values from direct high-precision quadrature of
    # 1 - E[tanh(snr - sqrt(snr) Y)] and snr - E[log cosh(snr - sqrt(snr) Y)]
    assert mmse_binary_closed(0.0) == 1.0
    assert mmse_binary_closed(1.0) == pytest.approx(0.4495995092066728,
                                                    rel=1e-11)
    assert mi_binary_closed(1.0) == pytest.approx(0.3368308203468316,
                                                  rel=1e-10)


@pytest.mark.parametrize("snr", [np.nan, np.inf])
def test_channel_rejects_nonfinite_snr(snr):
    with pytest.raises(ValueError, match="finite"):
        ScalarChannel(binary_law(), snr)


@pytest.mark.parametrize("quantity, raw_of", [
    (mmse, lambda q: q),
    (scalar.mutual_information, lambda q: -(scalar.HALF_LOG_2PIE + q)),
], ids=["mmse", "mi"])
def test_negative_quadrature_clamps_only_within_tolerance(monkeypatch,
                                                          quantity, raw_of):
    # a raw value negative by rounding (|value| < adaptive_tol) clamps to 0;
    # one below -adaptive_tol is an error, not a silent 0
    ch = ScalarChannel(binary_law(), 1.0)
    monkeypatch.setattr(scalar, "integrate_output", lambda *a, **k: raw_of(-1e-12))
    assert quantity(ch) == 0.0
    monkeypatch.setattr(scalar, "integrate_output", lambda *a, **k: raw_of(-1e-6))
    with pytest.raises(NonConvergence):
        quantity(ch)


# ---------------------------------------------------------------------------
# Posterior statistics
# ---------------------------------------------------------------------------

def test_gaussian_conditional_mean_is_linear():
    snr = 3.0
    ch = ScalarChannel(standard_gaussian_law(), snr)
    y = np.array([-2.0, 0.0, 1.5])
    gain = np.sqrt(snr) / (1.0 + snr)
    assert conditional_mean(ch, y) == pytest.approx(gain * y, abs=1e-12)
    assert posterior_variance(ch, 0.7) == pytest.approx(1.0 / (1.0 + snr),
                                                        abs=1e-12)


def test_binary_conditional_mean_is_tanh():
    snr = 2.0
    ch = ScalarChannel(binary_law(), snr)
    y = 0.8
    assert conditional_mean(ch, y) == pytest.approx(
        np.tanh(np.sqrt(snr) * y), abs=1e-12)


def test_q_moments_consistent_with_posterior():
    ch = ScalarChannel(MIX3, 1.3)
    y = 0.4
    q0 = q_moment(ch, y, 0)
    q1 = q_moment(ch, y, 1)
    q2 = q_moment(ch, y, 2)
    assert np.log(q0) == pytest.approx(float(log_output_density(ch, y)[0]),
                                       abs=1e-12)
    assert q1 / q0 == pytest.approx(conditional_mean(ch, y), abs=1e-12)
    assert q2 / q0 - (q1 / q0) ** 2 == pytest.approx(
        posterior_variance(ch, y), abs=1e-12)


def test_gridded_law_is_trapezoid_weighted_atoms():
    # a non-uniform pdf on an unevenly spaced grid: every posterior statistic
    # must be the trapezoid rule over the grid, endpoints and uneven cells
    # included, without renormalising the weights (the mass is 1 + 5e-9,
    # inside the constructor's 1e-8 tolerance)
    u = np.linspace(0.0, 1.0, 61)
    x = -2.0 + 4.5 * u ** 1.7
    pdf = np.exp(-0.5 * (x - 0.4) ** 2) * (1.2 + np.sin(2.0 * x))
    law = GriddedDensity(grid=x, pdf=pdf / np.trapezoid(pdf, x) * (1 + 5e-9))
    pdf = law.pdf
    snr = 3.0
    ch = ScalarChannel(law, snr)

    def reference(y):
        kern = np.exp(-0.5 * (y[:, None] - np.sqrt(snr) * x) ** 2) / np.sqrt(2 * np.pi)
        q = [np.trapezoid(kern * x ** i * pdf, x, axis=1) for i in range(3)]
        mean = q[1] / q[0]
        var = np.trapezoid(kern * (x - mean[:, None]) ** 2 * pdf, x, axis=1) / q[0]
        return q, mean, var

    y = np.array([-2.5, 0.1, 1.7, 4.0])
    q, mean, var = reference(y)
    assert conditional_mean(ch, y) == pytest.approx(mean, rel=1e-12)
    assert posterior_variance(ch, y) == pytest.approx(var, rel=1e-11)
    assert log_output_density(ch, y) == pytest.approx(np.log(q[0]), rel=1e-12)
    for i in range(3):
        for k in range(y.size):
            assert q_moment(ch, y[k], i) == pytest.approx(q[i][k], rel=1e-12)

    raw = [np.trapezoid(x ** k * pdf, x) for k in range(5)]
    m = moments(law)
    assert m.mean == pytest.approx(raw[1], rel=1e-12)
    assert m.variance == pytest.approx(raw[2] - raw[1] ** 2, rel=1e-12)
    assert (m.third, m.fourth) == pytest.approx((raw[3], raw[4]), rel=1e-12)

    # E_Y[Var(X|Y)] by a dense trapezoid in y, which converges exponentially
    # for this smooth, Gaussian-tailed integrand
    yy = np.linspace(-14.0, 16.0, 6001)
    qq, _, vv = reference(yy)
    assert mmse(ch) == pytest.approx(np.trapezoid(qq[0] * vv, yy), abs=1e-9)

    with pytest.raises(TypeError):
        posterior_sample(ch, y, np.random.default_rng(0))


def test_orthogonality_of_estimation_error():
    # E[(X - xhat) * xhat] = 0, i.e. E[xhat^2] = E[X xhat] = E[X^2] - mmse
    snr = 1.7
    ch = ScalarChannel(MIX3, snr)
    m = moments(MIX3)
    ex2 = m.variance + m.mean ** 2
    exhat2 = integrate_output(
        lambda y: conditional_mean(ch, y) ** 2
        * np.exp(log_output_density(ch, y)), MIX3, snr)
    assert exhat2 == pytest.approx(ex2 - mmse(ch), abs=1e-9)


def test_score_is_gaussian_linear():
    snr = 2.0
    ch = ScalarChannel(standard_gaussian_law(), snr)
    y = np.array([-1.0, 0.5, 2.0])
    assert score(ch, y) == pytest.approx(-y / (1.0 + snr), abs=1e-12)


# ---------------------------------------------------------------------------
# Derivative identity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("law", [standard_gaussian_law(), binary_law(), MIX3])
def test_derivative_identity(law):
    report = verify_immse(law, [0.5, 2.0])
    assert report.passed, report.to_dict()


@pytest.mark.parametrize("law", [standard_gaussian_law(), binary_law()])
def test_derivative_identity_below_the_step(law):
    # snr below the step d: the one-sided difference must be second order
    report = verify_immse(law, [0.0, 1e-6])
    assert report.passed, report.to_dict()


def test_integral_identity_binary():
    report = verify_immse_integral(binary_law(), 4.0)
    assert report.passed, report.to_dict()


def test_incremental_decompose_noise_budget():
    pair = incremental_decompose(2.0, 0.1)
    assert pair.sigma1_sq + pair.sigma2_sq == pytest.approx(0.5, abs=1e-15)
    assert pair.sigma1_sq == pytest.approx(1.0 / 2.1, abs=1e-15)
    with pytest.raises(ValueError):
        incremental_decompose(0.0, 0.1)


def test_low_snr_lemma_binary():
    report = lemma1_low_snr(binary_law(), [1e-3, 3e-3, 1e-2])
    assert report.passed, report.to_dict()


# ---------------------------------------------------------------------------
# Fisher information
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("law", [binary_law(), MIX3])
@pytest.mark.parametrize("snr", [0.5, 2.0])
def test_fisher_dual_routes(law, snr):
    ch = ScalarChannel(law, snr)
    assert fisher_information(ch) == pytest.approx(fisher_from_mmse(ch),
                                                   abs=1e-8)


def test_fisher_bounds():
    for snr in (0.3, 1.0, 4.0):
        j = fisher_information(ScalarChannel(binary_law(), snr))
        assert 0.0 < j <= 1.0
        # Cramer-Rao for the location family: J >= 1/(1 + snr * var)
        assert j >= 1.0 / (1.0 + snr) - 1e-9


# ---------------------------------------------------------------------------
# Posterior sampling and the divergence derivative
# ---------------------------------------------------------------------------

def test_posterior_sample_marginal_ks():
    # X' sampled from P(X|Y) with Y ~ P_Y has marginal P_X
    snr = 1.5
    ch = ScalarChannel(MIX3, snr)
    rng = np.random.default_rng(7)
    n = 40_000
    x = sample(MIX3, seed=8, n=n)
    y = np.sqrt(snr) * x + rng.standard_normal(n)
    xp = posterior_sample(ch, y, rng)
    fresh = sample(MIX3, seed=9, n=n)
    assert stats.ks_2samp(xp, fresh).pvalue > 1e-3


def test_divergence_derivative_gaussian_oracle():
    # for Gaussian X, D(P_{Y|X=x} || P_Y) = 0.5[ln(1+s) + (1+s x^2)/(1+s) - 1]
    snr, x = 1.0, 1.0

    def div(s):
        return 0.5 * (np.log1p(s) + (1.0 + s * x * x) / (1.0 + s) - 1.0)

    exact = (div(snr + 1e-6) - div(snr - 1e-6)) / 2e-6
    est = divergence_derivative(standard_gaussian_law(), x, snr,
                                McConfig(seed=1, n_paths=400_000))
    assert abs(est.value - exact) <= 3.0 * est.se


def test_divergence_derivative_requires_positive_snr():
    with pytest.raises(ValueError):
        divergence_derivative(binary_law(), 1.0, 0.0)


# ---------------------------------------------------------------------------
# Taylor expansions, preprocessing, high-snr decay
# ---------------------------------------------------------------------------

def test_taylor_coefficients_binary_and_gaussian():
    mb = moments(binary_law())
    # binary: third 0, fourth 1 -> c = 1 - 6 - 0 + 15 = 10
    assert mmse_taylor(mb, 0.0) == 1.0
    assert mmse_taylor(mb, 0.1) == pytest.approx(
        1 - 0.1 + 0.01 - (10 / 6) * 1e-3, abs=1e-15)
    mg = moments(standard_gaussian_law())
    # gaussian: fourth 3 -> c = 9 - 18 + 15 = 6
    assert mi_taylor(mg, 0.2) == pytest.approx(
        0.1 - 0.01 + 0.008 / 6 - (6 / 48) * 0.2 ** 4, abs=1e-15)


def test_taylor_requires_standardized_law():
    with pytest.raises(ValueError):
        mmse_taylor(moments(Gaussian(1.0, 1.0)), 0.1)


def test_preprocessor_derivative():
    report = preprocessor_derivative(Gaussian(0.0, 1.0), 0.5, 1.3)
    assert report.passed, report.to_dict()


def test_mmse_binary_closed_near_underflow():
    # e^{-snr/2} = 1e-304 at snr 1400: only the prefactor may be small
    assert mmse_binary_closed(1400.0) == pytest.approx(
        mmse(ScalarChannel(binary_law(), 1400.0)), rel=1e-8, abs=0.0)


def test_high_snr_decay_rates():
    report = high_snr_decay()
    assert report.passed, report.to_dict()


# ---------------------------------------------------------------------------
# Order and shape properties
# ---------------------------------------------------------------------------

def test_mmse_monotone_and_bounded():
    vals = [mmse(ScalarChannel(binary_law(), s)) for s in SNR_GRID]
    assert all(np.diff(vals) < 0)
    assert all(0 < v <= 1 for v in vals)


def test_gaussian_input_maximizes_mmse_and_mi():
    for snr in (0.5, 2.0):
        assert mmse(ScalarChannel(binary_law(), snr)) <= 1.0 / (1.0 + snr)
        from immse.scalar import mutual_information
        assert mutual_information(ScalarChannel(binary_law(), snr)) <= \
            0.5 * np.log1p(snr) + 1e-12


def test_mutual_information_concave_in_snr():
    from immse.scalar import mutual_information
    grid = np.linspace(0.2, 5.0, 13)
    vals = np.array([mutual_information(ScalarChannel(MIX3, float(s)))
                     for s in grid])
    assert np.all(np.diff(vals, 2) < 1e-10)


@st.composite
def mixtures(draw):
    k = draw(st.integers(2, 3))
    w = np.array([draw(st.floats(0.1, 1.0)) for _ in range(k)])
    w /= w.sum()
    m = np.array([draw(st.floats(-2.0, 2.0)) for _ in range(k)])
    v = np.array([draw(st.floats(0.05, 2.0)) for _ in range(k)])
    return GaussianMixture(weights=w, means=m, variances=v)


@settings(max_examples=10, deadline=None)
@given(law=mixtures(), snr=st.floats(0.01, 5.0))
def test_property_mmse_and_mi_bounds(law, snr):
    from immse.scalar import mutual_information
    ch = ScalarChannel(law, snr)
    var = moments(law).variance
    e = mmse(ch)
    assert 0.0 <= e <= var + 1e-9
    # Gaussian inputs maximize MMSE at fixed variance
    assert e <= var / (1.0 + snr * var) + 1e-9
    mi = mutual_information(ch)
    assert 0.0 <= mi <= 0.5 * np.log1p(snr * var) + 1e-9
    # the derivative-identity chain gives I >= (snr/2) mmse for concave I
    assert mi >= 0.5 * snr * e - 1e-9


def test_mc_estimate_of_draws():
    draws = np.random.default_rng(3).standard_normal(1001) * 2.0 + 0.5
    est = McEstimate.of(draws)
    assert est.value == draws.mean()
    assert est.se == draws.std(ddof=1) / np.sqrt(draws.size)
    assert est.n == 1001
    with pytest.raises(ValueError):
        McEstimate.of(np.array([1.0]))
