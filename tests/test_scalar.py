"""Scalar channel: closed-form cross-checks, identities, and properties."""
import numpy as np
import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from immse import quadrature, scalar
from immse.errors import NonConvergence
from immse.laws import (DiscreteAtoms, Gaussian, GaussianMixture,
                        GriddedDensity, binary_law, components, moments,
                        sample, shift, standard_gaussian_law)
from immse.quadrature import McConfig, integrate_output
from immse.scalar import (McEstimate, ScalarChannel, conditional_mean,
                          divergence_derivative, fisher_from_mmse,
                          fisher_information, high_snr_decay,
                          incremental_decompose, lemma1_low_snr,
                          log_output_density, mi_binary_closed, mi_taylor,
                          mmse, mmse_binary_closed, mmse_taylor,
                          mutual_information, posterior_sample,
                          posterior_variance, preprocessor_derivative,
                          q_moment, score, verify_immse,
                          verify_immse_integral)

SNR_GRID = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0]

MIX3 = GaussianMixture(weights=np.array([0.3, 0.5, 0.2]),
                       means=np.array([-1.5, 0.2, 1.8]),
                       variances=np.array([0.4, 0.9, 0.2]))

PAM16 = DiscreteAtoms(values=(2.0 * np.arange(1, 17) - 17.0) / np.sqrt(85.0),
                      probs=np.full(16, 1 / 16))


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


def _difference_form(law, snr, y):
    """E[X|y], Var(X|y) and log p_Y(y) with each log weight taken about its
    own output centre, (y - sqrt(snr) m)**2, and each posterior mean about
    m, written out per component apart from the kernel's coefficients."""
    w, m, v = components(law)
    rs, out_var = np.sqrt(snr), 1.0 + snr * v
    with np.errstate(divide="ignore"):
        logw = (np.log(w) - 0.5 * np.log(out_var)
                - 0.5 * (y[:, None] - rs * m) ** 2 / out_var)
    mu = m + rs * v / out_var * (y[:, None] - rs * m)
    top = logw.max(axis=1, keepdims=True)
    wgt = np.exp(logw - top)
    total = wgt.sum(axis=1, keepdims=True)
    wgt /= total
    xhat = np.sum(wgt * mu, axis=1)
    var = np.sum(wgt * (v / out_var + (mu - xhat[:, None]) ** 2), axis=1)
    return xhat, var, (top + np.log(total))[:, 0] - 0.5 * np.log(2 * np.pi)


@pytest.mark.parametrize("law", [
    binary_law(),
    PAM16,
    MIX3,
    GriddedDensity(grid=np.linspace(-np.sqrt(3), np.sqrt(3), 201),
                   pdf=np.full(201, 1 / (2 * np.sqrt(3)))),
], ids=["binary", "pam16", "mix3", "gridded201"])
def test_posterior_stats_match_difference_form(law):
    # the two forms round apart by about eps * snr * m^2 in each log weight,
    # ~1e-12 at snr 1e4; the gates are 1e-10
    for snr in np.geomspace(1e-3, 1e4, 29):
        edges = quadrature._panel_edges(law, snr)
        mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
        y = (mid[:, None] + half[:, None] * quadrature._K21_NODES).ravel()
        ch = ScalarChannel(law, snr)
        xhat, var, logp = (conditional_mean(ch, y), posterior_variance(ch, y),
                           log_output_density(ch, y))
        ref_xhat, ref_var, ref_logp = _difference_form(law, snr, y)
        # relative, but not below the input's unit scale where E[X|y]
        # crosses 0
        assert np.all(np.abs(xhat - ref_xhat)
                      <= 1e-10 * np.maximum(np.abs(ref_xhat), 1.0)), snr
        # relative wherever p_Y * Var is within 1e-15 of its largest value
        with np.errstate(divide="ignore"):
            log_weight = ref_logp + np.log(ref_var)
        held = log_weight >= log_weight.max() + np.log(1e-15)
        assert np.all(np.abs(var - ref_var)[held]
                      <= 1e-10 * ref_var[held]), snr
        assert np.all(np.abs(logp - ref_logp)
                      <= 1e-10 * np.maximum(np.abs(ref_logp), 1.0)), snr


def _mpmath_posterior(law, snr, y):
    """(log p_Y(y), E[X|y], Var(X|y)) at 40 digits from the law's components,
    the variance as the centred sum."""
    with mp.workdps(40):
        rs, y = mp.sqrt(mp.mpf(snr)), mp.mpf(float(y))
        logw, mu, pv = [], [], []
        for w, m, v in zip(*([mp.mpf(float(x)) for x in a]
                             for a in components(law))):
            o = 1 + snr * v
            logw.append(mp.log(w) - mp.log(o) / 2 - (y - rs * m) ** 2 / (2 * o))
            mu.append((m + rs * v * y) / o)
            pv.append(v / o)
        top = max(logw)
        e = [mp.exp(lw - top) for lw in logw]
        total = mp.fsum(e)
        mean = mp.fsum(a * b for a, b in zip(e, mu)) / total
        var = mp.fsum(a * (c + (b - mean) ** 2)
                      for a, b, c in zip(e, mu, pv)) / total
        return (float(top + mp.log(total) - mp.log(2 * mp.pi) / 2),
                float(mean), float(var))


@pytest.mark.parametrize("law", [binary_law(), PAM16, MIX3],
                         ids=["binary", "pam16", "mix3"])
@pytest.mark.parametrize("snr", [0.1, 3.0, 300.0, 1e4])
def test_posterior_queries_match_mpmath(law, snr):
    # six outputs, each an offset from sqrt(snr) times a midpoint between
    # neighbouring component means, so that at high snr the posterior is
    # still split and Var(X|y) (down to 2e-269 for binary at snr 1e4) does
    # not underflow, and |E[X|y]| stays above 0.08; worst measured: 2.9e-15
    # (log p_Y), 4.7e-16 (E[X|y]) and 1.8e-12 (Var(X|y), binary at 1e4,
    # the eps * (y - sqrt(snr) m)^2 of the log weights)
    m = np.sort(components(law)[1])
    mids = 0.5 * (m[:-1] + m[1:])
    offsets = (-2.7, -1.3, -0.4, 0.6, 1.7, 3.1)
    y = np.array([np.sqrt(snr) * mids[(i * mids.size) // 6] + z
                  for i, z in enumerate(offsets)])
    ch = ScalarChannel(law, snr)
    ref = np.array([_mpmath_posterior(law, snr, v) for v in y]).T
    got = (log_output_density(ch, y), conditional_mean(ch, y),
           posterior_variance(ch, y))
    for value, exact, rel in zip(got, ref, (1e-14, 1e-14, 1e-11)):
        assert np.all(np.abs(value - exact) <= rel * np.abs(exact))


UNEQUAL3 = DiscreteAtoms(values=(-1.0, 0.0, 2.0), probs=(0.2, 0.5, 0.3))


# off centre, so that the centring in ``_expect`` shows; from snr 1e3 on its
# calls have more nodes than one ``_at`` block holds (81 outputs of 401
# components, BLOCK_WEIGHTS // 401)
GRIDDED401 = GriddedDensity(grid=np.linspace(0.0, 2.0, 401),
                            pdf=np.full(401, 0.5))


def test_one_law_view_per_call_whatever_its_node_blocks(monkeypatch):
    views, blocks = [], []
    for mod in (scalar, quadrature):
        def counted(law, real=mod.components):
            views.append(law)
            return real(law)
        monkeypatch.setattr(mod, "components", counted)
    real_posterior = scalar._posterior

    def posterior(comps, snr, y):
        blocks.append(y.size)
        return real_posterior(comps, snr, y)

    monkeypatch.setattr(scalar, "_posterior", posterior)
    per_call = []
    for snr in (1e3, 1e5):
        views.clear()
        blocks.clear()
        mmse(ScalarChannel(GRIDDED401, snr))
        per_call.append((len(views), len(blocks)))
    (views_lo, blocks_lo), (views_hi, blocks_hi) = per_call
    assert 1 < blocks_lo < blocks_hi
    assert views_lo == views_hi == 3     # the mean, _expect, the panel edges


@pytest.mark.parametrize("query", [conditional_mean, log_output_density])
def test_mean_and_density_queries_never_build_the_variance(monkeypatch, query):
    def boom(*args):
        raise AssertionError("Var(X|y) was computed")
    monkeypatch.setattr(scalar, "_variance", boom)
    y = np.linspace(-4.0, 4.0, 20_000)
    for law in (binary_law(), MIX3, GRIDDED401):
        # more outputs than one block holds, for each law
        assert y.size > scalar.BLOCK_WEIGHTS // components(law)[0].size
        assert query(ScalarChannel(law, 2.0), y).shape == y.shape


def _expect_all_stats(ch, stat):
    """E_Y[stat(y, E[X|y], Var(X|y), log p_Y(y))], every statistic built by
    the public queries at every node, on the law centred as ``_expect``
    centres it."""
    w, m, _ = components(ch.law)
    centred = ScalarChannel(shift(ch.law, -float(w @ m)), ch.snr)

    def g(y):
        xhat, var, logp = (conditional_mean(centred, y),
                           posterior_variance(centred, y),
                           log_output_density(centred, y))
        return np.exp(logp) * stat(y, xhat, var, logp)

    return integrate_output(g, centred.law, ch.snr)


@pytest.mark.parametrize("law", [binary_law(), UNEQUAL3, MIX3, GRIDDED401],
                         ids=["binary", "unequal3", "mix3", "gridded401"])
@pytest.mark.parametrize("snr", [0.5, 30.0, 1e4])
def test_each_statistic_alone_equals_the_all_statistics_path(law, snr):
    ch = ScalarChannel(law, snr)
    rs = np.sqrt(snr)
    ent = -_expect_all_stats(ch, lambda y, xhat, var, logp: logp)
    assert mutual_information(ch) == max(ent - scalar.HALF_LOG_2PIE, 0.0)
    assert fisher_information(ch) == _expect_all_stats(
        ch, lambda y, xhat, var, logp: (rs * xhat - y) ** 2)
    assert mmse(ch) == max(_expect_all_stats(
        ch, lambda y, xhat, var, logp: var), 0.0)


@pytest.mark.parametrize("law, snr", [
    (binary_law(), 1e7), (binary_law(), 3e7), (binary_law(), 1e8),
    (UNEQUAL3, 1e7),
], ids=["binary-1e7", "binary-3e7", "binary-1e8", "unequal3-1e7"])
def test_mi_and_fisher_exact_at_high_snr(law, snr):
    # the remainders are e^{-snr d^2/8}: H(X) and 1 are the double values
    ch = ScalarChannel(law, snr)
    assert mutual_information(ch) == pytest.approx(
        -np.sum(law.probs * np.log(law.probs)), rel=1e-12, abs=0)
    assert fisher_information(ch) == pytest.approx(1.0, rel=1e-12, abs=0)


@pytest.mark.parametrize("snr", [1e19, 1e20])
def test_binary_mmse_underflows_without_warning(snr):
    # the suite turns RuntimeWarning into an error: exp(log p_Y) may not
    # overflow, since log p_Y <= -ln(2 pi)/2 at every node
    assert mmse(ScalarChannel(binary_law(), snr)) == 0.0


def _uneven_gridded_law():
    """A non-uniform pdf on an unevenly spaced 61-point grid, of trapezoid
    mass 1 + 5e-9 (inside the constructor's 1e-8 tolerance)."""
    u = np.linspace(0.0, 1.0, 61)
    x = -2.0 + 4.5 * u ** 1.7
    pdf = np.exp(-0.5 * (x - 0.4) ** 2) * (1.2 + np.sin(2.0 * x))
    return GriddedDensity(grid=x, pdf=pdf / np.trapezoid(pdf, x) * (1 + 5e-9))


def test_gridded_law_is_trapezoid_weighted_atoms():
    # every posterior statistic must be the trapezoid rule over the grid,
    # endpoints and uneven cells included, of the pdf scaled to unit
    # trapezoid mass
    law = _uneven_gridded_law()
    x = law.grid
    pdf = law.pdf / np.trapezoid(law.pdf, x)
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
        assert np.array_equal(q_moment(ch, y, i),
                              [q_moment(ch, yk, i) for yk in y])

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


def test_gridded_mmse_at_snr_zero_is_its_limit_and_shift_free():
    # mmse(0) is the law's variance; it must be the kernel's limit as snr
    # falls to 0 and must not depend on where the grid sits, also for a mass
    # off 1 by 5e-9
    law = _uneven_gridded_law()
    at0 = mmse(ScalarChannel(law, 0.0))
    assert mmse(ScalarChannel(law, 1e-12)) == pytest.approx(at0, rel=1e-11)
    moved = GriddedDensity(grid=law.grid + 3.0, pdf=law.pdf)
    assert mmse(ScalarChannel(moved, 0.0)) == pytest.approx(at0, rel=1e-13)


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


@pytest.mark.parametrize("deltas, match", [([0.0, 1e-3], "positive"),
                                           ([-1e-3, 1e-3], "positive"),
                                           ([np.nan, 1e-3], "finite")])
def test_low_snr_lemma_rejects_bad_deltas(deltas, match):
    # I(delta)/delta has no value at delta = 0
    with pytest.raises(ValueError, match=match):
        lemma1_low_snr(binary_law(), deltas)


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


@pytest.mark.parametrize("law", [MIX3, binary_law()], ids=["mix3", "binary"])
def test_posterior_sample_scalar_y(law):
    # a scalar y gives a float, the draw of a 1-element array with the seed
    ch = ScalarChannel(law, 1.5)
    draw = posterior_sample(ch, 0.5, np.random.default_rng(5))
    assert isinstance(draw, float)
    assert draw == posterior_sample(ch, np.array([0.5]),
                                    np.random.default_rng(5))[0]


@pytest.mark.parametrize("law, snr, y", [(MIX3, 1.5, 0.4),
                                         (binary_law(), 1.0, 0.5)],
                         ids=["mix3", "binary"])
def test_posterior_sample_at_fixed_output(law, snr, y):
    # draws at one y have the posterior mean and variance, within 3 SE
    ch = ScalarChannel(law, snr)
    xp = posterior_sample(ch, np.full(200_000, y), np.random.default_rng(17))
    xhat, var = conditional_mean(ch, y), posterior_variance(ch, y)
    mean = McEstimate.of(xp)
    assert abs(mean.value - xhat) <= 3.0 * mean.se
    spread = McEstimate.of((xp - xhat) ** 2)
    assert abs(spread.value - var) <= 3.0 * spread.se


def _one_shot_posterior_sample(ch, y, rng):
    """Reference: every y in one ``_posterior`` call, uniforms drawn first,
    then normals unless every component is an atom."""
    ys = np.atleast_1d(np.asarray(y, dtype=float))
    wgt, total, p, q, pv, _ = scalar._posterior(components(ch.law), ch.snr, ys)
    cum = np.cumsum(wgt, axis=0)
    u = rng.random(ys.size) * total
    idx = np.minimum((u > cum).sum(axis=0), wgt.shape[0] - 1)
    draw = p[idx] + q[idx] * ys
    if np.any(pv > 0):
        draw = draw + np.sqrt(pv[idx]) * rng.standard_normal(ys.size)
    return float(draw[0]) if np.ndim(y) == 0 else draw


ATOMS300 = DiscreteAtoms(values=np.linspace(-2.0, 2.0, 300),
                         probs=np.full(300, 1 / 300))


@pytest.mark.parametrize("law, n", [(ATOMS300, 5_000), (MIX3, 80_000),
                                    (binary_law(), 80_000)],
                         ids=["atoms300", "mix3", "binary"])
def test_posterior_sample_in_blocks_equals_one_shot_draws(law, n):
    # the draws span many ``_at`` blocks and equal the one-call draws bit for bit
    ch = ScalarChannel(law, 2.5)
    y = 3.0 * np.random.default_rng(11).standard_normal(n)
    assert n > 4 * (scalar.BLOCK_WEIGHTS // components(law)[0].size)
    assert np.array_equal(posterior_sample(ch, y, np.random.default_rng(12)),
                          _one_shot_posterior_sample(ch, y,
                                                     np.random.default_rng(12)))
    assert (posterior_sample(ch, -0.7, np.random.default_rng(13))
            == _one_shot_posterior_sample(ch, -0.7, np.random.default_rng(13)))


def test_posterior_sample_blocks_hold_a_bounded_number_of_weights(monkeypatch):
    # one call on every y would hold 5,000 x 2,000 = 1e7 weights
    sizes = []
    real_posterior = scalar._posterior

    def posterior(comps, snr, y):
        sizes.append(y.size * comps[0].size)
        return real_posterior(comps, snr, y)

    monkeypatch.setattr(scalar, "_posterior", posterior)
    law = DiscreteAtoms(values=np.linspace(-3.0, 3.0, 2000),
                        probs=np.full(2000, 1 / 2000))
    y = np.random.default_rng(3).standard_normal(5_000)
    posterior_sample(ScalarChannel(law, 2.0), y, np.random.default_rng(4))
    assert len(sizes) > 1
    assert max(sizes) <= scalar.BLOCK_WEIGHTS


@pytest.mark.parametrize("law", [binary_law(), MIX3, PAM16, ATOMS300],
                         ids=["binary", "mix3", "pam16", "atoms300"])
def test_what_the_blocks_of_at_leave_unchanged(law, monkeypatch):
    # every sum over components runs in component order, and a lone output
    # is evaluated as two, so each query gives a y the same bits asked alone,
    # in one-output blocks and in blocks of three (the last one of two);
    # ATOMS300 has the 8 or more components at which numpy would sum a lone
    # output pairwise
    ch = ScalarChannel(law, 3.0)
    y = 3.0 * np.random.default_rng(5).standard_normal(50)
    queries = (conditional_mean, posterior_variance, log_output_density,
               lambda ch, y: q_moment(ch, y, 2))
    full = [query(ch, y) for query in queries]
    draws = posterior_sample(ch, y, np.random.default_rng(6))
    for query, out in zip(queries, full):
        assert [float(np.ravel(query(ch, v))[0]) for v in y] == out.tolist()
    for weights in (1, 3 * components(law)[0].size):
        monkeypatch.setattr(scalar, "BLOCK_WEIGHTS", weights)
        for query, out in zip(queries, full):
            assert np.array_equal(query(ch, y), out), weights
        assert np.array_equal(posterior_sample(ch, y, np.random.default_rng(6)),
                              draws)


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


@pytest.mark.parametrize("noise_var", [np.nan, np.inf])
def test_preprocessor_derivative_rejects_nonfinite_noise_var(noise_var):
    with pytest.raises(ValueError, match="noise_var must be finite"):
        preprocessor_derivative(Gaussian(0.0, 1.0), noise_var, 1.0)


def test_mmse_binary_closed_near_underflow():
    # e^{-snr/2} = 1e-304 at snr 1400: only the prefactor may be small
    assert mmse_binary_closed(1400.0) == pytest.approx(
        mmse(ScalarChannel(binary_law(), 1400.0)), rel=1e-8, abs=0.0)


def test_high_snr_decay_rates():
    report = high_snr_decay()
    assert report.passed, report.to_dict()


@pytest.mark.parametrize("wrong", [
    lambda exact, ch: exact(ScalarChannel(ch.law, ch.snr / 2.0)),
    lambda exact, ch: exact(ch) * ch.snr ** 0.1,
], ids=["binary-rate-halved", "gaussian-rate-0.9"])
def test_high_snr_decay_detects_wrong_mmse(monkeypatch, wrong):
    # the rates must be read off the package's mmse, not off closed forms
    exact = scalar.mmse
    monkeypatch.setattr(scalar, "mmse", lambda ch: wrong(exact, ch))
    assert not high_snr_decay().passed


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
