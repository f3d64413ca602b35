"""MMSE-integral representations of entropy, divergence, and information."""
import numpy as np
import pytest
from scipy import integrate

from immse import represent
from immse.errors import NonConvergence, TailNotResolved
from immse.laws import (DiscreteAtoms, Gaussian, GaussianMixture,
                        GriddedDensity, binary_law, standard_gaussian_law)
from immse.represent import (JointAtoms, TailPolicy, differential_entropy_via_mmse,
                             entropy_via_mmse, gamma_epi_check, gamma_index,
                             mi_via_mmse_difference, nongauss_integrand,
                             nongaussianness)
from immse.scalar import ScalarChannel, mutual_information

FOUR_ATOMS = DiscreteAtoms(values=np.array([-3.0, -1.0, 1.0, 3.0]),
                           probs=np.full(4, 0.25))
MIX = GaussianMixture(weights=np.array([0.5, 0.5]),
                      means=np.array([-1.0, 1.0]),
                      variances=np.array([0.25, 0.25]))


def _mixture_pdf(mix, x):
    return sum(w * np.exp(-(x - m) ** 2 / (2 * v)) / np.sqrt(2 * np.pi * v)
               for w, m, v in zip(mix.weights, mix.means, mix.variances))


def _kl_to_matched_gaussian(mix):
    """Direct divergence quadrature oracle D(P_X || N(mean, var))."""
    mean = float(np.sum(mix.weights * mix.means))
    var = float(np.sum(mix.weights * (mix.means ** 2 + mix.variances))
                - mean ** 2)

    def integrand(x):
        p = _mixture_pdf(mix, x)
        phi = np.exp(-(x - mean) ** 2 / (2 * var)) / np.sqrt(2 * np.pi * var)
        return p * np.log(p / phi)

    val, _ = integrate.quad(integrand, mean - 14 * np.sqrt(var),
                            mean + 14 * np.sqrt(var), limit=400)
    return val


# ---------------------------------------------------------------------------
# Entropy
# ---------------------------------------------------------------------------

def test_entropy_four_atoms():
    assert entropy_via_mmse(FOUR_ATOMS) == pytest.approx(np.log(4.0),
                                                         abs=1e-3)


def test_entropy_single_atom_zero():
    one = DiscreteAtoms(values=np.array([2.0]), probs=np.array([1.0]))
    assert entropy_via_mmse(one) == 0.0


def test_entropy_independent_of_mapping():
    h_id = entropy_via_mmse(FOUR_ATOMS)
    h_aff = entropy_via_mmse(FOUR_ATOMS, g=lambda x: 2.0 * x + 1.0)
    assert abs(h_id - h_aff) < 2e-3


def test_entropy_rejects_noninjective_mapping():
    with pytest.raises(ValueError):
        entropy_via_mmse(FOUR_ATOMS, g=lambda x: x * x)


def test_entropy_rejects_near_degenerate_probs():
    skew = DiscreteAtoms(values=np.array([-1.0, 1.0]),
                         probs=np.array([1e-8, 1.0 - 1e-8]))
    with pytest.raises(ValueError):
        entropy_via_mmse(skew)


def test_tail_not_resolved_without_estimator():
    with pytest.raises(TailNotResolved):
        entropy_via_mmse(binary_law(),
                         TailPolicy(snr_max=4.0, tail_estimator="none"))


def test_entropy_running_integral_nondecreasing():
    vals = [entropy_via_mmse(binary_law(),
                             TailPolicy(snr_max=smax,
                                        tail_estimator="exponential_fit"))
            for smax in (20.0, 40.0, 80.0)]
    assert vals[0] <= vals[1] + 1e-9 and vals[1] <= vals[2] + 1e-9
    assert vals[-1] == pytest.approx(np.log(2.0), abs=1e-3)


def test_discrete_mi_saturates_at_entropy():
    # I(snr) <= H(X) for all snr and approaches it
    for s in (0.5, 2.0, 10.0, 40.0):
        mi = mutual_information(ScalarChannel(binary_law(), s))
        assert mi <= np.log(2.0) + 1e-12
    assert mutual_information(ScalarChannel(binary_law(), 40.0)) == \
        pytest.approx(np.log(2.0), abs=1e-4)


# ---------------------------------------------------------------------------
# Non-Gaussianness / differential entropy
# ---------------------------------------------------------------------------

def test_nongaussianness_gaussian_is_zero():
    assert abs(nongaussianness(standard_gaussian_law())) <= 1e-9


def test_nongaussianness_matches_direct_kl():
    assert nongaussianness(MIX) == pytest.approx(_kl_to_matched_gaussian(MIX),
                                                 abs=1e-4)


def test_nongaussianness_binary_truncated_grows():
    d100 = nongaussianness(binary_law(),
                           TailPolicy(snr_max=100.0, tail_estimator="none"))
    d50 = nongaussianness(binary_law(),
                          TailPolicy(snr_max=50.0, tail_estimator="none"))
    assert d100 > 1.0
    assert d100 > d50


def test_nongauss_integrand_nonnegative():
    for s in (0.01, 0.3, 1.0, 5.0, 40.0):
        assert nongauss_integrand(MIX, s) >= -1e-12
        assert nongauss_integrand(binary_law(), s) >= -1e-12


def test_divergence_monotone_toward_input_divergence():
    # data processing: D(P_Y || P_Y') at increasing snr climbs toward
    # D(P_X || P_X') for a Gaussian reference law of the same variance
    ref = Gaussian(0.0, float(np.sum(MIX.weights *
                                     (MIX.means ** 2 + MIX.variances))))
    target = _kl_to_matched_gaussian(MIX)
    from immse.scalar import log_output_density

    def d_out(snr):
        cha = ScalarChannel(MIX, snr)
        chb = ScalarChannel(ref, snr)

        def integrand(y):
            la = log_output_density(cha, np.array([y]))[0]
            lb = log_output_density(chb, np.array([y]))[0]
            return np.exp(la) * (la - lb)

        val, _ = integrate.quad(integrand, -20, 20, limit=200)
        return val

    seq = [d_out(s) for s in (0.5, 1.0, 2.0, 4.0)]
    assert all(np.diff(seq) > 0)
    assert all(v <= target + 1e-9 for v in seq)


def test_differential_entropy_gaussian_exact():
    h = differential_entropy_via_mmse(Gaussian(0.0, 4.0))
    assert h == pytest.approx(0.5 * np.log(8 * np.pi * np.e), abs=1e-9)


def test_differential_entropy_mixture_consistency():
    var = 1.25
    h = differential_entropy_via_mmse(MIX)
    assert h == pytest.approx(0.5 * np.log(2 * np.pi * np.e * var)
                              - _kl_to_matched_gaussian(MIX), abs=1e-4)


def test_differential_entropy_rejects_discrete():
    with pytest.raises(ValueError):
        differential_entropy_via_mmse(binary_law())


@pytest.mark.slow
def test_differential_entropy_gridded_uniform():
    x = np.linspace(-np.sqrt(3), np.sqrt(3), 801)
    unif = GriddedDensity(grid=x, pdf=np.full_like(x, 1 / (2 * np.sqrt(3))))
    h = differential_entropy_via_mmse(
        unif, TailPolicy(snr_max=400.0, tail_estimator="gaussian_tail"))
    assert h == pytest.approx(np.log(2 * np.sqrt(3)), abs=5e-3)


# ---------------------------------------------------------------------------
# gamma index and EPI
# ---------------------------------------------------------------------------

def test_gamma_bounds_and_gaussian_equality():
    assert gamma_index(Gaussian(0.5, 2.0)) == pytest.approx(1.0, abs=1e-9)
    g = gamma_index(MIX)
    assert 0.0 < g < 1.0


def test_epi_gaussian_pair_equality():
    report = gamma_epi_check(Gaussian(0.0, 1.0), Gaussian(1.0, 2.0))
    assert report.passed, report.to_dict()


def test_epi_gaussian_plus_mixture_strict():
    report = gamma_epi_check(Gaussian(0.0, 1.0), MIX)
    assert report.passed, report.to_dict()
    assert "slack" in report.notes


# ---------------------------------------------------------------------------
# Mutual information via MMSE difference
# ---------------------------------------------------------------------------

def test_mi_identity_case():
    j = JointAtoms(x=np.array([-1.0, 1.0]), z=np.array([-1.0, 1.0]),
                   probs=np.array([0.5, 0.5]))
    assert mi_via_mmse_difference(j) == pytest.approx(np.log(2.0), abs=2e-3)


def test_mi_independent_case():
    j = JointAtoms(x=np.array([-1.0, -1.0, 1.0, 1.0]),
                   z=np.array([-1.0, 1.0, -1.0, 1.0]),
                   probs=np.full(4, 0.25))
    assert abs(mi_via_mmse_difference(j)) <= 1e-6


def test_mi_noisy_copy_case():
    p = 0.1
    j = JointAtoms(x=np.array([-1.0, -1.0, 1.0, 1.0]),
                   z=np.array([-1.0, 1.0, -1.0, 1.0]),
                   probs=np.array([(1 - p) / 2, p / 2, p / 2, (1 - p) / 2]))
    target = np.log(2.0) + p * np.log(p) + (1 - p) * np.log(1 - p)
    assert mi_via_mmse_difference(j) == pytest.approx(target, abs=3e-3)


def test_mi_gap_clamps_only_within_tolerance(monkeypatch):
    # every conditional MMSE is shifted up by `excess`, so the gap is -excess
    # at every snr: within REL_TOL it counts as 0, beyond it raises
    j = JointAtoms(x=np.array([-1.0, -1.0, 1.0, 1.0]),
                   z=np.array([-1.0, 1.0, -1.0, 1.0]),
                   probs=np.array([0.45, 0.05, 0.05, 0.45]))

    def shifted(excess):
        return lambda ch: 1.0 + (0.0 if ch.law.probs[0] == 0.5 else excess)

    monkeypatch.setattr(represent, "mmse", shifted(0.0))
    zero_gap = mi_via_mmse_difference(j)
    monkeypatch.setattr(represent, "mmse", shifted(1e-12))
    assert mi_via_mmse_difference(j) == zero_gap
    monkeypatch.setattr(represent, "mmse", shifted(1e-6))
    with pytest.raises(NonConvergence):
        mi_via_mmse_difference(j)


@pytest.mark.parametrize("estimator", ["none", "exponential_fit",
                                       "gaussian_tail"])
def test_mi_of_a_copy_equals_entropy(estimator):
    # I(X;X) = H(X): both integrate the same MMSE curve with the same closure
    tail = TailPolicy(snr_max=20.0, tail_estimator=estimator)
    j = JointAtoms(x=np.array([-1.0, 1.0]), z=np.array([-1.0, 1.0]),
                   probs=np.array([0.5, 0.5]))
    assert mi_via_mmse_difference(j, tail) == entropy_via_mmse(binary_law(),
                                                               tail)


def test_mi_tail_not_resolved_without_estimator():
    # truncated at snr_max 4 the copy's MI would read 0.63, not ln 2
    j = JointAtoms(x=np.array([-1.0, 1.0]), z=np.array([-1.0, 1.0]),
                   probs=np.array([0.5, 0.5]))
    with pytest.raises(TailNotResolved):
        mi_via_mmse_difference(j, TailPolicy(snr_max=4.0, tail_estimator="none"))


# ---------------------------------------------------------------------------
# The snr-integral driver on closed-form integrands
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("f, snr_max, estimator", [
    (lambda s: np.exp(-s), 20.0, "exponential_fit"),
    (lambda s: (1.0 + s) ** -2, 1e4, "gaussian_tail"),
], ids=["exponential", "power"])
def test_snr_integral_closes_the_tail(f, snr_max, estimator):
    total, _ = represent._snr_integral(f, f(0.0),
                                       TailPolicy(snr_max, estimator))
    assert total == pytest.approx(1.0, abs=1e-6)


def test_snr_integral_divergent_power_tail_raises():
    with pytest.raises(TailNotResolved):
        represent._snr_integral(lambda s: 1.0 / (1.0 + s), 1.0,
                                TailPolicy(1e4, "gaussian_tail"))


def test_joint_atoms_validation():
    with pytest.raises(ValueError):
        JointAtoms(x=np.array([0.0]), z=np.array([0.0, 1.0]),
                   probs=np.array([1.0]))
    with pytest.raises(ValueError):
        JointAtoms(x=np.array([0.0, 1.0]), z=np.array([0.0, 1.0]),
                   probs=np.array([0.7, 0.7]))


def test_tail_policy_validation():
    with pytest.raises(ValueError):
        TailPolicy(snr_max=0.5)
    with pytest.raises(ValueError):
        TailPolicy(tail_estimator="bogus")
