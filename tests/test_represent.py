"""MMSE-integral representations of entropy, divergence, and information."""
import mpmath as mp
import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtr

from immse import represent
from immse.errors import NonConvergence, TailNotResolved
from immse.laws import (DiscreteAtoms, Gaussian, GaussianMixture,
                        GriddedDensity, binary_law, standard_gaussian_law)
from immse.represent import (JointAtoms, TailPolicy, differential_entropy_via_mmse,
                             entropy_via_mmse, gamma_epi_check, gamma_index,
                             mi_via_mmse_difference, nongauss_integrand,
                             nongaussianness)
from immse.scalar import ScalarChannel, mmse, mutual_information

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


PAM16 = DiscreteAtoms(values=(2.0 * np.arange(1, 17) - 17.0) / np.sqrt(85.0),
                      probs=np.full(16, 1 / 16))


@pytest.mark.parametrize("law", [binary_law(), FOUR_ATOMS, PAM16],
                         ids=["binary", "pam4", "pam16"])
def test_entropy_of_atoms_to_1e9(law):
    # the integral ends where snr * d_min^2 / 8 = 25, so what is left is
    # below 1e-11; unit-variance 16-PAM ends at snr 4250
    assert entropy_via_mmse(law) == pytest.approx(np.log(law.values.size),
                                                  rel=0.0, abs=1e-9)


def test_entropy_runs_in_variance_scaled_snr(monkeypatch):
    # 4-PAM (variance 5) ends at snr 50; in u = 5 snr that is two equal
    # panels up to ln(1 + 250), each resolved at its first level: 2 * 43 MMSEs
    calls = []
    monkeypatch.setattr(represent, "mmse",
                        lambda ch: calls.append(ch.snr) or mmse(ch))
    entropy_via_mmse(FOUR_ATOMS)
    assert len(calls) == 2 * 43


def test_entropy_single_atom_zero():
    one = DiscreteAtoms(values=np.array([2.0]), probs=np.array([1.0]))
    assert entropy_via_mmse(one) == 0.0


def test_entropy_independent_of_mapping():
    h_id = entropy_via_mmse(FOUR_ATOMS)
    h_aff = entropy_via_mmse(FOUR_ATOMS, g=lambda x: 2.0 * x + 1.0)
    assert abs(h_id - h_aff) < 2e-3


def test_entropy_rejects_noninjective_mapping():
    with pytest.raises(ValueError, match="after g, must be distinct"):
        entropy_via_mmse(FOUR_ATOMS, g=lambda x: x * x)


def test_entropy_rejects_repeated_atom_values_without_g():
    # no g is given, so the message names the repeated values, not g
    repeated = DiscreteAtoms(values=np.array([0.0, 0.0, 1.0]),
                             probs=np.array([0.25, 0.25, 0.5]))
    with pytest.raises(ValueError, match="atom values, after g, must be distinct"):
        entropy_via_mmse(repeated)


def test_entropy_rejects_near_degenerate_probs():
    skew = DiscreteAtoms(values=np.array([-1.0, 1.0]),
                         probs=np.array([1e-11, 1.0 - 1e-11]))
    with pytest.raises(ValueError):
        entropy_via_mmse(skew)


@pytest.mark.parametrize("p", [1e-8, 1e-10])
def test_entropy_of_skewed_binary_to_the_floor(p):
    # down to the floor of 1e-10, the binary entropy matches its closed form
    # to 1e-8 relative
    skew = DiscreteAtoms(values=np.array([-1.0, 1.0]),
                         probs=np.array([p, 1.0 - p]))
    exact = -p * np.log(p) - (1.0 - p) * np.log1p(-p)
    assert entropy_via_mmse(skew) == pytest.approx(exact, rel=1e-8, abs=0.0)


def test_entropy_running_integral_nondecreasing():
    # half the running integral at 20, 40, 50 and 80; the entropy ends at
    # snr 50, where snr d_min**2 / 8 = 25 and the remainder is below 1e-11
    vals = [0.5 * represent._mmse_integral(binary_law(), smax)
            for smax in (20.0, 40.0, 50.0, 80.0)]
    assert all(np.diff(vals) >= -1e-9)
    assert entropy_via_mmse(binary_law()) == vals[2]
    assert vals[2] == pytest.approx(np.log(2.0), abs=1e-3)


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


def test_nongaussianness_of_atoms_is_infinite():
    assert nongaussianness(binary_law()) == np.inf
    assert gamma_index(binary_law()) == 0.0


def test_nongaussianness_binary_truncated_grows():
    d100 = nongaussianness(binary_law(), TailPolicy(100.0))
    d50 = nongaussianness(binary_law(), TailPolicy(50.0))
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


def test_mi_of_a_nearly_independent_copy():
    # I = 2.0e-8: each MMSE is integrated on its own and subtracted after,
    # so no relative stop is asked of the tiny gap.  A difference of two
    # integrals of size ln 2 resolves I to a few units of 1.1e-16, the
    # spacing of doubles near ln 2, so 1e-15 is about 5e-8 of I
    p = 0.4999
    j = JointAtoms(x=np.array([-1.0, -1.0, 1.0, 1.0]),
                   z=np.array([-1.0, 1.0, -1.0, 1.0]),
                   probs=np.array([(1 - p) / 2, p / 2, p / 2, (1 - p) / 2]))
    with mp.workdps(40):
        q = mp.mpf(p)
        target = float(mp.log(2) + q * mp.log(q) + (1 - q) * mp.log(1 - q))
    assert mi_via_mmse_difference(j) == pytest.approx(target, rel=0.0,
                                                      abs=1e-15)


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


@pytest.mark.parametrize("g", [pytest.param(None, id="none"),
                               pytest.param(lambda v: ndtr(-v),
                                            id="gaussian_tail")])
def test_mi_of_a_copy_equals_entropy(g):
    # I(X; g(X)) = H(X) for injective g, here none or the Gaussian tail
    # Q(x) = P(N > x): both integrate the same MMSE curve of g(X) to the end
    # that g(X)'s own atom gap sets
    x = np.array([-1.0, 1.0])
    j = JointAtoms(x=x, z=x if g is None else g(x), probs=np.array([0.5, 0.5]))
    assert mi_via_mmse_difference(j) == entropy_via_mmse(binary_law(), g)


def test_snr_integral_divergent_power_tail_raises():
    # a 21-point grid has step h = 0.173: by snr 1e4 (snr h^2 / 8 = 37.5) its
    # grid points resolve as atoms, the MMSE is about 0 and the integrand
    # falls like 1/snr, so the closure would add about 2 to the integral;
    # at snr_max 400 the integrand already rises from 100 to 400
    x = np.linspace(-np.sqrt(3), np.sqrt(3), 21)
    coarse = GriddedDensity(grid=x, pdf=np.full_like(x, 1 / (2 * np.sqrt(3))))
    for tail in (None, TailPolicy(400.0, "gaussian_tail")):
        with pytest.raises(TailNotResolved, match="diverges"):
            differential_entropy_via_mmse(coarse, tail)


def test_joint_atoms_validation():
    with pytest.raises(ValueError):
        JointAtoms(x=np.array([0.0]), z=np.array([0.0, 1.0]),
                   probs=np.array([1.0]))
    with pytest.raises(ValueError):
        JointAtoms(x=np.array([0.0, 1.0]), z=np.array([0.0, 1.0]),
                   probs=np.array([0.7, 0.7]))
    with pytest.raises(ValueError, match="finite"):
        JointAtoms(x=np.array([np.nan, 1.0]), z=np.array([0.0, 1.0]),
                   probs=np.array([0.5, 0.5]))


def test_tail_policy_validation():
    with pytest.raises(ValueError):
        TailPolicy(snr_max=0.5)
    with pytest.raises(ValueError):
        TailPolicy(tail_estimator="bogus")
    with pytest.raises(ValueError):
        TailPolicy(20.0, "exponential_fit")
    with pytest.raises(ValueError):
        TailPolicy(20.0, "none")
    for snr_max in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            TailPolicy(snr_max=snr_max)
