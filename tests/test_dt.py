"""Discrete time: Kalman triple vs dense conditioning, block MI, bounds."""
import numpy as np
import pytest

from immse.dt import (ARProcess, MmseTriple, block_mi, block_mi_eig,
                      dense_smoother_mmse, kalman_triple, verify_corollary3,
                      verify_thm9)

LATTICE = [(a, s, n) for a in (0.3, 0.6, 0.9) for s in (0.5, 1.0, 5.0)
           for n in (8, 32)]
# the smoother lattice adds a near 1, where Σ has eigenvalues down to about
# (1 - a)/(1 + a), high snr, where the MMSE is about 1/snr, and n = 50
SMOOTHER_LATTICE = [(a, s, n) for a in (0.3, 0.6, 0.9, 0.999, 0.999999)
                    for s in (0.5, 1.0, 5.0, 1e4, 1e8) for n in (8, 32, 50)]


def test_ar_validation():
    with pytest.raises(ValueError):
        ARProcess(1.0, 5)
    with pytest.raises(ValueError):
        ARProcess(0.5, 0)


@pytest.mark.parametrize("n", [2.5, np.nan, np.inf])
def test_ar_rejects_a_horizon_that_is_not_whole(n):
    with pytest.raises(ValueError, match="whole number"):
        ARProcess(0.5, n)


def test_ar_whole_float_horizon_is_an_int():
    p = ARProcess(0.5, 50.0)
    assert p == ARProcess(0.5, 50) and type(p.n) is int
    assert np.array_equal(kalman_triple(p, 1.0).mmse,
                          kalman_triple(ARProcess(0.5, 50), 1.0).mmse)


@pytest.mark.parametrize("fn", [kalman_triple, block_mi])
@pytest.mark.parametrize("snr", [np.nan, np.inf])
def test_rejects_nonfinite_snr(fn, snr):
    with pytest.raises(ValueError, match="finite"):
        fn(ARProcess(0.9, 5), snr)


def test_covariance_is_toeplitz_unit_diagonal():
    p = ARProcess(0.7, 5)
    sigma = p.covariance()
    assert np.allclose(np.diag(sigma), 1.0)
    assert sigma[0, 3] == pytest.approx(0.7 ** 3, rel=1e-14)


@pytest.mark.parametrize("a,snr,n", SMOOTHER_LATTICE)
def test_kalman_smoother_matches_dense_oracle(a, snr, n):
    # relative per index; the two routes part by 2.4e-11 at a = 0.999999
    p = ARProcess(a, n)
    kalman = kalman_triple(p, snr).mmse
    rtol = 1e-10 if a > 0.999 else 1e-12
    assert np.max(np.abs(dense_smoother_mmse(p, snr) - kalman) / kalman) <= rtol


def test_two_step_hand_check():
    a, s = 0.5, 2.0
    p = ARProcess(a, 2)
    t = kalman_triple(p, s)
    # filter at i=0: stationary prior variance 1 observed once
    pf0 = 1.0 / (1.0 + s)
    assert t.cmmse[0] == pytest.approx(pf0, rel=1e-14)
    # prediction at i=1: a^2 pf0 + (1 - a^2), then one more observation
    pp1 = a * a * pf0 + 1.0 - a * a
    assert t.pmmse[1] == pytest.approx(pp1, rel=1e-14)
    assert t.cmmse[1] == pytest.approx(pp1 / (1.0 + s * pp1), rel=1e-14)
    # smoother at i=0 folds the future back through the gain
    c = a * pf0 / pp1
    assert t.mmse[0] == pytest.approx(pf0 + c * c * (t.cmmse[1] - pp1),
                                      rel=1e-14)


def test_triple_ordering():
    t = kalman_triple(ARProcess(0.8, 20), 1.0)
    assert np.all(t.mmse <= t.cmmse + 1e-15)
    assert np.all(t.cmmse <= t.pmmse + 1e-15)


def test_smoother_time_reversal_symmetry():
    # the AR(1) prior is time-reversible, so smoothing errors are palindromic
    t = kalman_triple(ARProcess(0.6, 15), 2.0)
    assert np.allclose(t.mmse, t.mmse[::-1], atol=1e-13)


def test_block_mi_routes_agree():
    p = ARProcess(0.9, 30)
    for s in (0.2, 1.0, 8.0):
        assert block_mi(p, s) == pytest.approx(block_mi_eig(p, s), abs=1e-11)


def test_block_mi_iid_limit():
    # a = 0 decouples into n independent scalar Gaussian channels
    p = ARProcess(0.0, 7)
    assert block_mi(p, 3.0) == pytest.approx(7 * 0.5 * np.log(4.0),
                                             abs=1e-12)


@pytest.mark.parametrize("a,snr,n", LATTICE)
def test_corollary3_lattice(a, snr, n):
    report = verify_corollary3(ARProcess(a, n), snr)
    assert report.passed, report.to_dict()


@pytest.mark.parametrize("snr", [0.0, 5e-5, 1e-4, 1e-3, 1e-2])
def test_corollary3_low_snr(snr):
    # the AR(0.9) block has eigenvalues up to 15.9, so a plain central
    # difference at step 1e-4 is off by ~1e-5 here
    report = verify_corollary3(ARProcess(0.9, 50), snr)
    assert report.passed, report.to_dict()


@pytest.mark.parametrize("a,snr,n", LATTICE)
def test_thm9_sandwich_lattice(a, snr, n):
    report = verify_thm9(ARProcess(a, n), snr)
    assert report.passed, report.to_dict()


def test_returns_mmse_triple_type():
    assert isinstance(kalman_triple(ARProcess(0.5, 3), 1.0), MmseTriple)
