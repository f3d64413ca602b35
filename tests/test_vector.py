"""Vector channel: closed forms, atom Monte Carlo, and identity checks."""
import numpy as np
import pytest

from immse.errors import DegenerateCovariance
from immse.quadrature import McConfig
from immse.scalar import mi_binary_closed, mmse_binary_closed
from immse.vector import (AtomSet, GaussianVec, VectorChannelModel, atom_mi,
                          atom_mmse, de_bruijn_check, fisher_matrix,
                          gaussian_error_cov, gaussian_mi, gaussian_mmse,
                          likelihood_lemmas_check, multiuser_derivative,
                          verify_immse_vector)


def _gaussian_model(seed=0, l_dim=3, k_dim=3, snr=1.0):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((l_dim, k_dim))
    a = rng.standard_normal((k_dim, k_dim))
    cov = a @ a.T + 0.5 * np.eye(k_dim)
    return VectorChannelModel(H=h, input=GaussianVec(np.zeros(k_dim), cov),
                              snr_diag=np.full(k_dim, snr))


def _binary_product_atoms(k_dim=2):
    pts = np.array([[a, b] for a in (-1.0, 1.0) for b in (-1.0, 1.0)])
    return AtomSet(points=pts[:, :k_dim] if k_dim == 2 else pts,
                   probs=np.full(4, 0.25))


@pytest.mark.parametrize("h, snr", [([[1.0, np.nan]], 1.0),
                                    ([[1.0, 0.0]], np.inf)])
def test_model_rejects_nonfinite(h, snr):
    with pytest.raises(ValueError, match="finite"):
        VectorChannelModel(H=h, input=_binary_product_atoms(), snr_diag=snr)


def test_gaussian_mi_rotation_invariance():
    model = _gaussian_model(seed=1)
    rng = np.random.default_rng(2)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    rotated = VectorChannelModel(H=q @ model.H, input=model.input,
                                 snr_diag=model.snr_diag)
    assert gaussian_mi(rotated) == pytest.approx(gaussian_mi(model),
                                                 abs=1e-12)


def test_gaussian_error_cov_matches_direct_inverse():
    model = _gaussian_model(seed=3, snr=2.0)
    a = model.effective_matrix
    direct = np.linalg.inv(np.linalg.inv(model.input.cov) + a.T @ a)
    assert np.allclose(gaussian_error_cov(model), direct, atol=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("snr", [0.5, 1.0, 4.0])
def test_vector_derivative_identity_gaussian(seed, snr):
    report = verify_immse_vector(_gaussian_model(seed=seed, snr=snr))
    assert report.passed, report.to_dict()


def test_vector_derivative_identity_at_zero_snr():
    # I(snr) = log(1 + snr): the second-order one-sided difference is off by
    # d**2 * I'''(0) / 3 = 7e-9, a first-order one by d * |I''(0)| / 2 = 5e-5
    model = VectorChannelModel(H=np.eye(2),
                               input=GaussianVec(np.zeros(2), np.eye(2)),
                               snr_diag=np.zeros(2))
    report = verify_immse_vector(model)
    assert report.passed, report.to_dict()


def test_atom_engines_match_scalar_closed_forms():
    # diagonal H decouples into independent scalar binary channels
    h = np.diag([1.0, 1.5])
    snr = 1.2
    model = VectorChannelModel(H=h, input=_binary_product_atoms(),
                               snr_diag=np.full(2, snr))
    mc = McConfig(seed=4, n_paths=200_000)
    mi = atom_mi(model, mc)
    mi_exact = mi_binary_closed(snr) + mi_binary_closed(snr * 1.5 ** 2)
    assert abs(mi.value - mi_exact) <= 3.0 * mi.se
    err = atom_mmse(model, mc)
    mmse_exact = mmse_binary_closed(snr) + \
        1.5 ** 2 * mmse_binary_closed(snr * 1.5 ** 2)
    assert abs(err.value - mmse_exact) <= 3.0 * err.se


def test_fisher_matrix_gaussian_routes_and_bounds():
    model = _gaussian_model(seed=5, snr=1.5)
    fm = fisher_matrix(model)
    assert np.allclose(fm.covariance_route, fm.score_route, atol=1e-12)
    eig = np.linalg.eigvalsh(fm.covariance_route)
    assert np.all(eig > 0) and np.all(eig <= 1.0 + 1e-12)


def test_fisher_matrix_atom_routes_agree():
    model = VectorChannelModel(H=np.diag([1.0, 1.5]),
                               input=_binary_product_atoms(),
                               snr_diag=np.full(2, 1.0))
    fm = fisher_matrix(model, McConfig(seed=6, n_paths=100_000))
    dev = np.abs(fm.covariance_route - fm.score_route).max()
    assert dev <= 5.0 * fm.se, (dev, fm.se)


def test_de_bruijn_gaussian():
    report = de_bruijn_check(_gaussian_model(seed=7, snr=1.0), 1.0)
    assert report.passed, report.to_dict()


def test_de_bruijn_atoms_mc():
    model = VectorChannelModel(H=np.diag([1.0, 1.5]),
                               input=_binary_product_atoms(),
                               snr_diag=np.full(2, 1.0))
    report = de_bruijn_check(model, 1.0,
                             mc=McConfig(seed=8, n_paths=200_000))
    assert report.passed, report.to_dict()


def test_de_bruijn_rejects_zero_snr():
    with pytest.raises(ValueError):
        de_bruijn_check(_gaussian_model(seed=7), 0.0)


def test_multiuser_derivative_gaussian():
    model = _gaussian_model(seed=9, k_dim=2, l_dim=2, snr=1.0)
    uneven = model.with_snr(np.array([0.8, 1.7]))
    for k in (0, 1):
        report = multiuser_derivative(uneven, k)
        assert report.passed, report.to_dict()


def test_multiuser_derivative_rejects_zero_snr():
    model = _gaussian_model(seed=10, k_dim=2, l_dim=2)
    with pytest.raises(ValueError):
        multiuser_derivative(model.with_snr(np.array([0.0, 1.0])), 0)


def test_likelihood_lemmas_atoms_and_gaussian():
    y = np.array([0.3, -0.8])
    atoms = VectorChannelModel(H=np.diag([1.0, 1.5]),
                               input=_binary_product_atoms(),
                               snr_diag=np.full(2, 1.0))
    assert likelihood_lemmas_check(atoms, y, 1.0).passed
    gauss = _gaussian_model(seed=11, k_dim=2, l_dim=2)
    assert likelihood_lemmas_check(gauss, y, 0.7).passed


def test_degenerate_covariance_rejected():
    cov = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
    model = VectorChannelModel(H=np.eye(2),
                               input=GaussianVec(np.zeros(2), cov),
                               snr_diag=np.ones(2))
    with pytest.raises(DegenerateCovariance):
        gaussian_error_cov(model)


def test_common_snr_guard():
    model = _gaussian_model(seed=12).with_snr(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        model.common_snr
