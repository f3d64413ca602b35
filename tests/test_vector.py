"""Vector channel: closed forms, atom Monte Carlo, and identity checks."""
import threading
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from scipy.special import logsumexp

from immse import vector
from immse.laws import binary_law
from immse.quadrature import McConfig
from immse.scalar import McEstimate, mi_binary_closed, mmse_binary_closed
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


def _rank_one_model(snr_diag):
    # Σ = v vᵀ is singular: GaussianVec accepts it and its MMSE is finite
    v = np.array([0.6, -1.3])
    return VectorChannelModel(H=[[1.0, 0.5], [-0.2, 2.0], [0.7, 0.1]],
                              input=GaussianVec(np.zeros(2), np.outer(v, v)),
                              snr_diag=snr_diag)


def _gain_form_mmse(model):
    """tr(H E Hᵀ) with E = Σ - Σ Aᵀ Cov Y⁻¹ A Σ in 60 digits, from the
    model's double-precision entries."""
    with mp.workdps(60):
        a, h = mp.matrix(model.effective_matrix.tolist()), mp.matrix(model.H.tolist())
        cov = mp.matrix(model.input.cov.tolist())
        err = cov - cov * a.T * mp.inverse(mp.eye(a.rows) + a * cov * a.T) * a * cov
        heh = h * err * h.T
        return float(sum(heh[i, i] for i in range(h.rows)))


def _binary_product_atoms(k_dim=2):
    pts = np.array([[a, b] for a in (-1.0, 1.0) for b in (-1.0, 1.0)])
    return AtomSet(points=pts[:, :k_dim] if k_dim == 2 else pts,
                   probs=np.full(4, 0.25))


@pytest.mark.parametrize("h, snr, make_input", [
    pytest.param([[1.0, np.nan]], 1.0, _binary_product_atoms, id="h0-1.0"),
    pytest.param([[1.0, 0.0]], np.inf, _binary_product_atoms, id="h1-inf"),
    pytest.param([[1.0, 0.0]], 1.0, lambda: AtomSet(
        points=[[0.0, np.nan], [1.0, 1.0]], probs=[0.5, 0.5]), id="nan-atom"),
    pytest.param([[1.0, 0.0]], 1.0, lambda: GaussianVec(
        np.array([np.nan, 0.0]), np.eye(2)), id="nan-mean"),
])
def test_model_rejects_nonfinite(h, snr, make_input):
    with pytest.raises(ValueError, match="finite"):
        VectorChannelModel(H=h, input=make_input(), snr_diag=snr)


@pytest.mark.parametrize("mean, cov, message", [
    (np.zeros(2), -np.eye(2), "cov must be positive semidefinite"),
    (np.zeros(2), [[1.0, 2.0], [2.0, 1.0]], "cov must be positive semidefinite"),
    (np.zeros(3), np.eye(2), "cov must be 3x3"),
    (np.zeros(2), np.ones((2, 3)), "cov must be 2x2"),
    (np.zeros((2, 1)), np.eye(2), "mean must be"),
], ids=["minus-identity", "indefinite", "mean-too-long", "not-square", "mean-2d"])
def test_gaussian_vec_rejects_bad_mean_or_cov(mean, cov, message):
    with pytest.raises(ValueError, match=message):
        GaussianVec(mean, cov)


def test_model_rejects_input_of_another_type():
    with pytest.raises(TypeError, match="AtomSet or a GaussianVec"):
        VectorChannelModel(H=np.eye(1), input=binary_law(), snr_diag=1.0)


def test_rank_one_covariance_closed_forms():
    # Σ = v vᵀ: Cov Y = I + u uᵀ with u = A v, so I(X;Y) = ln(1 + ||u||²)/2
    # and, by Sherman-Morrison, J = Cov Y⁻¹ = I - u uᵀ/(1 + ||u||²)
    model = _rank_one_model([2.0, 0.5])
    u = model.effective_matrix @ np.array([0.6, -1.3])
    assert gaussian_mi(model) == pytest.approx(0.5 * np.log1p(u @ u), rel=1e-13, abs=0)
    j = np.eye(3) - np.outer(u, u) / (1.0 + u @ u)
    assert np.abs(fisher_matrix(model).score_route - j).max() <= 1e-13


@pytest.mark.parametrize("snr", [0.1, 1.0, 100.0, 1e6])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gaussian_routes_match_direct_formulas(seed, snr):
    # I(X;Y) and J against slogdet and inv of Cov Y in double precision; the
    # lemmas' E||Z|y||² and tr Cov(Z|y) against the gain form
    # Cov Z - Cov Z Cov Y⁻¹ Cov Z in 40 digits, which in double precision
    # cancels to 5e-9 relative at snr 1e6
    model = _gaussian_model(seed=seed, snr=snr)
    a = model.effective_matrix
    cov_z = a @ model.input.cov @ a.T
    cov_y = np.eye(3) + cov_z
    assert gaussian_mi(model) == pytest.approx(
        0.5 * np.linalg.slogdet(cov_y)[1], rel=1e-12, abs=0)
    j = np.linalg.inv(cov_y)
    assert np.abs(fisher_matrix(model).score_route - j).max() <= 1e-12 * np.abs(j).max()

    y = np.array([0.3, -0.8, 0.5])
    report = likelihood_lemmas_check(model, y, snr)
    assert report.passed, report.to_dict()
    with mp.workdps(40):
        cz = mp.matrix(cov_z.tolist())
        gain = cz * mp.inverse(mp.eye(3) + cz)
        zbar = gain * mp.matrix(y.tolist())
        trace_post = sum((cz - gain * cz)[i, i] for i in range(3))
        z2 = float(sum(zbar[i] ** 2 for i in range(3)) + trace_post)
        trace_post = float(trace_post)
    assert report.checks[1].rhs == pytest.approx(trace_post, rel=1e-12, abs=0)
    assert report.checks[2].rhs == pytest.approx(z2, rel=1e-12, abs=0)


def test_gaussian_mi_rotation_invariance():
    model = _gaussian_model(seed=1)
    rng = np.random.default_rng(2)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    rotated = VectorChannelModel(H=q @ model.H, input=model.input,
                                 snr_diag=model.snr_diag)
    assert gaussian_mi(rotated) == pytest.approx(gaussian_mi(model),
                                                 abs=1e-12)


def _oracle_cov(kind, k):
    """K x K Σ: full rank, or singular with integer factors, or zero."""
    if kind == "full-rank":
        b = np.random.default_rng(k).standard_normal((k, k))
        return b @ b.T + 0.5 * np.eye(k)
    v = np.array([[2.0, 1.0], [-1.0, 0.0], [3.0, -2.0]])[:k]
    v = {"rank-one": v[:, :1], "low-rank": v[:, :k - 1], "zero": 0.0 * v}[kind]
    return v @ v.T


@pytest.mark.parametrize("snr", [1.0, 1e3, 1e6, 1e9])
@pytest.mark.parametrize("k_dim", [3, 2])
@pytest.mark.parametrize("cov", ["full-rank", "rank-one", "low-rank", "zero"])
def test_gaussian_mmse_matches_gain_form_oracle(cov, k_dim, snr):
    # tr(H E Hᵀ) to 1e-12 relative against the gain form, which loses about
    # log10(snr) digits to cancellation and so is taken in 60 digits; Σ = 0
    # has rank 0 and must give E = 0 exactly
    h = np.random.default_rng(10 + k_dim).standard_normal((3, k_dim))
    model = VectorChannelModel(H=h, input=GaussianVec(np.zeros(k_dim),
                                                      _oracle_cov(cov, k_dim)),
                               snr_diag=snr)
    assert gaussian_mmse(model) == pytest.approx(_gain_form_mmse(model), rel=1e-12, abs=0)


def test_gaussian_error_cov_matches_direct_inverse():
    model = _gaussian_model(seed=3, snr=2.0)
    a = model.effective_matrix
    direct = np.linalg.inv(np.linalg.inv(model.input.cov) + a.T @ a)
    assert np.allclose(gaussian_error_cov(model), direct, atol=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2, "rank-one"])
@pytest.mark.parametrize("snr", [0.5, 1.0, 4.0])
def test_vector_derivative_identity_gaussian(seed, snr):
    model = (_rank_one_model(snr) if seed == "rank-one"
             else _gaussian_model(seed=seed, snr=snr))
    report = verify_immse_vector(model)
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


def _qam_model():
    pts = np.array([[a, b] for a in (-3.0, -1.0, 1.0, 3.0)
                    for b in (-3.0, -1.0, 1.0, 3.0)]) / np.sqrt(10.0)
    h = np.random.default_rng(16).standard_normal((3, 2))
    return VectorChannelModel(H=h, input=AtomSet(pts, np.full(16, 1 / 16)),
                              snr_diag=np.full(2, 4.0))


def _difference_form_engines(model, mc):
    """atom_mi and atom_mmse draws and both Fisher routes from the
    (n, n_atoms, L) difference kernel and centred posterior sums, on the
    engines' draws (one block: n_paths is below MC_CHUNK)."""
    atoms, eff, n = model.input, model.effective_matrix, mc.n_paths
    rng = np.random.default_rng(mc.seed)
    idx = rng.choice(atoms.probs.size, size=n, p=atoms.probs)
    noise = rng.standard_normal((n, eff.shape[0]))
    y = atoms.points[idx] @ eff.T + noise
    d = y[:, None, :] - (atoms.points @ eff.T)[None, :, :]
    logw = np.log(atoms.probs) - 0.5 * np.einsum("nkl,nkl->nk", d, d)
    w = np.exp(logw - logw.max(axis=1, keepdims=True))
    w /= w.sum(axis=1, keepdims=True)
    mi = -0.5 * np.einsum("nl,nl->n", noise, noise) - logsumexp(logw, axis=1)
    hx = atoms.points @ model.H.T
    dev = hx[None, :, :] - (w @ hx)[:, None, :]
    err = np.einsum("nk,nkl,nkl->n", w, dev, dev)
    mean = w @ atoms.points
    dev = atoms.points[None, :, :] - mean[:, None, :]
    cov = np.einsum("nk,nki,nkj->ij", w, dev, dev) / n
    g = mean @ eff.T - y
    return (McEstimate.of(mi), McEstimate.of(err),
            np.eye(eff.shape[0]) - eff @ cov @ eff.T, g.T @ g / n)


@pytest.mark.parametrize("model", [
    _qam_model(),
    VectorChannelModel(H=np.diag([1.0, 1.5]), input=_binary_product_atoms(),
                       snr_diag=np.full(2, 1.2))], ids=["qam16-3x2", "pair"])
def test_atom_engines_match_difference_form(model):
    mc = McConfig(seed=21, n_paths=20_000)
    mi, err, j_cov, j_score = _difference_form_engines(model, mc)
    fm = fisher_matrix(model, mc)
    for got, ref in [(atom_mi(model, mc), mi), (atom_mmse(model, mc), err)]:
        assert got.value == pytest.approx(ref.value, rel=1e-12, abs=0)
        assert got.se == pytest.approx(ref.se, rel=1e-12, abs=0)
    for got, ref in [(fm.covariance_route, j_cov), (fm.score_route, j_score)]:
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("snr", [60.0, 4.0])
def test_atom_mmse_keeps_tiny_posterior_variances(snr):
    # at snr 60 every sampled posterior variance is far below 1e-16 ||Hx||^2
    model = VectorChannelModel(H=np.diag([1.0, 1.5]),
                               input=_binary_product_atoms(),
                               snr_diag=np.full(2, snr))
    mc = McConfig(seed=0, n_paths=20_000)
    ref = _difference_form_engines(model, mc)[1]
    got = atom_mmse(model, mc)
    assert ref.value > 0
    assert got.value == pytest.approx(ref.value, rel=1e-9, abs=0)
    assert got.se == pytest.approx(ref.se, rel=1e-9, abs=0)


def test_atom_sweep_memory_bounded_by_elements():
    # 4,096 atoms: posterior weights for all 3,000 draws at once are 98 MB,
    # and a table of the atoms' pairwise distances 134 MB
    grid = np.linspace(-1.0, 1.0, 64)
    pts = np.array([[a, b] for a in grid for b in grid])
    model = VectorChannelModel(H=np.eye(2), snr_diag=np.full(2, 1.0),
                               input=AtomSet(pts, np.full(4096, 1 / 4096)))
    for engine in (atom_mi, atom_mmse):
        tracemalloc.start()
        try:
            engine(model, McConfig(seed=0, n_paths=3000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20, (engine.__name__, peak)


def _serial_sweep(model, mc, stats_fn):
    """The atom sweep on one thread: draw a block, then evaluate it."""
    rng = np.random.default_rng(mc.seed)
    centers, const = vector._atom_centers(model)
    rows = min(vector.MC_CHUNK, 2 ** 20 // model.input.probs.size)
    out = []
    for start in range(0, mc.n_paths, rows):
        n = min(rows, mc.n_paths - start)
        idx = rng.choice(model.input.probs.size, size=n, p=model.input.probs)
        noise = rng.standard_normal((n, centers.shape[1]))
        y = centers[idx] + noise
        out.append(stats_fn(noise, y, *vector._atom_posterior(y, centers, const)))
    return out


def test_atom_sweep_equals_serial_sweep():
    # 2.5 blocks: the helper draws each next block while this one is
    # evaluated, and the results come back in block order
    model = VectorChannelModel(H=np.diag([1.0, 1.5]), input=_binary_product_atoms(),
                               snr_diag=np.full(2, 1.2))
    mc = McConfig(seed=8, n_paths=5 * vector.MC_CHUNK // 2)

    def stats(*arrays):
        return [a.copy() for a in arrays]

    got = vector._atom_mc_sweep(model, mc, stats)
    want = _serial_sweep(model, mc, stats)
    assert [len(b[0]) for b in got] == [vector.MC_CHUNK] * 2 + [vector.MC_CHUNK // 2]
    for g, w in zip(got, want, strict=True):
        for a, b in zip(g, w, strict=True):
            assert np.array_equal(a, b)


def test_atom_sweep_failure_leaves_no_thread():
    model = VectorChannelModel(H=np.diag([1.0, 1.5]), input=_binary_product_atoms(),
                               snr_diag=np.full(2, 1.2))
    before, seen = threading.active_count(), []

    def stats(noise, y, w, logp):
        seen.append(threading.active_count())
        if len(seen) == 3:
            raise RuntimeError("block 2 fails")
        return 0.0

    with pytest.raises(RuntimeError, match="block 2 fails"):
        vector._atom_mc_sweep(model, McConfig(seed=8, n_paths=4 * vector.MC_CHUNK),
                              stats)
    assert seen == [before + 1] * 3     # the helper ran beside every block
    assert threading.active_count() == before


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
    full = _gaussian_model(seed=9, k_dim=2, l_dim=2, snr=1.0)
    for uneven in (full.with_snr(np.array([0.8, 1.7])), _rank_one_model([0.8, 1.7])):
        for k in (0, 1):
            report = multiuser_derivative(uneven, k)
            assert report.passed, report.to_dict()


@pytest.mark.parametrize("h, inp, k, message", [
    ([[1.0, 0.5]], GaussianVec(np.zeros(2), np.eye(2)), -1, "k must be an integer"),
    ([[1.0, 0.5]], GaussianVec(np.zeros(2), np.eye(2)), 2, "k must be an integer"),
    ([[1.0, 0.5]], GaussianVec(np.zeros(2), np.eye(2)), 0.5, "k must be an integer"),
    (np.zeros((0, 2)), GaussianVec(np.zeros(2), np.eye(2)), 0, "H must have"),
    (np.zeros((2, 0)), AtomSet(points=np.zeros((1, 0)), probs=[1.0]), 0, "H must have"),
], ids=["k=-1", "k=K", "k=0.5", "H-0x2", "H-2x0"])
def test_multiuser_rejects_bad_user_and_model_rejects_empty_h(h, inp, k, message):
    with pytest.raises(ValueError, match=message):
        multiuser_derivative(VectorChannelModel(H=h, input=inp, snr_diag=1.0), k)


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


@pytest.mark.parametrize("cov", [[[1.0, 1.0], [1.0, 1.0 + 1e-15]], np.diag([2.0, 1e-13])],
                         ids=["near-singular", "span-1e13"])
def test_formerly_degenerate_covariance_matches_oracle(cov):
    # Σ's eigenvalues are 5.6e-16 and 2, or 1e-13 and 2: a span far over
    # 1e12, which a route through Σ⁻¹ could not serve
    model = VectorChannelModel(H=np.eye(2), input=GaussianVec(np.zeros(2), cov),
                               snr_diag=np.ones(2))
    assert gaussian_mmse(model) == pytest.approx(_gain_form_mmse(model), rel=1e-12, abs=0)


def test_common_snr_guard():
    model = _gaussian_model(seed=12).with_snr(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        model.common_snr
