"""Eigensolver checked against full dense decompositions."""

import tracemalloc

import numpy as np
import pytest

from mpxmbo import (
    ConvergenceError,
    LinearOperator,
    SpectralBasis,
    basis_for_method,
    compute_degrees,
    largest_eigenpairs,
    load_basis,
    modularity_op,
    save_basis,
    shifted_neg_lk_op,
)
from mpxmbo import eigensolver

from conftest import (
    dense_balance,
    dense_laplacian,
    dense_modularity,
    from_dense_layers,
    planted_network,
    random_gamma,
    random_network,
    to_dense,
)


def check_against_dense(op, basis, k, tol):
    """Eigenvalues match the dense top-k, columns orthonormal, residuals honest."""
    a = to_dense(op)
    ref = np.linalg.eigvalsh(a)[::-1][:k]
    scale = max(np.abs(ref).max(), 1.0)
    assert np.abs(basis.eigenvalues - ref).max() <= 50 * tol * scale
    gram = basis.eigenvectors.T @ basis.eigenvectors
    assert np.abs(gram - np.eye(k)).max() <= 1e-7
    true_resid = np.linalg.norm(
        a @ basis.eigenvectors - basis.eigenvectors * basis.eigenvalues, axis=0
    )
    assert np.all(true_resid <= 2 * tol * max(scale, 1.0) + 1e-12)


# start-vector seeds of the Lanczos solve
START_SEEDS = [0, 600]


@pytest.mark.parametrize("seed", START_SEEDS)
def test_matches_dense_oracle(seed):
    rng = np.random.default_rng(41)
    tol = 1e-9
    for _ in range(8):
        net = random_network(rng)
        deg = compute_degrees(net)
        gamma = random_gamma(rng, net.L)
        k = int(rng.integers(2, min(8, net.nL)))
        op = modularity_op(net, deg, gamma)
        basis = largest_eigenpairs(op, k, tol=tol, rng_seed=seed)
        check_against_dense(op, basis, k, tol)
        op_s, sigma = shifted_neg_lk_op(net, deg, gamma)
        basis = largest_eigenpairs(op_s, k, tol=tol, rng_seed=seed, scale_floor=sigma)
        check_against_dense(op_s, basis, k, tol)


@pytest.mark.parametrize("seed", START_SEEDS)
def test_repeated_eigenvalues_all_copies_found(florentine, seed):
    # the bottom of Laplacian + balance here holds a double zero; a naive
    # single-vector Krylov run returns only one copy
    net, deg = florentine
    basis = basis_for_method("mpbtv", net, deg, 1.0, 4, tol=1e-10, rng_seed=seed)
    lk = dense_laplacian(net) + dense_balance(net, np.array([1.0, 1.0]))
    ref = -np.linalg.eigvalsh(lk)[:4]
    assert np.abs(basis.eigenvalues - ref).max() <= 1e-7
    assert basis.eigenvalues[1] >= -1e-8  # second zero copy present
    assert basis.eigenvalues[2] <= -0.3


def test_doubled_spectrum_all_copies_found():
    # kron(I2, B) holds every eigenvalue of B twice; a single Krylov
    # sequence sees one copy of each, so the second copies of the top two
    # have to come from the deflation check
    g = np.random.default_rng(1).standard_normal((173, 173))
    a = np.kron(np.eye(2), g + g.T)
    op = LinearOperator(a.shape[0], lambda x: a @ x, "doubled")
    basis = largest_eigenpairs(op, 4, tol=1e-10, rng_seed=1)
    check_against_dense(op, basis, 4, 1e-10)
    assert basis.eigenvalues[0] - basis.eigenvalues[1] <= 1e-8
    assert basis.eigenvalues[2] - basis.eigenvalues[3] <= 1e-8


@pytest.mark.parametrize("seed", [0, 2])
def test_identical_layers_mpbtv_all_copies_found(seed):
    # two identical uncoupled layers double every eigenvalue of the
    # supra operator
    n = 320
    rng = np.random.default_rng(seed)
    e = rng.integers(0, n, size=(4 * n, 2))
    e = e[e[:, 0] != e[:, 1]]
    layer = np.zeros((n, n))
    layer[e[:, 0], e[:, 1]] = 1.0
    layer = np.maximum(layer, layer.T)
    net = from_dense_layers([layer, layer.copy()], coupling=None, omega=0.0)
    deg = compute_degrees(net)
    basis = basis_for_method("mpbtv", net, deg, 1.0, 6)
    lk = dense_laplacian(net) + dense_balance(net, np.array([1.0, 1.0]))
    ref = -np.linalg.eigvalsh(lk)[:6]
    assert np.abs(basis.eigenvalues - ref).max() <= 1e-6


def test_deflation_check_stops_at_its_answer(monkeypatch):
    # a planted spectrum without repeated eigenvalues: the exit check only
    # has to see that the deflated operator's top lies below theta_k, which
    # one Krylov fill (m = 16 matvecs at k = 1) settles
    net = planted_network(np.random.default_rng(5), 500, 2, 4)
    op = modularity_op(net, compute_degrees(net), np.array([1.0, 1.0]))
    check_matvecs = []
    hotelling = eigensolver._hotelling

    def counting_hotelling(op, theta, x, scale):
        deflated = hotelling(op, theta, x, scale)

        def mv(v):
            check_matvecs.append(v.size)
            return deflated.apply(v)

        return LinearOperator(deflated.dim, mv, deflated.label)

    monkeypatch.setattr(eigensolver, "_hotelling", counting_hotelling)
    basis = largest_eigenpairs(op, 6, tol=1e-8, rng_seed=1)
    check_against_dense(op, basis, 6, 1e-8)
    assert set(check_matvecs) == {op.dim}  # one vector per call
    assert 0 < len(check_matvecs) <= 16


def _kron3_clustered():
    # kron(I3, B) holds every eigenvalue of B three times, in clusters
    # that a single Krylov sequence cannot split
    g = np.random.default_rng(3).standard_normal((250, 250))
    a = np.kron(np.eye(3), g + g.T)
    return LinearOperator(a.shape[0], lambda x: a @ x, "kron3"), 9, 0.0


def _planted(operator):
    net = planted_network(np.random.default_rng(7), 1000, 4, 16, mean_degree=16, mix=0.3)
    deg, gamma = compute_degrees(net), np.ones(4)
    if operator == "mod":
        return modularity_op(net, deg, gamma), 60, 0.0
    op, sigma = shifted_neg_lk_op(net, deg, gamma)
    return op, 60, sigma


@pytest.mark.parametrize("case", ["mod", "lk", "kron3"])
def test_ritz_vectors_stay_orthonormal(case):
    # plain Lanczos steps orthogonalize with one full Gram-Schmidt pass
    # after the three-term recurrence; the basis must stay orthonormal
    op, k, floor = _kron3_clustered() if case == "kron3" else _planted(case)
    tol = 1e-8
    basis = largest_eigenpairs(op, k, tol=tol, scale_floor=floor, rng_seed=1)
    x, theta = basis.eigenvectors, basis.eigenvalues
    assert np.abs(x.T @ x - np.eye(k)).max() <= 1e-12
    scale = max(np.abs(theta).max(), floor)
    assert np.all(basis.residuals <= tol * scale)
    true_resid = np.linalg.norm(op.apply(x) - x * theta, axis=0)
    assert np.all(true_resid <= tol * scale)


@pytest.mark.parametrize("case", ["mod", "kron3"])
def test_solve_memory_bounded_by_basis(case):
    # beside the Krylov basis V (dim x (m + 1)) and the returned Ritz block
    # (dim x k) the solve holds O(dim) work vectors and the m x m projected
    # problem; kron3 also resumes after a missed copy, from the found block
    op, k, floor = _kron3_clustered() if case == "kron3" else _planted(case)
    dim, m = op.dim, k + max(k, 15)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        basis = largest_eigenpairs(op, k, scale_floor=floor, rng_seed=1)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert basis.k == k
    assert peak <= 8 * (dim * (m + 1) + dim * k + 16 * dim + 4 * m * m)


def test_mpbtv_basis_unshifted_and_negative(florentine):
    net, deg = florentine
    basis = basis_for_method("mpbtv", net, deg, 1.0, 6)
    _, sigma = shifted_neg_lk_op(net, deg, np.array([1.0, 1.0]))
    assert basis.shift == pytest.approx(sigma)
    assert np.all(basis.eigenvalues <= 1e-10 * sigma)
    assert basis.operator_label == "shifted_neg_lk"


def test_dgfm3_basis_matches_dense_modularity(florentine):
    net, deg = florentine
    basis = basis_for_method("dgfm3", net, deg, 1.0, 7, tol=1e-10)
    ref = np.linalg.eigvalsh(dense_modularity(net, np.array([1.0, 1.0])))[::-1][:7]
    assert np.abs(basis.eigenvalues - ref).max() <= 1e-8
    assert basis.shift == 0.0
    assert basis.operator_label == "modularity"


def test_basis_for_method_rejects_unknown(florentine):
    net, deg = florentine
    with pytest.raises(ValueError, match="unknown method"):
        basis_for_method("louvain", net, deg, 1.0, 3)


@pytest.mark.parametrize("seed", START_SEEDS)
def test_deterministic_given_seed(florentine, seed):
    net, deg = florentine
    op = modularity_op(net, deg, np.array([1.0, 1.0]))
    a = largest_eigenpairs(op, 5, rng_seed=seed)
    b = largest_eigenpairs(op, 5, rng_seed=seed)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)
    assert np.array_equal(a.residuals, b.residuals)


def test_k_out_of_range(florentine):
    net, deg = florentine
    op = modularity_op(net, deg, np.array([1.0, 1.0]))
    for bad in (0, -1, net.nL, net.nL + 5):
        with pytest.raises(ValueError):
            largest_eigenpairs(op, bad)


def test_unreachable_tolerance_raises(florentine):
    net, deg = florentine
    op = modularity_op(net, deg, np.array([1.0, 1.0]))
    with pytest.raises(ConvergenceError) as info:
        largest_eigenpairs(op, 4, tol=0.0)
    assert info.value.residuals is not None
    assert np.all(info.value.residuals >= 0)


def test_residuals_certified_not_assumed(florentine):
    net, deg = florentine
    op = modularity_op(net, deg, np.array([1.0, 1.0]))
    tol = 1e-9
    basis = largest_eigenpairs(op, 6, tol=tol)
    scale = np.abs(np.linalg.eigvalsh(to_dense(op))).max()
    assert np.all(basis.residuals <= tol * scale)
    recomputed = np.linalg.norm(
        op.apply(basis.eigenvectors) - basis.eigenvectors * basis.eigenvalues, axis=0
    )
    assert np.abs(recomputed - basis.residuals).max() <= 1e-12 + 1e-6 * scale


def test_truncate_keeps_leading_columns(florentine):
    net, deg = florentine
    basis = basis_for_method("dgfm3", net, deg, 1.0, 7)
    cut = basis.truncate(3)
    assert cut.k == 3
    assert np.array_equal(cut.eigenvalues, basis.eigenvalues[:3])
    assert np.array_equal(cut.eigenvectors, basis.eigenvectors[:, :3])
    assert cut.shift == basis.shift
    with pytest.raises(ValueError):
        basis.truncate(0)
    with pytest.raises(ValueError):
        basis.truncate(8)


def test_basis_validation():
    vals = np.array([1.0, 2.0])  # ascending order is rejected
    vecs = np.eye(3)[:, :2]
    with pytest.raises(ValueError):
        SpectralBasis(vals, vecs, np.zeros(2), "x")
    with pytest.raises(ValueError):
        SpectralBasis(np.array([2.0, 1.0, 0.0]), vecs, np.zeros(3), "x")
    for bad_vals, bad_vecs in [(vals[::-1], vecs[:, 0]), (vals[::-1, None], vecs)]:
        with pytest.raises(ValueError, match="^bad basis shapes$"):
            SpectralBasis(bad_vals, bad_vecs, np.zeros(2), "x")


def florentine_op(florentine):
    net, deg = florentine
    return modularity_op(net, deg, np.array([1.0, 1.0]))


def test_tolerance_unreachable_in_the_full_space(florentine):
    # k = dim - 1 makes the working subspace the whole space, so the Krylov
    # basis runs out of directions before the residuals reach 1e-300
    op = florentine_op(florentine)
    message = "^tolerance unreachable in the full space$"
    with pytest.raises(ConvergenceError, match=message) as info:
        largest_eigenpairs(op, op.dim - 1, tol=1e-300)
    assert info.value.residuals.shape == (op.dim - 1,)


def test_copies_still_missing_after_k_deflation_checks(florentine, monkeypatch):
    # a deflated operator lifted by 1e3 has its top above thr at every check
    def lifted(op, theta, x, scale):
        return LinearOperator(op.dim, lambda v: op.apply(v) + 1e3 * v, op.label)

    op = florentine_op(florentine)
    monkeypatch.setattr(eigensolver, "_hotelling", lifted)
    message = "^copies still missing after 3 deflation checks$"
    with pytest.raises(ConvergenceError, match=message) as info:
        largest_eigenpairs(op, 3)
    assert info.value.residuals.shape == (3,)


@pytest.mark.parametrize("seed", START_SEEDS)
def test_negative_seed_rejected_on_both_paths(florentine, seed):
    # the direct solve and the method basis take a seed >= 0 and reject -1
    net, deg = florentine
    op = florentine_op(florentine)
    assert largest_eigenpairs(op, 4, rng_seed=seed).eigenvalues.shape == (4,)
    assert basis_for_method("dgfm3", net, deg, 1.0, 4, rng_seed=seed).eigenvalues.shape == (4,)
    with pytest.raises(ValueError, match="^seed must be >= 0$"):
        largest_eigenpairs(op, 4, rng_seed=-1)
    with pytest.raises(ValueError, match="^seed must be >= 0$"):
        basis_for_method("dgfm3", net, deg, 1.0, 4, rng_seed=-1)


def test_save_load_round_trip(tmp_path, florentine):
    net, deg = florentine
    basis = basis_for_method("mpbtv", net, deg, 1.0, 5)
    path = tmp_path / "basis.npz"
    save_basis(basis, path, meta={"method": "mpbtv", "k": "5"})
    loaded, meta = load_basis(path)
    assert np.array_equal(loaded.eigenvalues, basis.eigenvalues)
    assert np.array_equal(loaded.eigenvectors, basis.eigenvectors)
    assert np.array_equal(loaded.residuals, basis.residuals)
    assert loaded.shift == basis.shift
    assert loaded.operator_label == basis.operator_label
    assert meta == {"method": "mpbtv", "k": "5"}
