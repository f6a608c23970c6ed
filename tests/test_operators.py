"""Matrix-free operators against directly assembled dense references.

The package exposes two operators, and the supra-adjacency A, Laplacian
L and balance K are checked through them.  The modularity operator is
M(gamma) = A - K(gamma)/2 with K linear in gamma, so
A = 2 M(gamma) - M(2 gamma) and K(gamma) = 2 (M(gamma) - M(2 gamma));
the shifted operator S gives L + K = sigma*I - S, so L = (L + K) - K.
"""

import numpy as np
import pytest

from mpxmbo import (
    LinearOperator,
    MultiplexNetwork,
    SparseSym,
    compute_degrees,
    modularity_op,
    shifted_neg_lk_op,
)

from conftest import (
    connected_network,
    dense_balance,
    dense_laplacian,
    dense_modularity,
    dense_sigma,
    dense_supra,
    from_dense_layers,
    isolate_node,
    planted_network,
    random_gamma,
    random_network,
    toarray,
)


def lk_part(net, deg, gamma):
    """Laplacian + balance: sigma*I minus the shifted operator."""
    op, sigma = shifted_neg_lk_op(net, deg, gamma)
    return LinearOperator(net.nL, lambda x: sigma * x - op.apply(x), "lk")


def balance_part(net, deg, gamma):
    """K(gamma) = 2 (M(gamma) - M(2 gamma))."""
    m1 = modularity_op(net, deg, gamma)
    m2 = modularity_op(net, deg, 2.0 * np.asarray(gamma))
    return LinearOperator(net.nL, lambda x: 2.0 * (m1.apply(x) - m2.apply(x)), "balance")


def adjacency_part(net, deg):
    """A = 2 M(1) - M(2)."""
    m1, m2 = modularity_op(net, deg, 1.0), modularity_op(net, deg, 2.0)
    return LinearOperator(net.nL, lambda x: 2.0 * m1.apply(x) - m2.apply(x), "adjacency")


def laplacian_part(net, deg):
    """L = (L + K(1)) - K(1)."""
    lk, k = lk_part(net, deg, 1.0), balance_part(net, deg, 1.0)
    return LinearOperator(net.nL, lambda x: lk.apply(x) - k.apply(x), "laplacian")


def two_layer_example():
    layers = [np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros((2, 2))]
    return from_dense_layers(layers, omega=1.0)


def lk_dense(net, gamma):
    return dense_laplacian(net) + dense_balance(net, gamma)


def test_dense_reconstruction_matches_definitions():
    rng = np.random.default_rng(21)
    for _ in range(12):
        net = random_network(rng)
        deg = compute_degrees(net)
        gamma = random_gamma(rng, net.L)
        eye = np.eye(net.nL)
        pairs = [
            (adjacency_part(net, deg), dense_supra(net)),
            (laplacian_part(net, deg), dense_laplacian(net)),
            (balance_part(net, deg, gamma), dense_balance(net, gamma)),
            (modularity_op(net, deg, gamma), dense_modularity(net, gamma)),
        ]
        op_s, sigma = shifted_neg_lk_op(net, deg, gamma)
        pairs.append((op_s, sigma * eye - lk_dense(net, gamma)))
        for op, ref in pairs:
            got = op.apply(eye)
            scale = max(np.abs(ref).max(), 1.0)
            assert np.abs(got - ref).max() <= 1e-12 * scale, op.label


def test_operators_linear_and_symmetric():
    rng = np.random.default_rng(22)
    for _ in range(6):
        net = random_network(rng)
        deg = compute_degrees(net)
        gamma = random_gamma(rng, net.L)
        ops = [
            adjacency_part(net, deg),
            laplacian_part(net, deg),
            balance_part(net, deg, gamma),
            modularity_op(net, deg, gamma),
            shifted_neg_lk_op(net, deg, gamma)[0],
        ]
        x = rng.standard_normal(net.nL)
        y = rng.standard_normal(net.nL)
        a, b = rng.standard_normal(2)
        for op in ops:
            lin = op.apply(a * x + b * y) - (a * op.apply(x) + b * op.apply(y))
            assert np.abs(lin).max() <= 1e-9, op.label
            assert abs(x @ op.apply(y) - y @ op.apply(x)) <= 1e-9, op.label


def test_apply_rejects_a_3d_operand():
    op = LinearOperator(4, lambda x: x, "identity")
    assert op.apply(np.ones((4, 2))).shape == (4, 2)
    with pytest.raises(ValueError, match="^operand must be 1-D or 2-D$"):
        op.apply(np.ones((4, 1, 1)))


def reference_matvecs(net, deg, gamma, x):
    """Both operators on one vector, in the order operators.py documents:
    A_l x_l, plus omega * (C @ X), then the rank-one term along d_l with
    <d_l, x_l> from the same einsum."""
    L, n = net.L, net.n
    # apply() makes its operand contiguous; einsum's bits depend on strides
    x = np.ascontiguousarray(x)
    xl = x.reshape(L, n)
    dl, strength = deg.intra_degrees, deg.layer_strengths
    ax = np.stack([a.matvec(xl[l]) for l, a in enumerate(net.intra)])
    ax = ax + net.omega * (net.coupling @ xl)
    inner = np.einsum("ln,ln->l", dl, xl)
    safe = np.where(strength > 0, strength, 1.0)
    coef_m = np.where(strength > 0, gamma / safe, 0.0)
    coef_k = np.where(strength > 0, 2.0 * gamma / safe, 0.0)
    mod = ax - (coef_m * inner)[:, None] * dl
    sigma = float((2.0 * deg.supra_degrees + 2.0 * np.repeat(gamma, n) * dl.ravel()).max())
    lap = deg.supra_degrees * x - ax.ravel()
    shifted = sigma * x - lap - ((coef_k * inner)[:, None] * dl).ravel()
    return mod.ravel(), shifted, sigma


def test_operator_arithmetic_is_pinned():
    # L = 4, a chain coupling with unequal weights, per-layer gamma and a
    # layer without edges (its rank-one coefficient is 0, not 0/0)
    base = planted_network(np.random.default_rng(32), 60, 3, 3)
    empty = SparseSym.from_coo(base.n, [], [], [])
    coupling = np.diag([1.0, 0.5, 2.0], 1)
    net = MultiplexNetwork(base.n, 4, base.intra + (empty,), coupling + coupling.T, 2.5)
    deg = compute_degrees(net)
    gamma = np.array([0.7, 1.0, 1.3, 0.9])
    assert deg.layer_strengths[3] == 0.0
    x = np.random.default_rng(33).standard_normal((net.nL, 4))
    mod_op = modularity_op(net, deg, gamma)
    shift_op, sigma = shifted_neg_lk_op(net, deg, gamma)
    refs = [reference_matvecs(net, deg, gamma, x[:, j]) for j in range(x.shape[1])]
    assert sigma == refs[0][2]
    for op, i in ((mod_op, 0), (shift_op, 1)):
        ones = [op.apply(x[:, j]) for j in range(x.shape[1])]
        for got, ref in zip(ones, refs):
            assert np.array_equal(got, ref[i]), op.label
        assert np.array_equal(op.apply(x), np.stack(ones, axis=1)), op.label


def test_adjacency_blockdiag_when_uncoupled():
    rng = np.random.default_rng(23)
    net = random_network(rng, omega_choices=(0.0,))
    op = adjacency_part(net, compute_degrees(net))
    x = rng.standard_normal(net.nL)
    per_layer = np.concatenate(
        [toarray(net.intra[l]) @ x[l * net.n : (l + 1) * net.n] for l in range(net.L)]
    )
    assert np.allclose(op.apply(x), per_layer, atol=1e-12)


def test_adjacency_times_ones_is_supra_degrees():
    rng = np.random.default_rng(24)
    for _ in range(5):
        net = random_network(rng)
        deg = compute_degrees(net)
        got = adjacency_part(net, deg).apply(np.ones(net.nL))
        assert np.allclose(got, deg.supra_degrees, atol=1e-12)


def test_adjacency_worked_example():
    net = two_layer_example()
    got = adjacency_part(net, compute_degrees(net)).apply(np.array([1.0, 0.0, 0.0, 0.0]))
    assert got.tolist() == [0.0, 1.0, 1.0, 0.0]


def test_laplacian_annihilates_constants_and_is_psd():
    rng = np.random.default_rng(25)
    net = random_network(rng)
    deg = compute_degrees(net)
    op = laplacian_part(net, deg)
    z = op.apply(np.ones(net.nL))
    assert np.abs(z).max() <= 1e-12 * max(deg.supra_degrees.max(), 1.0)
    for _ in range(1000):
        x = rng.standard_normal(net.nL)
        assert x @ op.apply(x) >= -1e-12 * (x @ x)


def test_laplacian_worked_example():
    net = two_layer_example()
    deg = compute_degrees(net)
    got = laplacian_part(net, deg).apply(np.array([1.0, -1.0, 0.0, 0.0]))
    ref = dense_laplacian(net) @ np.array([1.0, -1.0, 0.0, 0.0])
    assert np.allclose(got, ref, atol=1e-12)


def test_balance_rank1_structure():
    rng = np.random.default_rng(26)
    net = random_network(rng, omega_choices=(1.0,))
    deg = compute_degrees(net)
    gamma = random_gamma(rng, net.L)
    op = balance_part(net, deg, gamma)
    # blockwise orthogonal to the degree vectors -> in the null space
    x = rng.standard_normal(net.nL)
    for l in range(net.L):
        blk = slice(l * net.n, (l + 1) * net.n)
        d = deg.intra_degrees[l]
        if d @ d > 0:
            x[blk] -= (d @ x[blk]) / (d @ d) * d
    assert np.abs(op.apply(x)).max() <= 1e-9
    # the degree vector itself is the one non-trivial eigendirection per layer
    for l in range(net.L):
        d = deg.intra_degrees[l]
        s = deg.layer_strengths[l]
        if s == 0:
            continue
        x = np.zeros(net.nL)
        x[l * net.n : (l + 1) * net.n] = d
        lam = (2.0 * gamma[l] / s) * (d @ d)
        assert np.allclose(op.apply(x), lam * x, atol=1e-9 * max(lam, 1.0))
    # dense rank is at most L
    kd = op.apply(np.eye(net.nL))
    svals = np.linalg.svd(kd, compute_uv=False)
    assert (svals > 1e-10 * svals.max()).sum() <= net.L


def test_balance_worked_example():
    net = from_dense_layers([np.array([[0.0, 1.0], [1.0, 0.0]])], omega=0.0)
    deg = compute_degrees(net)
    op = balance_part(net, deg, np.array([1.0]))
    kd = op.apply(np.eye(2))
    assert np.allclose(kd, np.ones((2, 2)), atol=1e-12)
    assert np.allclose(op.apply(np.array([1.0, 0.0])), np.array([1.0, 1.0]), atol=1e-12)


def test_modularity_rows_vanish_at_unit_gamma():
    rng = np.random.default_rng(27)
    net = random_network(rng, omega_choices=(1.0,))
    deg = compute_degrees(net)
    op = modularity_op(net, deg, np.ones(net.L))
    got = op.apply(np.ones(net.nL))
    coupling_part = net.omega * np.kron(net.coupling, np.eye(net.n)) @ np.ones(net.nL)
    assert np.allclose(got, coupling_part, atol=1e-9)


def test_modularity_two_triangles_dense(two_triangles):
    net, deg = two_triangles
    op = modularity_op(net, deg, np.array([1.0]))
    a = toarray(net.intra[0])
    d = a.sum(axis=1)
    ref = a - np.outer(d, d) / d.sum()
    assert np.abs(op.apply(np.eye(6)) - ref).max() <= 1e-12


def test_shifted_operator_spectrum_in_range():
    rng = np.random.default_rng(28)
    for _ in range(6):
        net = random_network(rng)
        deg = compute_degrees(net)
        gamma = random_gamma(rng, net.L)
        op, sigma = shifted_neg_lk_op(net, deg, gamma)
        assert sigma == pytest.approx(dense_sigma(net, gamma), rel=1e-12)
        vals = np.linalg.eigvalsh(op.apply(np.eye(net.nL)))
        assert vals.min() >= -1e-10 * sigma
        assert vals.max() <= sigma * (1 + 1e-12)
        # sigma really bounds the largest eigenvalue of L+K
        lk_vals = np.linalg.eigvalsh(lk_dense(net, gamma))
        assert lk_vals.max() <= sigma * (1 + 1e-12)


def test_shifted_pure_laplacian_top_eigenvalue_is_sigma():
    # gamma-free variant: shift the bare Laplacian by hand
    rng = np.random.default_rng(29)
    net = random_network(rng, omega_choices=(1.0,))
    deg = compute_degrees(net)
    lap = laplacian_part(net, deg)
    sigma = 2.0 * deg.supra_degrees.max()
    shifted = LinearOperator(net.nL, lambda x: sigma * x - lap.apply(x), "shifted_pure_l")
    vals = np.linalg.eigvalsh(shifted.apply(np.eye(net.nL)))
    assert vals.max() == pytest.approx(sigma, rel=1e-12)


def test_spectrum_positivity_tracks_isolated_nodes():
    rng = np.random.default_rng(30)
    for trial in range(8):
        n = int(rng.integers(4, 12))
        L = int(rng.integers(1, 4))
        net = connected_network(rng, n, L, omega=1.0)
        deg = compute_degrees(net)
        gamma = random_gamma(rng, net.L)
        sigma = dense_sigma(net, gamma)
        vals = np.linalg.eigvalsh(lk_dense(net, gamma))
        assert vals.min() >= -1e-10 * sigma
        assert vals.min() > 1e-8 * sigma  # no node isolated in every layer
        lonely = isolate_node(net, node=int(rng.integers(0, n)))
        vals_lonely = np.linalg.eigvalsh(lk_dense(lonely, gamma))
        sigma_lonely = dense_sigma(lonely, gamma)
        assert abs(vals_lonely.min()) <= 1e-10 * max(sigma_lonely, 1.0)


def test_operator_dimension_mismatch_rejected():
    rng = np.random.default_rng(31)
    net = random_network(rng)
    deg = compute_degrees(net)
    for op in (modularity_op(net, deg, 1.0), shifted_neg_lk_op(net, deg, 1.0)[0]):
        with pytest.raises(ValueError):
            op.apply(np.zeros(net.nL + 1))
