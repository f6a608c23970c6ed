"""Shared fixtures, test-only builders and independent dense references.

The dense builders assemble supra matrices directly from definitions with
plain numpy, so operator/eigensolver tests compare against arithmetic
that shares no code with the package internals; the dense truth scores
do the same for `nmi` and `matched_accuracy`.  The network builders
and writers (dense layers in, canonical files out) serve tests only.
"""

from pathlib import Path

import numpy as np
import pytest

from mpxmbo import (
    MultiplexNetwork,
    Partition,
    SparseSym,
    all_to_all_coupling,
    compute_degrees,
    load_network,
)

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


# ------------------------------------------------------ builders and writers


def sparse_from_dense(a):
    """SparseSym of an exactly symmetric square matrix; from_coo checks the
    weights (finite, non-negative)."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or not np.array_equal(a, a.T):
        raise ValueError("square, exactly symmetric matrix required")
    rows, cols = np.nonzero(a)
    return SparseSym.from_coo(a.shape[0], rows, cols, a[rows, cols])


def from_dense_layers(layers, coupling=None, omega=1.0):
    """Network of dense per-layer adjacency matrices; all-to-all coupling
    unless one is given."""
    intra = tuple(sparse_from_dense(a) for a in layers)
    L = len(intra)
    coupling = all_to_all_coupling(L) if coupling is None else coupling
    return MultiplexNetwork(intra[0].n, L, intra, coupling, omega)


def save_network(net, path):
    """Write a network in canonical form (upper-triangle edges, sorted)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#multiplex n={net.n} L={net.L}\n")
        for l, a in enumerate(net.intra, start=1):
            for i, j, w in zip(a.rows.tolist(), a.cols.tolist(), a.data.tolist()):
                if i <= j:
                    fh.write(f"{l}\t{i + 1}\t{j + 1}\t{w:.12g}\n")


def save_coupling(net, path):
    """Write the layer-coupling matrix (upper-triangle entries)."""
    k, l = np.nonzero(np.triu(net.coupling, 1))
    with open(path, "w", encoding="utf-8") as fh:
        for a, b in zip(k.tolist(), l.tolist()):
            fh.write(f"{a + 1}\t{b + 1}\t{net.coupling[a, b]:.12g}\n")


# ---------------------------------------------------------------- dense refs


def dense_supra(net):
    """Supra-adjacency: intra blocks plus omega-scaled identity couplings."""
    n, L = net.n, net.L
    a = np.zeros((n * L, n * L))
    for l in range(L):
        a[l * n : (l + 1) * n, l * n : (l + 1) * n] = net.intra[l].toarray()
    eye = np.eye(n)
    for p in range(L):
        for q in range(L):
            if p != q and net.coupling[p, q] != 0.0:
                a[p * n : (p + 1) * n, q * n : (q + 1) * n] += (
                    net.omega * net.coupling[p, q] * eye
                )
    return a


def dense_laplacian(net):
    a = dense_supra(net)
    return np.diag(a.sum(axis=1)) - a


def dense_balance(net, gamma):
    """Block-diagonal rank-1 balance matrix, (gamma_l/m_l) d_l d_l^T."""
    n, L = net.n, net.L
    k = np.zeros((n * L, n * L))
    for l in range(L):
        d = net.intra[l].toarray().sum(axis=1)
        s = d.sum()  # 2 m_l
        if s > 0:
            k[l * n : (l + 1) * n, l * n : (l + 1) * n] = (
                2.0 * gamma[l] / s
            ) * np.outer(d, d)
    return k


def dense_modularity(net, gamma):
    """Supra modularity matrix: intra null-model corrections, couplings kept."""
    m = dense_supra(net)
    n = net.n
    for l in range(net.L):
        d = net.intra[l].toarray().sum(axis=1)
        s = d.sum()
        if s > 0:
            m[l * n : (l + 1) * n, l * n : (l + 1) * n] -= (gamma[l] / s) * np.outer(d, d)
    return m


def dense_sigma(net, gamma):
    """Gershgorin-style bound used by the shifted operator."""
    a = dense_supra(net)
    supra_deg = a.sum(axis=1)
    parts = []
    for l in range(net.L):
        d = net.intra[l].toarray().sum(axis=1)
        parts.append(2.0 * supra_deg[l * net.n : (l + 1) * net.n] + 2.0 * gamma[l] * d)
    return float(np.max(np.concatenate(parts)))


def dense_modularity_value(partition, net, gamma):
    """Literal trace-form Q from the dense modularity matrix."""
    a = dense_modularity(net, gamma)
    u = partition.one_hot()
    two_mu = dense_supra(net).sum()
    return float(np.trace(u.T @ a @ u) / two_mu)


def _reference_entropy(counts, total):
    p = counts[counts > 0] / total
    return float(-np.sort(p * np.log(p)).sum())


def reference_nmi(a, b):
    """NMI from the dense n_c(a) x n_c(b) contingency table, summed in the
    sorted orders the package uses, so the bits must agree."""
    cont = np.zeros((a.n_c, b.n_c))
    np.add.at(cont, (a.assignment - 1, b.assignment - 1), 1.0)
    total = float(a.size)
    row = cont.sum(axis=1)
    col = cont.sum(axis=0)
    rows_used = int(np.count_nonzero(row))
    cols_used = int(np.count_nonzero(col))
    if rows_used == 1 or cols_used == 1:
        return 1.0 if rows_used == 1 and cols_used == 1 else 0.0
    nz = cont > 0
    if nz.sum(axis=1).max() == 1 and nz.sum(axis=0).max() == 1:
        return 1.0
    ha = _reference_entropy(row, total)
    hb = _reference_entropy(col, total)
    i, j = np.nonzero(cont)
    p = cont[i, j] / total
    terms = p * np.log(cont[i, j] * total / (row[i] * col[j]))
    mi = float(np.sort(terms).sum())
    return float(min(max(mi / np.sqrt(ha * hb), 0.0), 1.0))


def reference_matched_accuracy(detected, truth):
    """The greedy matching of `matched_accuracy`, one scan of all labels per
    detected community and one count per matched pair."""
    det_sizes = detected.community_sizes()
    order = sorted(
        (int(lab) for lab in range(1, detected.n_c + 1) if det_sizes[lab - 1] > 0),
        key=lambda lab: (-det_sizes[lab - 1], lab),
    )
    truth_sizes = truth.community_sizes()
    available = [t for t in range(1, truth.n_c + 1) if truth_sizes[t - 1] > 0]
    matching = {}
    for lab in order:
        if not available:
            break
        members = truth.assignment[detected.assignment == lab]
        counts = np.bincount(members, minlength=truth.n_c + 1)
        best_t = available[0]
        best_overlap = counts[best_t]
        for t in available[1:]:
            if counts[t] > best_overlap:
                best_t, best_overlap = t, counts[t]
        matching[lab] = best_t
        available.remove(best_t)
    correct = 0
    for lab, t in matching.items():
        correct += int(np.count_nonzero((detected.assignment == lab) & (truth.assignment == t)))
    return correct / detected.size, matching


# ---------------------------------------------------------------- generators


def random_network(rng, n_max=20, l_max=3, omega_choices=(0.0, 0.5, 1.0), density=0.35):
    """Random weighted multiplex network with at least one intra edge."""
    n = int(rng.integers(3, n_max + 1))
    L = int(rng.integers(1, l_max + 1))
    layers = []
    for _ in range(L):
        a = np.zeros((n, n))
        iu, ju = np.triu_indices(n, 1)
        mask = rng.random(iu.size) < density
        a[iu[mask], ju[mask]] = np.round(rng.random(mask.sum()) * 4.0 + 0.25, 3)
        layers.append(a + a.T)
    if all(layer.sum() == 0.0 for layer in layers):
        layers[0][0, 1] = layers[0][1, 0] = 1.0
    omega = float(rng.choice(omega_choices)) if L > 1 else float(rng.choice((0.0, 1.0)))
    return from_dense_layers(layers, coupling=None, omega=omega)


def connected_network(rng, n, L, omega=1.0):
    """Every node gets intra edges in layer 1 (spanning cycle), so no
    physical node is isolated in all layers."""
    layers = []
    for l in range(L):
        a = np.zeros((n, n))
        if l == 0:
            for j in range(n):
                a[j, (j + 1) % n] = a[(j + 1) % n, j] = 1.0 + 0.1 * j
        iu, ju = np.triu_indices(n, 1)
        mask = rng.random(iu.size) < 0.25
        a[iu[mask], ju[mask]] += np.round(rng.random(mask.sum()) * 2.0 + 0.5, 3)
        layers.append(np.triu(a, 1) + np.triu(a, 1).T)
    return from_dense_layers(layers, coupling=None, omega=omega)


def planted_network(rng, n, L, groups, mean_degree=8, mix=0.2, omega=1.0):
    """Sparse planted partition: node i is in group i % groups in every
    layer (n a multiple of groups), and an edge stays inside its group
    with probability 1 - mix."""
    layers = []
    for _ in range(L):
        u = rng.integers(0, n, size=n * mean_degree // 2)
        v = rng.integers(0, n, size=u.size)
        inside = rng.random(u.size) >= mix
        v[inside] += u[inside] % groups - v[inside] % groups
        v %= n
        a = np.zeros((n, n))
        a[u, v] = 1.0
        a = np.maximum(a, a.T)
        np.fill_diagonal(a, 0.0)
        layers.append(a)
    return from_dense_layers(layers, coupling=None, omega=omega)


def isolate_node(net, node):
    """Copy of net with one physical node stripped of all intra edges."""
    layers = []
    for l in range(net.L):
        a = net.intra[l].toarray()
        a[node, :] = 0.0
        a[:, node] = 0.0
        layers.append(a)
    return from_dense_layers(layers, coupling=net.coupling, omega=net.omega)


def random_gamma(rng, L):
    return rng.uniform(0.3, 2.0, size=L)


def random_partition(rng, nL, n_c):
    return Partition(rng.integers(1, n_c + 1, size=nL).astype(np.int64), n_c)


# ------------------------------------------------------------------ fixtures


@pytest.fixture(scope="session")
def florentine():
    net = load_network(DATA_DIR / "florentine.mpx", omega=1.0)
    return net, compute_degrees(net)


@pytest.fixture(scope="session")
def two_triangles():
    net = load_network(DATA_DIR / "two_triangles.mpx", omega=0.0)
    return net, compute_degrees(net)


def florentine_best_assignment():
    """The modularity-optimal three-group split of the Florentine network:
    one business-marriage bloc, the Medici-centered remainder, and the
    two families without ties grouped separately."""
    bloc = np.array([4, 5, 7, 8, 11, 15]) - 1
    iso = np.array([12, 17]) - 1
    lab = np.full(34, 3, dtype=np.int64)
    for off in (0, 17):
        lab[off + bloc] = 2
        lab[off + iso] = 1
    return lab
