"""Partition quality measures and the exhaustive-search oracle.

Multiplex modularity of a partition U (one-hot rows, layer-major order) is

    Q = (1/2mu) * [ sum_l A-weight within communities
                    - sum_l gamma_l / (2 m_l) * sum_c (d_l . u_c)^2
                    + omega * sum_{k != l} C[k,l] * #{j : label agrees} ]

with 2mu the total strength of the supra graph.  `multiplex_modularity`
evaluates exactly this grouped expression (one division at the end);
`multiplex_modularity_sumform` evaluates the literal double sum over
node-layer pairs with dense per-layer blocks and exists as an independent
arithmetic path for validation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .network import Partition, gamma_vector

__all__ = [
    "EvalReport",
    "multiplex_modularity",
    "multiplex_modularity_sumform",
    "balanced_tv_objective",
    "nmi",
    "matched_accuracy",
    "oracle_max_modularity",
    "evaluate",
]


def _layer_labels(partition, net):
    if partition.size != net.nL:
        raise ValueError("partition size does not match network")
    return partition.assignment.reshape(net.L, net.n)


def _community_volumes(labels, degrees, n_c):
    """Per-community sums of a degree vector, for one layer."""
    return np.bincount(labels - 1, weights=degrees, minlength=n_c)


def _volume_penalty(vol):
    """Sum of squared volumes, in sorted order so relabeling communities
    permutes nothing and the float result is exactly invariant."""
    return float(np.sort(vol * vol).sum())


def multiplex_modularity(partition, net, deg, gamma):
    """Multiplex modularity of a partition.

    Parameters
    ----------
    partition : Partition
    net : MultiplexNetwork
    deg : DegreeData
    gamma : float or sequence
        Per-layer resolution parameters.

    Returns
    -------
    float

    Raises
    ------
    ValueError
        If the value is not finite: weights whose squared community
        volumes overflow float64 give -inf or nan.
    """
    gamma = gamma_vector(gamma, net.L)
    if deg.total_strength <= 0:
        raise ValueError("modularity undefined: total strength is zero")
    lab = _layer_labels(partition, net)
    num = 0.0
    for l, a in enumerate(net.intra):
        same, _ = _kernels.label_edge_sums(a.rows, a.cols, a.data, lab[l])
        num += same
        if deg.layer_strengths[l] > 0:
            vol = _community_volumes(lab[l], deg.intra_degrees[l], partition.n_c)
            num -= gamma[l] * _volume_penalty(vol) / deg.layer_strengths[l]
    if net.omega != 0.0 and net.L > 1:
        for k in range(net.L):
            for l in range(net.L):
                if k != l and net.coupling[k, l] != 0.0:
                    agree = int(np.count_nonzero(lab[k] == lab[l]))
                    num += net.omega * net.coupling[k, l] * agree
    q = num / deg.total_strength
    if not np.isfinite(q):
        raise ValueError(f"modularity is not finite ({q}): the weights overflow float64")
    return q


def multiplex_modularity_sumform(partition, net, deg, gamma):
    """Literal double sum over node-layer pairs (quadratic; validation).

    Assembles each dense intra-layer modularity block and sums its
    same-community entries, so its arithmetic is independent of the
    grouped evaluation in `multiplex_modularity`.
    """
    gamma = gamma_vector(gamma, net.L)
    if deg.total_strength <= 0:
        raise ValueError("modularity undefined: total strength is zero")
    lab = _layer_labels(partition, net)
    num = 0.0
    for l, a in enumerate(net.intra):
        block = a.toarray()
        if deg.layer_strengths[l] > 0:
            d = deg.intra_degrees[l]
            block = block - (gamma[l] / deg.layer_strengths[l]) * np.outer(d, d)
        same = lab[l][:, None] == lab[l][None, :]
        num += float(block[same].sum())
    if net.omega != 0.0 and net.L > 1:
        for k in range(net.L):
            for l in range(net.L):
                if k != l and net.coupling[k, l] != 0.0:
                    agree = int(np.count_nonzero(lab[k] == lab[l]))
                    num += net.omega * net.coupling[k, l] * agree
    return num / deg.total_strength


def balanced_tv_objective(partition, net, deg, gamma):
    """Total variation and balance parts of the minimization objective.

    Returns (tv, balance) where tv sums edge weight between differently
    labelled endpoints over all ordered supra pairs (intra edges both
    orders, plus omega-scaled coupling between disagreeing layer copies)
    and balance sums gamma_l / (2 m_l) * (d_l . u_c)^2 over layers and
    communities.  For any partition,
    modularity == 1 - (tv + balance) / total_strength.
    """
    gamma = gamma_vector(gamma, net.L)
    if deg.total_strength <= 0:
        raise ValueError("objective undefined: total strength is zero")
    lab = _layer_labels(partition, net)
    tv = 0.0
    for l, a in enumerate(net.intra):
        _, cross = _kernels.label_edge_sums(a.rows, a.cols, a.data, lab[l])
        tv += cross
    if net.omega != 0.0 and net.L > 1:
        for k in range(net.L):
            for l in range(net.L):
                if k != l and net.coupling[k, l] != 0.0:
                    disagree = int(np.count_nonzero(lab[k] != lab[l]))
                    tv += net.omega * net.coupling[k, l] * disagree
    balance = 0.0
    for l in range(net.L):
        if deg.layer_strengths[l] > 0:
            vol = _community_volumes(lab[l], deg.intra_degrees[l], partition.n_c)
            balance += gamma[l] * _volume_penalty(vol) / deg.layer_strengths[l]
    return tv, balance


def _entropy(counts, total):
    p = counts[counts > 0] / total
    # sorted summation: exact invariance under community relabeling
    return float(-np.sort(p * np.log(p)).sum())


def nmi(a, b):
    """Normalized mutual information between two partitions.

    Uses the geometric-mean normalization MI / sqrt(H(a) H(b)).  If one
    partition has zero entropy (a single non-empty community) the value
    is 0.0, unless both do, which counts as identical (1.0).  Partitions
    identical up to relabeling return exactly 1.0.
    """
    if a.size != b.size:
        raise ValueError("partitions must have equal length")
    if a.size == 0:
        raise ValueError("empty partitions")
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
        # one-to-one correspondence between non-empty communities
        return 1.0
    ha = _entropy(row, total)
    hb = _entropy(col, total)
    i, j = np.nonzero(cont)
    p = cont[i, j] / total
    terms = p * np.log(cont[i, j] * total / (row[i] * col[j]))
    # summing in sorted order makes nmi(a, b) == nmi(b, a) bitwise
    mi = float(np.sort(terms).sum())
    return float(min(max(mi / np.sqrt(ha * hb), 0.0), 1.0))


def matched_accuracy(detected, truth):
    """Fraction of node-layer pairs correctly labelled under a greedy match.

    Detected communities are visited by decreasing size (ties: smaller
    label first) and each is matched, without replacement, to the
    not-yet-matched non-empty ground-truth community with the largest
    overlap (ties: smaller truth label).  Pairs in unmatched detected
    communities count as incorrect.

    Returns
    -------
    (float, dict)
        Accuracy in [0, 1] and the detected-to-truth label matching.
    """
    if detected.size != truth.size:
        raise ValueError("partitions must have equal length")
    if detected.size == 0:
        raise ValueError("empty partitions")
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


def _dense_modularity_matrix(net, deg, gamma):
    """Assemble the supra modularity matrix directly from definitions."""
    gamma = gamma_vector(gamma, net.L)
    n, L = net.n, net.L
    S = np.zeros((n * L, n * L))
    for l, a in enumerate(net.intra):
        block = a.toarray()
        if deg.layer_strengths[l] > 0:
            d = deg.intra_degrees[l]
            block = block - (gamma[l] / deg.layer_strengths[l]) * np.outer(d, d)
        S[l * n : (l + 1) * n, l * n : (l + 1) * n] = block
    if net.omega != 0.0:
        for k in range(L):
            for l in range(L):
                if k != l and net.coupling[k, l] != 0.0:
                    idx = np.arange(n)
                    S[k * n + idx, l * n + idx] = net.omega * net.coupling[k, l]
    return S


def oracle_max_modularity(net, deg, gamma, n_c, limit=10_000_000):
    """Global maximum of multiplex modularity over partitions into <= n_c groups.

    Enumerates canonical label assignments exhaustively (label
    permutations are visited once), so the cost is bounded by n_c**(nL-1)
    score evaluations; instances with n_c**nL beyond ``limit`` are
    rejected.  The returned modularity is recomputed from the winning
    partition with `multiplex_modularity`.

    Returns
    -------
    (float, Partition)
    """
    if n_c < 1:
        raise ValueError("n_c must be >= 1")
    if deg.total_strength <= 0:
        raise ValueError("modularity undefined: total strength is zero")
    nL = net.nL
    if n_c**nL > limit:
        raise ValueError(f"exhaustive search too large: {n_c}**{nL} > {limit}")
    if n_c == 1:
        part = Partition(np.ones(nL, dtype=np.int64), 1)
        return multiplex_modularity(part, net, deg, gamma), part
    S = _dense_modularity_matrix(net, deg, gamma)
    _, labels0 = _kernels.enumerate_partitions(S, n_c)
    part = Partition(labels0 + 1, n_c)
    return multiplex_modularity(part, net, deg, gamma), part


@dataclass(frozen=True)
class EvalReport:
    """Evaluation summary for one partition."""

    modularity: float
    n_communities_detected: int
    accuracy: float = None
    nmi: float = None
    matching: dict = None


def evaluate(partition, net, deg, gamma, truth=None):
    """Bundle modularity (and truth-based scores, when given) for a partition."""
    q = multiplex_modularity(partition, net, deg, gamma)
    if truth is None:
        return EvalReport(q, partition.n_nonempty())
    acc, matching = matched_accuracy(partition, truth)
    return EvalReport(q, partition.n_nonempty(), acc, nmi(partition, truth), matching)
