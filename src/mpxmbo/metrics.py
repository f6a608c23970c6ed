"""Partition quality measures and the exhaustive-search oracle.

Multiplex modularity of a partition U (one-hot rows, layer-major order) is

    Q = (1/2mu) * [ sum_l A-weight within communities
                    - sum_l gamma_l / (2 m_l) * sum_c (d_l . u_c)^2
                    + omega * sum_{k != l} C[k,l] * #{j : label agrees} ]

with 2mu the total strength of the supra graph.  `multiplex_modularity`
evaluates exactly this grouped expression (one division at the end).

Each term is built once: `_penalties` gives each layer's volume penalty
and `_coupled` the coupled layer pairs, for modularity and the TV
objective alike; `_overlaps` gives the non-empty cells of the
contingency table, which `nmi` and `matched_accuracy` both read, so both
truth scores take O(nL) memory whatever the n_c.  The oracle scores the
matrix of the solver's own `operators.modularity_op`, so the supra
modularity matrix has one definition in the package.  It accepts
n_c**nL <= 10**7 and skips the prefixes whose bound is below its incumbent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .network import Partition, gamma_vector
from .operators import modularity_op

__all__ = [
    "EvalReport",
    "multiplex_modularity",
    "balanced_tv_objective",
    "nmi",
    "matched_accuracy",
    "oracle_max_modularity",
    "evaluate",
]

# largest n_c**nL the exhaustive oracle accepts
_ORACLE_LIMIT = 10_000_000


def _layer_labels(partition, net):
    if partition.size != net.nL:
        raise ValueError("partition size does not match network")
    return partition.assignment.reshape(net.L, net.n)


def _penalties(lab, deg, gamma, n_c):
    """Per layer, gamma_l / s_l * sum_c (d_l . u_c)^2 with s_l = 2 m_l, or 0 where s_l = 0;
    the squares sum in sorted order, so each term is exactly invariant under relabeling.
    Above nL labels only the used ones are summed, so memory is O(nL) for any n_c."""
    if n_c > lab.size:
        used, inverse = np.unique(lab, return_inverse=True)
        lab, n_c = inverse.reshape(lab.shape) + 1, used.size
    out = []
    for l, s in enumerate(deg.layer_strengths):
        vol = np.bincount(lab[l] - 1, weights=deg.intra_degrees[l], minlength=n_c)
        out.append(gamma[l] * float(np.sort(vol * vol).sum()) / s if s > 0 else 0.0)
    return out


def _coupled(net):
    """(k, l, omega * C[k, l]) for each ordered pair of coupled layers k != l."""
    return [(k, l, net.omega * c) for (k, l), c in np.ndenumerate(net.coupling)
            if net.omega != 0.0 and k != l and c != 0.0]  # fmt: skip


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
    for a, row, penalty in zip(net.intra, lab, _penalties(lab, deg, gamma, partition.n_c)):
        num += _kernels.label_edge_sums(a.rows, a.cols, a.data, row)
        num -= penalty
    for k, l, w in _coupled(net):
        num += w * int(np.count_nonzero(lab[k] == lab[l]))
    q = num / deg.total_strength
    if not np.isfinite(q):
        raise ValueError(f"modularity is not finite ({q}): the weights overflow float64")
    return q


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
    tv, balance = 0.0, 0.0
    for a, row in zip(net.intra, lab):
        tv += _kernels.label_edge_sums(a.rows, a.cols, a.data, row, cross=True)
    for k, l, w in _coupled(net):
        tv += w * int(np.count_nonzero(lab[k] != lab[l]))
    for penalty in _penalties(lab, deg, gamma, partition.n_c):
        balance += penalty
    return tv, balance


def _overlaps(a, b):
    """The labels a and b use (sorted), then per non-empty cell of their contingency
    table, in label order, the indices of its two labels and its count."""
    if a.size != b.size:
        raise ValueError("partitions must have equal length")
    if a.size == 0:
        raise ValueError("empty partitions")
    x, y, names = a.assignment, b.assignment, None
    if (int(x.max()) + 1) * (int(y.max()) + 1) > 2**63:  # a key past int64: rank labels first
        (na, x), (nb, y) = (np.unique(p.assignment, return_inverse=True) for p in (a, b))
        names = na, nb
    m = int(y.max()) + 1
    key = np.sort(x * m + y)
    first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    (ua, i), (ub, j) = (np.unique(v, return_inverse=True) for v in np.divmod(key[first], m))
    if names:
        ua, ub = names[0][ua], names[1][ub]
    return ua, ub, i, j, np.diff(np.r_[first, key.size])


def _entropy(counts, total):
    p = counts / total
    # sorted summation: exact invariance under community relabeling
    return float(-np.sort(p * np.log(p)).sum())


def nmi(a, b):
    """Normalized mutual information between two partitions.

    Uses the geometric-mean normalization MI / sqrt(H(a) H(b)).  If one
    partition has zero entropy (a single non-empty community) the value
    is 0.0, unless both do, which counts as identical (1.0).  Partitions
    identical up to relabeling return exactly 1.0.
    """
    ua, ub, i, j, count = _overlaps(a, b)
    if ua.size == 1 or ub.size == 1:
        return 1.0 if ua.size == ub.size == 1 else 0.0
    if count.size == ua.size == ub.size:  # a one-to-one match of non-empty communities
        return 1.0
    total = float(a.size)
    row, col = np.bincount(i, weights=count), np.bincount(j, weights=count)
    ha, hb = _entropy(row, total), _entropy(col, total)
    p = count / total
    terms = p * np.log(count * total / (row[i] * col[j]))
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
    ua, ub, i, j, count = _overlaps(detected, truth)
    cut = np.searchsorted(i, np.arange(ua.size + 1))  # community r owns cells cut[r]:cut[r + 1]
    free, smallest, matching, correct = np.ones(ub.size, dtype=bool), 0, {}, 0
    for r in np.argsort(-np.add.reduceat(count, cut[:-1]), kind="stable")[: ub.size]:
        cols = j[cut[r] : cut[r + 1]]
        hits = count[cut[r] : cut[r + 1]] * free[cols]
        k = int(hits.argmax())  # the first largest overlap has the smallest truth label
        while not free[smallest]:
            smallest += 1
        t = cols[k] if hits[k] else smallest  # no overlap left: the smallest free label
        free[t], correct = False, correct + int(hits[k])
        matching[int(ua[r])] = int(ub[t])
    return correct / detected.size, matching


def oracle_max_modularity(net, deg, gamma, n_c):
    """Global maximum of multiplex modularity over partitions into <= n_c groups.

    Scores canonical label assignments (label permutations are
    visited once) against the matrix of `modularity_op` applied to the
    identity: prefixes are grown level by level, and each block of those
    whose bound reaches the incumbent is scored against all n_c**b suffixes
    (b < nL the longest with n_c**b <= 4096), whose sums are grown along
    the suffix tree (``_kernels.enumerate_partitions``).  Instances with
    n_c**nL beyond 10**7 are rejected, so a level holds at most 1024
    prefixes and memory does not grow with nL.  The returned modularity
    is recomputed from the winning partition with `multiplex_modularity`.

    Returns
    -------
    (float, Partition)
    """
    if n_c < 1:
        raise ValueError("n_c must be >= 1")
    if deg.total_strength <= 0:
        raise ValueError("modularity undefined: total strength is zero")
    nL = net.nL
    if n_c**nL > _ORACLE_LIMIT:
        raise ValueError(f"exhaustive search too large: {n_c}**{nL} > {_ORACLE_LIMIT}")
    # 1**nL passes the limit at any nL; without this the dense nL x nL matrix is built
    if n_c == 1:
        part = Partition(np.ones(nL, dtype=np.int64), 1)
        return multiplex_modularity(part, net, deg, gamma), part
    S = modularity_op(net, deg, gamma).apply(np.eye(nL))
    _, labels0 = _kernels.enumerate_partitions(S, n_c)
    part = Partition(labels0 + 1, n_c)
    return multiplex_modularity(part, net, deg, gamma), part


@dataclass(frozen=True, eq=False)
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
