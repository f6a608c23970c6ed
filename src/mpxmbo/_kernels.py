"""Hot numeric kernels, one numpy implementation each.

Callers reach these through the module (``_kernels.csr_matvec(...)``),
so a profiler can wrap a kernel by replacing the module attribute.
"""

import numpy as np

__all__ = ["csr_matvec", "label_edge_sums", "enumerate_partitions"]


# ---------------------------------------------------------------------------
# sparse symmetric matvec


def csr_matvec(rows, cols, data, x, n):
    """y = A x for A stored as COO triples sorted by (row, col)."""
    if data.size == 0:
        return np.zeros(n)
    # bincount accumulates in storage order, so each row sums its entries
    # by increasing column
    return np.bincount(rows, weights=data * x[cols], minlength=n)


# ---------------------------------------------------------------------------
# per-label edge sums (stored entries with equal / different endpoint labels)


def label_edge_sums(rows, cols, data, labels, cross=False):
    """Sum of the stored entries whose endpoint labels are equal, or with
    ``cross=True`` differ."""
    pick = np.not_equal if cross else np.equal
    return float(data[pick(labels[rows], labels[cols])].sum())


# ---------------------------------------------------------------------------
# exhaustive search over canonical partitions
#
# Assignments are enumerated as restricted growth strings: position 0 has
# label 0 and position p may use labels 0..min(max_used+1, n_c-1).  This
# visits every partition into at most n_c non-empty groups exactly once,
# eliminating label permutations.  The score of an assignment is
# sum_{i,j same label} S[i, j] (both orders, diagonal included).


def _extend(labels, maxl, score, S, n_c):
    """Append every admissible next label to each string, keeping
    lexicographic order, and add the new position's share of the score."""
    p = labels.shape[1]
    counts = np.minimum(maxl + 2, n_c)
    rep = np.repeat(np.arange(labels.shape[0]), counts)
    ends = np.cumsum(counts)
    new = np.arange(ends[-1]) - np.repeat(ends - counts, counts)
    labels = labels[rep]
    # S[p, p] plus both orders of every earlier entry with the same label;
    # each row is summed on its own, so a score does not depend on its block
    same = np.where(labels == new[:, None], S[:p, p], 0.0).sum(axis=1)
    score = score[rep] + (S[p, p] + 2.0 * same)
    return np.concatenate([labels, new[:, None]], axis=1), np.maximum(maxl[rep], new), score


def _best_extension(labels, maxl, score, S, n_c, chunk):
    """First maximum, in lexicographic order, over the full-length strings
    that extend the given prefixes.

    Depth-first, extending at most chunk // n_c prefixes at a time: each
    level holds at most chunk rows, so memory is bounded by m * chunk
    labels whatever the number of strings.
    """
    if labels.shape[1] == S.shape[0]:
        i = int(np.argmax(score))
        return float(score[i]), labels[i]
    labels, maxl, score = _extend(labels, maxl, score, S, n_c)
    best = None
    step = max(1, chunk // n_c)
    for start in range(0, labels.shape[0], step):
        part = slice(start, start + step)
        cand = _best_extension(labels[part], maxl[part], score[part], S, n_c, chunk)
        if best is None or cand[0] > best[0]:
            best = cand
    return best


def enumerate_partitions(S, n_c, chunk=4096):
    """Maximum of sum_{i,j same label} S[i, j] over partitions into <= n_c groups.

    ``S`` must be symmetric.  Returns (value, labels) with 0-based labels;
    among equal maxima the lexicographically first restricted growth
    string wins.
    """
    root = np.zeros((1, 1), dtype=np.int64)
    value, labels = _best_extension(root, root[0], np.array([S[0, 0]], dtype=float), S, n_c, chunk)
    return value, labels.copy()
