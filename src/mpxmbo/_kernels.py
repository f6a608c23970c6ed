"""Hot numeric kernels, one numpy implementation each.

Callers reach these through the module (``_kernels.csr_matvec(...)``),
so a profiler can wrap a kernel by replacing the module attribute.
"""

import numpy as np

__all__ = ["csr_matvec", "label_edge_sums", "enumerate_partitions"]

# largest suffix table of enumerate_partitions: n_c**b <= _CHUNK
_CHUNK = 4096


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
#
# Each string is a prefix x of length a followed by a suffix y of length
# b = m - a, where b is the longest with n_c**b <= _CHUNK and a >= 1.
# Prefixes are grown level by level, in lexicographic order, each new
# position adding its share of the score; under the oracle's limit
# n_c**m <= 10**7 and _CHUNK = 4096, a level holds at most 1024
# prefixes (n_c = 2, m = 23).  The n_c**b suffixes are tabulated once, in
# lexicographic order, with their internal score and the smallest prefix
# maximum label that keeps x y a restricted growth string.  Each block of
# prefixes is then scored against the whole table:
#     score(x y) = score(x) + internal(y) + 2 sum_q G[x, y_q, q],
#     G[x, c, q] = sum_{i : x_i = c} S[i, a + q],
# and the pairs that are not restricted growth strings get -inf.  Every
# sum is a fixed sequence of elementwise adds (no BLAS), so the score of a
# string depends neither on the block it is scored in nor on the number
# of threads, and the first maximum of a block in row-major order is its
# lexicographically first.


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


def _suffix_table(S, n_c, a):
    """Every suffix of positions a.. in lexicographic order: (labels,
    internal score, smallest prefix maximum label that admits it, and per
    position q the column of G[:, y_q, q] in G flattened to (rows, n_c * b))."""
    b = S.shape[0] - a
    y = np.arange(n_c**b)[:, None] // n_c ** np.arange(b - 1, -1, -1) % n_c
    internal = np.zeros(len(y))
    need = np.zeros(len(y), dtype=np.int64)
    top = np.full(len(y), -1)
    for q in range(b):
        p = a + q
        same = np.zeros(len(y))
        for r in range(q):
            same += np.where(y[:, r] == y[:, q], S[a + r, p], 0.0)
        internal += S[p, p] + 2.0 * same
        # a label more than one above the suffix's own maximum so far must
        # be covered by the prefix: max(x) >= y_q - 1
        need = np.maximum(need, np.where(y[:, q] > top + 1, y[:, q] - 1, 0))
        top = np.maximum(top, y[:, q])
    return y, internal, need, np.ascontiguousarray((y * b + np.arange(b)).T)


def _best_completion(labels, maxl, score, S, n_c, table):
    """First maximum, in lexicographic order, over each prefix followed by
    each suffix it admits: (value, prefix, suffix index).

    The prefixes are scored in blocks of about 16 * _CHUNK strings.
    """
    y, internal, need, cols = table
    n, a = labels.shape
    b = y.shape[1]
    rows = max(1, 16 * _CHUNK // len(y))
    cross = np.empty((min(rows, n), len(y)))
    total = np.empty_like(cross)
    best = None
    for start in range(0, n, rows):
        x = labels[start : start + rows]
        r = len(x)
        g = np.zeros((r, n_c, b))
        at = np.arange(r)
        for i in range(a):
            g[at, x[:, i]] += S[i, a:]
        g = g.reshape(r, n_c * b)
        c, t = cross[:r], total[:r]
        c.fill(0.0)
        for q in range(b):
            # the columns are in range; mode="clip" avoids a buffered copy
            np.take(g, cols[q], axis=1, out=t, mode="clip")
            c += t
        np.add(score[start : start + r, None], internal, out=t)
        c *= 2.0
        t += c
        t[need > maxl[start : start + r, None]] = -np.inf
        k = int(np.argmax(t))
        if best is None or t.flat[k] > best[0]:
            best = (float(t.flat[k]), x[k // len(y)], k % len(y))
    return best


def enumerate_partitions(S, n_c):
    """Maximum of sum_{i,j same label} S[i, j] over partitions into <= n_c groups.

    ``S`` must be symmetric.  Returns (value, labels) with 0-based labels;
    among equal maxima the lexicographically first restricted growth
    string wins.  The prefixes are grown level by level and held whole,
    so their number, not ``_CHUNK``, sets the memory; ``_CHUNK`` bounds
    only the size of the suffix table and of each scoring block.
    """
    m = S.shape[0]
    b = 0
    while b < m - 1 and n_c ** (b + 1) <= _CHUNK:
        b += 1
    labels = np.zeros((1, 1), dtype=np.int64)
    maxl, score = labels[0], np.array([S[0, 0]], dtype=float)
    while labels.shape[1] < m - b:
        labels, maxl, score = _extend(labels, maxl, score, S, n_c)
    table = _suffix_table(S, n_c, m - b)
    value, prefix, j = _best_completion(labels, maxl, score, S, n_c, table)
    return value, np.concatenate([prefix, table[0][j]])
