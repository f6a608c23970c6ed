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
#     score(x y) = (score(x) + internal(y)) + 2 cross(x, y),
#     cross(x, y) = sum_q G[x, y_q, q],  G[x, c, q] = sum_{i : x_i = c} S[i, a + q].
# Both suffix sums are built along the suffix tree: level q holds each
# (y_0 .. y_q) once, in lexicographic order, and each entry is its
# parent's sum plus one term.  So every sum starts at 0.0 and adds its
# terms in position order, one elementwise add at a time (no BLAS):
# the score of a string depends neither on the block it is scored in nor
# on the number of threads, and the first maximum of a block in
# row-major order is its lexicographically first.  cross is doubled only
# at the end, since 2 G can overflow where the sum does not.  The pairs
# that are not restricted growth strings get -inf; only a prefix whose
# maximum label is below the table's largest requirement has any.


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
    internal score, smallest prefix maximum label that admits it), both
    sums extended level by level along the suffix tree."""
    b = S.shape[0] - a
    y = np.indices((n_c,) * b).reshape(b, n_c**b)  # y[q] = y_q of each suffix
    internal = np.zeros(1)
    need = np.zeros(1, dtype=np.int64)
    for q in range(b):
        p = a + q
        z = y[:, :: n_c ** (b - 1 - q)]  # each (y_0 .. y_q) once
        same = np.where(z[:q] == z[q], S[a:p, p, None], 0.0).sum(axis=0)
        internal = np.repeat(internal, n_c) + (S[p, p] + 2.0 * same)
        # a label more than one above the suffix's own maximum so far must
        # be covered by the prefix: max(x) >= y_q - 1
        top = z[:q].max(axis=0, initial=-1)
        need = np.maximum(np.repeat(need, n_c), np.where(z[q] > top + 1, z[q] - 1, 0))
    return y.T, internal, need


def _best_completion(labels, maxl, score, S, n_c, table):
    """First maximum, in lexicographic order, over each prefix followed by
    each suffix it admits: (value, prefix, suffix index).

    G is built once; the prefixes are scored in blocks of about 16 * _CHUNK
    strings, each block's cross term grown between two block-sized buffers.
    """
    y, internal, need = table
    n, a = labels.shape
    b, width = y.shape[1], len(y)
    g = np.zeros((n, n_c, b))
    at = np.arange(n)
    for i in range(a):
        g[at, labels[:, i]] += S[i, a:]
    rows = max(1, 16 * _CHUNK // width)
    bufs = [np.empty(min(rows, n) * width) for _ in range(2)]
    highest = int(need.max())
    best = None
    for start in range(0, n, rows):
        x = g[start : start + rows]
        r = len(x)
        c = np.zeros((r, 1))
        for q in range(b):
            # one strided add per label, so numpy's inner loop runs over the
            # whole parent level
            out = bufs[q % 2][: c.size * n_c].reshape(r, -1)
            for j in range(n_c):
                np.add(c, x[:, j, q, None], out=out[:, j::n_c])
            c = out
        t = bufs[b % 2][: r * width].reshape(r, width)
        np.add(score[start : start + r, None], internal, out=t)
        c *= 2.0
        t += c
        for i in np.flatnonzero(maxl[start : start + r] < highest):
            t[i, need > maxl[start + i]] = -np.inf
        k = int(np.argmax(t))
        if best is None or t.flat[k] > best[0]:
            best = (float(t.flat[k]), labels[start + k // width], k % width)
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
