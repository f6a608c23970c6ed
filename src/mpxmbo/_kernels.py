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
    # bincount accumulates in storage order, so each row sums its entries
    # by increasing column; on no entries it returns integer zeros
    return np.bincount(rows, weights=data * x[cols], minlength=n).astype(np.float64, copy=False)


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
# sum_{i,j same label} S[i, j] (both orders, diagonal included); only the
# diagonal and the upper triangle of S are read.
#
# Each string is a prefix x of length a followed by a suffix y of length
# b = m - a, where b is the longest with n_c**b <= _CHUNK and a >= 1.
# Prefixes are restricted growth strings, grown level by level, in
# lexicographic order, each new position adding its share of the score;
# under the oracle's limit n_c**m <= 10**7 and _CHUNK = 4096, a level
# holds at most 1024 prefixes (n_c = 2, m = 23).  All n_c**b suffixes are
# tabulated once, in lexicographic order, with their internal score, and
# each block of prefixes is scored against the whole table:
#     score(x y) = (score(x) + internal(y)) + 2 cross(x, y),
#     cross(x, y) = sum_q G[x, y_q, q],  G[x, c, q] = sum_{i : x_i = c} S[i, a + q].
# Both suffix sums are built along the suffix tree: level q holds each
# (y_0 .. y_q) once, in lexicographic order, and each entry is its
# parent's sum plus one term.  So every sum starts at 0.0 and adds its
# terms in position order, one elementwise add at a time (no BLAS):
# the score of a string depends neither on the block it is scored in nor
# on the number of threads, and the first maximum of a block in
# row-major order is its lexicographically first.  cross is doubled only
# at the end, since 2 G can overflow where the sum does not.  No
# completion is masked: one that is not a restricted growth string
# scores bit for bit as its canonical relabelling, which moves only labels
# absent from x (where G is exactly 0.0), keeps internal(y) (a function
# of y's equality pattern alone) and comes earlier in x's row.
#
# Not every prefix is scored.  Once G is built, each prefix's best
# completion is bounded from above:
#     bound(x) = score(x) + sum_q S[a+q, a+q] + 2 sum_{q<r} max(S[a+q, a+r], 0)
#                + 2 sum_q max_c G[x, c, q],
# where the max over c includes 0.0 for every label x leaves free.  The
# incumbent is the best completion of the prefix with the highest bound.
# Only the prefixes whose bound reaches the incumbent less a slack of
# 1e-9 times the sum of |S| over the diagonal and upper triangle (far
# above the rounding of any sum here) are scored, in lexicographic order.
# A pruned prefix completes only to strings below the incumbent, so below
# the maximum, and a string's score does not depend on its block: the
# value bits and the labels are those of scoring every prefix.  If the
# incumbent or any bound is not finite (NaN or overflow in S), every
# prefix is scored.


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
    internal score), the sums grown level by level along the suffix tree."""
    b = S.shape[0] - a
    y = np.indices((n_c,) * b).reshape(b, n_c**b)  # y[q] = y_q of each suffix
    internal = np.zeros(1)
    for q in range(b):
        p = a + q
        z = y[:, :: n_c ** (b - 1 - q)]  # each (y_0 .. y_q) once
        same = np.where(z[:q] == z[q], S[a:p, p, None], 0.0).sum(axis=0)
        internal = np.repeat(internal, n_c) + (S[p, p] + 2.0 * same)
    return y.T, internal


def _score_prefixes(x, score, internal, n_c, bufs):
    """Scores of each prefix (G rows ``x``, score) followed by each suffix, in bufs."""
    r, b = len(x), x.shape[2]
    c = np.zeros((r, 1))
    for q in range(b):
        # one strided add per label, so numpy's inner loop runs over the
        # whole parent level
        out = bufs[q % 2][: c.size * n_c].reshape(r, -1)
        for j in range(n_c):
            np.add(c, x[:, j, q, None], out=out[:, j::n_c])
        c = out
    t = bufs[b % 2][: r * len(internal)].reshape(r, -1)
    np.add(score[:, None], internal, out=t)
    c *= 2.0
    t += c
    return t


def _bound(score, g, tail):
    """Upper bound on each prefix's best completion, ``tail`` the suffix block of S."""
    pairs = np.maximum(np.triu(tail, 1), 0.0).sum()
    return score + (np.trace(tail) + 2.0 * pairs) + 2.0 * g.max(axis=1).sum(axis=1)


def _best_completion(labels, score, S, n_c, table):
    """First maximum, in lexicographic order, over each prefix followed by each
    suffix: (value, prefix, suffix index); blocks hold about 16 * _CHUNK strings."""
    y, internal = table
    n, a = labels.shape
    b, width = y.shape[1], len(y)
    g = np.zeros((n, n_c, b))
    at = np.arange(n)
    for i in range(a):
        g[at, labels[:, i]] += S[i, a:]
    rows = max(1, 16 * _CHUNK // width)
    bufs = [np.empty(min(rows, n) * width) for _ in range(2)]
    bound = _bound(score, g, S[a:, a:])
    top = int(np.argmax(bound))
    incumbent = _score_prefixes(g[top : top + 1], score[top : top + 1], internal, n_c, bufs).max()
    if np.isfinite(incumbent) and np.isfinite(bound).all():  # else score every prefix
        at = np.flatnonzero(bound >= incumbent - 1e-9 * np.abs(np.triu(S)).sum())
    best = None
    for start in range(0, len(at), rows):
        i = at[start : start + rows]
        t = _score_prefixes(g[i], score[i], internal, n_c, bufs)
        k = int(np.argmax(t))
        if best is None or t.flat[k] > best[0]:
            best = (float(t.flat[k]), labels[i[k // width]], k % width)
    return best


def enumerate_partitions(S, n_c):
    """Maximum of sum_{i,j same label} S[i, j] over partitions into <= n_c groups.

    Reads only the diagonal and upper triangle of ``S``.  Returns (value,
    labels), 0-based; among equal maxima the lexicographically first
    restricted growth string wins.  Each prefix, a restricted growth
    string, is scored against every suffix if its upper bound reaches the
    incumbent, the best completion of the prefix with the highest bound,
    less a slack of 1e-9 * sum |S| over one triangle; every prefix is, if
    the incumbent or a bound is not finite.  The prefixes are held whole,
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
    value, prefix, j = _best_completion(labels, score, S, n_c, table)
    return value, np.concatenate([prefix, table[0][j]])
