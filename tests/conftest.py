"""Shared fixtures, test-only builders and independent references.

The dense builders assemble supra matrices directly from definitions with
plain numpy (`toarray` gives a layer's dense matrix), so operator,
eigensolver and oracle tests compare against arithmetic that shares no
code with the package internals; the literal double sum of modularity
over `dense_modularity` and the dense truth scores do the same for
`multiplex_modularity`, `nmi` and `matched_accuracy`, a whole-table oracle
kernel for `enumerate_partitions`, and the line-loop loaders for the four
file loaders.  The network builders and writers (dense layers in, canonical
files out), the file generators and the README readers serve tests only.
"""

import os
import re
from pathlib import Path

import numpy as np
import pytest

from mpxmbo import (
    MultiplexNetwork,
    NetworkFormatError,
    Partition,
    SparseSym,
    all_to_all_coupling,
    compute_degrees,
    gamma_vector,
    load_network,
)

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


# -------------------------------------------------------------------- README


def readme_section(title):
    """The text of README's ``## title`` section, up to the next section."""
    text = (DATA_DIR.parent / "README.md").read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def readme_command_line():
    """README "Command line": its example's argv after ``mpxmbo``, and the
    modularity the paragraph below it states, as printed."""
    section = readme_section("Command line")
    command = re.search(r"^```sh\n(.*?)^```", section, re.M | re.S).group(1)
    argv = command.replace("\\\n", " ").split()
    assert argv[0] == "mpxmbo", argv
    return argv[1:], re.search(r"with modularity (\d\.\d+)", section).group(1)


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


def toarray(a):
    """Dense n x n matrix of a SparseSym."""
    out = np.zeros((a.n, a.n))
    out[a.rows, a.cols] = a.data
    return out


def to_dense(op):
    """Materialize a LinearOperator by applying it to the identity."""
    return op.apply(np.eye(op.dim))


def dense_supra(net):
    """Supra-adjacency: intra blocks plus omega-scaled identity couplings."""
    n, L = net.n, net.L
    a = np.zeros((n * L, n * L))
    for l in range(L):
        a[l * n : (l + 1) * n, l * n : (l + 1) * n] = toarray(net.intra[l])
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
        d = toarray(net.intra[l]).sum(axis=1)
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
        d = toarray(net.intra[l]).sum(axis=1)
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
        d = toarray(net.intra[l]).sum(axis=1)
        parts.append(2.0 * supra_deg[l * net.n : (l + 1) * net.n] + 2.0 * gamma[l] * d)
    return float(np.max(np.concatenate(parts)))


def dense_modularity_value(partition, net, gamma):
    """Literal trace-form Q from the dense modularity matrix."""
    a = dense_modularity(net, gamma)
    u = partition.one_hot()
    two_mu = dense_supra(net).sum()
    return float(np.trace(u.T @ a @ u) / two_mu)


def multiplex_modularity_sumform(partition, net, deg, gamma):
    """Literal double sum over node-layer pairs (quadratic): the same-community
    entries of `dense_modularity`, summed and divided by 2mu, so it shares
    neither the grouped evaluation of `multiplex_modularity` nor the operator
    whose matrix the oracle scores."""
    if deg.total_strength <= 0:
        raise ValueError("modularity undefined: total strength is zero")
    if partition.size != net.nL:
        raise ValueError("partition size does not match network")
    lab = partition.assignment
    S = dense_modularity(net, gamma_vector(gamma, net.L))
    return float(S[lab[:, None] == lab[None, :]].sum()) / deg.total_strength


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
    det_sizes = np.bincount(detected.assignment - 1, minlength=detected.n_c)
    order = sorted(
        (int(lab) for lab in range(1, detected.n_c + 1) if det_sizes[lab - 1] > 0),
        key=lambda lab: (-det_sizes[lab - 1], lab),
    )
    truth_sizes = np.bincount(truth.assignment - 1, minlength=truth.n_c)
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


# ------------------------------------------------------- reference oracle kernel
#
# The exhaustive oracle's kernel with every suffix tabulated whole and each
# block's cross term gathered position by position from per-block G columns,
# where `_kernels` grows both suffix sums along the suffix tree.  Both add the
# same terms in the same order, so value bits and labels must agree.


def _reference_extend(labels, maxl, score, S, n_c):
    p = labels.shape[1]
    counts = np.minimum(maxl + 2, n_c)
    rep = np.repeat(np.arange(labels.shape[0]), counts)
    ends = np.cumsum(counts)
    new = np.arange(ends[-1]) - np.repeat(ends - counts, counts)
    labels = labels[rep]
    same = np.where(labels == new[:, None], S[:p, p], 0.0).sum(axis=1)
    score = score[rep] + (S[p, p] + 2.0 * same)
    return np.concatenate([labels, new[:, None]], axis=1), np.maximum(maxl[rep], new), score


def _reference_suffix_table(S, n_c, a):
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
        need = np.maximum(need, np.where(y[:, q] > top + 1, y[:, q] - 1, 0))
        top = np.maximum(top, y[:, q])
    return y, internal, need, np.ascontiguousarray((y * b + np.arange(b)).T)


def _reference_best_completion(labels, maxl, score, S, n_c, table, chunk):
    y, internal, need, cols = table
    n, a = labels.shape
    b = y.shape[1]
    rows = max(1, 16 * chunk // len(y))
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


def reference_enumerate_partitions(S, n_c, chunk):
    """(value, labels) of `_kernels.enumerate_partitions` with ``_CHUNK = chunk``."""
    m = S.shape[0]
    b = 0
    while b < m - 1 and n_c ** (b + 1) <= chunk:
        b += 1
    labels = np.zeros((1, 1), dtype=np.int64)
    maxl, score = labels[0], np.array([S[0, 0]], dtype=float)
    while labels.shape[1] < m - b:
        labels, maxl, score = _reference_extend(labels, maxl, score, S, n_c)
    table = _reference_suffix_table(S, n_c, m - b)
    value, prefix, j = _reference_best_completion(labels, maxl, score, S, n_c, table, chunk)
    return value, np.concatenate([prefix, table[0][j]])


# ------------------------------------------------------------ reference loaders
#
# Plain line loops over a regular file, one check after another, raising at
# the first fault: the file format of README "File formats" written out
# directly, for comparison with the package's loaders.

_REFERENCE_HEADER = re.compile(r"#multiplex\s+n=(\d+)\s+L=(\d+)\s*$")


def _reference_lines(path):
    """(line number, stripped line) of each non-blank line, as a file opened in
    text mode numbers them; at the first line holding a byte that is not
    UTF-8, NetworkFormatError with the message of decoding the whole file."""
    try:
        Path(path).read_bytes().decode("utf-8")
        bad = None
    except UnicodeDecodeError as exc:
        bad = str(exc)
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if bad is not None and re.search("[\udc80-\udcff]", raw):
                raise NetworkFormatError(bad, path, lineno)
            if line := raw.strip():
                yield lineno, line


def _reference_fields(path, widths, expected):
    """(line number, fields) of each data line whose field count is in widths."""
    for lineno, line in _reference_lines(path):
        if line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) not in widths:
            raise NetworkFormatError(expected, path, lineno)
        yield lineno, parts


def _reference_parse(path, lineno, what, parse, parts):
    try:
        return [f(x) for f, x in zip(parse, parts)]
    except ValueError as exc:
        raise NetworkFormatError(f"cannot parse {what} line: {exc}", path, lineno) from None


def reference_load_network(path):
    """`load_network(path, omega=0.0)` as a line loop."""
    n = L = None
    buckets = None  # per layer: ([rows], [cols], [weights])
    for lineno, line in _reference_lines(path):
        if line.startswith("#"):
            m = _REFERENCE_HEADER.match(line)
            if m:
                if n is not None:
                    raise NetworkFormatError("duplicate #multiplex header", path, lineno)
                n, L = int(m.group(1)), int(m.group(2))
                if n < 1 or L < 1:
                    raise NetworkFormatError("header requires n >= 1 and L >= 1", path, lineno)
                buckets = [([], [], []) for _ in range(L)]
            continue
        if n is None:
            raise NetworkFormatError("edge line before #multiplex header", path, lineno)
        parts = line.split()
        if len(parts) not in (3, 4):
            raise NetworkFormatError("expected 'layer u v [weight]'", path, lineno)
        parse = (int, int, int, float)
        layer, u, v, w = _reference_parse(path, lineno, "edge", parse, parts + ["1.0"])
        if not 1 <= layer <= L:
            raise NetworkFormatError(f"layer id {layer} out of range 1..{L}", path, lineno)
        if not (1 <= u <= n and 1 <= v <= n):
            raise NetworkFormatError(f"node id out of range 1..{n}", path, lineno)
        if not np.isfinite(w):
            raise NetworkFormatError("non-finite weight", path, lineno)
        if w < 0:
            raise NetworkFormatError(f"negative weight {w}", path, lineno)
        rows, cols, data = buckets[layer - 1]
        rows.append(u - 1)
        cols.append(v - 1)
        data.append(w)
        if u != v:
            rows.append(v - 1)
            cols.append(u - 1)
            data.append(w)
    if n is None:
        raise NetworkFormatError("missing #multiplex header", path)
    intra = tuple(SparseSym.from_coo(n, r, c, d) for r, c, d in buckets)
    return MultiplexNetwork(n, L, intra, all_to_all_coupling(L), 0.0)


def reference_load_coupling(path, L):
    """The coupling matrix that `load_network(..., coupling_path=path)` reads."""
    coupling = np.zeros((L, L))
    seen = set()
    for lineno, parts in _reference_fields(path, (3,), "expected 'k l weight'"):
        k, l, w = _reference_parse(path, lineno, "coupling", (int, int, float), parts)
        if not (1 <= k <= L and 1 <= l <= L):
            raise NetworkFormatError(f"layer id out of range 1..{L}", path, lineno)
        if k == l:
            raise NetworkFormatError("self-referential coupling entry", path, lineno)
        if not np.isfinite(w) or w < 0:
            raise NetworkFormatError("coupling weight must be finite and >= 0", path, lineno)
        key = (min(k, l), max(k, l))
        if key in seen:
            raise NetworkFormatError(f"duplicate coupling entry for layers {key}", path, lineno)
        seen.add(key)
        coupling[k - 1, l - 1] = coupling[l - 1, k - 1] = w
    return coupling


def reference_load_labels(path, net):
    """`load_labels` as a line loop; conflicts are looked for after the last line."""
    n, L = net.n, net.L
    entries, ncols = [], None  # (line, index, label)
    expected = "expected 'node label' or 'node layer label'"
    for lineno, parts in _reference_fields(path, (2, 3), expected):
        if ncols is None:
            ncols = len(parts)
        elif len(parts) != ncols:
            raise NetworkFormatError("mixed label-file formats", path, lineno)
        node, layer = _reference_parse(path, lineno, "label", (int, int), parts[:-1] + [1])
        if not 1 <= node <= n:
            raise NetworkFormatError(f"node id {node} out of range 1..{n}", path, lineno)
        if not 1 <= layer <= L:
            raise NetworkFormatError(f"layer id {layer} out of range 1..{L}", path, lineno)
        entries.append((lineno, (layer - 1) * n + node - 1, parts[-1]))
    if ncols is None:
        raise NetworkFormatError("empty label file", path)
    codes = {}
    for _, _, label in entries:
        codes.setdefault(label, len(codes) + 1)
    assignment = np.zeros(n * L if ncols == 3 else n, dtype=np.int64)
    for lineno, idx, label in entries:
        if assignment[idx] and assignment[idx] != codes[label]:
            where = f"pair ({idx % n + 1},{idx // n + 1})" if ncols == 3 else f"node {idx + 1}"
            raise NetworkFormatError(f"conflicting labels for {where}", path, lineno)
        assignment[idx] = codes[label]
    missing = np.flatnonzero(assignment == 0)
    if missing.size:
        idx = int(missing[0])
        where = f"pair ({idx % n + 1},{idx // n + 1})" if ncols == 3 else f"node {idx + 1}"
        raise NetworkFormatError(f"missing label for {where}", path)
    return Partition(assignment if ncols == 3 else np.tile(assignment, L), len(codes))


def reference_load_partition(path, net):
    """`load_partition` as a line loop; labels above nL are rejected."""
    n, L = net.n, net.L
    assignment = np.zeros(n * L, dtype=np.int64)
    for lineno, parts in _reference_fields(path, (3,), "expected 'node layer community'"):
        node, layer, com = _reference_parse(path, lineno, "partition", (int, int, int), parts)
        if not (1 <= node <= n and 1 <= layer <= L):
            raise NetworkFormatError("node or layer id out of range", path, lineno)
        if com < 1:
            raise NetworkFormatError(f"community label {com} must be >= 1", path, lineno)
        if com > n * L:
            raise NetworkFormatError(f"community label {com} out of range 1..{n * L}", path, lineno)
        idx = (layer - 1) * n + node - 1
        if assignment[idx] and assignment[idx] != com:
            raise NetworkFormatError(f"conflicting labels for pair ({node},{layer})", path, lineno)
        assignment[idx] = com
    missing = np.flatnonzero(assignment == 0)
    if missing.size:
        layer, node = divmod(int(missing[0]), n)
        raise NetworkFormatError(f"missing label for pair ({node + 1},{layer + 1})", path)
    return Partition(assignment, int(assignment.max()))


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
        a = toarray(net.intra[l])
        a[node, :] = 0.0
        a[:, node] = 0.0
        layers.append(a)
    return from_dense_layers(layers, coupling=net.coupling, omega=net.omega)


ODD_INTS = ["0", "-1", "+1", "007", "1_0", "١", "٢", "1.0", "1e0", "0x1", "x", "2#x", "#",
            "99999999999999999999", "-99999999999999999999"]  # fmt: skip
ODD_FLOATS = ["-1", "-0.0", "nan", "inf", "-inf", "1e400", "1e-400", "-2.5e-300", "1_0.5", "١.٥",
              ".5", "5.", "1E2", "+2", "Infinity", "w", "1,5", "0x1p3", "#x", "1.0"]  # fmt: skip
ODD_LINES = ["", "   ", "\t", "\xa0", "\x0c", "# note", "  # indented", "#", "# é #x",
             "#multiplex"]  # fmt: skip
SEPARATORS = ["\t"] * 8 + [" ", "  ", " \t", "\xa0", "\x0c", "\x0b"]
HEADERS = ["#multiplex n={} L={}", "  #multiplex  n={}\tL={}  ", "#multiplex n=0{} L={}"]


def random_loader_file(rng, kind):
    """A small file of the given kind ("network", "coupling", "labels" or
    "partition"), valid or faulty, as bytes; with the n and L to read it by.

    Valid lines come first.  Most files then get one to three faults: an odd
    token, one field's value in place of another's, a field added or
    dropped, a line dropped or repeated with a new last field, a header
    dropped, moved or malformed, or bytes that are not UTF-8.  Comment and
    blank lines are mixed in, fields are split by assorted whitespace, lines
    end in \\n, \\r\\n or \\r, and the last line end may be missing.
    """
    pick = lambda seq: seq[int(rng.integers(len(seq)))]  # noqa: E731
    n, L = int(rng.integers(1, 5)), int(rng.integers(1 + (kind == "coupling"), 4))
    if kind == "network":
        lines = [[pick(HEADERS).format(n, L)]] + [
            [str(rng.integers(1, L + 1)), *map(str, rng.integers(1, n + 1, 2))]
            + [pick(["1", "0.5", "2.25", "3e-2", "0"])] * int(rng.random() < 0.8)
            for _ in range(rng.integers(0, 7))
        ]
    elif kind == "coupling":
        pairs = [(k, l)[:: pick([1, -1])] for k in range(1, L + 1) for l in range(k + 1, L + 1)]
        lines = [[str(k), str(l), pick(["1", "0.5", "2"])] for k, l in pairs if rng.random() < 0.7]
    else:
        width = 3 if kind == "partition" or rng.random() < 0.5 else 2
        labels = ["a", "b", "a#b", "é", "#c"] if kind == "labels" else range(1, n * L + 1)
        layers = range(1, (L if width == 3 else 1) + 1)
        lines = [[str(j), str(l)][: width - 1] + [str(pick(labels))]
                 for l in layers for j in range(1, n + 1)]  # fmt: skip
        rng.shuffle(lines)
    first_float = 2 if kind == "coupling" else 3  # the weight column, where there is one
    for _ in range(rng.integers(1, 4) if rng.random() < 0.85 else 0):
        fault = pick(["token"] * 4 + ["copy", "width", "drop", "repeat", "header", "bytes"])
        line = pick([x for x in lines if not x[0].lstrip().startswith("#")] or [None])
        where = int(rng.integers(len(lines) + 1))
        if fault == "header":
            if kind == "network" and lines and rng.random() < 0.3:
                del lines[0]
            else:
                lines.insert(where, [pick(HEADERS + ["#multiplex n=0 L={1}", "#multiplex n={} L=0"])
                                     .format(n, L)])  # fmt: skip
        elif fault == "bytes" and lines:
            line = pick(lines)
            line[-1] += pick(["\udcff", "\udce2\udc82", "é\udce9"])
        elif line is None:
            continue
        elif fault == "token":  # the last field, a weight or label, twice as often
            j = pick([*range(len(line)), len(line) - 1])
            line[j] = pick((ODD_FLOATS if j >= first_float else ODD_INTS)
                           + [str(n + 1), str(L + 1), str(n * L + 1)])  # fmt: skip
        elif fault == "copy":
            line[int(rng.integers(len(line)))] = pick(line)
        elif fault == "width":
            drop = len(line) > 1 and rng.random() < 0.5
            line[:] = line[:-1] if drop else line + [pick(["1", "x", "# c"])]
        elif fault == "drop":
            lines.remove(line)
        elif fault == "repeat":
            lines.insert(where, line[:-1] + [pick(["1", "2", "b", line[-1]])])
    for _ in range(rng.integers(0, 4)):
        lines.insert(int(rng.integers(len(lines) + 1)), [pick(ODD_LINES)])
    ends = pick([["\n"], ["\r\n"], ["\r"], ["\n", "\r\n", "\r"]])
    body = "".join(pick(["", "", "", " ", "\t"]) + pick(SEPARATORS).join(line) + pick(ends)
                   for line in lines)  # fmt: skip
    if body and rng.random() < 0.2:
        body = body.rstrip("\r\n")
    return body.encode("utf-8", "surrogateescape"), n, L


def random_gamma(rng, L):
    return rng.uniform(0.3, 2.0, size=L)


def random_partition(rng, nL, n_c):
    return Partition(rng.integers(1, n_c + 1, size=nL).astype(np.int64), n_c)


# ------------------------------------------------------------------ fixtures


@pytest.fixture
def pipe_path():
    """A /dev/fd path to a pipe holding the given text; it reads only once."""
    fds = []

    def make(text):
        r, w = os.pipe()
        fds.append(r)
        os.write(w, text.encode("utf-8"))
        os.close(w)
        return f"/dev/fd/{r}"

    yield make
    for fd in fds:
        os.close(fd)


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
