"""Multiplex network data model, degree bookkeeping, and file I/O.

A multiplex network consists of ``L`` undirected, non-negatively weighted
layers over the same ``n`` physical nodes, plus a symmetric layer-coupling
matrix with zero diagonal whose entries are scaled by a global coupling
strength ``omega``.  Node-layer pair ``(j, l)`` (1-based in files) maps to
row ``(l-1)*n + (j-1)`` of every length-``n*L`` vector.

File formats
------------
All files are plain UTF-8 text whatever their suffix, with whitespace-
separated fields; blank lines are skipped, a line starting with ``#`` is a
comment (a later ``#`` belongs to a field), ids read as ``int`` reads them
and weights as ``float`` does.  Every input is read once into memory;
numpy's C reader parses a regular file's rows from disk and a pipe's from
memory, and skips comment lines anywhere at no extra cost.  ``1_0``-style
tokens and a ``#`` inside a field take a Python tokenizer.

Network file:
    * header line ``#multiplex n=<n> L=<L>`` before any edge line,
    * edge lines ``layer <TAB> u <TAB> v [<TAB> weight]`` (weight defaults
      to 1.0); each line contributes to both triangles, duplicate lines are
      summed, ``u == v`` stores a self-loop once.

Coupling file (optional): lines ``k <TAB> l <TAB> weight`` with ``k != l``;
entries are symmetrized on load, pairs not listed stay 0.  Without a
coupling file, all-to-all coupling (ones off the diagonal) is used.

Label file: either ``node <TAB> label`` (per-node; replicated across all
layers) or ``node <TAB> layer <TAB> label`` (per-pair), auto-detected by
column count.  Labels are remapped to 1..n_c in order of first appearance.

Partition file: ``node <TAB> layer <TAB> community`` with integer
communities, one line per node-layer pair, sorted by (layer, node).
"""

from __future__ import annotations

import io
import itertools
import os
import re
import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels

__all__ = [
    "NetworkFormatError",
    "SparseSym",
    "MultiplexNetwork",
    "DegreeData",
    "Partition",
    "all_to_all_coupling",
    "gamma_vector",
    "load_network",
    "compute_degrees",
    "load_labels",
    "load_partition",
    "save_partition",
]


class NetworkFormatError(ValueError):
    """Malformed network, coupling, label, or partition file."""

    def __init__(self, message, path=None, line=None):
        loc = "" if path is None else f"{path}: "
        loc += "" if line is None else f"line {line}: "
        super().__init__(loc + message)
        self.path, self.line = path, line


class SparseSym:
    """Sparse symmetric matrix as canonical COO triples.

    Entries are sorted by (row, col) and duplicates are merged by summing
    in input order, so that building from edge lists that list both
    orientations of every edge yields bit-for-bit symmetric data.
    """

    __slots__ = ("n", "rows", "cols", "data")

    def __init__(self, n, rows, cols, data):
        self.n, self.rows, self.cols, self.data = int(n), rows, cols, data

    @classmethod
    def from_coo(cls, n, rows, cols, data):
        """Build from COO triples that already contain both orientations."""
        n = int(n)
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        data = np.asarray(data, dtype=np.float64)
        if not (rows.shape == cols.shape == data.shape):
            raise ValueError("rows, cols, data must have equal length")
        nnz = rows.size
        if not nnz:
            return cls(n, rows, cols, data)
        if rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= n:
            raise ValueError("index out of range")
        if not np.all(np.isfinite(data)):
            raise ValueError("non-finite weight")
        if data.min() < 0:
            raise ValueError("negative weight")
        # Each order is the stable one, so the (i, j) and (j, i) duplicate groups
        # sum in input order -> exact symmetry.  rows * n + cols orders as (rows,
        # cols); with the input position appended, the sorted keys' remainders
        # are the stable order (faster than argsort).  A key past int64 lexsorts.
        if n * n <= (2**63 - 1) // nnz:
            keys = np.sort((rows * n + cols) * nnz + np.arange(nnz))
            order = keys - keys // nnz * nnz
        else:
            order = np.lexsort((cols, rows))
        rows, cols, data = rows[order], cols[order], data[order]
        first = np.ones(nnz, dtype=bool)
        first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        starts = np.flatnonzero(first)
        return cls(n, rows[starts], cols[starts], np.add.reduceat(data, starts))

    @property
    def nnz(self):
        return self.data.size

    def row_sums(self):
        if self.nnz == 0:
            return np.zeros(self.n)
        return np.bincount(self.rows, weights=self.data, minlength=self.n)

    def matvec(self, x):
        return _kernels.csr_matvec(self.rows, self.cols, self.data, x, self.n)


def _check_coupling(coupling, L):
    coupling = np.asarray(coupling, dtype=np.float64)
    if coupling.shape != (L, L):
        raise ValueError(f"coupling must be {L}x{L}")
    if not np.all(np.isfinite(coupling)):
        raise ValueError("non-finite coupling entry")
    if coupling.size and coupling.min() < 0:
        raise ValueError("negative coupling entry")
    if not np.array_equal(coupling, coupling.T):
        raise ValueError("coupling matrix is not symmetric")
    if np.any(np.diag(coupling) != 0):
        raise ValueError("coupling diagonal must be zero")
    return coupling


@dataclass(frozen=True)
class MultiplexNetwork:
    """Immutable multiplex network: L intra-layer matrices plus coupling.

    Attributes
    ----------
    n : int
        Number of physical nodes.
    L : int
        Number of layers.
    intra : tuple of SparseSym
        Intra-layer adjacency matrices, each n x n, exactly symmetric.
    coupling : ndarray, shape (L, L)
        Symmetric, non-negative layer-coupling weights, zero diagonal.
    omega : float
        Global inter-layer coupling strength (>= 0).
    """

    n: int
    L: int
    intra: tuple
    coupling: np.ndarray
    omega: float

    def __post_init__(self):
        if self.n < 1 or self.L < 1:
            raise ValueError("need n >= 1 and L >= 1")
        if len(self.intra) != self.L:
            raise ValueError("number of intra-layer matrices must equal L")
        for a in self.intra:
            if not isinstance(a, SparseSym) or a.n != self.n:
                raise ValueError("each intra-layer matrix must be SparseSym of size n")
        object.__setattr__(self, "coupling", _check_coupling(self.coupling, self.L))
        omega = float(self.omega)
        if not np.isfinite(omega) or omega < 0:
            raise ValueError("omega must be finite and >= 0")
        object.__setattr__(self, "omega", omega)

    @property
    def nL(self):
        return self.n * self.L


def all_to_all_coupling(L):
    """Ones off the diagonal: every layer coupled to every other layer."""
    return np.ones((L, L)) - np.eye(L)


@dataclass(frozen=True)
class DegreeData:
    """Degree and strength bookkeeping derived from a network.

    ``intra_degrees[l, j]`` is the weighted degree of node ``j`` within
    layer ``l``; ``layer_strengths[l]`` its sum (the intra-layer strength
    2m of layer ``l``); ``supra_degrees`` the length-nL degree vector of
    the full supra-adjacency (including the omega-scaled coupling part);
    ``total_strength`` the overall strength 2mu.
    """

    intra_degrees: np.ndarray
    layer_strengths: np.ndarray
    supra_degrees: np.ndarray
    total_strength: float


def compute_degrees(net):
    """Compute per-layer and supra degree vectors and strength totals.

    Parameters
    ----------
    net : MultiplexNetwork

    Returns
    -------
    DegreeData
    """
    intra = np.vstack([a.row_sums() for a in net.intra])
    strengths = intra.sum(axis=1)
    coupling_rows = net.coupling.sum(axis=1)
    supra = intra.ravel() + net.omega * np.repeat(coupling_rows, net.n)
    total = float(strengths.sum() + net.omega * net.n * net.coupling.sum())
    return DegreeData(intra, strengths, supra, total)


def gamma_vector(gamma, L):
    """Broadcast a scalar or validate a length-L vector of resolutions."""
    g = np.asarray(gamma, dtype=np.float64)
    if g.ndim == 0:
        g = np.full(L, float(g))
    if g.shape != (L,):
        raise ValueError(f"gamma must be a scalar or a vector of length {L}")
    if not np.all(np.isfinite(g)) or np.any(g <= 0):
        raise ValueError("resolution parameters must be positive and finite")
    return g


@dataclass(frozen=True)
class Partition:
    """Non-overlapping assignment of node-layer pairs to communities.

    ``assignment`` holds one label in ``1..n_c`` per node-layer pair in
    row order (layer-major); empty labels are allowed, the number of
    communities actually used is ``n_nonempty()``.
    """

    assignment: np.ndarray
    n_c: int

    def __post_init__(self):
        a = np.asarray(self.assignment)
        if a.ndim != 1 or not np.issubdtype(a.dtype, np.integer):
            raise ValueError("assignment must be a 1-D integer array")
        a = a.astype(np.int64, copy=True)
        a.setflags(write=False)
        object.__setattr__(self, "assignment", a)
        object.__setattr__(self, "n_c", int(self.n_c))
        if self.n_c < 1:
            raise ValueError("n_c must be >= 1")
        if a.size and (a.min() < 1 or a.max() > self.n_c):
            raise ValueError("labels must lie in 1..n_c")

    @property
    def size(self):
        return self.assignment.size

    def one_hot(self):
        """Binary indicator matrix with exactly one 1.0 per row."""
        u = np.zeros((self.size, self.n_c))
        u[np.arange(self.size), self.assignment - 1] = 1.0
        return u

    def n_nonempty(self):
        labels = np.sort(self.assignment)  # O(size) for any n_c; np.unique would import numpy.ma
        return int(np.count_nonzero(labels[1:] != labels[:-1])) + bool(labels.size)


_HEADER_RE = re.compile(r"#multiplex\s+n=(\d+)\s+L=(\d+)\s*$")
_DTYPES = {int: np.int64, float: np.float64, str: object}
_PACKED = (".gz", ".bz2", ".xz", ".lzma")
_PAIR = "pair ({},{})"
# a data line of a text with \n line ends: its first non-blank character is not #
_DATA = re.compile(r"^[^\S\n]*[^\s#].*", re.M)


def _line(text, pos):
    """The number of the line that holds ``text[pos]``."""
    return text.count("\n", 0, pos) + 1


class _Rows:
    """Typed columns of a file's data lines, and what reading them met.

    ``text`` is the file's text with ``\\n`` line ends, to its first byte that
    is not UTF-8.  A line is named by the position in ``text`` where it
    starts, and numbered only for an error: ``comments`` holds the
    (position, text) of the ``#`` lines, ``first`` the position of the
    first data line, and ``fault`` the (position, message) that stopped
    reading.
    """

    def __init__(self, path, text, comments, first):
        self.path, self.text, self.comments, self.first = path, text, comments, first
        self.cols = self.fault = None

    def start(self, i):
        """The position of row i's line."""
        return next(itertools.islice(_DATA.finditer(self.text), i, None)).start()


def _read_rows(path, kinds, what, expected, mixed=None):
    """The rows of a file read once into memory, by `_loadtxt`, else `_tokenize`."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:  # before line ends change, so that an error's position counts the file's bytes
        text, bad = data.decode("utf-8"), None
    except UnicodeDecodeError as exc:
        text, bad = data[: exc.start].decode("utf-8"), str(exc)
    # universal newlines, as np.loadtxt reads a named file (a text without \r is returned as is)
    text = io.IncrementalNewlineDecoder(None, translate=True).decode(text, final=True)
    if bad:  # the whole lines before the bad byte are read, then it is the fault
        text = text[: text.rfind("\n") + 1]
    comments, in_field = _comments(text)
    first = _DATA.search(text)
    rows = _Rows(path, text, comments, first and first.start())
    width = len(first.group().split()) if first else 0
    if width in kinds and not bad and not in_field:  # loadtxt would cut a field at its #
        rows.cols = _loadtxt(rows.path, data, kinds[width], width)
    if rows.cols is None:
        rows.cols, rows.fault = _tokenize(text, kinds, what, expected, mixed, bad)
    return rows


def _comments(text):
    """The (position, text) of the ``#`` lines of ``text``, and whether a ``#``
    follows a field of its line; the search stops at the first such ``#``."""
    found = []
    for m in re.finditer("#.*", text):
        start = text.rfind("\n", 0, m.start()) + 1
        if text[start : m.start()].strip():
            return found, True
        found.append((start, m.group().rstrip()))
    return found, False


def _loadtxt(path, data, kind, width):
    """`_tokenize`'s columns, read by `np.loadtxt` from the file or from its
    bytes ``data``; None if it refuses a line."""
    dtype = [(f"c{j}", _DTYPES[t]) for j, t in enumerate(kind[:width])]
    # loadtxt reads a named file in C chunks, but decompresses these and fetches URL-like names
    if os.path.isfile(path) and os.path.splitext(path)[1] not in _PACKED:
        source = os.path.join(os.getcwd(), path)
    else:
        source = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    try:
        with warnings.catch_warnings():
            # older numpy reads "1.0" in an int column, with only this warning
            warnings.simplefilter("error", DeprecationWarning)
            table = np.loadtxt(source, dtype, comments="#", encoding="utf-8", ndmin=1)
    except (ValueError, DeprecationWarning):
        return None  # a line loadtxt refuses
    return [table[col] for col, _ in dtype] + [np.full(table.size, v) for v in kind[width:]]


def _tokenize(text, kinds, what, expected, mixed, bad):
    """Read the data lines of a whitespace-separated text as typed columns.

    ``kinds`` maps each accepted column count to its column types (int,
    float or str), then the values of the columns a shorter line leaves
    out; ``mixed`` is the error for a count unlike the first line's.  Lines
    read as ``str.split``, ``int`` and ``float`` read them, to the first
    fault: the columns, and the fault's (position, message) or None.
    ``bad`` is the message of a fault at the end of the text, if any.
    """
    rows, fault = [], bad and (len(text), bad)
    for m in _DATA.finditer(text):
        parts = m.group().split()
        if len(parts) not in kinds or (mixed and rows and len(parts) != len(rows[0])):
            fault = (m.start(), expected if len(parts) not in kinds else mixed)
            break
        kind = kinds[len(parts)]
        try:
            rows.append([t(x) for t, x in zip(kind, parts)] + list(kind[len(parts) :]))
        except ValueError as exc:
            fault = (m.start(), f"cannot parse {what} line: {exc}")
            break
    types = kinds[len(rows[0])] if rows else kinds[max(kinds)]
    return [_column(c, t) for c, t in zip(list(zip(*rows)) or [()] * len(types), types)], fault


def _column(values, kind):
    try:
        return np.array(values, dtype=_DTYPES[kind])
    except OverflowError:  # ids past int64 stay exact for the error message
        return np.array(values, dtype=object)


def _first_of(key):
    """For each row, the index of the first row with an equal key."""
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return first[inverse]


def _raise_first(rows, found, checks):
    """Raise the error of the earliest faulty line, as a line loop would.

    ``found`` holds known (position, message) faults and ``checks`` (mask,
    message of row i) pairs, both in the order one line is checked in.
    """
    found = list(found) + ([rows.fault] if rows.fault else [])
    for mask, message in checks:
        if mask.any():
            i = int(mask.argmax())
            found.append((rows.start(i), message(i)))
    if found:
        at, message = min(found, key=lambda fault: fault[0])
        raise NetworkFormatError(message, rows.path, _line(rows.text, at))


def load_network(path, coupling_path=None, omega=1.0):
    """Load a multiplex network from an edge-list file.

    Each edge line contributes its weight to both (u, v) and (v, u);
    repeated lines are summed; self-loops are stored once.  Without
    ``coupling_path``, all-to-all layer coupling is assumed.

    Parameters
    ----------
    path : str or Path
        Network file (see module docstring for the format).
    coupling_path : str or Path, optional
        Layer-coupling file.
    omega : float
        Inter-layer coupling strength.

    Returns
    -------
    MultiplexNetwork
    """
    kinds = {3: (int, int, int, 1.0), 4: (int, int, int, float)}
    rows = _read_rows(path, kinds, "edge", "expected 'layer u v [weight]'")
    headers = [(at, m) for at, line in rows.comments if (m := _HEADER_RE.match(line))]
    found, n, L = [(at, "duplicate #multiplex header") for at, _ in headers[1:2]], 0, 0
    if headers:
        n, L = int(headers[0][1].group(1)), int(headers[0][1].group(2))
        if n < 1 or L < 1:
            found.append((headers[0][0], "header requires n >= 1 and L >= 1"))
    if rows.first is not None and (not headers or rows.first < headers[0][0]):
        found.append((rows.first, "edge line before #multiplex header"))
    layer, u, v, w = rows.cols
    _raise_first(rows, found, [
        ((layer < 1) | (layer > L), lambda i: f"layer id {layer[i]} out of range 1..{L}"),
        ((u < 1) | (u > n) | (v < 1) | (v > n), lambda i: f"node id out of range 1..{n}"),
        (~np.isfinite(w), lambda i: "non-finite weight"),
        (w < 0, lambda i: f"negative weight {float(w[i])}"),
    ])  # fmt: skip
    del rows  # and the file's text with it, before the layers are built
    if not headers:
        raise NetworkFormatError("missing #multiplex header", path)
    # per layer, both orientations of each line in file order (a self-loop
    # once), so that duplicates sum in the order a line loop sums them; ids
    # in the smallest dtype holding L sort by radix while L < 2**16
    intra = []
    cuts = np.cumsum(np.bincount(layer - 1, minlength=L))[:-1]
    for lines in np.split(np.argsort(layer.astype(np.min_scalar_type(L)), kind="stable"), cuts):
        a, b = u[lines] - 1, v[lines] - 1
        keep = np.ones(2 * lines.size, dtype=bool)
        keep[1::2] = a != b
        r, c = np.column_stack([a, b]).ravel(), np.column_stack([b, a]).ravel()
        intra.append(SparseSym.from_coo(n, r[keep], c[keep], np.repeat(w[lines], 2)[keep]))
    coupling = all_to_all_coupling(L) if coupling_path is None else _load_coupling(coupling_path, L)
    return MultiplexNetwork(n, L, tuple(intra), coupling, omega)


def _load_coupling(path, L):
    rows = _read_rows(path, {3: (int, int, float)}, "coupling", "expected 'k l weight'")
    k, l, w = rows.cols
    lo, hi = np.minimum(k, l), np.maximum(k, l)
    _raise_first(rows, [], [
        ((k < 1) | (k > L) | (l < 1) | (l > L), lambda i: f"layer id out of range 1..{L}"),
        (k == l, lambda i: "self-referential coupling entry"),
        (~np.isfinite(w) | (w < 0), lambda i: "coupling weight must be finite and >= 0"),
        (_first_of(lo * (L + 1) + hi) != np.arange(k.size),
         lambda i: f"duplicate coupling entry for layers {(int(lo[i]), int(hi[i]))}"),
    ])  # fmt: skip
    coupling = np.zeros((L, L))
    coupling[k - 1, l - 1] = w
    coupling[l - 1, k - 1] = w
    return coupling


def _check_complete(assignment, n, where, path):
    if not assignment.all():
        layer, node = divmod(int(assignment.argmin()), n)
        raise NetworkFormatError("missing label for " + where.format(node + 1, layer + 1), path)


def load_labels(path, net):
    """Load ground-truth labels as a Partition.

    Per-node files are replicated across all layers; per-pair files are
    used as given.  Labels (arbitrary strings) are remapped to consecutive
    integers 1..n_c in order of first appearance in the file.

    Parameters
    ----------
    path : str or Path
    net : MultiplexNetwork
        Provides the expected n and L.

    Returns
    -------
    Partition
    """
    n, L = net.n, net.L
    rows = _read_rows(
        path, {2: (int, str), 3: (int, int, str)}, "label",
        "expected 'node label' or 'node layer label'", mixed="mixed label-file formats",
    )  # fmt: skip
    node, layer, labels = rows.cols[0], rows.cols[-2], rows.cols[-1].tolist()
    per_pair = len(rows.cols) == 3
    _raise_first(rows, [], [
        ((node < 1) | (node > n), lambda i: f"node id {node[i]} out of range 1..{n}"),
        (per_pair & ((layer < 1) | (layer > L)),
         lambda i: f"layer id {layer[i]} out of range 1..{L}"),
    ])  # fmt: skip
    if not labels:
        raise NetworkFormatError("empty label file", path)
    remap = {lab: code for code, lab in enumerate(dict.fromkeys(labels), start=1)}
    code = np.array([remap[lab] for lab in labels], dtype=np.int64)
    idx, where = ((layer - 1) * n + node - 1, _PAIR) if per_pair else (node - 1, "node {}")
    _raise_first(rows, [], [
        (code != code[_first_of(idx)],
         lambda i: "conflicting labels for " + where.format(node[i], layer[i])),
    ])  # fmt: skip
    assignment = np.zeros(n * L if per_pair else n, dtype=np.int64)
    assignment[idx] = code
    _check_complete(assignment, n, where, path)
    return Partition(assignment if per_pair else np.tile(assignment, L), len(remap))


def load_partition(path, net):
    """Load a saved partition, keeping integer community labels verbatim.

    Unlike `load_labels` this does not remap labels, so it is the exact
    inverse of `save_partition`.
    """
    n, L = net.n, net.L
    rows = _read_rows(path, {3: (int,) * 3}, "partition", "expected 'node layer community'")
    node, layer, com = rows.cols
    idx = (layer - 1) * n + node - 1
    _raise_first(rows, [], [
        ((node < 1) | (node > n) | (layer < 1) | (layer > L),
         lambda i: "node or layer id out of range"),
        (com < 1, lambda i: f"community label {com[i]} must be >= 1"),
        (com > n * L, lambda i: f"community label {com[i]} out of range 1..{n * L}"),
        (com != com[_first_of(idx)],
         lambda i: "conflicting labels for " + _PAIR.format(node[i], layer[i])),
    ])  # fmt: skip
    assignment = np.zeros(n * L, dtype=np.int64)
    assignment[idx] = com
    _check_complete(assignment, n, _PAIR, path)
    return Partition(assignment, int(assignment.max()))


def save_partition(partition, net, path):
    """Write 'node layer community' lines for all node-layer pairs.

    Lines are sorted by (layer, node), matching the internal row order.
    """
    if partition.size != net.nL:
        raise ValueError("partition size does not match network")
    with open(path, "w", encoding="utf-8") as fh:
        for layer, com in enumerate(partition.assignment.reshape(net.L, net.n), start=1):
            rows = np.column_stack([np.arange(1, net.n + 1), com])  # one format call per block
            for block in np.split(rows, range(1 << 16, net.n, 1 << 16)):
                fh.write(f"%d\t{layer}\t%d\n" * len(block) % tuple(block.ravel().tolist()))
