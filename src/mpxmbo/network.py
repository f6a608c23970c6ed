"""Multiplex network data model, degree bookkeeping, and file I/O.

A multiplex network consists of ``L`` undirected, non-negatively weighted
layers over the same ``n`` physical nodes, plus a symmetric layer-coupling
matrix with zero diagonal whose entries are scaled by a global coupling
strength ``omega``.  Node-layer pair ``(j, l)`` (1-based in files) maps to
row ``(l-1)*n + (j-1)`` of every length-``n*L`` vector.

File formats
------------
Network file (UTF-8 text):
    * header line ``#multiplex n=<n> L=<L>`` before any edge line,
    * other lines starting with ``#`` are comments,
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

import re
from dataclasses import dataclass

import numpy as np

from . import _kernels

__all__ = [
    "NetworkFormatError",
    "SparseSym",
    "MultiplexNetwork",
    "DegreeData",
    "Partition",
    "gamma_vector",
    "load_network",
    "save_network",
    "compute_degrees",
    "load_labels",
    "load_partition",
    "save_partition",
]


class NetworkFormatError(ValueError):
    """Malformed network, coupling, label, or partition file."""

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc = f"{path}: "
        if line is not None:
            loc += f"line {line}: "
        super().__init__(loc + message)
        self.path = path
        self.line = line


class SparseSym:
    """Sparse symmetric matrix as canonical COO triples.

    Entries are sorted by (row, col) and duplicates are merged by summing
    in input order, so that building from edge lists that list both
    orientations of every edge yields bit-for-bit symmetric data.
    """

    __slots__ = ("n", "rows", "cols", "data")

    def __init__(self, n, rows, cols, data):
        self.n = int(n)
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def from_coo(cls, n, rows, cols, data):
        """Build from COO triples that already contain both orientations."""
        n = int(n)
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        data = np.asarray(data, dtype=np.float64)
        if not (rows.shape == cols.shape == data.shape):
            raise ValueError("rows, cols, data must have equal length")
        if rows.size:
            if rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= n:
                raise ValueError("index out of range")
            if not np.all(np.isfinite(data)):
                raise ValueError("non-finite weight")
            if data.min() < 0:
                raise ValueError("negative weight")
        # lexsort is stable: duplicates keep input order, so the (i, j) and
        # (j, i) duplicate groups sum in the same order -> exact symmetry.
        order = np.lexsort((cols, rows))
        rows, cols, data = rows[order], cols[order], data[order]
        if rows.size:
            first = np.ones(rows.size, dtype=bool)
            first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
            starts = np.flatnonzero(first)
            data = np.add.reduceat(data, starts)
            rows, cols = rows[starts], cols[starts]
        return cls(n, rows, cols, data)

    @classmethod
    def from_dense(cls, a):
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("square matrix required")
        if not np.all(np.isfinite(a)):
            raise ValueError("non-finite entry")
        if not np.array_equal(a, a.T):
            raise ValueError("matrix is not exactly symmetric")
        if a.size and a.min() < 0:
            raise ValueError("negative entry")
        rows, cols = np.nonzero(a)
        return cls.from_coo(a.shape[0], rows, cols, a[rows, cols])

    @property
    def nnz(self):
        return self.data.size

    def toarray(self):
        a = np.zeros((self.n, self.n))
        a[self.rows, self.cols] = self.data
        return a

    def row_sums(self):
        if self.nnz == 0:
            return np.zeros(self.n)
        return np.bincount(self.rows, weights=self.data, minlength=self.n)

    def total(self):
        """Sum of all stored entries (equals 1^T A 1)."""
        return float(self.data.sum())

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

    @classmethod
    def from_dense_layers(cls, layers, coupling=None, omega=1.0):
        """Build from dense per-layer adjacency matrices (mainly for tests)."""
        intra = tuple(SparseSym.from_dense(a) for a in layers)
        L = len(intra)
        if coupling is None:
            coupling = all_to_all_coupling(L)
        return cls(intra[0].n, L, intra, coupling, omega)


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

    def community_sizes(self):
        return np.bincount(self.assignment - 1, minlength=self.n_c)

    def n_nonempty(self):
        return int(np.count_nonzero(self.community_sizes()))


_HEADER_RE = re.compile(r"#multiplex\s+n=(\d+)\s+L=(\d+)\s*$")


def _data_lines(path):
    """Yield (line_number, stripped_line) for non-blank lines."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line:
                yield lineno, line


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
    n = L = None
    buckets = None  # per layer: ([rows], [cols], [weights])
    for lineno, line in _data_lines(path):
        if line.startswith("#"):
            m = _HEADER_RE.match(line)
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
        try:
            layer, u, v = int(parts[0]), int(parts[1]), int(parts[2])
            w = float(parts[3]) if len(parts) == 4 else 1.0
        except ValueError as exc:
            raise NetworkFormatError(f"cannot parse edge line: {exc}", path, lineno) from None
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
    if coupling_path is None:
        coupling = all_to_all_coupling(L)
    else:
        coupling = _load_coupling(coupling_path, L)
    return MultiplexNetwork(n, L, intra, coupling, omega)


def _load_coupling(path, L):
    coupling = np.zeros((L, L))
    seen = set()
    for lineno, line in _data_lines(path):
        if line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise NetworkFormatError("expected 'k l weight'", path, lineno)
        try:
            k, l, w = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise NetworkFormatError(f"cannot parse coupling line: {exc}", path, lineno) from None
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
        coupling[k - 1, l - 1] = w
        coupling[l - 1, k - 1] = w
    return coupling


def save_network(net, path):
    """Write a network in canonical form (upper-triangle edges, sorted)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#multiplex n={net.n} L={net.L}\n")
        for l, a in enumerate(net.intra, start=1):
            keep = a.rows <= a.cols
            for i, j, w in zip(a.rows[keep], a.cols[keep], a.data[keep]):
                fh.write(f"{l}\t{i + 1}\t{j + 1}\t{w:.12g}\n")


def save_coupling(net, path):
    """Write the layer-coupling matrix (upper-triangle entries)."""
    with open(path, "w", encoding="utf-8") as fh:
        for k in range(net.L):
            for l in range(k + 1, net.L):
                if net.coupling[k, l] != 0:
                    fh.write(f"{k + 1}\t{l + 1}\t{net.coupling[k, l]:.12g}\n")


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
    entries = []  # (node0, layer0 or None, label string)
    ncols = None
    for lineno, line in _data_lines(path):
        if line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise NetworkFormatError("expected 'node label' or 'node layer label'", path, lineno)
        if ncols is None:
            ncols = len(parts)
        elif len(parts) != ncols:
            raise NetworkFormatError("mixed label-file formats", path, lineno)
        try:
            node = int(parts[0])
            layer = int(parts[1]) if ncols == 3 else None
        except ValueError as exc:
            raise NetworkFormatError(f"cannot parse label line: {exc}", path, lineno) from None
        if not 1 <= node <= n:
            raise NetworkFormatError(f"node id {node} out of range 1..{n}", path, lineno)
        if layer is not None and not 1 <= layer <= L:
            raise NetworkFormatError(f"layer id {layer} out of range 1..{L}", path, lineno)
        entries.append((lineno, node - 1, None if layer is None else layer - 1, parts[-1]))
    if ncols is None:
        raise NetworkFormatError("empty label file", path)
    remap = {}
    for _, _, _, lab in entries:
        if lab not in remap:
            remap[lab] = len(remap) + 1
    assignment = np.zeros(n * L, dtype=np.int64)
    if ncols == 2:
        per_node = np.zeros(n, dtype=np.int64)
        for lineno, node, _, lab in entries:
            code = remap[lab]
            if per_node[node] and per_node[node] != code:
                raise NetworkFormatError(f"conflicting labels for node {node + 1}", path, lineno)
            per_node[node] = code
        missing = np.flatnonzero(per_node == 0)
        if missing.size:
            raise NetworkFormatError(f"missing label for node {missing[0] + 1}", path)
        assignment = np.tile(per_node, L)
    else:
        for lineno, node, layer, lab in entries:
            idx = layer * n + node
            code = remap[lab]
            if assignment[idx] and assignment[idx] != code:
                raise NetworkFormatError(
                    f"conflicting labels for pair ({node + 1},{layer + 1})", path, lineno
                )
            assignment[idx] = code
        missing = np.flatnonzero(assignment == 0)
        if missing.size:
            layer, node = divmod(int(missing[0]), n)
            raise NetworkFormatError(f"missing label for pair ({node + 1},{layer + 1})", path)
    return Partition(assignment, len(remap))


def load_partition(path, net):
    """Load a saved partition, keeping integer community labels verbatim.

    Unlike `load_labels` this does not remap labels, so it is the exact
    inverse of `save_partition`.
    """
    n, L = net.n, net.L
    assignment = np.zeros(n * L, dtype=np.int64)
    for lineno, line in _data_lines(path):
        if line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise NetworkFormatError("expected 'node layer community'", path, lineno)
        try:
            node, layer, com = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise NetworkFormatError(f"cannot parse partition line: {exc}", path, lineno) from None
        if not (1 <= node <= n and 1 <= layer <= L):
            raise NetworkFormatError("node or layer id out of range", path, lineno)
        if com < 1:
            raise NetworkFormatError(f"community label {com} must be >= 1", path, lineno)
        idx = (layer - 1) * n + (node - 1)
        if assignment[idx] and assignment[idx] != com:
            raise NetworkFormatError(f"conflicting labels for pair ({node},{layer})", path, lineno)
        assignment[idx] = com
    missing = np.flatnonzero(assignment == 0)
    if missing.size:
        layer, node = divmod(int(missing[0]), n)
        raise NetworkFormatError(f"missing label for pair ({node + 1},{layer + 1})", path)
    return Partition(assignment, int(assignment.max()))


def save_partition(partition, net, path):
    """Write 'node layer community' lines for all node-layer pairs.

    Lines are sorted by (layer, node), matching the internal row order.
    """
    if partition.size != net.nL:
        raise ValueError("partition size does not match network")
    with open(path, "w", encoding="utf-8") as fh:
        for idx, com in enumerate(partition.assignment):
            layer, node = divmod(idx, net.n)
            fh.write(f"{node + 1}\t{layer + 1}\t{com}\n")
