"""Seeded planted-partition multiplex generator.

Every input the benchmark feeds to mpxmbo is written here, from a seed
alone: the same seed gives byte-identical files.  Node-layer pairs carry
a planted group; each layer starts from the previous layer's groups and
moves a fraction of the nodes to a different group, so the truth is per
pair.  Each intra-layer edge picks a uniform endpoint u, then, with
probability 1 - mix, a partner from u's group in that layer, otherwise a
uniform partner.  Self-loops are dropped; repeated pairs stay as repeated
lines, which the loader sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Instance:
    """Planted multiplex: per-layer edge arrays (1-based) and per-pair truth."""

    n: int
    L: int
    edges: tuple  # per layer: (m, 2) int64 array of 1-based node ids
    truth: np.ndarray  # (L, n) int64 planted groups, 1-based


def planted(seed, n, L, groups, mean_degree, switch, mix):
    """Draw one planted-partition multiplex instance."""
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(n) % groups)
    truth = np.empty((L, n), dtype=np.int64)
    edges = []
    m = n * mean_degree // 2
    for layer in range(L):
        if layer:
            movers = rng.choice(n, size=int(round(switch * n)), replace=False)
            shift = rng.integers(1, groups, size=movers.size)
            labels = labels.copy()
            labels[movers] = (labels[movers] + shift) % groups
        truth[layer] = labels + 1
        members = np.argsort(labels, kind="stable")
        sizes = np.bincount(labels, minlength=groups)
        starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        u = rng.integers(0, n, size=m)
        g = labels[u]
        inside = members[starts[g] + (rng.random(m) * sizes[g]).astype(np.int64)]
        outside = rng.integers(0, n, size=m)
        v = np.where(rng.random(m) < mix, outside, inside)
        keep = u != v
        edges.append(np.stack([u[keep], v[keep]], axis=1) + 1)
    return Instance(n, L, tuple(edges), truth)


def relabel(seed, truth, frac, groups):
    """Copy of the truth with a fraction of the pairs moved to a random group."""
    rng = np.random.default_rng(seed)
    out = truth.copy().ravel()
    pick = rng.choice(out.size, size=int(round(frac * out.size)), replace=False)
    out[pick] = rng.integers(1, groups + 1, size=pick.size)
    return out.reshape(truth.shape)


def _write_rows(path, header, rows, fmt=None):
    rows = np.asarray(rows) if fmt else np.asarray(rows, dtype=np.int64)
    fmt = fmt or "\t".join(["%d"] * rows.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        # one format call per chunk: far faster than a per-line loop
        for start in range(0, rows.shape[0], 1 << 18):
            block = rows[start : start + (1 << 18)]
            fh.write((fmt * block.shape[0]) % tuple(block.ravel().tolist()))


def write_network(inst, path):
    rows = np.concatenate(
        [np.column_stack([np.full(e.shape[0], layer + 1), e]) for layer, e in enumerate(inst.edges)]
    )
    _write_rows(path, f"#multiplex n={inst.n} L={inst.L}\n", rows)


def write_weighted_network(inst, path):
    """Network file with repeated pairs merged into one line each.

    Weights are the pair counts scaled to a mean of 1 per layer, so the
    layers keep the same scale against the unit coupling.
    """
    rows = []
    for layer, e in enumerate(inst.edges, start=1):
        pairs, counts = np.unique(np.sort(e, axis=1), axis=0, return_counts=True)
        weights = counts / counts.mean()
        rows.append(np.column_stack([np.full(len(pairs), layer), pairs, weights]))
    _write_rows(path, f"#multiplex n={inst.n} L={inst.L}\n", np.concatenate(rows),
                "%d\t%d\t%d\t%.6g\n")  # fmt: skip


def write_pairs(labels, path):
    """Per-pair 'node layer label' lines, sorted by (layer, node)."""
    L, n = labels.shape
    node = np.tile(np.arange(1, n + 1), L)
    layer = np.repeat(np.arange(1, L + 1), n)
    _write_rows(path, "", np.column_stack([node, layer, labels.ravel()]))


def write_chain_coupling(L, path):
    """Ordinal coupling: each layer is coupled to the next with weight 1."""
    _write_rows(path, "", [(l, l + 1, 1) for l in range(1, L)])
