"""Threshold dynamics for community detection.

One run alternates short diffusion in a truncated spectral basis with
pointwise thresholding: U is a one-hot community indicator matrix,
diffusion multiplies its basis coefficients by exp(dt * eigenvalue), and
thresholding sends every row back to the nearest vertex of the simplex
(row-wise argmax, ties to the smallest index).  The tie rule also covers
a row of the basis that the eigensolver does not resolve, one whose norm
is at most eig_tol times the largest row norm: no basis vector reaches
it, so it takes the label of an all-zero row, community 1, and never the
argmax of rounding residue.  The run stops when the indicator stops
changing (Frobenius difference below tol) or after max_iter sweeps.
`detect` repeats this from independent random initial assignments and
keeps the partition with the largest multiplex modularity.

A run never forms U.  It holds its 0-based labels and the k x n_c
coefficients W = Phi^T U, built once from the initial labels.  Each
sweep scales W by exp(dt * eigenvalue) (with the finiteness check on
those k x n_c values), multiplies it by Phi one row block at a time and
writes each block's row argmax into a reused label array.  Then it keeps
W up to date from the moved rows only: each moved row of Phi is added to
its new column and subtracted from its old one.  So a run takes
O(nL + k n_c) memory plus one row block of about 2^16 entries.  The
run's `Partition` is built once, at its end; `diffusion_step`,
`threshold` and `Partition.one_hot` remain the public library steps.
README "Determinism" says which settings may change a run's bits.

Every run draws its initial assignment from a counter-based generator
keyed by seed XOR run_index, so results are reproducible and independent
of execution order; running with a thread pool changes timings only.
`detect` compares each run with the best so far as soon as it ends, by
(modularity, lower run index), and the loser drops its partition.  That
order is total, so the tie rule (first maximum in index order) does not
depend on the order runs finish in, and `detect` holds at most
threads + 1 partitions, O(threads nL), plus O(runs) scalars.
"""

from __future__ import annotations

import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import metrics
from .eigensolver import METHODS, SpectralBasis, basis_for_method
from .network import Partition, gamma_vector

__all__ = [
    "DetectConfig",
    "RunResult",
    "DetectResult",
    "random_onehot_init",
    "diffusion_step",
    "threshold",
    "mbo_run",
    "detect",
]


@dataclass(frozen=True)
class DetectConfig:
    """Parameters of one detection problem.

    ``gamma`` may be a scalar or a per-layer sequence; the coupling
    strength is the network's own ``omega``.  ``seed`` keys both the
    eigensolver start vector and the per-run initial assignments.
    ``eig_tol`` is the eigensolver's residual tolerance, and also the cut
    below which a row of the basis is unreached: a row whose norm is at
    most eig_tol times the largest row norm takes community 1.
    """

    method: str
    n_c: int
    k: int
    gamma: object = 1.0
    dt: float = 1.0
    n_runs: int = 20
    max_iter: int = 300
    tol: float = 1e-8
    seed: int = 0
    eig_tol: float = 1e-8

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {tuple(METHODS)}")
        if self.n_c < 2:
            raise ValueError("n_c must be >= 2")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        # a scalar broadcasts to one layer; a vector must be flat and non-empty
        g = gamma_vector(self.gamma, np.size(self.gamma) or 1)
        gamma = float(g[0]) if np.ndim(self.gamma) == 0 else tuple(g.tolist())
        object.__setattr__(self, "gamma", gamma)
        if not np.isfinite(self.dt) or self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.n_runs < 1:
            raise ValueError("n_runs must be >= 1")
        if self.max_iter < 0:
            raise ValueError("max_iter must be >= 0")
        if not (self.tol > 0 and self.eig_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    def check(self, net):
        """Raise ValueError unless n_c and k fit the network's nL pairs."""
        if self.n_c > net.nL:
            raise ValueError("n_c cannot exceed the number of node-layer pairs")
        if not 1 <= self.k < net.nL:
            raise ValueError(f"need 1 <= k < nL, got k={self.k}, nL={net.nL}")


@dataclass(frozen=True, eq=False)
class RunResult:
    """Outcome of a single thresholded-diffusion run.

    ``partition`` is None for a run that `detect` did not keep as best.
    """

    partition: Partition | None
    modularity: float
    iterations: int
    converged: bool
    run_index: int = 0


@dataclass(frozen=True, eq=False)
class DetectResult:
    """Best run plus everything needed to audit a detection call.

    ``runs`` holds one RunResult per run in index order, with its
    modularity, iterations, convergence flag and index.  Only ``best``
    holds a partition: ``runs[best.run_index] is best``, and every other
    entry has ``partition=None``.
    """

    best: RunResult
    runs: tuple
    basis: SpectralBasis
    offline_seconds: float
    online_seconds: float


# entries in one row block of a run's products and indicator updates
_BLOCK = 1 << 16


def run_rng(seed, run_index):
    """Counter-based generator for one run; independent of run order."""
    key = (int(seed) ^ int(run_index)) & 0xFFFFFFFFFFFFFFFF
    return np.random.Generator(np.random.Philox(key=key))


def random_onehot_init(nL, n_c, rng):
    """Uniformly random assignment of nL pairs to n_c communities."""
    if n_c < 2:
        raise ValueError("n_c must be >= 2")
    return Partition(rng.integers(1, n_c + 1, size=nL, dtype=np.int64), n_c)


def diffusion_step(basis, dt, u):
    """Propagate indicator columns: U <- Phi exp(dt * Lambda) Phi^T U."""
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 2 or u.shape[0] != basis.dim:
        raise ValueError("indicator matrix does not match basis dimension")
    w = basis.eigenvectors.T @ u
    w = np.exp(dt * basis.eigenvalues)[:, None] * w
    # For a one-hot U and eigenvalues shifted to <= 0, checking the k x n_c
    # W covers the nL x n_c product: every entry of Phi reaches W through
    # its row's one, and with orthonormal columns (|Phi| <= 1) |W| <= nL,
    # so a finite W gives |Phi W| <= k nL.
    if not np.all(np.isfinite(w)):
        raise ValueError("non-finite values in diffused indicator")
    return basis.eigenvectors @ w


def threshold(v):
    """Round each row to its largest entry (ties: smallest index)."""
    v = np.asarray(v)
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite values in diffused indicator")
    return Partition(np.argmax(v, axis=1).astype(np.int64) + 1, v.shape[1])


def _move(w, phi, rows, step, new, old=None):
    """Add each listed row of phi to column new[row] of w, and subtract it
    from column old[row]: a GEMM of phi[rows].T against the +-1 label
    changes, step rows at a time."""
    n_c = w.shape[1]
    for lo in range(0, rows.size, step):
        r = rows[lo : lo + step]
        d = np.zeros((r.size, n_c))
        i = np.arange(r.size)
        d[i, new[r]] = 1.0
        if old is not None:
            d[i, old[r]] = -1.0
        w += phi[r].T @ d


def mbo_run(basis, config, init, net, deg, run_index=0):
    """One thresholded-diffusion run from a given initial partition.

    Returns a RunResult whose modularity is computed on the final
    partition with `metrics.multiplex_modularity`.
    """
    phi = basis.eigenvectors
    nL, k = phi.shape
    n_c = init.n_c
    # Thresholding is a row-wise argmax, so scaling every diffused column
    # by exp(-dt * top) changes no label; it keeps exp(dt * eigenvalue)
    # finite when the leading eigenvalues are large and positive.
    top = max(float(basis.eigenvalues[0]), 0.0)
    decay = np.exp(config.dt * (basis.eigenvalues - top))[:, None]
    step = max(2, _BLOCK // max(n_c, k))
    # each block has at least step >= 2 rows: numpy multiplies a single row
    # by GEMV, whose sums round differently from the GEMM of the other blocks;
    # what _BLOCK may change is in README "Determinism"
    nblocks = max(1, nL // step)
    bounds = [nL * b // nblocks for b in range(nblocks + 1)]
    # An eigenvector entry is known only to about eig_tol * scale / gap, so
    # a row of phi whose norm is at most eig_tol times the largest row norm
    # is rounding residue: it takes the tie rule's label of an all-zero row.
    sq = np.einsum("ij,ij->i", phi, phi)  # squared row norms
    unreached = np.flatnonzero(sq <= config.eig_tol**2 * sq.max())
    labels = (init.assignment - 1).astype(np.intp)
    new = np.empty_like(labels)
    w = np.zeros((k, n_c))
    _move(w, phi, np.arange(nL), step, labels)
    iterations = 0
    converged = False
    while iterations < config.max_iter:
        wd = decay * w
        # as in diffusion_step: every entry of phi reaches w through its
        # row's label, and a finite wd gives |phi wd| <= k nL
        if not np.all(np.isfinite(wd)):
            raise ValueError("non-finite values in diffused indicator")
        for lo, hi in zip(bounds, bounds[1:]):
            np.argmax(phi[lo:hi] @ wd, axis=1, out=new[lo:hi])
        new[unreached] = 0
        iterations += 1
        moved = np.flatnonzero(new != labels)
        labels, new = new, labels
        if math.sqrt(2.0 * moved.size) < config.tol:
            converged = True
            break
        if iterations < config.max_iter:
            _move(w, phi, moved, step, labels, new)
    part = Partition(labels + 1, n_c)
    q = metrics.multiplex_modularity(part, net, deg, config.gamma)
    return RunResult(part, q, iterations, converged, run_index)


def detect(net, deg, config, basis=None, threads=1):
    """Run repeated thresholded diffusion and keep the best partition.

    Parameters
    ----------
    net : MultiplexNetwork
    deg : DegreeData
    config : DetectConfig
    basis : SpectralBasis, optional
        Reuse a precomputed basis (must match the method's operator and
        hold at least config.k columns; extra columns are truncated).
        When omitted, the basis is computed here and the time reported as
        ``offline_seconds``.
    threads : int
        Worker threads for the runs, at least 1; at most the CPU count are
        started.  Results are identical for any value; only timings change.

    Returns
    -------
    DetectResult
        ``best`` is the run with the largest modularity (ties: smallest
        run index, whatever order the runs finish in); ``runs`` holds all
        runs in index order, and only ``best`` keeps its partition, so
        memory is O(threads nL) plus O(runs) scalars.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    gamma = gamma_vector(config.gamma, net.L)
    config.check(net)
    offline = 0.0
    if basis is None:
        t0 = time.perf_counter()
        basis = basis_for_method(
            config.method,
            net,
            deg,
            gamma,
            config.k,
            tol=config.eig_tol,
            rng_seed=config.seed,
        )
        offline = time.perf_counter() - t0
    else:
        want = METHODS[config.method]
        if basis.operator_label != want:
            raise ValueError(f"{config.method} needs a {want} basis, got {basis.operator_label}")
        if basis.dim != net.nL:
            raise ValueError("basis dimension does not match network")
        if basis.k < config.k:
            raise ValueError(f"basis holds {basis.k} columns, need {config.k}")
        if basis.k > config.k:
            basis = basis.truncate(config.k)

    runs = [None] * config.n_runs
    best = None
    todo = iter(range(config.n_runs))
    lock = threading.Lock()

    # workers take run indices from one shared iterator, so no future is
    # queued per run; each run meets the best so far as soon as it ends
    def work(_):
        nonlocal best
        while True:
            with lock:
                i = next(todo, None)
            if i is None:
                return
            init = random_onehot_init(net.nL, config.n_c, run_rng(config.seed, i))
            res = mbo_run(basis, config, init, net, deg, run_index=i)
            with lock:
                if best is None or (res.modularity, -i) > (best.modularity, -best.run_index):
                    best, res = res, best
                if res is not None:
                    runs[res.run_index] = replace(res, partition=None)
                runs[best.run_index] = best

    t1 = time.perf_counter()
    # each worker holds one run's labels and row block: start no more
    # workers than there are CPUs to keep busy
    workers = min(threads, os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(work, range(workers)))
    else:
        work(0)
    online = time.perf_counter() - t1
    return DetectResult(best, tuple(runs), basis, offline, online)
