"""Threshold dynamics for community detection.

One run alternates short diffusion in a truncated spectral basis with
pointwise thresholding: U is a one-hot community indicator matrix,
diffusion multiplies its basis coefficients by exp(dt * eigenvalue), and
thresholding sends every row back to the nearest vertex of the simplex
(row-wise argmax, ties to the smallest index).  The run stops when the
indicator stops changing (Frobenius difference below tol) or after
max_iter sweeps.  `detect` repeats this from independent random initial
assignments and keeps the partition with the largest multiplex
modularity.

Every run draws its initial assignment from a counter-based generator
keyed by seed XOR run_index, so results are reproducible and independent
of execution order; running with a thread pool changes timings only.
"""

from __future__ import annotations

import math
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
    "run_rng",
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
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.n_c < 2:
            raise ValueError("n_c must be >= 2")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        gamma = self.gamma
        if np.ndim(gamma) > 0:
            gamma = tuple(float(g) for g in gamma)
            gamma_vector(gamma, len(gamma))
        else:
            gamma = float(gamma)
            gamma_vector(gamma, 1)
        object.__setattr__(self, "gamma", gamma)
        if not np.isfinite(self.dt) or self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.n_runs < 1:
            raise ValueError("n_runs must be >= 1")
        if self.max_iter < 0:
            raise ValueError("max_iter must be >= 0")
        if not (self.tol > 0 and self.eig_tol > 0):
            raise ValueError("tolerances must be positive")

    def check(self, net):
        """Raise ValueError unless n_c and k fit the network's nL pairs."""
        if self.n_c > net.nL:
            raise ValueError("n_c cannot exceed the number of node-layer pairs")
        if not 1 <= self.k < net.nL:
            raise ValueError(f"need 1 <= k < nL, got k={self.k}, nL={net.nL}")


@dataclass(frozen=True)
class RunResult:
    """Outcome of a single thresholded-diffusion run."""

    partition: Partition
    modularity: float
    iterations: int
    converged: bool
    run_index: int = 0


@dataclass(frozen=True)
class DetectResult:
    """Best run plus everything needed to audit a detection call."""

    best: RunResult
    runs: tuple
    basis: SpectralBasis
    offline_seconds: float
    online_seconds: float


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
    return basis.eigenvectors @ w


def threshold(v):
    """Round each row to its largest entry (ties: smallest index)."""
    v = np.asarray(v)
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite values in diffused indicator")
    return Partition(np.argmax(v, axis=1).astype(np.int64) + 1, v.shape[1])


def mbo_run(basis, config, init, net, deg, run_index=0):
    """One thresholded-diffusion run from a given initial partition.

    Returns a RunResult whose modularity is computed on the final
    partition with `metrics.multiplex_modularity`.
    """
    # Thresholding is a row-wise argmax, so scaling every diffused column
    # by exp(-dt * top) changes no label; it keeps exp(dt * eigenvalue)
    # finite when the leading eigenvalues are large and positive.
    top = max(float(basis.eigenvalues[0]), 0.0)
    basis = replace(basis, eigenvalues=basis.eigenvalues - top)
    u = init.one_hot()
    prev = init.assignment
    part = init
    iterations = 0
    converged = False
    for _ in range(config.max_iter):
        v = diffusion_step(basis, config.dt, u)
        part = threshold(v)
        iterations += 1
        changed = int(np.count_nonzero(part.assignment != prev))
        if math.sqrt(2.0 * changed) < config.tol:
            converged = True
            break
        prev = part.assignment
        u = part.one_hot()
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
        Worker threads for the runs.  Results are identical for any
        value; only timings change.

    Returns
    -------
    DetectResult
        ``best`` is the run with the largest modularity (ties: smallest
        run index); ``runs`` holds all runs in index order.
    """
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
        if basis.dim != net.nL:
            raise ValueError("basis dimension does not match network")
        if basis.k < config.k:
            raise ValueError(f"basis holds {basis.k} columns, need {config.k}")
        if basis.k > config.k:
            basis = basis.truncate(config.k)

    def one_run(i):
        rng = run_rng(config.seed, i)
        init = random_onehot_init(net.nL, config.n_c, rng)
        return mbo_run(basis, config, init, net, deg, run_index=i)

    t1 = time.perf_counter()
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one_run, range(config.n_runs)))
    else:
        results = [one_run(i) for i in range(config.n_runs)]
    online = time.perf_counter() - t1
    best = results[0]
    for res in results[1:]:
        if res.modularity > best.modularity:
            best = res
    return DetectResult(best, tuple(results), basis, offline, online)
