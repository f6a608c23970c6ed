"""Truncated eigendecompositions of symmetric operators.

`largest_eigenpairs` computes the k algebraically largest eigenpairs of a
symmetric LinearOperator of any size by thick-restart Lanczos (Wu & Simon
2000) with full reorthogonalization in a working subspace of
m = min(dim, k + max(k, 15)) vectors: a plain step subtracts the
three-term recurrence, then makes one full classical Gram-Schmidt pass;
the first step after a start or restart, which couples to every kept
Ritz vector, makes two full passes.  The projected matrix H is filled
from the actual Gram-Schmidt coefficients, so
``A V = V H + beta v e_m^T`` holds with the next basis vector v; each
restart keeps the leading Ritz vectors and continues from v.

Every Ritz residual is then a multiple of v, and its norm is estimated
by ``beta * |s[m-1, i]|`` from the projected eigenvectors s at no extra
cost.  Once the estimates pass, the pairs are certified by their true
residuals ``||A x - theta x|| <= tol * scale``, where ``scale`` is the
larger of ``scale_floor`` and a spectral-radius estimate (the largest
Ritz value magnitude, which Lanczos only ever underestimates, so the
check errs strict); it is never inferred from the projected problem
alone.  A single Krylov sequence cannot split a repeated eigenvalue, so
certified residuals can still hide a missed copy.  At exit the found
pairs are therefore moved down to theta_k - scale (Hotelling deflation)
and one Lanczos run decides whether the deflated operator's top lies above
``thr = theta_k + max(10 tol, 1e-10) * scale``, stopping once a Ritz value
exceeds thr (a lower bound on the top) or the top one converged below it.
Above thr a copy was missed: the thick restart resumes from the found
pairs plus that direction.  After k such rounds it raises `ConvergenceError`.

Memory stays at V (dim x (m + 1)) plus the basis (dim x k) plus O(dim):
each restart compresses V in place by row blocks of about dim doubles,
the Ritz block is read from the compressed V and copied out only once
certified, each pair is certified with one work vector, and a resumed
solve frees the previous basis once it is copied into V.  README
"Determinism" says which settings may change the basis bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import gamma_vector
from .operators import LinearOperator, modularity_op, shifted_neg_lk_op

__all__ = [
    "SpectralBasis",
    "ConvergenceError",
    "largest_eigenpairs",
    "basis_for_method",
    "save_basis",
    "load_basis",
]

# each detection method and the label of the operator its basis comes from
METHODS = {"mpbtv": "shifted_neg_lk", "dgfm3": "modularity"}

# restart budget of one thick-restart Lanczos sequence
_MAX_RESTARTS = 500


class ConvergenceError(RuntimeError):
    """Eigensolver failed to reach the residual tolerance."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals


@dataclass(frozen=True, eq=False)
class SpectralBasis:
    """Truncated spectral decomposition of a symmetric operator.

    ``eigenvalues`` are sorted descending; ``eigenvectors`` has the
    matching orthonormal columns; ``residuals[i]`` is the verified norm
    ||A v_i - lambda_i v_i||.  ``shift`` records the spectral shift that
    was applied while solving (0 when none); stored eigenvalues are
    always un-shifted.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray
    operator_label: str
    shift: float = 0.0

    def __post_init__(self):
        if self.eigenvectors.ndim != 2 or self.eigenvalues.ndim != 1:
            raise ValueError("bad basis shapes")
        if self.eigenvectors.shape[1] != self.eigenvalues.size:
            raise ValueError("eigenvalue/eigenvector count mismatch")
        if np.any(np.diff(self.eigenvalues) > 0):
            raise ValueError("eigenvalues must be sorted descending")

    @property
    def k(self):
        return self.eigenvalues.size

    @property
    def dim(self):
        return self.eigenvectors.shape[0]

    def truncate(self, k):
        """Keep the leading k columns."""
        if not 1 <= k <= self.k:
            raise ValueError(f"cannot truncate basis of size {self.k} to {k}")
        return SpectralBasis(
            self.eigenvalues[:k].copy(),
            self.eigenvectors[:, :k].copy(),
            self.residuals[:k].copy(),
            self.operator_label,
            self.shift,
        )


def _orthonormal_random(basis, ncols, rng, dim):
    """Draw a random vector orthonormal to the first ncols basis columns."""
    for _ in range(5):
        w = rng.standard_normal(dim)
        for _ in range(2):
            w -= basis[:, :ncols] @ (basis[:, :ncols].T @ w)
        nrm = np.linalg.norm(w)
        if nrm > 1e-8 * math.sqrt(dim):
            return w / nrm
    return None


def _compress(V, s, ncols, keep):
    """Set V[:, :keep] = V[:, :ncols] @ s[:, :keep] in place, by row blocks.

    Each block's product holds about dim doubles.  Every block has at
    least two rows: numpy multiplies a single row by GEMV, whose sums
    round differently from the GEMM of the other blocks.
    """
    dim = V.shape[0]
    nblocks = max(1, min(keep, dim // 2))
    for b in range(nblocks):
        lo, hi = dim * b // nblocks, dim * (b + 1) // nblocks
        V[lo:hi, :keep] = V[lo:hi, :ncols] @ s[:, :keep]


def _residuals(op, x, theta):
    """True residual norms ||A x_i - theta_i x_i||, one column at a time."""
    resid = np.empty(theta.size)
    for i in range(theta.size):
        w = op.apply(x[:, i])
        w -= theta[i] * x[:, i]
        resid[i] = np.linalg.norm(w)
    return resid


def _thick_restart(op, k, tol, scale_floor, rng, start, locked=None, above=None):
    """Thick-restart Lanczos for the k largest eigenpairs of op.

    The Krylov basis starts from the direction ``start``; given
    ``locked = [theta, x]``, it starts from the Ritz pairs (theta, x)
    followed by ``start``, which must be orthogonal to x, and pops x off
    the list once it is copied, so that the caller's block can be freed.
    Returns the top-k Ritz values and vectors, their true residual norms
    and the residual scale once every residual is within tol * scale.
    Given ``above``, it also returns, uncertified and with residuals
    None, as soon as the top Ritz value is above it or has converged
    below it.
    """
    dim = op.dim
    m = min(dim, k + max(k, 15))
    V = np.zeros((dim, m + 1), order="F")  # contiguous Gram-Schmidt slices and operands
    H = np.zeros((m, m))
    keep = 0
    if locked is not None:
        keep = locked[0].size
        V[:, :keep] = locked.pop()
        H[np.arange(keep), np.arange(keep)] = locked[0]
    V[:, keep] = start / np.linalg.norm(start)
    for restart in range(_MAX_RESTARTS):
        completed = keep  # projection columns finished so far
        exhausted = False
        while completed < m:
            j = completed
            w = op.apply(V[:, j])
            if j > keep:
                # plain step: the three-term recurrence, then one full pass
                w -= H[j - 1, j] * V[:, j - 1]
                alpha = V[:, j] @ w
                w -= alpha * V[:, j]
                c = V[:, : j + 1].T @ w
                w -= V[:, : j + 1] @ c
                c[j - 1] += H[j - 1, j]
                c[j] += alpha
            else:
                # first step after a start or restart couples to every
                # kept Ritz vector: two full passes
                c = V[:, : j + 1].T @ w
                w -= V[:, : j + 1] @ c
                c2 = V[:, : j + 1].T @ w
                w -= V[:, : j + 1] @ c2
                c += c2
            H[: j + 1, j] = c
            H[j, : j + 1] = c
            beta = np.linalg.norm(w)
            completed = j + 1
            if beta > 1e-13 * max(abs(H[j, j]), scale_floor, 1.0):
                V[:, completed] = w / beta
            else:
                # invariant subspace hit: drop w, continue in a fresh direction
                beta = 0.0
                fresh = _orthonormal_random(V, completed, rng, dim)
                if fresh is None:
                    exhausted = True
                    break
                V[:, completed] = fresh
            if completed < m:
                H[completed, j] = H[j, completed] = beta
        ncols = completed
        theta, s = np.linalg.eigh(H[:ncols, :ncols])
        theta = theta[::-1]
        s = s[:, ::-1]
        scale = max(abs(theta[0]), abs(theta[-1]), scale_floor, np.finfo(float).tiny)
        # A V = V H + beta V[:, m] e_m^T: each Ritz residual is the estimate
        # beta * |s[m-1, i]| times V[:, m].  Certify once the estimates pass.
        est = beta * np.abs(s[ncols - 1, :k])
        if above is not None and (theta[0] > above or est[0] <= (above - theta[0]) / 2):
            return theta[:k].copy(), V[:, :ncols] @ s[:, :k], None, scale
        # compress to the leading Ritz vectors; the first k are the Ritz
        # block to certify
        keep = min(k + 8, ncols - 1)
        _compress(V, s, ncols, keep)
        if exhausted or np.all(est <= tol * scale) or restart == _MAX_RESTARTS - 1:
            resid = _residuals(op, V, theta[:k])
            if np.all(resid <= tol * scale):
                return theta[:k].copy(), np.ascontiguousarray(V[:, :k]), resid, scale
        if exhausted:
            raise ConvergenceError("tolerance unreachable in the full space", resid)
        # thick restart: continue from the residual direction
        V[:, keep] = V[:, m]
        H[:, :] = 0.0
        H[np.arange(keep), np.arange(keep)] = theta[:keep]
    raise ConvergenceError(
        f"no convergence after {_MAX_RESTARTS} restarts; "
        f"worst residual {float(resid.max()):.3e}",
        resid,
    )


def _hotelling(op, theta, x, scale):
    """op with the pairs (theta, x) moved down to theta[-1] - scale."""
    shift = theta - (theta[-1] - scale)
    return LinearOperator(op.dim, lambda v: op.apply(v) - x @ (shift * (x.T @ v)), op.label)


def largest_eigenpairs(op, k, tol=1e-8, rng_seed=0, scale_floor=0.0):
    """Compute the k largest eigenpairs of a symmetric operator by
    thick-restart Lanczos, then check for missed copies of repeated
    eigenvalues by deflation.

    Parameters
    ----------
    op : LinearOperator
        Must be symmetric; only ``apply`` is used.
    k : int
        Number of requested eigenpairs, 1 <= k < op.dim.
    tol : float
        Relative residual tolerance.
    rng_seed : int
        Seed for the start vectors (and any breakdown replacements),
        making the computation deterministic.
    scale_floor : float
        Lower bound for the residual scale; pass the spectral shift when
        solving a shifted problem.

    Returns
    -------
    SpectralBasis

    Raises
    ------
    ValueError
        If k is out of range or rng_seed is negative.
    ConvergenceError
        If residuals fail to reach tol * scale within the restart budget,
        or copies of repeated eigenvalues are still missing after k
        deflation checks.
    """
    dim = op.dim
    if not 1 <= k < dim:
        raise ValueError(f"need 1 <= k < dim, got k={k}, dim={dim}")
    if rng_seed < 0:
        raise ValueError("seed must be >= 0")
    rng = np.random.default_rng(rng_seed)
    theta, ritz, resid, scale = _thick_restart(
        op, k, tol, scale_floor, rng, rng.standard_normal(dim)
    )
    for _ in range(k):
        # one Krylov sequence cannot split a repeated eigenvalue; with the
        # found pairs moved below theta_k, a missed copy is the top of the
        # deflated operator (a tie with theta_k at the cut is accepted)
        thr = theta[-1] + max(10.0 * tol, 1e-10) * scale
        mu, y, _, _ = _thick_restart(
            _hotelling(op, theta, ritz, scale), 1, tol, scale, rng, rng.standard_normal(dim),
            above=thr,
        )
        if mu[0] <= thr:
            return SpectralBasis(theta, ritz, resid, op.label)
        y = y[:, 0] - ritz @ (ritz.T @ y[:, 0])
        locked = [theta, ritz]
        del ritz  # the resumed solve frees the block once it is copied into V
        theta, ritz, resid, scale = _thick_restart(
            op, k, tol, scale_floor, rng, y, locked=locked
        )
    raise ConvergenceError(f"copies still missing after {k} deflation checks", resid)


def basis_for_method(method, net, deg, gamma, k, tol=1e-8, rng_seed=0):
    """Build the spectral basis a detection method diffuses in.

    ``mpbtv`` uses the k least-negative eigenpairs of minus (Laplacian +
    balance), computed through the positive-shifted operator and stored
    un-shifted (all eigenvalues <= 0).  ``dgfm3`` uses the k largest
    eigenpairs of the modularity operator.

    Parameters
    ----------
    method : str
        "mpbtv" or "dgfm3".
    net, deg : MultiplexNetwork, DegreeData
    gamma : float or sequence
        Per-layer resolution parameters.
    k : int
        Basis size, 1 <= k < nL.
    tol : float
        Relative residual tolerance, > 0.

    Returns
    -------
    SpectralBasis
    """
    gamma = gamma_vector(gamma, net.L)
    if not tol > 0:  # also NaN: it would use up every restart, then fail
        raise ValueError("tolerances must be positive")
    top = float(deg.supra_degrees.max())
    if not math.isfinite(top * top):  # the solver's norms square values this large
        raise ValueError(f"the weights overflow float64: degree {top:g} squared is not finite")
    if method == "mpbtv":
        op, sigma = shifted_neg_lk_op(net, deg, gamma)
        raw = largest_eigenpairs(op, k, tol=tol, rng_seed=rng_seed, scale_floor=sigma)
        return SpectralBasis(
            raw.eigenvalues - sigma, raw.eigenvectors, raw.residuals, op.label, shift=sigma
        )
    if method == "dgfm3":
        op = modularity_op(net, deg, gamma)
        return largest_eigenpairs(op, k, tol=tol, rng_seed=rng_seed)
    raise ValueError(f"unknown method {method!r}; expected one of {tuple(METHODS)}")


def save_basis(basis, path, key=None):
    """Cache a basis to an .npz file at exactly ``path``, with an optional key string."""
    # through a file handle: given a name, np.savez would append ".npz"
    with open(path, "wb") as fh:
        np.savez(
            fh,
            eigenvalues=basis.eigenvalues,
            eigenvectors=basis.eigenvectors,
            residuals=basis.residuals,
            operator_label=np.str_(basis.operator_label),
            shift=np.float64(basis.shift),
            **({} if key is None else {"key": np.str_(key)}),
        )


def load_basis(path):
    """Load a cached basis; returns (SpectralBasis, its key string, or None without one)."""
    with np.load(path) as npz:
        basis = SpectralBasis(
            npz["eigenvalues"],
            npz["eigenvectors"],
            npz["residuals"],
            str(npz["operator_label"]),
            float(npz["shift"]),
        )
        key = str(npz["key"]) if "key" in npz.files else None
    return basis, key
