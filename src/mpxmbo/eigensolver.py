"""Truncated eigendecompositions of symmetric operators.

`largest_eigenpairs` computes the k algebraically largest eigenpairs of a
symmetric LinearOperator.  Small operators (dim <= dense_cutoff) are
solved directly with a dense decomposition, which resolves repeated
eigenvalues exactly.  Larger ones use thick-restart Lanczos (Wu & Simon
2000) with full reorthogonalization (two-pass Gram-Schmidt) in a working
subspace of m = min(dim, k + max(k, 15)) vectors.  The projected matrix
H is filled from the actual Gram-Schmidt coefficients, so
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
and one Lanczos run finds the top eigenvalue of the deflated operator.
If it lies above theta_k, a copy was missed: the thick restart resumes
from the found pairs plus that direction.  After k such rounds the
solver raises `ConvergenceError`.
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

METHODS = ("mpbtv", "dgfm3")

# restart budget of one thick-restart Lanczos sequence
_MAX_RESTARTS = 500


class ConvergenceError(RuntimeError):
    """Eigensolver failed to reach the residual tolerance."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals


@dataclass(frozen=True)
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


def _dense_eigenpairs(op, k, tol, scale_floor):
    """Direct dense solve used below the size cutoff.

    Resolves repeated eigenvalues exactly, which a single Krylov
    sequence cannot, and keeps structurally-zero eigenvector entries at
    machine-epsilon size.
    """
    a = op.to_dense()
    vals, vecs = np.linalg.eigh(a)
    theta = np.ascontiguousarray(vals[::-1][:k])
    ritz = np.ascontiguousarray(vecs[:, ::-1][:, :k])
    resid = np.linalg.norm(a @ ritz - ritz * theta, axis=0)
    scale = max(float(np.abs(vals).max()), scale_floor, np.finfo(float).tiny)
    if not np.all(resid <= tol * scale):
        raise ConvergenceError("dense eigendecomposition failed the residual check", resid)
    return SpectralBasis(theta, ritz, resid, op.label)


def _thick_restart(op, k, tol, scale_floor, rng, start, locked=None):
    """Thick-restart Lanczos for the k largest eigenpairs of op.

    The Krylov basis starts from the direction ``start``; given
    ``locked = (theta, x)``, it starts from the Ritz pairs (theta, x)
    followed by ``start``, which must be orthogonal to x.  Returns the
    top-k Ritz values and vectors, their true residual norms and the
    residual scale once every residual is within tol * scale.
    """
    dim = op.dim
    m = min(dim, k + max(k, 15))
    V = np.zeros((dim, m + 1))
    H = np.zeros((m, m))
    keep = 0
    if locked is not None:
        keep = locked[0].size
        V[:, :keep] = locked[1]
        H[np.arange(keep), np.arange(keep)] = locked[0]
    V[:, keep] = start / np.linalg.norm(start)
    for restart in range(_MAX_RESTARTS):
        completed = keep  # projection columns finished so far
        exhausted = False
        while completed < m:
            j = completed
            w = op.apply(V[:, j])
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
        if exhausted or np.all(est <= tol * scale) or restart == _MAX_RESTARTS - 1:
            ritz = V[:, :ncols] @ s[:, :k]
            resid = np.linalg.norm(op.apply(ritz) - ritz * theta[:k], axis=0)
            if np.all(resid <= tol * scale):
                return theta[:k].copy(), ritz, resid, scale
        if exhausted:
            raise ConvergenceError("tolerance unreachable in the full space", resid)
        # thick restart: compress to the leading Ritz vectors and continue
        # from the residual direction
        keep = min(k + 8, ncols - 1)
        V[:, :keep] = V[:, :ncols] @ s[:, :keep]
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


def largest_eigenpairs(op, k, tol=1e-8, rng_seed=0, scale_floor=0.0, dense_cutoff=600):
    """Compute the k largest eigenpairs of a symmetric operator.

    Parameters
    ----------
    op : LinearOperator
        Must be symmetric; only ``apply`` is used (plus ``to_dense`` on
        the dense path).
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
    dense_cutoff : int
        Problems with op.dim <= dense_cutoff are solved densely; pass 0
        to force the iterative path.

    Returns
    -------
    SpectralBasis

    Raises
    ------
    ValueError
        If k is out of range.
    ConvergenceError
        If residuals fail to reach tol * scale within the restart budget,
        or copies of repeated eigenvalues are still missing after k
        deflation checks.
    """
    dim = op.dim
    if not 1 <= k < dim:
        raise ValueError(f"need 1 <= k < dim, got k={k}, dim={dim}")
    if dim <= dense_cutoff:
        return _dense_eigenpairs(op, k, tol, scale_floor)
    rng = np.random.default_rng(rng_seed)
    theta, ritz, resid, scale = _thick_restart(
        op, k, tol, scale_floor, rng, rng.standard_normal(dim)
    )
    for _ in range(k):
        # one Krylov sequence cannot split a repeated eigenvalue; with the
        # found pairs moved below theta_k, a missed copy is the top of the
        # deflated operator (a tie with theta_k at the cut is accepted)
        mu, y, _, _ = _thick_restart(
            _hotelling(op, theta, ritz, scale), 1, tol, scale, rng, rng.standard_normal(dim)
        )
        if mu[0] <= theta[-1] + max(10.0 * tol, 1e-10) * scale:
            return SpectralBasis(theta, ritz, resid, op.label)
        y = y[:, 0] - ritz @ (ritz.T @ y[:, 0])
        theta, ritz, resid, scale = _thick_restart(
            op, k, tol, scale_floor, rng, y, locked=(theta, ritz)
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
    if method == "mpbtv":
        op, sigma = shifted_neg_lk_op(net, deg, gamma)
        raw = largest_eigenpairs(op, k, tol=tol, rng_seed=rng_seed, scale_floor=sigma)
        return SpectralBasis(
            raw.eigenvalues - sigma, raw.eigenvectors, raw.residuals, op.label, shift=sigma
        )
    if method == "dgfm3":
        op = modularity_op(net, deg, gamma)
        return largest_eigenpairs(op, k, tol=tol, rng_seed=rng_seed)
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


def save_basis(basis, path, meta=None):
    """Cache a basis to an .npz file at exactly ``path``, with optional metadata strings."""
    meta = meta or {}
    items = {f"meta_{key}": np.str_(str(val)) for key, val in meta.items()}
    # through a file handle: given a name, np.savez would append ".npz"
    with open(path, "wb") as fh:
        np.savez(
            fh,
            eigenvalues=basis.eigenvalues,
            eigenvectors=basis.eigenvectors,
            residuals=basis.residuals,
            operator_label=np.str_(basis.operator_label),
            shift=np.float64(basis.shift),
            **items,
        )


def load_basis(path):
    """Load a cached basis; returns (SpectralBasis, metadata dict)."""
    with np.load(path) as npz:
        basis = SpectralBasis(
            npz["eigenvalues"],
            npz["eigenvectors"],
            npz["residuals"],
            str(npz["operator_label"]),
            float(npz["shift"]),
        )
        meta = {key[5:]: str(npz[key]) for key in npz.files if key.startswith("meta_")}
    return basis, meta
