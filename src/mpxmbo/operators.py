"""Matrix-free linear operators on the supra (node-layer) space.

All operators act on vectors of length nL indexed layer-major: entry
(l-1)*n + j is node j in layer l.  None of them assemble an nL x nL
matrix.  Each matvec is one per-layer pass: the sparse intra-layer
product A_l x_l, then the omega-scaled coupling (the vector reshaped to
(L, n) times the small L x L coupling matrix), then the per-layer
rank-one term along the intra-layer degree vector d_l with strength s_l:

    modularity      Ax - (gamma_l / s_l) <d_l, x_l> d_l
    shifted_neg_lk  sigma x - (d o x - Ax) - (2 gamma_l / s_l) <d_l, x_l> d_l

with Ax = A_l x_l + omega * (C @ X), d the supra degrees, each
expression evaluated left to right and <d_l, x_l> one einsum over the
layers.  A test pins these bits.
"""

from __future__ import annotations

import numpy as np

from .network import gamma_vector

__all__ = ["LinearOperator", "modularity_op", "shifted_neg_lk_op"]


class LinearOperator:
    """Symmetric operator given by a matvec closure."""

    __slots__ = ("dim", "label", "_matvec")

    def __init__(self, dim, matvec, label):
        self.dim = int(dim)
        self.label = label
        self._matvec = matvec

    def apply(self, x):
        """Apply to a vector (nL,) or to the columns of a matrix (nL, m); the
        solver applies vectors, the exhaustive oracle the identity."""
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.shape[0] != self.dim:
            raise ValueError(f"operand has leading dimension {x.shape[0]}, expected {self.dim}")
        if x.ndim == 1:
            return self._matvec(x)
        if x.ndim != 2:
            raise ValueError("operand must be 1-D or 2-D")
        out = np.empty_like(x)
        for j in range(x.shape[1]):
            out[:, j] = self._matvec(np.ascontiguousarray(x[:, j]))
        return out


def _adjacency(net, xl):
    """Supra-adjacency times x, as (L, n) arrays: blkdiag(A_l) plus the
    coupling, omega * C[k, l] between copies of a node in layers k and l."""
    yl = np.empty_like(xl)
    for l, a in enumerate(net.intra):
        yl[l] = a.matvec(xl[l])
    if net.omega != 0.0 and net.L > 1:
        yl += net.omega * (net.coupling @ xl)
    return yl


def _rank_one_coef(deg, gamma, scale):
    """Per-layer scale * gamma_l / strength_l; 0 on layers of zero strength."""
    coef = np.zeros(gamma.size)
    nz = deg.layer_strengths > 0
    coef[nz] = scale * gamma[nz] / deg.layer_strengths[nz]
    return coef


def modularity_op(net, deg, gamma):
    """Supra modularity operator: adjacency minus per-layer null model.

    Diagonal blocks are A_l - (gamma_l / strength_l) d_l d_l^T, and the
    off-diagonal blocks are the omega-scaled coupling, identical to the
    supra-adjacency there.
    """
    L, n = net.L, net.n
    coef = _rank_one_coef(deg, gamma_vector(gamma, L), 1.0)
    dl = deg.intra_degrees

    def mv(x):
        xl = x.reshape(L, n)
        yl = _adjacency(net, xl)
        yl -= (coef * np.einsum("ln,ln->l", dl, xl))[:, None] * dl
        return yl.reshape(-1)

    return LinearOperator(net.nL, mv, "modularity")


def shifted_neg_lk_op(net, deg, gamma):
    """Return (sigma*I - (Laplacian + balance), sigma) with sigma >= lambda_max.

    The Laplacian is diag(supra degrees) minus the supra-adjacency; the
    balance term is block-diagonal, (gamma_l / m_l) d_l d_l^T with m_l
    half the layer strength, and nothing on layers of zero strength.
    The shift is the largest row-sum bound over the supra rows,
    2 * supra_degree + 2 * gamma_l * intra_degree, which dominates the
    spectrum of Laplacian + balance; the shifted operator is therefore
    positive semi-definite and its top eigenvectors are the bottom ones
    of Laplacian + balance.
    """
    L, n = net.L, net.n
    gamma = gamma_vector(gamma, L)
    coef = _rank_one_coef(deg, gamma, 2.0)
    dl = deg.intra_degrees
    supra = deg.supra_degrees.reshape(L, n)
    sigma = float((2.0 * supra + 2.0 * gamma[:, None] * dl).max())

    def mv(x):
        xl = x.reshape(L, n)
        lap = supra * xl
        lap -= _adjacency(net, xl)
        yl = sigma * xl
        yl -= lap
        yl -= (coef * np.einsum("ln,ln->l", dl, xl))[:, None] * dl
        return yl.reshape(-1)

    return LinearOperator(net.nL, mv, "shifted_neg_lk"), sigma
