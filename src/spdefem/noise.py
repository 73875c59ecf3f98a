"""Q-Wiener noise diagonal in the sine basis, and its exact sampler.

The covariance operator acts mode by mode, Q e_k = q_k e_k, with three
weight families: a power-law decay q_k = k^(-rho), spatial white noise
q_k = 1, and a user-supplied sequence.  The noise enters a finite
element space through the overlaps of the sine modes with its discrete
eigenvectors, so one Brownian path can drive several meshes at once.

The stochastic convolution Z(t) = int_0^t e^{-A_h(t-s)} P_h dW(s) is an
Ornstein-Uhlenbeck process in the discrete eigenbasis.  Over a step dt
the eigen coordinates of meshes a and b driven by one path are jointly
Gaussian with the closed-form covariance

    C_ij = (sum_k q_k b^a_ik b^b_jk) * (1 - e^{-(l_i+l_j) dt}) / (l_i + l_j)

with b_ik the overlap of sine mode k with discrete eigenvector i, so a
step of any size is sampled exactly (no temporal discretization error).
On the uniform meshes of `FemSpace` each sine mode overlaps exactly one
eigenvector per mesh (its nodal alias) or none, so b has at most one
nonzero per column: the single-mesh covariance is diagonal and the
joint one is sparse.  `_joint_factor` builds its sparse lower factor L,
and every stochastic path of the package draws one step as
L @ standard normals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

__all__ = [
    "CovarianceSpec",
    "implied_beta",
]


@dataclass(frozen=True)
class CovarianceSpec:
    """Diagonal covariance of the driving Wiener process.

    ``beta`` is the spatial regularity index in (0, 1]: the largest
    exponent such that sum_k lambda_k^(b-1) q_k converges for every
    b < beta.
    """

    kind: str
    k_trunc: int
    rho: float | None = None
    custom_weights: tuple[float, ...] | None = None
    beta: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        if self.kind not in ("power_decay", "white", "custom"):
            raise ValueError(f"unknown covariance kind {self.kind!r}")
        if self.k_trunc < 1:
            raise ValueError("k_trunc must be a positive integer")
        if self.kind == "power_decay":
            if self.rho is None or self.rho <= 0.0:
                raise ValueError("power_decay requires rho > 0")
        elif self.rho is not None:
            raise ValueError("rho is only meaningful for power_decay")
        if self.kind == "custom":
            if self.custom_weights is None:
                raise ValueError("custom kind requires a weight sequence")
            w = np.asarray(self.custom_weights, dtype=float)
            if w.shape != (self.k_trunc,):
                raise ValueError("custom weights must have length k_trunc")
            if not np.all(np.isfinite(w)) or np.any(w < 0.0):
                raise ValueError("custom weights must be finite and >= 0")
        elif self.custom_weights is not None:
            raise ValueError("weights are only meaningful for custom kind")
        if self.kind != "custom":
            object.__setattr__(self, "beta", implied_beta(self))

    @classmethod
    def power_decay(cls, rho: float, k_trunc: int = 4096) -> "CovarianceSpec":
        return cls(kind="power_decay", k_trunc=k_trunc, rho=rho)

    @classmethod
    def white(cls, k_trunc: int = 4096) -> "CovarianceSpec":
        return cls(kind="white", k_trunc=k_trunc)

    @classmethod
    def custom(cls, weights, beta: float) -> "CovarianceSpec":
        """Explicit weights; the caller must supply the regularity index."""
        weights = tuple(float(w) for w in np.asarray(weights, dtype=float))
        spec = cls(kind="custom", k_trunc=len(weights), custom_weights=weights)
        if not 0.0 < beta <= 1.0:
            raise ValueError("beta must lie in (0, 1]")
        object.__setattr__(spec, "beta", float(beta))
        return spec

    @property
    def weights(self) -> np.ndarray:
        k = np.arange(1, self.k_trunc + 1, dtype=float)
        if self.kind == "power_decay":
            return k ** (-self.rho)
        if self.kind == "white":
            return np.ones(self.k_trunc)
        return np.asarray(self.custom_weights, dtype=float)


def implied_beta(spec: CovarianceSpec) -> float:
    """Regularity index implied by the weight decay.

    With lambda_k growing like k^2, the series sum_k lambda_k^(b-1) q_k
    for q_k = k^(-rho) behaves like sum k^(2b-2-rho), which converges
    exactly when b < (rho+1)/2.  The index is capped at 1.  White noise
    is the rho = 0 member of the family: index 1/2, never attained.
    """
    if spec.kind == "custom":
        raise ValueError("custom weights carry no implied index; "
                         "pass beta explicitly")
    rho = 0.0 if spec.kind == "white" else float(spec.rho)
    return min(1.0, (rho + 1.0) / 2.0)


def _joint_factor(spaces, basis, covariance: CovarianceSpec, dt: float):
    """Sparse lower factor of the joint one-step covariance of ``spaces``.

    Each sine mode overlaps at most one eigenvector per mesh (its nodal
    alias, `FemSpace.alias_overlaps`), so the joint covariance of the
    stacked eigen coordinates is a scatter of q_k b^a_k b^b_k at the
    alias positions of every mesh pair, times the kernel
    (1 - e^{-(lam_i + lam_j) dt}) / (lam_i + lam_j); no entry off those
    positions is touched, so its zeros are exact and the matrix is
    assembled sparse.  Within one mesh a mode has one alias, so the
    finest mesh's block is diagonal whether or not the meshes nest:
    `_regularized_cholesky` eliminates it in closed form, finest mesh
    first, and factors only the small Schur complement of the coarser
    meshes densely (a single mesh is just its diagonal square root).  On
    nested meshes the alias of a coarser mesh is a function of the finer
    one, so that elimination creates no fill (Rose, Tarjan & Lueker
    1976): the factor has exactly the nonzeros of the permuted lower
    triangle.  Nothing of size dim x dim is ever dense.

    Returns (L, jitter): L in CSR with its rows in the order of
    ``spaces`` (L L^T is the covariance in that order) and the diagonal
    jitter the factorization needed.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    k_trunc = covariance.k_trunc
    if k_trunc > basis.k_max:
        raise ValueError("basis has fewer modes than k_trunc")
    # factor positions: the finest mesh first
    finest_first = sorted(range(len(spaces)), key=lambda a: -spaces[a].n)
    factor_slices = [None] * len(spaces)
    dim = 0
    for a in finest_first:
        factor_slices[a] = slice(dim, dim + spaces[a].n)
        dim += spaces[a].n
    lam = np.empty(dim)
    pos, amp = [], []
    for space, where in zip(spaces, factor_slices):
        index, overlap = space.alias_overlaps(basis)
        index, overlap = index[:k_trunc], overlap[:k_trunc]
        lam[where] = space.eigenvalues
        pos.append(np.where(index >= 0, where.start + index, -1))
        amp.append(overlap)
    pos, amp = np.array(pos), np.array(amp)
    rows = np.broadcast_to(pos[:, None, :], (len(spaces),) + pos.shape)
    cols = np.broadcast_to(pos[None, :, :], rows.shape)
    values = covariance.weights * (amp[:, None, :] * amp[None, :, :])
    hit = (rows >= 0) & (cols >= 0)
    # sum duplicates sequentially in scatter order: scipy's own duplicate
    # summing fixes no order, and another order would move the entries,
    # and so the draws, by roundoff
    key, slot = np.unique(rows[hit] * dim + cols[hit], return_inverse=True)
    r, c = np.divmod(key, dim)
    pair = lam[r] + lam[c]
    joint = sp.csr_matrix(
        (np.bincount(slot, weights=values[hit])
         * (-np.expm1(-pair * dt) / pair), (r, c)),
        shape=(dim, dim))
    chol, jitter = _regularized_cholesky(
        joint, n_diag=spaces[finest_first[0]].n)
    mesh_order = np.concatenate([np.arange(where.start, where.stop)
                                 for where in factor_slices])
    return chol[mesh_order], jitter


def _regularized_cholesky(matrix, n_diag: int) -> tuple[sp.csr_matrix, float]:
    """Sparse Cholesky factor of a PSD matrix with a diagonal leading block.

    ``matrix`` (dense or sparse, symmetric positive semidefinite) has the
    block form [[D, B^T], [B, C]] with D diagonal of size ``n_diag``.
    That block is eliminated in closed form, L11 = D^(1/2) and
    L21 = B D^(-1/2), and only the Schur complement S = C - L21 L21^T,
    of the remaining rows, is factored densely; nothing of the full size
    is ever dense.  In exact arithmetic the matrix is PSD (a Schur
    product of two PSD factors), so only roundoff-scale regularization is
    legitimate: a jitter ladder adds 1e-16 * trace to the diagonal, then
    4x more per rung, when a pivot of D is not positive or S has no
    Cholesky factor, and failure beyond 1e-14 * trace is reported, not
    patched.  Returns the lower factor as CSR and the jitter added to the
    diagonal (0.0 when none was needed).  A zero trace gives the all-zero
    factor.
    """
    a = sp.csr_matrix(matrix)
    dim = a.shape[0]
    trace = float(a.diagonal().sum())
    if not math.isfinite(trace) or trace < 0.0:
        raise np.linalg.LinAlgError("covariance trace is not finite")
    if trace == 0.0:
        return sp.csr_matrix((dim, dim)), 0.0
    lead = a[:n_diag, :n_diag]
    d = lead.diagonal()
    if np.count_nonzero(lead.data) != np.count_nonzero(d):
        raise ValueError("leading block is not diagonal")
    b = a[n_diag:, :n_diag]
    c = a[n_diag:, n_diag:].toarray()
    jitter = 0.0
    while True:
        pivots = d + jitter
        if np.all(pivots > 0.0):
            root = np.sqrt(pivots)
            l21 = b @ sp.diags(1.0 / root)
            schur = c - (l21 @ l21.T).toarray()
            schur[np.diag_indices_from(schur)] += jitter
            try:
                l22 = np.linalg.cholesky(schur)
                break
            except np.linalg.LinAlgError:
                pass
        jitter = 1e-16 * trace if jitter == 0.0 else 4.0 * jitter
        if jitter > 1e-14 * trace:
            raise np.linalg.LinAlgError(
                "step covariance not PSD within 1e-14 * trace jitter")
    factor = sp.bmat([[sp.diags(root), None], [l21, sp.csr_matrix(l22)]],
                     format="csr")
    factor.eliminate_zeros()
    return factor, jitter
