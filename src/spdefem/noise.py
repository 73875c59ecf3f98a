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
joint one is sparse.  `_joint_factor` factors it mesh by mesh into a
sparse lower L; every stochastic path draws a step as L @ normals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

__all__ = ["CovarianceSpec", "implied_beta"]


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

    The covariance (module docstring) is a scatter at the alias positions
    (`FemSpace.alias_overlaps`) of every mesh pair, so its lower triangle
    is assembled sparse, with exact zeros.  The meshes must nest (element
    counts in a divisibility chain), so a coarser mesh's alias is a
    function of the finer one's: eliminated mesh by mesh, finest first
    (`_staged_cholesky`), each block is diagonal at its stage and no fill
    arises (Rose, Tarjan & Lueker 1976).  Meshes that do not nest leave a
    non-diagonal block, a ValueError.

    Returns (L, jitter): L in CSR, rows in the order of ``spaces``, and
    the diagonal jitter the factorization needed.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    k_trunc = covariance.k_trunc
    if k_trunc > basis.k_max:
        raise ValueError("basis has fewer modes than k_trunc")
    # factor positions: the finest mesh first
    finest_first = sorted(range(len(spaces)), key=lambda a: -spaces[a].n)
    sizes = [spaces[a].n for a in finest_first]
    starts = dict(zip(finest_first, np.cumsum([0] + sizes)))
    dim = sum(sizes)
    lam = np.empty(dim)
    pos, amp = [], []
    for a, space in enumerate(spaces):
        index, overlap = space.alias_overlaps(basis)
        index, overlap = index[:k_trunc], overlap[:k_trunc]
        lam[starts[a]:starts[a] + space.n] = space.eigenvalues
        pos.append(np.where(index >= 0, starts[a] + index, -1))
        amp.append(overlap)
    pos, amp = np.array(pos), np.array(amp)
    rows = np.broadcast_to(pos[:, None, :], (len(spaces),) + pos.shape)
    cols = np.broadcast_to(pos[None, :, :], rows.shape)
    values = covariance.weights * (amp[:, None, :] * amp[None, :, :])
    hit = (rows >= cols) & (cols >= 0)
    r, c, summed = _sum_duplicates(rows[hit], cols[hit], values[hit], dim)
    pair = lam[r] + lam[c]
    lower = sp.coo_matrix((summed * (-np.expm1(-pair * dt) / pair), (r, c)),
                          shape=(dim, dim))
    chol, jitter = _staged_cholesky(lower, sizes)
    mesh_order = np.concatenate([starts[a] + np.arange(space.n)
                                 for a, space in enumerate(spaces)])
    return chol[mesh_order], jitter


def _sum_duplicates(rows, cols, values, dim):
    """COO triplets sorted by column, then row, the values at a position
    summed in array order: scipy's own summing fixes no order, and
    another would move the entries, and so the draws, by roundoff."""
    key, slot = np.unique(cols.astype(np.int64) * dim + rows,
                          return_inverse=True)
    c, r = np.divmod(key, dim)
    return r, c, np.bincount(slot, weights=values)


def _staged_cholesky(matrix, sizes) -> tuple[sp.csr_matrix, float]:
    """Sparse Cholesky factor of a PSD matrix, eliminated in diagonal stages.

    ``matrix`` (sparse, symmetric PSD; only its lower triangle is read)
    is split into stages of ``sizes`` rows.  Each stage's leading block
    of the current Schur complement [[D, B^T], [B, C]] must be diagonal
    (a ValueError otherwise): L11 = D^(1/2), L21 = B D^(-1/2), and
    S <- C - L21 L21^T sparsely.  The matrix is PSD in exact arithmetic
    (a Schur product of two PSD factors), so only roundoff-scale
    regularization is legitimate: while a pivot is not positive, a
    jitter ladder adds 1e-16 * trace to the whole diagonal, 4x more per
    rung; failure beyond 1e-14 * trace is reported, not patched.  Returns
    the CSR lower factor and the jitter (0.0 when none was needed); a zero
    trace gives a zero factor.
    """
    dim = matrix.shape[0]
    trace = float(matrix.diagonal().sum())
    if not math.isfinite(trace) or trace < 0.0:
        raise np.linalg.LinAlgError("covariance trace is not finite")
    if trace == 0.0:
        return sp.csr_matrix((dim, dim)), 0.0
    lower = sp.tril(matrix, format="coo")
    lower = _sum_duplicates(lower.row, lower.col, lower.data, dim)
    # the ladder: 0, then 1e-16 * trace and 4x more up to the 1e-14 cap
    for jitter in [0.0] + [1e-16 * trace * 4.0 ** i for i in range(4)]:
        (r, c, v), parts, start = lower, [], 0
        for n in sizes:
            end = start + n
            stage, below = c < end, r >= end
            if np.any(v[stage & ~below & (r != c)]):
                raise ValueError("leading block is not diagonal")
            pivots = np.full(n, jitter)
            diag = stage & (r == c)
            pivots[r[diag] - start] += v[diag]
            if not np.all(pivots > 0.0):
                break
            root = np.sqrt(pivots)
            below &= stage
            lr, lc = r[below], c[below]
            lv = v[below] / root[lc - start]
            parts.append((np.r_[start:end, lr], np.r_[start:end, lc],
                          np.r_[root, lv]))
            # S = C - L21 L21^T: the entries k apart in one column (L21 is
            # sorted by column) give the products at offset k
            update = [(r[~stage], c[~stage], v[~stage])]
            k = 0
            while (same := lc[k:] == lc[:lc.size - k]).any():
                update.append((lr[k:][same], lr[:lr.size - k][same],
                               -(lv[k:] * lv[:lv.size - k])[same]))
                k += 1
            r, c, v = _sum_duplicates(
                *(np.concatenate(x) for x in zip(*update)), dim)
            start = end
        else:
            r, c, v = (np.concatenate(x) for x in zip(*parts))
            factor = sp.csr_matrix((v, (r, c)), shape=(dim, dim))
            factor.eliminate_zeros()
            return factor, jitter
    raise np.linalg.LinAlgError(
        "step covariance not PSD within 1e-14 * trace jitter")
