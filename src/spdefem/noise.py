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
nonzero per column and the single-mesh covariance is diagonal.  On
nested meshes an eigen index meets in each coarser mesh only its alias
there, its ancestor: `_step_covariances` computes the joint covariance
of a step of any length, a horizon included, as per-mesh-pair ancestor
arrays.  `_JointNoise`, the one object that factors them, eliminates
them without fill into a sparse lower L (numpy CSR arrays, so set-up
loads no scipy), and every stochastic path draws a step as L @ normals
through it, by scipy's compiled CSR product (`fem._scipy_kernel`), which
imports no scipy package.  The weak oracle and the selftest read the
exact covariance and factor nothing.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import rng
from .fem import _SPARSETOOLS, _scipy_kernel

__all__ = ["CovarianceSpec"]

K_TRUNC = 1024  # sine modes a power_decay or white covariance keeps by default


@dataclass(frozen=True)
class CovarianceSpec:
    """Diagonal covariance of the driving Wiener process: the weights
    q_k for k = 1..k_trunc."""

    kind: str
    k_trunc: int
    rho: float | None = None
    custom_weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("power_decay", "white", "custom"):
            raise ValueError(f"unknown covariance kind {self.kind!r}")
        if self.k_trunc < 1:
            raise ValueError("k_trunc must be a positive integer")
        if self.kind == "power_decay":
            if self.rho is None or not 0.0 < self.rho < math.inf:
                raise ValueError(f"power_decay requires a finite rho > 0, "
                                 f"got {self.rho!r}")
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

    @classmethod
    def power_decay(cls, rho: float,
                    k_trunc: int = K_TRUNC) -> "CovarianceSpec":
        return cls(kind="power_decay", k_trunc=k_trunc, rho=rho)

    @classmethod
    def white(cls, k_trunc: int = K_TRUNC) -> "CovarianceSpec":
        return cls(kind="white", k_trunc=k_trunc)

    @classmethod
    def custom(cls, weights) -> "CovarianceSpec":
        """Explicit weights q_1, ..., q_{k_trunc}."""
        weights = tuple(float(w) for w in np.asarray(weights, dtype=float))
        return cls(kind="custom", k_trunc=len(weights), custom_weights=weights)

    @property
    def weights(self) -> np.ndarray:
        k = np.arange(1, self.k_trunc + 1, dtype=float)
        if self.kind == "power_decay":
            return k ** (-self.rho)
        if self.kind == "white":
            return np.ones(self.k_trunc)
        return np.asarray(self.custom_weights, dtype=float)


def _check_nested(counts) -> None:
    """Refuse mesh element counts that are not a divisibility chain."""
    counts = sorted(counts)
    if any(fine % coarse for coarse, fine in zip(counts, counts[1:])):
        raise ValueError(f"mesh element counts {counts} do not nest: each "
                         "must divide the next finer one")


def _step_covariances(spaces, basis, covariance: CovarianceSpec,
                      dt: float):
    """The joint covariance of ``spaces``' eigen coordinates over a step dt.

    The meshes must nest.  Ordered finest first, mesh pair a <= b gives
    ``up[a][b]``, mesh b's alias of each eigen index of mesh a (-1: none),
    and ``cov[a][b]``, the covariance entry (module docstring) of the
    index and that ancestor, summed in mode order (0.0 where there is no
    ancestor).  Returns (cov, up, rows), ``rows`` the row in the order of
    ``spaces`` of each index in block order: the arguments of
    `_nested_cholesky`.  On one mesh ``cov[0][0]`` is the diagonal.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    k_trunc = covariance.k_trunc
    if k_trunc > basis.k_max:
        raise ValueError("basis has fewer modes than k_trunc")
    _check_nested([space.n + 1 for space in spaces])
    order = sorted(range(len(spaces)), key=lambda a: -spaces[a].n)
    lam = [spaces[a].eigenvalues for a in order]
    overlaps = [spaces[a].alias_overlaps(basis) for a in order]
    m = len(order)
    cov, up = [[None] * m for _ in order], [[None] * m for _ in order]
    for a, (index_a, amp_a) in enumerate(overlaps):
        for b, (index_b, amp_b) in enumerate(overlaps[a:], a):
            hit = np.flatnonzero((index_a[:k_trunc] >= 0)
                                 & (index_b[:k_trunc] >= 0))
            up[a][b] = np.full(lam[a].size, -1)
            up[a][b][index_a[hit]] = index_b[hit]
            pair = lam[b][up[a][b]] + lam[a]
            q = covariance.weights[hit] * (amp_b[hit] * amp_a[hit])
            cov[a][b] = (np.bincount(index_a[hit], q, lam[a].size)
                         * (-np.expm1(-pair * dt) / pair))
    starts = np.cumsum([0] + [space.n for space in spaces])
    rows = np.concatenate([starts[a] + np.arange(spaces[a].n) for a in order])
    return cov, up, rows


class _JointNoise:
    """Exact sampler of every mesh's convolution increment over a step dt:
    the factor of `_step_covariances`, rows in mesh order, and the slice
    of each mesh's rows in a draw.  A keyed draw looks `rng.substream` up
    on the module at each call, so a wrapper rebound there sees it."""

    def __init__(self, spaces, basis, covariance, dt):
        self.dt = dt
        starts = np.cumsum([0] + [space.n for space in spaces]).tolist()
        self.slices = [slice(*ends) for ends in zip(starts, starts[1:])]
        self.dim = starts[-1]
        self._factor, self.cholesky_jitter = _nested_cholesky(
            *_step_covariances(spaces, basis, covariance, dt))

    @cached_property
    def _chol(self):
        """The factor as a scipy.sparse CSR view, for the tests and the
        perfbench factor probe; no draw reads it."""
        import scipy.sparse as sp
        return sp.csr_matrix(self._factor, shape=(self.dim, self.dim))

    def product(self, normals):
        """L @ normals: the increments of the given standard normals, one
        per row of L, in columns when 2-D.  The sparsetools call scipy's
        CSR ``@`` makes, into zeros: one vector through `csr_matvec`,
        several through `csr_matvecs`."""
        if normals.shape[0] != self.dim:
            raise ValueError(f"need {self.dim} rows of normals, "
                             f"got {normals.shape[0]}")
        data, indices, indptr = self._factor
        out = np.zeros(normals.shape)
        kernels = _scipy_kernel(_SPARSETOOLS)
        if normals.ndim == 1 or normals.shape[1] == 1:
            kernels.csr_matvec(self.dim, self.dim, indptr, indices, data,
                               normals.ravel(), out.ravel())
        else:
            kernels.csr_matvecs(self.dim, self.dim, normals.shape[1], indptr,
                                indices, data, normals.ravel(), out.ravel())
        return out

    def sample(self, seed, batch_index, substep_index, batch):
        gen = rng.substream(seed, sample=batch_index, step=substep_index,
                            purpose="wiener")
        return self.product(gen.standard_normal((self.dim, batch)))

    def diagnostics(self) -> dict:
        """Size, sparsity and regularization of the joint factor."""
        return {"joint_dim": self.dim, "factor_nnz": self._factor[0].size,
                "cholesky_jitter": self.cholesky_jitter}


def _nested_cholesky(cov, up, rows):
    """Cholesky factor of a PSD matrix whose graph links ancestors only.

    Block a has diagonal ``cov[a][a]``; its index j links only to its
    ancestor ``up[a][b][j]`` (-1: none) in each later block b, by entry
    ``cov[a][b][j]``, and its ancestors' ancestors are its own.  So block
    a's stage, L_aa = D^(1/2) and L_ba = cov[a][b] / L_aa, only updates
    ancestor entries, cov[b][c] -= L_ca L_ba in ascending j: no fill (Rose,
    Tarjan & Lueker 1976).  The matrix is PSD in exact arithmetic; while a
    pivot is not positive, a jitter ladder adds 1e-16 * trace to the
    diagonal, 4x more per rung, up to 1e-14 * trace.  Returns the lower
    factor and the jitter; a zero trace gives a zero factor.  The factor
    is a tuple of canonical CSR arrays (data, indices, indptr), the
    indices int32: zeros dropped, columns in block order and ascending
    within a row, and row i of the block order moved to row ``rows[i]``.
    """
    diagonal = [row[a] for a, row in enumerate(cov)]
    starts = np.cumsum([0] + [d.size for d in diagonal])
    dim = int(starts[-1])
    trace = float(np.concatenate(diagonal).sum())
    if not math.isfinite(trace) or trace < 0.0:
        raise np.linalg.LinAlgError("covariance trace is not finite")
    if trace == 0.0:
        return (np.zeros(0), np.zeros(0, np.int32),
                np.zeros(dim + 1, np.int32)), 0.0
    for jitter in [0.0] + [1e-16 * trace * 4.0 ** i for i in range(4)]:
        schur = copy.deepcopy(cov)
        parts = []
        for a, row in enumerate(schur):
            pivots = jitter + row[a]
            if not np.all(pivots > 0.0):
                break
            root = np.sqrt(pivots)
            own = starts[a] + np.arange(root.size)
            parts.append((own, own, root))
            low = {b: row[b] / root for b in range(a + 1, len(row))}
            for b, low_b in low.items():
                has = up[a][b] >= 0
                parts.append((starts[b] + up[a][b][has], own[has],
                              low_b[has]))
                for c in range(b, len(row)):
                    both = has & (up[a][c] >= 0)
                    np.add.at(schur[b][c], up[a][b][both],
                              -(low[c] * low_b)[both])
        else:
            r, c, v = (np.concatenate(x) for x in zip(*parts))
            return _csr_arrays(rows[r], c, v, dim), jitter
    raise np.linalg.LinAlgError(
        "step covariance not PSD within 1e-14 * trace jitter")


def _csr_arrays(rows, cols, vals, dim):
    """Canonical CSR arrays (data, indices, indptr) of a dim x dim matrix
    from COO entries with no duplicate: zeros dropped, entries ordered by
    row, then column.  The bytes scipy.sparse gives for the same entries
    through ``csr_matrix((vals, (rows, cols)))`` and ``eliminate_zeros``."""
    keep = np.flatnonzero(vals != 0.0)
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    order = np.lexsort((cols, rows))
    indptr = np.append(0, np.cumsum(np.bincount(rows, minlength=dim)))
    return vals[order], cols[order].astype(np.int32), indptr.astype(np.int32)
