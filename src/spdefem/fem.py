"""Piecewise-linear finite elements on an interval with Dirichlet ends.

The discrete system lives on the interior nodes of a (quasi-)uniform mesh:
mass matrix M, stiffness matrix S, discrete operator M^{-1} S, and the
generalized eigensystem S v = lambda M v with M-orthonormal eigenvectors.
The eigensystem gives the discrete heat semigroup and fractional operator
powers as diagonal multipliers, mirroring the spectral module.

Interplay with the sine basis (projections, noise coupling, operator error
norms) runs through the coupling matrix C[i, k] = <phi_i, e_k>, assembled in
closed form: the integral of a hat function against a sine has an elementary
antiderivative, so no quadrature error enters at any mode number.

Operator error norms need a uniform mesh.  There the discrete sines
diagonalize M and S, and sine mode k takes the nodal values of mode
+-(k mod 2N) folded into 1..N-1 (zero when k = 0 or N mod 2N).  Each error
operator is therefore block diagonal over these alias classes, each block
a diagonal plus a rank-one term, and its norm is the largest exact 2-norm
of the small blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .rng import substream
from .spectral import SpectralBasis

QUASI_UNIFORMITY = 0.5  # min element length >= this fraction of the max


@dataclass(frozen=True)
class Mesh1D:
    """Strictly increasing node array from 0 to the interval length."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 3:
            raise ValueError("mesh needs at least one interior node")
        if nodes[0] != 0.0:
            raise ValueError("mesh must start at 0")
        if not np.all(np.diff(nodes) > 0.0):
            raise ValueError("mesh nodes must be strictly increasing")
        if self.quasi_uniformity < QUASI_UNIFORMITY - 1e-12:
            raise ValueError(
                f"mesh violates quasi-uniformity: min/max element ratio "
                f"{self.quasi_uniformity:.3f} < {QUASI_UNIFORMITY}")

    @property
    def length(self) -> float:
        return float(self.nodes[-1])

    @property
    def elements(self) -> np.ndarray:
        return np.diff(self.nodes)

    @property
    def h(self) -> float:
        """Mesh width: the largest element length."""
        return float(self.elements.max())

    @property
    def quasi_uniformity(self) -> float:
        el = self.elements
        return float(el.min() / el.max())

    @property
    def interior(self) -> np.ndarray:
        return self.nodes[1:-1]

    @property
    def n_interior(self) -> int:
        return self.nodes.size - 2


def uniform_mesh(n_elements: int, length: float = 1.0) -> Mesh1D:
    """Equispaced mesh with n_elements elements (h = length / n_elements)."""
    if n_elements < 2:
        raise ValueError("need at least 2 elements for an interior node")
    return Mesh1D(np.linspace(0.0, length, n_elements + 1))


def jittered_mesh(n_elements: int, length: float = 1.0, jitter: float = 0.2,
                  seed: int = 0) -> Mesh1D:
    """Uniform mesh with interior nodes perturbed by +/- jitter*h.

    jitter is capped at 0.25.  Offsets are halved (deterministically) until
    the quasi-uniformity bound min_el >= 0.5 * max_el holds, so the returned
    mesh always satisfies the mesh-family assumption.
    """
    if not 0.0 <= jitter <= 0.25:
        raise ValueError("jitter must lie in [0, 0.25]")
    if n_elements < 2:
        raise ValueError("need at least 2 elements for an interior node")
    h = length / n_elements
    base = np.linspace(0.0, length, n_elements + 1)
    offsets = jitter * h * substream(seed, purpose="mesh-jitter").uniform(
        -1.0, 1.0, n_elements - 1)
    for _ in range(60):
        nodes = base.copy()
        nodes[1:-1] += offsets
        el = np.diff(nodes)
        if el.min() >= QUASI_UNIFORMITY * el.max():
            return Mesh1D(nodes)
        offsets *= 0.5
    return Mesh1D(base)


def _as_banded_upper(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    ab = np.zeros((2, diag.size))
    ab[1] = diag
    ab[0, 1:] = off
    return ab


class FemSpace:
    """Assembled P1 space on the interior nodes of a mesh.

    Holds mass/stiffness matrices, their banded Cholesky factors, and the
    M-orthonormal eigensystem of the generalized problem S v = lambda M v
    (solved densely via the Cholesky-of-M reduction inside scipy's eigh; the
    spec's mesh sizes stay at or below ~1000 interior nodes).
    """

    def __init__(self, mesh: Mesh1D):
        self.mesh = mesh
        self.n = mesh.n_interior
        el = mesh.elements
        left, right = el[:-1], el[1:]          # per interior node
        m_diag = (left + right) / 3.0
        m_off = right[:-1] / 6.0               # between interior i and i+1
        s_diag = 1.0 / left + 1.0 / right
        s_off = -1.0 / right[:-1]
        self.mass = np.diag(m_diag)
        self.stiffness = np.diag(s_diag)
        if self.n > 1:
            self.mass += np.diag(m_off, 1) + np.diag(m_off, -1)
            self.stiffness += np.diag(s_off, 1) + np.diag(s_off, -1)
        self._mass_band = _as_banded_upper(m_diag, m_off)
        self._stiff_band = _as_banded_upper(s_diag, s_off)
        self._mass_chol = sla.cholesky_banded(self._mass_band)
        self._stiff_chol = sla.cholesky_banded(self._stiff_band)
        evals, evecs = sla.eigh(self.stiffness, self.mass)
        self.eigenvalues = evals               # ascending, all positive
        self.eigenvectors = evecs              # columns, M-orthonormal
        self._vt_mass = evecs.T @ self.mass
        lam_cont = (np.arange(1, self.n + 1) * np.pi / mesh.length) ** 2
        ratio = self.eigenvalues / lam_cont
        self.eigenvalue_ratio_range = (float(ratio.min()), float(ratio.max()))
        self._coupling_cache: dict[int, np.ndarray] = {}
        self._beig_cache: dict[int, np.ndarray] = {}
        self._shift_cache: dict[float, np.ndarray] = {}

    # -- linear algebra helpers -------------------------------------------

    def solve_mass(self, b: np.ndarray) -> np.ndarray:
        return sla.cho_solve_banded((self._mass_chol, False), b)

    def solve_stiffness(self, b: np.ndarray) -> np.ndarray:
        return sla.cho_solve_banded((self._stiff_chol, False), b)

    def solve_shifted(self, dt: float, b: np.ndarray) -> np.ndarray:
        """Solve (M + dt S) x = b with a cached banded factorization."""
        chol = self._shift_cache.get(dt)
        if chol is None:
            chol = sla.cholesky_banded(self._mass_band + dt * self._stiff_band)
            self._shift_cache[dt] = chol
        return sla.cho_solve_banded((chol, False), b)

    def to_eigen(self, v: np.ndarray) -> np.ndarray:
        """Nodal values -> coefficients in the discrete eigenbasis."""
        return self._vt_mass @ v

    def from_eigen(self, c: np.ndarray) -> np.ndarray:
        return self.eigenvectors @ c

    # -- norms --------------------------------------------------------------

    def mass_inner(self, u: np.ndarray, v: np.ndarray) -> float:
        return float(u @ self.mass @ v)

    def l2_norm(self, v: np.ndarray) -> float | np.ndarray:
        v = np.asarray(v)
        if v.ndim == 1:
            return float(np.sqrt(v @ self.mass @ v))
        return np.sqrt(np.einsum("ij,ij->j", v, self.mass @ v))

    def sup_norm(self, v: np.ndarray) -> float | np.ndarray:
        v = np.asarray(v)
        out = np.abs(v).max(axis=0)
        return float(out) if v.ndim == 1 else out

    # -- discrete operator --------------------------------------------------

    def apply_operator(self, v: np.ndarray) -> np.ndarray:
        """Discrete negative Laplacian: M^{-1} S v."""
        return self.solve_mass(self.stiffness @ v)

    def semigroup_apply(self, t: float, v: np.ndarray) -> np.ndarray:
        """Discrete heat semigroup exp(-t M^{-1} S) v, t >= 0."""
        if t < 0.0:
            raise ValueError("semigroup time must be >= 0")
        decay = np.exp(-self.eigenvalues * t)
        c = self.to_eigen(v)
        return self.from_eigen(decay[:, None] * c if c.ndim == 2
                               else decay * c)

    def fractional_apply(self, power: float, v: np.ndarray) -> np.ndarray:
        """Fractional power of the discrete operator (signed exponent)."""
        scale = self.eigenvalues ** power
        c = self.to_eigen(v)
        return self.from_eigen(scale[:, None] * c if c.ndim == 2
                               else scale * c)

    # -- coupling to the sine basis ------------------------------------------

    def coupling(self, basis: SpectralBasis) -> np.ndarray:
        """Matrix C[i, k] = <phi_i, e_k>, closed form, shape (n, k_max).

        For a hat with support [a, m, b]:
          int phi sin(w x) dx
            = [ (sin(wm)-sin(wa))/(m-a) + (sin(wm)-sin(wb))/(b-m) ] / w^2.
        """
        key = (basis.k_max, basis.length)
        cached = self._coupling_cache.get(key)
        if cached is not None:
            return cached
        if abs(basis.length - self.mesh.length) > 1e-12:
            raise ValueError("basis and mesh live on different intervals")
        nodes = self.mesh.nodes
        a, m, b = nodes[:-2], nodes[1:-1], nodes[2:]
        w = basis.frequencies
        sin_a = np.sin(np.outer(a, w))
        sin_m = np.sin(np.outer(m, w))
        sin_b = np.sin(np.outer(b, w))
        c = ((sin_m - sin_a) / (m - a)[:, None]
             + (sin_m - sin_b) / (b - m)[:, None]) / w[None, :] ** 2
        c *= np.sqrt(2.0 / basis.length)
        self._coupling_cache[key] = c
        return c

    def mode_overlap(self, basis: SpectralBasis) -> np.ndarray:
        """Matrix <e_k, e_i^h> (discrete eigenfunction i against sine mode k),
        shape (n, k_max)."""
        key = (basis.k_max, basis.length)
        cached = self._beig_cache.get(key)
        if cached is None:
            cached = self.eigenvectors.T @ self.coupling(basis)
            self._beig_cache[key] = cached
        return cached

    def l2_project(self, basis: SpectralBasis, coeffs: np.ndarray) -> np.ndarray:
        """L2 projection of a (truncated) sine expansion: solve M v = C x."""
        coeffs = np.asarray(coeffs, dtype=float)
        return self.solve_mass(self.coupling(basis) @ coeffs)

    def ritz_project(self, basis: SpectralBasis, coeffs: np.ndarray = None,
                     *, nodal: np.ndarray = None) -> np.ndarray:
        """Ritz projection: solve S v = b with the H^1_0 pairing load.

        For a sine expansion the load is b = C (lambda * x) (integration by
        parts).  Passing `nodal=` instead uses the exact load S w of a member
        of the space itself, which reproduces w to machine precision (the
        truncated-coefficient route carries an O(1/k_max) series tail).
        """
        if (coeffs is None) == (nodal is None):
            raise ValueError("pass exactly one of coeffs or nodal")
        if nodal is not None:
            b = self.stiffness @ np.asarray(nodal, dtype=float)
        else:
            coeffs = np.asarray(coeffs, dtype=float)
            b = self.coupling(basis) @ (basis.eigenvalues * coeffs)
        return self.solve_stiffness(b)

    def spectral_coeffs(self, basis: SpectralBasis, v: np.ndarray) -> np.ndarray:
        """Sine coefficients <v_h, e_k> of a nodal field (exact, truncated)."""
        return self.coupling(basis).T @ v

    def interpolate(self, basis: SpectralBasis, coeffs: np.ndarray) -> np.ndarray:
        """Nodal interpolant of a sine expansion (values at interior nodes)."""
        return basis.synthesize(coeffs, self.mesh.interior)


def field_values(space: FemSpace, v: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Evaluate a nodal field (zero at the ends) at arbitrary points."""
    padded = np.zeros(space.n + 2)
    padded[1:-1] = v
    return np.interp(points, space.mesh.nodes, padded)


def _evaluation_matrix(space: FemSpace, points: np.ndarray) -> sp.csr_matrix:
    """Sparse map nodal values -> field values at points (2 nnz per row)."""
    nodes = space.mesh.nodes
    idx = np.clip(np.searchsorted(nodes, points, side="right") - 1,
                  0, nodes.size - 2)
    theta = (points - nodes[idx]) / (nodes[idx + 1] - nodes[idx])
    rows, cols, vals = [], [], []
    for j, (i, th) in enumerate(zip(idx, theta)):
        if 1 <= i <= space.n:            # left node is interior
            rows.append(j); cols.append(i - 1); vals.append(1.0 - th)
        if 1 <= i + 1 <= space.n:        # right node is interior
            rows.append(j); cols.append(i); vals.append(th)
    return sp.csr_matrix((vals, (rows, cols)),
                         shape=(points.size, space.n))


class L2Comparer:
    """Exact L2 distance between fields on two meshes of the same interval.

    The difference of two piecewise-linear fields is piecewise linear on the
    union mesh, so its square is piecewise quadratic and a per-subelement
    Simpson rule integrates it exactly.  Evaluation matrices are precomputed,
    so batched columns cost two sparse matmuls.
    """

    def __init__(self, space_a: FemSpace, space_b: FemSpace):
        if abs(space_a.mesh.length - space_b.mesh.length) > 1e-12:
            raise ValueError("meshes live on different intervals")
        knots = np.union1d(space_a.mesh.nodes, space_b.mesh.nodes)
        mids = 0.5 * (knots[:-1] + knots[1:])
        points = np.empty(knots.size + mids.size)
        points[0::2] = knots
        points[1::2] = mids
        el = np.diff(knots)
        weights = np.zeros(points.size)
        weights[0:-1:2] += el / 6.0
        weights[1::2] += 4.0 * el / 6.0
        weights[2::2] += el / 6.0
        self.weights = weights
        self.eval_a = _evaluation_matrix(space_a, points)
        self.eval_b = _evaluation_matrix(space_b, points)

    def distance(self, va: np.ndarray, vb: np.ndarray) -> float | np.ndarray:
        diff = self.eval_a @ va - self.eval_b @ vb
        if diff.ndim == 1:
            return float(np.sqrt(self.weights @ diff ** 2))
        return np.sqrt(self.weights @ diff ** 2)


# -- operator error norms ----------------------------------------------------

_OPERATORS = ("l2", "ritz", "semigroup")


def _power_iteration_norm(matvec, rmatvec, dim: int, tol: float = 1e-11,
                          max_iter: int = 5000) -> float:
    """Largest singular value via power iteration on T^T T.

    Unused by the package: kept only because the perfbench tracing probe
    patches it by name; it goes when that probe is updated.
    """
    x = substream(0, purpose="power-iteration").standard_normal(dim)
    x /= np.linalg.norm(x)
    sigma_prev = 0.0
    for _ in range(max_iter):
        y = matvec(x)
        sigma = np.linalg.norm(y)
        if sigma == 0.0:
            return 0.0
        x = rmatvec(y)
        nx = np.linalg.norm(x)
        if nx == 0.0:
            return float(sigma)
        x /= nx
        if abs(sigma - sigma_prev) <= tol * max(sigma, 1e-300):
            return float(sigma)
        sigma_prev = sigma
    return float(sigma_prev)


def _alias_classes(n_elements: int, k_max: int):
    """0-based indices of the sine modes 1..k_max, grouped by nodal alias.

    On a uniform mesh with N elements, sine mode k has, up to sign, the
    nodal values of mode j, where j is k mod 2N folded into 1..N-1 (k mod
    2N or 2N minus it); it vanishes at every node when k = 0 or N (mod 2N).
    Returns the null class (k a multiple of N) and one index array per
    j = 1..N-1.
    """
    period = 2 * n_elements
    null = np.arange(n_elements, k_max + 1, n_elements) - 1
    classes = [np.concatenate((np.arange(j, k_max + 1, period),
                               np.arange(period - j, k_max + 1, period))) - 1
               for j in range(1, n_elements)]
    return null, classes


def operator_error_norm(space: FemSpace, basis: SpectralBasis,
                        s: float = 0.0, r: float = 0.0,
                        which: str = "l2", t: float | None = None) -> float:
    """Operator norm of a weighted discretization error on the sine span.

    which="l2":        A^{s/2} (I - P_h) A^{-r/2},  0 <= s <= 1, s <= r <= 2
    which="ritz":      A^{s/2} (I - R_h) A^{-r/2},  0 <= s <= 1 <= r <= 2
    which="semigroup": (S_h(t) P_h - S(t)) A^{-r/2},  s = 0, t > 0

    The operator is restricted to span{e_k, k <= k_max}; the basis must hold
    at least 4 * n modes so the tail it cannot see is negligible at the
    exponents above.  The mesh must be uniform (element lengths equal to
    within 1e-12 h).  There the discrete sines diagonalize M and S, so the
    operator is block diagonal over the alias classes of the sine modes
    (see `_alias_classes`): each block is a diagonal plus a rank-one term,
    and the null class, whose modes vanish at every node, is a pure
    diagonal.  The norm is the largest exact 2-norm over the blocks, so it
    is exact to roundoff; no k_max x k_max matrix is formed.
    """
    if which not in _OPERATORS:
        raise ValueError(f"which must be one of {_OPERATORS}")
    if not 0.0 <= s <= 1.0:
        raise ValueError("need 0 <= s <= 1")
    if which == "l2" and not s <= r <= 2.0:
        raise ValueError("need s <= r <= 2 for the L2 projection error")
    if which == "ritz" and not max(1.0, s) <= r <= 2.0:
        raise ValueError("need max(1, s) <= r <= 2 for the Ritz error")
    if which == "semigroup":
        if s != 0.0:
            raise ValueError("semigroup error norm is measured in L2 (s = 0)")
        if not 0.0 <= r <= 2.0:
            raise ValueError("need 0 <= r <= 2")
        if t is None or t <= 0.0:
            raise ValueError("semigroup error needs t > 0")
    if basis.k_max < 4 * space.n:
        raise ValueError("basis too small: need k_max >= 4 * n interior nodes")
    el = space.mesh.elements
    if el.max() - el.min() > 1e-12 * space.mesh.h:
        raise ValueError("operator error norms need a uniform mesh: element "
                         "lengths equal to within 1e-12 h")

    # The error operator is +-(diag(d) - left^T right), zero off the
    # alias-class blocks; the sign (negative for the semigroup) leaves the
    # norm unchanged.
    lam = basis.eigenvalues
    w_in = lam ** (-r / 2.0)
    w_out = lam ** (s / 2.0)
    if which == "semigroup":
        left = space.mode_overlap(basis)
        right = np.exp(-space.eigenvalues * t)[:, None] * left
        d = np.exp(-lam * t)
    else:
        left = space.coupling(basis)
        right = (space.solve_mass(left) if which == "l2"
                 else space.solve_stiffness(left * lam))
        d = np.ones(basis.k_max)

    null, classes = _alias_classes(space.n + 1, basis.k_max)
    norm = float((w_out[null] * d[null] * w_in[null]).max())
    for idx in classes:
        block = np.diag(d[idx]) - left[:, idx].T @ right[:, idx]
        block *= w_out[idx, None] * w_in[None, idx]
        norm = max(norm, float(np.linalg.norm(block, 2)))
    return norm
