"""Piecewise-linear finite elements on a uniform interval mesh with
Dirichlet ends.

The discrete system lives on the interior nodes of a uniform mesh with N
elements of width h: mass matrix M, stiffness matrix S and the discrete
operator M^{-1} S.  Every study refines uniform dyadic meshes, and there
the generalized eigensystem S v = lambda M v is known in closed form: the
eigenvectors are the discrete sines sin(i pi j / N), i = 1..N-1, with

    lambda_i = 6/h^2 (1 - cos(i pi/N)) / (2 + cos(i pi/N)),

so moving between nodal values and M-orthonormal eigen coordinates is a
scaled type-I discrete sine transform.

Sine modes alias on the nodes: mode k takes the nodal values of mode
+-(k mod 2N) folded into 1..N-1, and vanishes at every node when k = 0 or
N (mod 2N).  So each sine mode overlaps at most one discrete eigenvector
(`_mode_alias`), and the sparse overlap matrix B[i, k] = <e_k, e_i^h>
holds at most one nonzero per column (`FemSpace.alias_overlaps`).  The
whole interplay with the sine basis runs through that map and the eigen
transforms: the coupling C[j, k] = <phi_j, e_k> factors as C = M V B, so
the L2 projection of a sine expansion, the joint noise covariance of a
mesh hierarchy and the operator error norms never form C.  Each error
operator is block diagonal over the alias classes, each block a diagonal
plus a rank-one term, and its norm is the largest exact 2-norm of the
small blocks.  `FemSpace.coupling`, `solve_mass`, `solve_stiffness` and
`_power_iteration_norm` are never called by the package: they stay only
because `perfbench/spans.py` patches them by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.fft import dst

from .rng import substream
from .spectral import SpectralBasis


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


def _mode_alias(n_elements: int, k_max: int):
    """Nodal alias of the sine modes 1..k_max on a uniform mesh.

    Mode k takes, at every node, sign times the values of discrete sine
    i = k mod 2N folded into 1..N-1 (sign -1 when the fold reflects).
    Returns (index, sign): the 0-based eigen index i - 1, or -1 where the
    mode vanishes at every node (k = 0 or N mod 2N), and the sign.
    Integer arithmetic only, so no roundoff decides a class.
    """
    period = 2 * n_elements
    r = np.arange(1, k_max + 1) % period
    reflected = r > n_elements
    index = np.where(reflected, period - r, r) - 1
    index[(r == 0) | (r == n_elements)] = -1
    return index, np.where(reflected, -1.0, 1.0)


def _scale_columns(factors: np.ndarray, coeffs: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Scale entry i of a vector, or row i of every column, by factors[i]."""
    if coeffs.ndim == 1:
        return np.multiply(factors, coeffs, out=out)
    return np.multiply(factors[:, None], coeffs, out=out)


def _dst_in_place(a: np.ndarray) -> np.ndarray:
    """Type-I DST along axis 0, written over the float array ``a``."""
    result = dst(a, type=1, axis=0, overwrite_x=True)
    if not np.may_share_memory(result, a):
        np.copyto(a, result)
    return a


class FemSpace:
    """Assembled P1 space on the interior nodes of a uniform mesh.

    Holds the tridiagonal mass and stiffness matrices as sparse CSR
    (assembled on first use) and the closed-form M-orthonormal
    eigensystem of S v = lambda M v:
    eigenvector i is the discrete sine sin(i pi j / N) scaled by
    c_i = (N/2 mu_i)^(-1/2), where mu_i = h (2 + cos(i pi/N)) / 3 is its
    mass-matrix eigenvalue.
    Eigen transforms are type-I discrete sine transforms, and mass and
    stiffness solves are diagonal between two of them.  The sine basis
    enters only through the alias map (`alias_overlaps`).  Raises
    ValueError unless the element lengths agree to within 1e-12 h.
    """

    def __init__(self, mesh: Mesh1D):
        el = mesh.elements
        if el.max() - el.min() > 1e-12 * mesh.h:
            raise ValueError("FemSpace needs a uniform mesh: element "
                             "lengths equal to within 1e-12 h")
        self.mesh = mesh
        self.n = mesh.n_interior
        left, right = el[:-1], el[1:]          # per interior node
        m_diag = (left + right) / 3.0
        m_off = right[:-1] / 6.0               # between interior i and i+1
        s_diag = 1.0 / left + 1.0 / right
        s_off = -1.0 / right[:-1]
        self._mass_bands = [m_off, m_diag, m_off]
        self._stiffness_bands = [s_off, s_diag, s_off]
        n_el = self.n + 1
        h = mesh.length / n_el
        theta = np.arange(1, n_el) * np.pi / n_el
        cos = np.cos(theta)
        # 1 - cos(theta) as 2 sin^2(theta/2): no cancellation at low modes
        self.eigenvalues = (12.0 / h ** 2) * np.sin(0.5 * theta) ** 2 \
            / (2.0 + cos)                      # ascending, all positive
        mass_eig = h * (2.0 + cos) / 3.0
        self._vec_scale = 1.0 / np.sqrt(0.5 * n_el * mass_eig)
        self._to_eigen_scale = 0.5 * self._vec_scale * mass_eig
        self._from_eigen_scale = 0.5 * self._vec_scale

    # -- matrices, built on first use: most studies never read them -------

    @cached_property
    def mass(self) -> sp.csr_matrix:
        """Tridiagonal mass matrix M as sparse CSR."""
        return sp.diags(self._mass_bands, [-1, 0, 1], format="csr")

    @cached_property
    def stiffness(self) -> sp.csr_matrix:
        """Tridiagonal stiffness matrix S as sparse CSR."""
        return sp.diags(self._stiffness_bands, [-1, 0, 1], format="csr")

    # -- linear algebra helpers -------------------------------------------

    def solve_mass(self, b: np.ndarray) -> np.ndarray:
        """M^{-1} b = V V^T b (V^T M V = I); V^T b is a scaled DST-I.
        Unused: kept only because `perfbench/spans.py` patches it by name."""
        vt_b = dst(np.asarray(b, dtype=float), type=1, axis=0)
        return self.from_eigen(_scale_columns(self._from_eigen_scale, vt_b))

    def solve_stiffness(self, b: np.ndarray) -> np.ndarray:
        """S^{-1} b = V Lambda_h^{-1} V^T b.
        Unused: kept only because `perfbench/spans.py` patches it by name."""
        vt_b = dst(np.asarray(b, dtype=float), type=1, axis=0)
        return self.from_eigen(_scale_columns(
            self._from_eigen_scale / self.eigenvalues, vt_b))

    def to_eigen(self, v: np.ndarray, out: np.ndarray | None = None
                 ) -> np.ndarray:
        """Nodal values -> coefficients in the discrete eigenbasis, V^T M v.

        Accepts a vector or an (n, batch) array of columns.  With ``out``
        (a float array of v's shape, possibly v itself) the coefficients
        are written there, with the same bits.
        """
        v = np.asarray(v, dtype=float)
        if out is None:
            out = v.copy()
        elif out is not v:
            np.copyto(out, v)
        return _scale_columns(self._to_eigen_scale, _dst_in_place(out),
                              out=out)

    def from_eigen(self, c: np.ndarray, out: np.ndarray | None = None
                   ) -> np.ndarray:
        """Eigen coefficients -> nodal values, V c (inverse of to_eigen);
        ``out`` as in `to_eigen`."""
        c = np.asarray(c, dtype=float)
        return _dst_in_place(_scale_columns(self._from_eigen_scale, c,
                                            out=out))

    # -- norms --------------------------------------------------------------

    def l2_norm(self, v: np.ndarray) -> float | np.ndarray:
        v = np.asarray(v)
        if v.ndim == 1:
            return float(np.sqrt(v @ self.mass @ v))
        return np.sqrt(np.einsum("ij,ij->j", v, self.mass @ v))

    # -- coupling to the sine basis ------------------------------------------

    def _hat_integrals(self, basis: SpectralBasis) -> np.ndarray:
        """Per sine mode k, <phi_j, e_k> / sin(w_k x_j) for every hat phi_j.

        On a uniform mesh the hat at node x_j integrates against sin(w x)
        to sin(w x_j) 2 (1 - cos(w h)) / (h w^2).
        """
        if abs(basis.length - self.mesh.length) > 1e-12:
            raise ValueError("basis and mesh live on different intervals")
        h = self.mesh.length / (self.n + 1)
        w = basis.frequencies
        return (np.sqrt(2.0 / basis.length) * 4.0 * np.sin(0.5 * w * h) ** 2
                / (h * w ** 2))

    def coupling(self, basis: SpectralBasis) -> np.ndarray:
        """Dense C[i, k] = <phi_i, e_k>, closed form, shape (n, k_max).
        Unused: kept only because `perfbench/spans.py` patches it by name."""
        return (np.sin(np.outer(self.mesh.interior, basis.frequencies))
                * self._hat_integrals(basis))

    def alias_overlaps(self, basis: SpectralBasis):
        """Each sine mode's single nonzero overlap with the eigenbasis.

        Returns (index, overlap) over the modes k = 1..k_max: the 0-based
        eigenvector that mode k aliases to (-1 when it vanishes at every
        node, see `_mode_alias`) and <e_k, e_index^h>, which is
        sign c_i (N/2) <phi_j, e_k> / sin(w_k x_j) (0.0 where index is -1).
        """
        index, sign = _mode_alias(self.n + 1, basis.k_max)
        hit = index >= 0
        overlap = np.zeros(basis.k_max)
        overlap[hit] = (sign[hit] * self._vec_scale[index[hit]]
                        * (0.5 * (self.n + 1))
                        * self._hat_integrals(basis)[hit])
        return index, overlap

    def mode_overlap(self, basis: SpectralBasis) -> sp.csr_matrix:
        """B[i, k] = <e_k, e_i^h> (discrete eigenfunction i against sine
        mode k) as sparse CSR, shape (n, k_max), with at most one nonzero
        per column; the coupling is C = M V B."""
        index, overlap = self.alias_overlaps(basis)
        hit = np.flatnonzero(index >= 0)
        return sp.csr_matrix((overlap[hit], (index[hit], hit)),
                             shape=(self.n, basis.k_max))

    def l2_project(self, basis: SpectralBasis, coeffs: np.ndarray) -> np.ndarray:
        """L2 projection M^{-1} C x of a (truncated) sine expansion: V B x."""
        coeffs = np.asarray(coeffs, dtype=float)
        return self.from_eigen(self.mode_overlap(basis) @ coeffs)


def _evaluation_matrix(space: FemSpace, points: np.ndarray) -> sp.csr_matrix:
    """Sparse map nodal values -> field values at points (2 nnz per row)."""
    nodes = space.mesh.nodes
    idx = np.clip(np.searchsorted(nodes, points, side="right") - 1,
                  0, nodes.size - 2)
    theta = (points - nodes[idx]) / (nodes[idx + 1] - nodes[idx])
    # per point: the left node (column i - 1), then the right node
    # (column i), each kept where that node is interior
    cols = np.column_stack([idx - 1, idx])
    vals = np.column_stack([1.0 - theta, theta])
    keep = (cols >= 0) & (cols < space.n)
    rows = np.broadcast_to(np.arange(points.size)[:, None], cols.shape)
    return sp.csr_matrix((vals[keep], (rows[keep], cols[keep])),
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


def _alias_classes(index: np.ndarray, n: int):
    """0-based sine mode indices grouped by their eigen index (`_mode_alias`):
    the null class (index -1, vanishing at every node) and one array per
    discrete sine i = 1..n, each in ascending k."""
    order = np.argsort(index, kind="stable")
    sizes = np.bincount(index + 1, minlength=n + 1)
    groups = np.split(order, np.cumsum(sizes)[:-1])
    return groups[0], groups[1:]


def operator_error_norm(space: FemSpace, basis: SpectralBasis,
                        s: float = 0.0, r: float = 0.0,
                        which: str = "l2", t: float | None = None) -> float:
    """Operator norm of a weighted discretization error on the sine span.

    which="l2":        A^{s/2} (I - P_h) A^{-r/2},  0 <= s <= 1, s <= r <= 2
    which="ritz":      A^{s/2} (I - R_h) A^{-r/2},  0 <= s <= 1 <= r <= 2
    which="semigroup": (S_h(t) P_h - S(t)) A^{-r/2},  s = 0, t > 0

    The operator is restricted to span{e_k, k <= k_max}; the basis must hold
    at least 4 * n modes so the tail it cannot see is negligible at the
    exponents above.  With C = M V B (`FemSpace.mode_overlap`) each
    operator is block diagonal over the alias classes (`_alias_classes`):
    on the class of eigenvector i, with b its modes' overlaps, the block
    is diag(d) - g_i b b^T diag(rho), weighted by A^{s/2} and A^{-r/2}
    (l2: d = g = rho = 1; ritz: d = 1, g = 1/lambda_h, rho = lambda;
    semigroup, up to sign: d = e^{-lambda t}, g = e^{-lambda_h t}, rho =
    1), and the null class is the diagonal alone.  The norm is the
    largest exact 2-norm over the blocks, exact to roundoff; no
    k_max x k_max matrix is formed.
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

    lam = basis.eigenvalues
    w_in = lam ** (-r / 2.0)
    w_out = lam ** (s / 2.0)
    d = rho = np.ones(basis.k_max)
    gain = np.ones(space.n)
    if which == "semigroup":
        d = np.exp(-lam * t)
        gain = np.exp(-space.eigenvalues * t)
    elif which == "ritz":
        rho = lam
        gain = 1.0 / space.eigenvalues

    index, overlap = space.alias_overlaps(basis)
    null, classes = _alias_classes(index, space.n)
    norm = float((w_out[null] * d[null] * w_in[null]).max())
    for g, idx in zip(gain, classes):
        b = overlap[idx]
        block = np.diag(d[idx]) - g * np.outer(b, b * rho[idx])
        block *= w_out[idx, None] * w_in[None, idx]
        norm = max(norm, float(np.linalg.norm(block, 2)))
    return norm
