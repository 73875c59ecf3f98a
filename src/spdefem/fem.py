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
mesh hierarchy and the operator error norms never form C.  On nested
meshes a coarser mesh's alias is a function of the finer one's, so an
eigen index links only to its ancestors (its aliases on the coarser
meshes) and the joint covariance factors on per-mesh-pair ancestor
arrays, without fill.  Each error operator is block diagonal over
the alias classes, each block a diagonal plus a rank-one term, and its
norm is the largest singular value over the blocks, found by bisection
on an inertia count that costs O(block size) per block and step.
`FemSpace.coupling`, `solve_mass`, `solve_stiffness` and
`_power_iteration_norm` are never called by the package: they stay only
because `perfbench/spans.py` patches them by name.

Importing this module loads no scipy: scipy's import costs more than a
whole operator study, which needs none of it.  A Monte-Carlo study needs
two of scipy's compiled kernels, pocketfft's DST and sparsetools' CSR
products, and `_scipy_kernel` loads them from scipy's install at their
first call without importing any scipy package.  scipy.sparse is
imported only where a matrix is built: the mass and stiffness matrices,
read by the selftest, and the mode overlap of an ``x0: mode1`` start.
The mass norm forms M v in numpy, and an `L2Comparer` builds no matrix
of its own: it interpolates the coarser field onto the finer of two
nested meshes and takes the finer mesh's mass norm.
"""

from __future__ import annotations

import importlib.util
import math
import operator
import os
import sys
from functools import cache, cached_property
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader

import numpy as np

from .rng import substream
from .spectral import SpectralBasis


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


# scipy's compiled kernels, as paths in its package directory
_POCKETFFT = "fft/_pocketfft/pypocketfft"
_SPARSETOOLS = "sparse/_sparsetools"


@cache
def _scipy_kernel(path: str):
    """The compiled scipy module at ``path``, loaded without importing
    any scipy package.

    Importing scipy.fftpack or scipy.sparse to reach a kernel also loads
    scipy's array-API layer (array_api_compat, numpy.f2py, numpy.testing,
    scipy.special): about 0.2 s and 22 MB a process.  So this finds
    scipy's directory (`find_spec` imports nothing) and loads the
    extension file itself, leaving sys.modules as it was (a single-phase
    extension enters itself there).  Raises ImportError, naming the file
    and scipy's version, when the install has no such file.
    """
    root, = importlib.util.find_spec("scipy").submodule_search_locations
    stem = os.path.join(root, *path.split("/"))
    found = [stem + suffix for suffix in EXTENSION_SUFFIXES
             if os.path.isfile(stem + suffix)]
    if not found:
        from importlib.metadata import version
        raise ImportError(f"scipy {version('scipy')} has no compiled module "
                          f"{stem} (suffixes {', '.join(EXTENSION_SUFFIXES)})")
    name = "scipy." + path.replace("/", ".")
    loader = ExtensionFileLoader(name, found[0])
    registered = sys.modules.get(name)
    try:
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_loader(name, loader))
        loader.exec_module(module)
    finally:
        if registered is None:
            sys.modules.pop(name, None)
        else:
            sys.modules[name] = registered
    return module


def _dst_in_place(a: np.ndarray) -> np.ndarray:
    """Type-I DST along axis 0, written over the float array ``a``: the
    pocketfft call scipy.fft's `dst` makes, without its dispatch."""
    return _scipy_kernel(_POCKETFFT).dst(a, 1, (0,), 0, a, 1)


class FemSpace:
    """P1 space on the interior nodes of the uniform mesh of [0, length]
    with ``n_elements`` elements of width h = length / n_elements.

    Holds the mesh (``nodes``, ``interior``, ``h``, ``length``; ``n``
    interior nodes), the tridiagonal mass and stiffness matrices as
    sparse CSR (bands h/6 [1, 4, 1] and 1/h [-1, 2, -1], built on first
    use) and the closed-form M-orthonormal eigensystem of
    S v = lambda M v:
    eigenvector i is the discrete sine sin(i pi j / N) scaled by
    c_i = (N/2 mu_i)^(-1/2), where mu_i = h (2 + cos(i pi/N)) / 3 is its
    mass-matrix eigenvalue.
    Eigen transforms are type-I discrete sine transforms, and mass and
    stiffness solves are diagonal between two of them.  The sine basis
    enters only through the alias map (`alias_overlaps`).  Raises
    TypeError unless ``n_elements`` is an integer (numpy's included,
    bool not) and ValueError unless it is at least 2 and ``length`` is
    finite and positive.
    """

    def __init__(self, n_elements: int, length: float = 1.0):
        if isinstance(n_elements, (bool, np.bool_)):
            raise TypeError("n_elements must be an integer, not a bool")
        n_el = operator.index(n_elements)
        if n_el < 2:
            raise ValueError("need at least 2 elements for an interior node")
        length = float(length)
        if not (math.isfinite(length) and length > 0.0):
            raise ValueError(f"length must be finite and positive, "
                             f"got {length}")
        self.length = length
        self.h = h = length / n_el
        self.nodes = np.linspace(0.0, length, n_el + 1)
        self.interior = self.nodes[1:-1]
        self.n = n_el - 1
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
    def mass(self):
        """Tridiagonal mass matrix M as sparse CSR."""
        return _tridiagonal(self.n, 2.0 * self.h / 3.0, self.h / 6.0)

    @cached_property
    def stiffness(self):
        """Tridiagonal stiffness matrix S as sparse CSR."""
        return _tridiagonal(self.n, 2.0 / self.h, -1.0 / self.h)

    # -- linear algebra helpers -------------------------------------------

    def solve_mass(self, b: np.ndarray) -> np.ndarray:
        """M^{-1} b = V V^T b (V^T M V = I); V^T b is a scaled DST-I.
        Unused: kept only because `perfbench/spans.py` patches it by name."""
        vt_b = _dst_in_place(np.array(b, dtype=float))
        return self.from_eigen(_scale_columns(self._from_eigen_scale, vt_b))

    def solve_stiffness(self, b: np.ndarray) -> np.ndarray:
        """S^{-1} b = V Lambda_h^{-1} V^T b.
        Unused: kept only because `perfbench/spans.py` patches it by name."""
        vt_b = _dst_in_place(np.array(b, dtype=float))
        return self.from_eigen(_scale_columns(
            self._from_eigen_scale / self.eigenvalues, vt_b))

    def to_eigen(self, v: np.ndarray) -> np.ndarray:
        """Nodal values -> coefficients in the discrete eigenbasis, V^T M v.

        Accepts a vector or an (n, batch) array of columns.
        """
        out = np.asarray(v, dtype=float).copy()
        return _scale_columns(self._to_eigen_scale, _dst_in_place(out),
                              out=out)

    def from_eigen(self, c: np.ndarray) -> np.ndarray:
        """Eigen coefficients -> nodal values, V c (inverse of to_eigen)."""
        c = np.asarray(c, dtype=float)
        return _dst_in_place(_scale_columns(self._from_eigen_scale, c))

    # -- norms --------------------------------------------------------------

    def l2_norm(self, v: np.ndarray) -> float | np.ndarray:
        """Mass norm sqrt(v^T M v) of a vector, or of each column.

        M v is summed in CSR row order, off v[i-1] + diag v[i], then
        + off v[i+1], so the bits are those of ``self.mass @ v``.
        """
        v = np.asarray(v)
        mv = (2.0 * self.h / 3.0) * v
        mv[1:] += (self.h / 6.0) * v[:-1]
        mv[:-1] += (self.h / 6.0) * v[1:]
        if v.ndim == 1:
            return float(np.sqrt(mv @ v))
        return np.sqrt(np.einsum("ij,ij->j", v, mv))

    # -- coupling to the sine basis ------------------------------------------

    def _hat_integrals(self, basis: SpectralBasis) -> np.ndarray:
        """Per sine mode k, <phi_j, e_k> / sin(w_k x_j) for every hat phi_j.

        On a uniform mesh the hat at node x_j integrates against sin(w x)
        to sin(w x_j) 2 (1 - cos(w h)) / (h w^2).
        """
        if abs(basis.length - self.length) > 1e-12:
            raise ValueError("basis and mesh live on different intervals")
        h = self.h
        w = basis.frequencies
        return (np.sqrt(2.0 / basis.length) * 4.0 * np.sin(0.5 * w * h) ** 2
                / (h * w ** 2))

    def coupling(self, basis: SpectralBasis) -> np.ndarray:
        """Dense C[i, k] = <phi_i, e_k>, closed form, shape (n, k_max).
        Unused: kept only because `perfbench/spans.py` patches it by name."""
        return (np.sin(np.outer(self.interior, basis.frequencies))
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

    def mode_overlap(self, basis: SpectralBasis):
        """B[i, k] = <e_k, e_i^h> (discrete eigenfunction i against sine
        mode k) as sparse CSR, shape (n, k_max), with at most one nonzero
        per column; the coupling is C = M V B."""
        index, overlap = self.alias_overlaps(basis)
        hit = np.flatnonzero(index >= 0)
        return _csr((overlap[hit], index[hit], hit), (self.n, basis.k_max))

    def l2_project(self, basis: SpectralBasis, coeffs: np.ndarray) -> np.ndarray:
        """L2 projection M^{-1} C x of a (truncated) sine expansion: V B x."""
        coeffs = np.asarray(coeffs, dtype=float)
        return self.from_eigen(self.mode_overlap(basis) @ coeffs)


def _csr(entries, shape):
    """Sparse CSR matrix of the COO entries (values, rows, columns)."""
    import scipy.sparse as sp
    vals, rows, cols = entries
    return sp.csr_matrix((vals, (rows, cols)), shape=shape)


def _tridiagonal(n: int, diagonal: float, off: float):
    """Symmetric tridiagonal n x n matrix of constant bands as sparse CSR."""
    import scipy.sparse as sp
    return sp.diags([off, diagonal, off], [-1, 0, 1], shape=(n, n),
                    format="csr")


class L2Comparer:
    """Exact L2 distance between a field on a fine mesh and one on a
    coarse mesh nested in it.

    The coarse element count must divide the fine one's (ValueError
    otherwise), so with r their ratio every coarse element holds r fine
    ones, and a coarse P1 field takes the value (1 - m/r) a + (m/r) b at
    the m-th fine node of a coarse element with end values a and b.  The
    difference of the two fields is then P1 on the fine mesh, and its L2
    norm is the fine mass norm, exact.
    """

    def __init__(self, fine: FemSpace, coarse: FemSpace):
        if abs(fine.length - coarse.length) > 1e-12:
            raise ValueError("meshes live on different intervals")
        ratio, rest = divmod(fine.n + 1, coarse.n + 1)
        if rest:
            raise ValueError(f"a mesh of {coarse.n + 1} elements does not "
                             f"nest in one of {fine.n + 1}")
        self.fine = fine
        self._weights = np.arange(ratio) / ratio

    def distance(self, v_fine: np.ndarray, v_coarse: np.ndarray
                 ) -> float | np.ndarray:
        """L2 distance of the fields (a vector or (n, batch) columns each)."""
        v_coarse = np.asarray(v_coarse, dtype=float)
        columns = v_coarse.shape[1:]
        ends = np.zeros((v_coarse.shape[0] + 2, 1) + columns)
        ends[1:-1, 0] = v_coarse
        w = self._weights.reshape((-1,) + (1,) * len(columns))
        # (coarse element, m, ...) -> fine nodes, less the two ends
        prolonged = (ends[:-1] * (1.0 - w) + ends[1:] * w).reshape(
            (-1,) + columns)[1:]
        if prolonged.shape != np.shape(v_fine):
            raise ValueError("fields do not match the meshes' interior nodes")
        return self.fine.l2_norm(v_fine - prolonged)


# -- operator error norms ----------------------------------------------------

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


def _alias_class_table(index: np.ndarray, n: int, columns) -> np.ndarray:
    """Per-mode arrays laid out by alias class: row i of each output holds
    the entries of the modes that alias to eigen index i (`_mode_alias`),
    in ascending k, zero-padded to the longest class; shape
    (len(columns), n, longest).  Modes that alias to no index are left
    out."""
    hit = np.flatnonzero(index >= 0)
    row = index[hit]
    order = np.argsort(row, kind="stable")
    sizes = np.bincount(row, minlength=n)
    col = np.empty_like(order)
    col[order] = np.arange(order.size) - np.repeat(np.cumsum(sizes) - sizes,
                                                   sizes)
    table = np.zeros((len(columns), n, sizes.max()))
    table[:, row, col] = np.asarray(columns)[:, hit]
    return table


def _largest_singular_value(delta, u, v, gain) -> float:
    """Largest singular value over the blocks diag(delta_i) - g_i u_i v_i^T.

    Row i of the (n, m) arrays ``delta`` (>= 0), ``u`` and ``v`` holds
    block i, padded with zeros (which only adds zero singular values),
    ``gain`` the g_i >= 0.  The eigenvalues of [[0, A], [A^T, 0]] above
    sigma > 0 number, by Haynsworth inertia additivity on the rank-two
    term, #{delta_k > sigma} + pos(G) - 1, with D_k = sigma^2 - delta_k^2
    and the 2 x 2 matrix G = [[g sum u^2 sigma/D, 1 + g sum u v delta/D],
    [., g sum v^2 sigma/D]] (the secular equation of Golub, SIAM Review
    1973).  One bisection on sigma, counting over every block at once,
    runs from max_k |A_kk| / 2 to max delta + g |u| |v| until no double
    lies strictly inside the bracket, and returns its upper end; O(n m)
    work a step, no LAPACK.  The blocks are scaled by a power of two
    (exactly) so the upper end lies in [1/2, 1), and sigma is not resolved
    below 2^-100 of it, far under the roundoff of the blocks' entries, so
    every D_k stays a normal double.  A bracket still open after 200
    steps (more than that range needs) raises RuntimeError.
    """
    g = gain[:, None]
    hi = float((delta.max(axis=1) + gain * np.sqrt(
        (u * u).sum(axis=1) * (v * v).sum(axis=1))).max())
    if not math.isfinite(hi):
        raise ValueError("operator error norm of a non-finite block")
    if hi == 0.0:
        return 0.0
    scale = math.ldexp(1.0, -math.frexp(hi)[1])
    lo = max(0.5 * scale * float(np.abs(delta - g * u * v).max()), 2.0 ** -100)
    # a few doubles of slack over the rounded upper bound
    hi = scale * hi * (1.0 + 2.0 ** -50)
    delta, u = scale * delta, scale * u
    uu, vv, uv = g * u * u, g * v * v, g * u * v * delta
    for _ in range(200):
        sigma = 0.5 * (lo + hi)
        if not lo < sigma < hi:
            return hi / scale
        gap = sigma - delta
        # at sigma = delta_k take the limit from above: the count is
        # right-continuous, so that term steps one double up
        gap[gap == 0.0] = np.spacing(sigma)
        dinv = 1.0 / (gap * (sigma + delta))
        a = sigma * (uu * dinv).sum(axis=1)
        b = sigma * (vv * dinv).sum(axis=1)
        c = 1.0 + (uv * dinv).sum(axis=1)
        # pos(G): one eigenvalue of each sign when det < 0, else both
        # (or, at det = 0, the nonzero one) take the sign of the trace
        det = a * b - c * c
        positive = np.where(det < 0.0, 1, (1 + (det > 0.0)) * (a + b > 0.0))
        if np.count_nonzero(delta > sigma) + (positive - 1).sum() > 0:
            lo = sigma
        else:
            hi = sigma
    raise RuntimeError("operator error norm: bisection did not close")


def _check_operator_pair(s: float, r: float, which: str) -> None:
    """Raise ValueError unless `operator_error_norm` measures (s, r, which)."""
    rules = {"l2": (0.0 <= s <= 1.0 and s <= r <= 2.0,
                    "0 <= s <= 1 and s <= r <= 2"),
             "ritz": (0.0 <= s <= 1.0 <= r <= 2.0, "0 <= s <= 1 <= r <= 2"),
             "semigroup": (s == 0.0 and 0.0 <= r <= 2.0, "s = 0 <= r <= 2")}
    if which not in rules:
        raise ValueError(f"which must be one of {tuple(rules)}")
    valid, rule = rules[which]
    if not valid:
        raise ValueError(f"the {which} error norm needs {rule}, "
                         f"got s = {s:g}, r = {r:g}")


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
    operator is block diagonal over the alias classes (the modes that
    alias to one eigenvector, `_alias_class_table`): on the class of
    eigenvector i, with b its modes' overlaps, the block is
    diag(d) - g_i b b^T diag(rho), weighted by A^{s/2} and A^{-r/2}
    (l2: d = g = rho = 1; ritz: d = 1, g = 1/lambda_h, rho = lambda;
    semigroup, up to sign: d = e^{-lambda t}, g = e^{-lambda_h t}, rho =
    1), and the null class is the diagonal alone.  Each class block is
    thus diag(w_out d w_in) - g (w_out b)(w_in b rho)^T, and one
    bisection over all of them (`_largest_singular_value`) finds the
    norm exact to roundoff, forming no block and calling no LAPACK.
    """
    _check_operator_pair(s, r, which)
    if which == "semigroup" and (t is None or t <= 0.0):
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
    null = index < 0
    norm = float((w_out[null] * d[null] * w_in[null]).max())
    delta, u, v = _alias_class_table(index, space.n, [
        w_out * d * w_in, w_out * overlap, w_in * overlap * rho])
    return max(norm, _largest_singular_value(delta, u, v, gain))
