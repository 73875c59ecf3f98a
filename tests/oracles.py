"""Test-side reference formulas: nodal field evaluation, the L2 distance
of fields on two meshes by Simpson's rule on their union, the discrete
heat semigroup, the sine coefficients of a parabola, the operator error
norm by a dense SVD per alias class, and the nested Cholesky factor by
scalar loops."""

import numpy as np
import scipy.sparse as sp


def field_values(space, v, points):
    """Evaluate a nodal field (zero at the ends) at arbitrary points."""
    padded = np.zeros(space.n + 2)
    padded[1:-1] = v
    return np.interp(points, space.nodes, padded)


def union_knot_distance(space_a, space_b, va, vb):
    """L2 distance between a field on each of two meshes of one interval,
    nested or not.  The difference is linear on every element of the
    union mesh, so its square is quadratic there and Simpson's rule on
    each union element is exact.  ``va``, ``vb`` are vectors, or (n, batch)
    columns with one distance per column."""
    if np.ndim(va) == 2:
        return np.array([union_knot_distance(space_a, space_b, a, b)
                         for a, b in zip(va.T, vb.T)])
    knots = np.union1d(space_a.nodes, space_b.nodes)
    points = np.sort(np.concatenate([knots, 0.5 * (knots[:-1] + knots[1:])]))
    el = np.diff(knots)
    weights = np.zeros(points.size)
    weights[0:-1:2] += el / 6.0
    weights[1::2] += 4.0 * el / 6.0
    weights[2::2] += el / 6.0
    diff = field_values(space_a, va, points) - field_values(space_b, vb, points)
    return float(np.sqrt(weights @ diff ** 2))


def semigroup(space, t, v):
    """Discrete heat semigroup exp(-t M^{-1} S) v of a nodal vector."""
    return space.from_eigen(np.exp(-space.eigenvalues * t)
                            * space.to_eigen(v))


def parabola_coefficients(basis):
    """Sine coefficients <x (L - x), e_k>, k = 1..k_max, in closed form:
    sqrt(2/L) 4 L^3 / (k pi)^3 for odd k, 0 for even k."""
    k, length = basis.modes, basis.length
    return np.where(k % 2 == 1, np.sqrt(2.0 / length) * 4.0 * length ** 3
                    / (k * np.pi) ** 3, 0.0)


def alias_class_svd_norm(space, basis, s=0.0, r=0.0, which="l2", t=None):
    """`operator_error_norm` block by block: group the sine modes by their
    eigen index, form each alias class's dense weighted block and take its
    2-norm by SVD; the null class (modes vanishing at every node) is the
    diagonal alone."""
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
    order = np.argsort(index, kind="stable")
    sizes = np.bincount(index + 1, minlength=space.n + 1)
    null, *classes = np.split(order, np.cumsum(sizes)[:-1])
    norm = float((w_out[null] * d[null] * w_in[null]).max())
    for g, idx in zip(gain, classes):
        b = overlap[idx]
        block = np.diag(d[idx]) - g * np.outer(b, b * rho[idx])
        block *= w_out[idx, None] * w_in[None, idx]
        norm = max(norm, float(np.linalg.norm(block, 2)))
    return norm


def nested_cholesky(cov, up):
    """`noise._nested_cholesky` one scalar at a time: within each block,
    pivots, factor entries and the Schur updates of the ancestors go in
    ascending index j, every product and difference a single float
    operation.  Returns the same (CSR factor, jitter)."""
    sizes = [row[a].size for a, row in enumerate(cov)]
    starts = np.cumsum([0] + sizes)
    dim = int(starts[-1])
    trace = float(np.concatenate([row[a] for a, row in enumerate(cov)]).sum())
    if trace == 0.0:
        return sp.csr_matrix((dim, dim)), 0.0
    for jitter in [0.0] + [1e-16 * trace * 4.0 ** i for i in range(4)]:
        schur = [[None if x is None else [float(e) for e in x] for x in row]
                 for row in cov]
        factor = np.zeros((dim, dim))
        for a, size in enumerate(sizes):
            if not all(jitter + p > 0.0 for p in schur[a][a]):
                break
            later = range(a + 1, len(sizes))
            for j in range(size):
                root = float(np.sqrt(jitter + schur[a][a][j]))
                factor[starts[a] + j, starts[a] + j] = root
                low = {b: schur[a][b][j] / root for b in later}
                for b in later:
                    if up[a][b][j] < 0:
                        continue
                    factor[starts[b] + up[a][b][j], starts[a] + j] = low[b]
                    for c in range(b, len(sizes)):
                        if up[a][c][j] >= 0:
                            schur[b][c][up[a][b][j]] -= low[c] * low[b]
        else:
            return sp.csr_matrix(factor), jitter
    raise np.linalg.LinAlgError("step covariance not PSD")
