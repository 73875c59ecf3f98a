"""Test-side reference formulas: nodal field evaluation, the discrete heat
semigroup and the sine coefficients of a parabola."""

import numpy as np


def field_values(space, v, points):
    """Evaluate a nodal field (zero at the ends) at arbitrary points."""
    padded = np.zeros(space.n + 2)
    padded[1:-1] = v
    return np.interp(points, space.mesh.nodes, padded)


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
