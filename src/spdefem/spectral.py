"""Dirichlet sine eigenbasis of the negative Laplacian on an interval.

The basis functions e_k(x) = sqrt(2/L) sin(k pi x / L), k = 1..k_max,
diagonalize -d^2/dx^2 with zero boundary values on (0, L); the eigenvalue of
mode k is (k pi / L)^2.  Everything downstream (heat semigroup, fractional
powers, covariance operators) is a multiplier in this basis, so the class
holds only the retained modes with their frequencies and eigenvalues; the
finite element space reaches it through the nodal alias map.
"""

from __future__ import annotations

import numpy as np


class SpectralBasis:
    """Truncated Dirichlet eigenbasis on (0, length).

    Parameters
    ----------
    k_max : int
        Number of retained modes (k = 1..k_max).
    length : float
        Interval length L > 0.
    """

    def __init__(self, k_max: int = 4096, length: float = 1.0):
        if k_max < 1:
            raise ValueError("k_max must be >= 1")
        if not (length > 0.0 and np.isfinite(length)):
            raise ValueError("length must be positive and finite")
        self.k_max = int(k_max)
        self.length = float(length)
        self.modes = np.arange(1, self.k_max + 1)
        self.frequencies = self.modes * np.pi / self.length
        self.eigenvalues = self.frequencies ** 2
