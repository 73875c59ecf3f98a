"""Dirichlet sine eigenbasis of the negative Laplacian on an interval.

The basis functions e_k(x) = sqrt(2/L) sin(k pi x / L), k = 1..k_max,
diagonalize -d^2/dx^2 with zero boundary values on (0, L); the eigenvalue of
mode k is (k pi / L)^2.  Everything downstream (heat semigroup, fractional
powers, covariance operators) is a multiplier in this basis, so the class
mostly wraps elementwise operations on coefficient vectors plus a composite
Gauss-Legendre projector for black-box functions.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import leggauss


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
        self._norm = np.sqrt(2.0 / self.length)

    def eigenvalue(self, k: int) -> float:
        """Eigenvalue (k pi / L)^2 of mode k (1-indexed)."""
        if not 1 <= k <= self.k_max:
            raise ValueError(f"mode {k} outside 1..{self.k_max}")
        return float(self.eigenvalues[k - 1])

    def _check_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape[0] != self.k_max:
            raise ValueError(
                f"coefficient vector has length {coeffs.shape[0]}, "
                f"basis holds {self.k_max} modes")
        return coeffs

    def evaluate_modes(self, points: np.ndarray,
                       k_stop: int | None = None) -> np.ndarray:
        """Matrix e_k(x_j) of shape (len(points), k_stop)."""
        points = np.asarray(points, dtype=float)
        k_stop = self.k_max if k_stop is None else int(k_stop)
        return self._norm * np.sin(np.outer(points, self.frequencies[:k_stop]))

    def semigroup_apply(self, t: float, coeffs: np.ndarray) -> np.ndarray:
        """Heat semigroup: multiply mode k by exp(-lambda_k t), t >= 0."""
        if t < 0.0:
            raise ValueError("semigroup time must be >= 0")
        coeffs = self._check_coeffs(coeffs)
        return np.exp(-self.eigenvalues * t) * coeffs

    def fractional_power_apply(self, power: float,
                               coeffs: np.ndarray) -> np.ndarray:
        """Apply the fractional operator power: mode k scales by lambda_k^power.

        Negative powers are allowed (the spectrum is strictly positive); they
        smooth instead of roughen.
        """
        coeffs = self._check_coeffs(coeffs)
        return self.eigenvalues ** power * coeffs

    def quadrature_grid(self, panels_per_halfwave: int = 8,
                        nodes_per_panel: int = 5):
        """Composite Gauss-Legendre grid resolving the highest retained mode.

        Mode k_max has k_max half-waves on (0, L); the grid places
        panels_per_halfwave panels on each, so every lower mode is resolved at
        least as well.
        """
        n_panels = panels_per_halfwave * self.k_max
        gl_x, gl_w = leggauss(nodes_per_panel)
        edges = np.linspace(0.0, self.length, n_panels + 1)
        half = 0.5 * (edges[1:] - edges[:-1])
        mid = 0.5 * (edges[1:] + edges[:-1])
        points = (mid[:, None] + half[:, None] * gl_x[None, :]).ravel()
        weights = (half[:, None] * gl_w[None, :]).ravel()
        return points, weights

    def project_function(self, f, panels_per_halfwave: int = 8,
                         nodes_per_panel: int = 5,
                         chunk: int = 64) -> np.ndarray:
        """L2 projection of a callable onto the retained modes.

        Returns the coefficient vector <f, e_k>, k = 1..k_max, computed with
        the composite Gauss-Legendre grid from `quadrature_grid`.  Raises if f
        returns non-finite values or if the Parseval defect
        ||f||^2 - sum_k c_k^2 dips below -1e-8 (it should be a nonnegative
        tail energy up to quadrature error).
        """
        points, weights = self.quadrature_grid(panels_per_halfwave,
                                               nodes_per_panel)
        values = np.asarray(f(points), dtype=float)
        if values.shape != points.shape:
            raise ValueError("f must map the grid elementwise")
        if not np.all(np.isfinite(values)):
            raise ValueError("function returned non-finite values")
        wf = weights * values
        coeffs = np.empty(self.k_max)
        for lo in range(0, self.k_max, chunk):
            hi = min(lo + chunk, self.k_max)
            block = np.sin(np.outer(points, self.frequencies[lo:hi]))
            coeffs[lo:hi] = self._norm * (wf @ block)
        norm_sq = float(weights @ values ** 2)
        defect = norm_sq - float(coeffs @ coeffs)
        if defect < -1e-8:
            raise ArithmeticError(
                f"Parseval defect {defect:.3e} below -1e-8; quadrature "
                "grid does not resolve the retained modes")
        return coeffs
