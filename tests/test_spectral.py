"""Tests for the Dirichlet sine basis: eigenvalues and the closed-form
sine coefficients the finite element tests use as an oracle."""

import numpy as np
import pytest
import sympy

from spdefem import SpectralBasis

from oracles import parabola_coefficients


def sine_coefficient_oracle(expr_factory, length, k):
    """Symbolic <f, e_k> on (0, length) via sympy (independent of the package)."""
    xi = sympy.Symbol("xi", positive=True)
    L = sympy.Rational(length) if float(length).is_integer() else sympy.pi
    f = expr_factory(xi, L)
    integral = sympy.integrate(
        f * sympy.sqrt(2 / L) * sympy.sin(k * sympy.pi * xi / L), (xi, 0, L))
    return float(sympy.simplify(integral))


class TestEigenvalues:
    def test_first_eigenvalue_unit_interval(self):
        basis = SpectralBasis(k_max=4, length=1.0)
        assert basis.eigenvalues[0] == pytest.approx(np.pi ** 2, rel=1e-14)

    def test_second_eigenvalue_pi_interval(self):
        basis = SpectralBasis(k_max=4, length=np.pi)
        assert basis.eigenvalues[1] == pytest.approx(4.0, rel=1e-14)


class TestProjection:
    @pytest.mark.parametrize("length", [1.0, np.pi])
    def test_parabola_coefficients_match_symbolic_oracle(self, length):
        # sympy integral of xi (L - xi) against each mode, checking the
        # closed form sqrt(2/L) 4 L^3 / (k pi)^3 (odd k; even modes vanish)
        coeffs = parabola_coefficients(SpectralBasis(k_max=32, length=length))
        for k in range(1, 7):
            expected = sine_coefficient_oracle(
                lambda xi, L: xi * (L - xi), length, k)
            assert coeffs[k - 1] == pytest.approx(expected, abs=1e-14)


class TestValidation:
    def test_bad_constructor_args(self):
        with pytest.raises(ValueError):
            SpectralBasis(k_max=0)
        with pytest.raises(ValueError):
            SpectralBasis(k_max=4, length=-1.0)
