"""Tests for the Dirichlet sine basis: eigenvalues, projection, semigroup."""

import numpy as np
import pytest
import sympy

from spdefem import SpectralBasis
from spdefem.rng import substream


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
        assert basis.eigenvalue(1) == pytest.approx(np.pi ** 2, rel=1e-14)

    def test_second_eigenvalue_pi_interval(self):
        basis = SpectralBasis(k_max=4, length=np.pi)
        assert basis.eigenvalue(2) == pytest.approx(4.0, rel=1e-14)

    def test_mode_range_validated(self):
        basis = SpectralBasis(k_max=4)
        with pytest.raises(ValueError):
            basis.eigenvalue(0)
        with pytest.raises(ValueError):
            basis.eigenvalue(5)


class TestProjection:
    @pytest.mark.parametrize("length", [1.0, np.pi])
    def test_parabola_coefficients_match_symbolic_oracle(self, length):
        # Oracle first: sympy integral of xi (L - xi) against each mode.
        # Odd modes follow sqrt(2/L) * 4 L^3 / (k pi)^3, even modes vanish.
        basis = SpectralBasis(k_max=32, length=length)
        coeffs = basis.project_function(lambda x: x * (length - x))
        for k in range(1, 7):
            expected = sine_coefficient_oracle(
                lambda xi, L: xi * (L - xi), length, k)
            closed_form = (np.sqrt(2.0 / length) * 4.0 * length ** 3
                           / (k * np.pi) ** 3 if k % 2 == 1 else 0.0)
            assert expected == pytest.approx(closed_form, abs=1e-14)
            assert coeffs[k - 1] == pytest.approx(expected, abs=1e-12)

    def test_single_mode_roundtrip(self):
        basis = SpectralBasis(k_max=16)
        target = np.zeros(16)
        target[2] = 1.0
        coeffs = basis.project_function(
            lambda x: np.sqrt(2.0) * np.sin(3 * np.pi * x))
        assert np.abs(coeffs - target).max() < 1e-12

    def test_mode_orthonormality_on_quadrature_grid(self):
        basis = SpectralBasis(k_max=64)
        points, weights = basis.quadrature_grid()
        modes = basis.evaluate_modes(points, k_stop=8)
        gram = modes.T @ (weights[:, None] * modes)
        assert np.abs(gram - np.eye(8)).max() < 1e-8

    def test_parseval_defect_is_small_nonnegative_tail(self):
        basis = SpectralBasis(k_max=64)
        coeffs = basis.project_function(lambda x: x * (1.0 - x))
        points, weights = basis.quadrature_grid()
        f2 = weights @ (points * (1.0 - points)) ** 2
        defect = f2 - coeffs @ coeffs
        assert defect >= -1e-8
        # tail of sum 32 L^3/(k pi)^6 over odd k > 64
        assert defect < 1e-9

    def test_nonfinite_function_rejected(self):
        basis = SpectralBasis(k_max=8)
        with pytest.raises(ValueError, match="non-finite"):
            basis.project_function(lambda x: np.where(x > 0.5, np.nan, x))

    def test_mode_sum_inverts_projection(self):
        basis = SpectralBasis(k_max=256)
        coeffs = basis.project_function(lambda x: x * (1.0 - x))
        pts = np.linspace(0.05, 0.95, 11)
        vals = basis.evaluate_modes(pts) @ coeffs
        assert np.abs(vals - pts * (1.0 - pts)).max() < 1e-6


class TestSemigroup:
    def test_identity_at_time_zero(self):
        basis = SpectralBasis(k_max=8)
        x = substream(1, purpose="test").standard_normal(8)
        assert np.array_equal(basis.semigroup_apply(0.0, x), x)

    def test_negative_time_rejected(self):
        basis = SpectralBasis(k_max=8)
        with pytest.raises(ValueError):
            basis.semigroup_apply(-0.1, np.zeros(8))

    def test_contraction_and_monotone_decay(self):
        basis = SpectralBasis(k_max=32)
        x = substream(2, purpose="test").standard_normal(32)
        prev = np.abs(x)
        for t in [0.01, 0.1, 1.0, 10.0]:
            cur = np.abs(basis.semigroup_apply(t, x))
            assert np.linalg.norm(cur) <= np.linalg.norm(x) + 1e-15
            assert np.all(cur <= prev + 1e-300)
            prev = cur
        assert np.linalg.norm(prev) < 1e-8 * np.linalg.norm(x)

    def test_semigroup_property(self):
        basis = SpectralBasis(k_max=16)
        x = substream(3, purpose="test").standard_normal(16)
        once = basis.semigroup_apply(0.7, x)
        twice = basis.semigroup_apply(0.3, basis.semigroup_apply(0.4, x))
        assert np.abs(once - twice).max() < 1e-12

    @pytest.mark.parametrize("gamma", [0.25, 0.5, 0.75])
    def test_smoothing_decay_rate(self, gamma):
        # sup_s s^gamma e^{-s} = (gamma/e)^gamma bounds the multiplier.
        basis = SpectralBasis(k_max=128)
        x = np.ones(128) / np.sqrt(128.0)
        bound = (gamma / np.e) ** gamma
        for t in [2.0 ** -j for j in range(0, 13)]:
            y = basis.fractional_power_apply(gamma, basis.semigroup_apply(t, x))
            assert np.linalg.norm(y) * t ** gamma <= bound + 1e-12


class TestFractionalPowers:
    def test_signed_roundtrip(self):
        basis = SpectralBasis(k_max=32)
        x = substream(4, purpose="test").standard_normal(32)
        y = basis.fractional_power_apply(
            -0.75, basis.fractional_power_apply(0.75, x))
        assert np.abs(y - x).max() < 1e-12

    def test_half_power_squares_to_operator(self):
        basis = SpectralBasis(k_max=16)
        x = substream(5, purpose="test").standard_normal(16)
        twice = basis.fractional_power_apply(
            0.5, basis.fractional_power_apply(0.5, x))
        assert np.abs(twice - basis.eigenvalues * x).max() < 1e-9


class TestValidation:
    def test_coefficient_length_checked(self):
        basis = SpectralBasis(k_max=8)
        with pytest.raises(ValueError, match="length"):
            basis.semigroup_apply(1.0, np.zeros(7))

    def test_bad_constructor_args(self):
        with pytest.raises(ValueError):
            SpectralBasis(k_max=0)
        with pytest.raises(ValueError):
            SpectralBasis(k_max=4, length=-1.0)
