"""Tests for polynomial drifts, exact flows, the splitting step, and the
tangent process."""

import math

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval
from scipy.fft import dst

from spdefem import (CovarianceSpec, FemSpace, IntegrationError, Integrator,
                     PolynomialDrift, SchemeConfig, SpectralBasis, substream,
                     tangent_integrate)
from spdefem.noise import _JointNoise

from oracles import field_values, semigroup


def rk4_oracle(f, t, x, n_steps):
    """Fixed-step classical RK4, independent of the package stepper."""
    y = np.asarray(x, dtype=float).copy()
    dt = t / n_steps
    for _ in range(n_steps):
        k1 = f(y)
        k2 = f(y + 0.5 * dt * k1)
        k3 = f(y + 0.5 * dt * k2)
        k4 = f(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


class TestDrift:
    def test_allen_cahn_values(self):
        ac = PolynomialDrift.allen_cahn()
        assert ac(2.0) == -6.0
        assert ac(np.array([[0.5], [-1.0]])).tolist() == [[0.375], [0.0]]
        assert ac.one_sided_constant == 1.0
        assert ac.degree == 3

    @pytest.mark.parametrize("coeffs", [(0.0, 1.0, 0.0, -1.0), (2.0, -0.5),
                                        (3.0,)])
    def test_values_keep_the_bits_of_polyval(self, coeffs):
        drift = PolynomialDrift(coeffs)
        x = substream(4, purpose="test").standard_normal((5, 4)) * 3.0
        assert drift(x).tobytes() == polyval(x, drift.coeffs).tobytes()

    def test_one_sided_constant_closed_form_matches_grid_sup(self):
        drift = PolynomialDrift((0.0, 0.5, 0.0, -2.0))
        assert drift.one_sided_constant == 0.5
        grid = np.linspace(-50.0, 50.0, 20001)
        slope = 0.5 - 6.0 * grid ** 2     # f'(x) = a1 + 3 a3 x^2
        assert slope.max() == drift.one_sided_constant

    def test_linear_and_zero_drifts(self):
        assert PolynomialDrift.linear(-2.0).one_sided_constant == -2.0
        zero = PolynomialDrift.zero()
        assert zero.one_sided_constant == 0.0
        assert np.all(zero(np.linspace(-3, 3, 7)) == 0.0)

    def test_coefficients_are_plain_floats(self):
        drift = PolynomialDrift.linear(1e5)
        assert repr(drift) == "PolynomialDrift(coeffs=(0.0, 100000.0))"
        assert all(type(c) is float for c in drift.coeffs)
        assert type(drift.one_sided_constant) is float

    def test_trailing_zeros_trimmed(self):
        drift = PolynomialDrift((0.0, 1.0, 0.0, 0.0))
        assert drift.degree == 1
        assert drift.coeffs == (0.0, 1.0)

    @pytest.mark.parametrize("coeffs", [
        (0.0, 1.0, 2.0),            # quadratic: derivative unbounded above
        (0.0, 1.0, 0.0, 0.0, -1.0),  # quartic
        (0.0, 1.0, 0.0, 1.0),       # positive cubic
        (0.0,) * 6,                 # degree bound
        (1.0, 0.5, 0.3, -1.0),      # cubics without a closed-form flow
        (0.5, 1.0, 0.0, -1.0),
        (0.0, 1.0, 0.3, -1.0),
    ])
    def test_inadmissible_rejected(self, coeffs):
        if len(coeffs) >= 6:
            coeffs = (0.0, 0.0, 0.0, 0.0, 0.0, -1.0)
        with pytest.raises(ValueError) as refusal:
            PolynomialDrift(coeffs)
        if len(coeffs) == 4 and coeffs[3] < 0.0:
            # a negative cubic is refused for its flow, naming the rule
            assert (f"a0 = a2 = 0, got coefficients {list(coeffs)}"
                    in str(refusal.value))


class TestFlow:
    def test_fixed_points(self):
        ac = PolynomialDrift.allen_cahn()
        for t in (0.1, 1.0, 3.0):
            out = ac.flow(t, np.array([-1.0, 0.0, 1.0]))
            assert np.allclose(out, [-1.0, 0.0, 1.0], atol=1e-15)

    def test_closed_form_value(self):
        ac = PolynomialDrift.allen_cahn()
        expected = 2.0 * math.e / math.sqrt(1.0 + 4.0 * (math.e ** 2 - 1.0))
        assert ac.flow(1.0, 2.0) == pytest.approx(expected, rel=1e-14)

    def test_closed_form_matches_rk4_oracle(self):
        ac = PolynomialDrift.allen_cahn()
        grid = np.linspace(-10.0, 10.0, 41)
        for t in (0.1, 0.5):
            oracle = rk4_oracle(ac, t, grid, int(t / 1e-5))
            assert np.abs(ac.flow(t, grid) - oracle).max() < 1e-9

    def test_derivative_bound_and_positivity(self):
        ac = PolynomialDrift.allen_cahn()
        grid = np.linspace(-10.0, 10.0, 81)
        for t in (0.01, 0.1, 0.5, 1.0):
            _, deriv = ac.flow_with_derivative(t, grid)
            assert deriv.min() >= 0.0
            assert deriv.max() <= math.exp(ac.one_sided_constant * t) * (1 + 1e-6)

    def test_derivative_matches_finite_difference(self):
        ac = PolynomialDrift.allen_cahn()
        grid = np.linspace(-5.0, 5.0, 21)
        _, deriv = ac.flow_with_derivative(0.7, grid)
        eps = 1e-6
        fd = (ac.flow(0.7, grid + eps) - ac.flow(0.7, grid - eps)) / (2 * eps)
        assert np.abs(deriv - fd).max() < 1e-7

    def test_growth_bound(self):
        ac = PolynomialDrift.allen_cahn()
        grid = np.linspace(-10.0, 10.0, 81)
        for t in (0.05, 0.5, 2.0):
            ratio = np.abs(ac.flow(t, grid)) / (1.0 + np.abs(grid))
            assert ratio.max() <= 1.0

    @pytest.mark.parametrize("coeffs", [(0.0, 1.0, 0.0, -1.0), (2.0, -0.5)])
    def test_value_alone_matches_value_with_derivative(self, coeffs):
        # closed-form cubic and affine
        drift = PolynomialDrift(coeffs)
        grid = np.linspace(-3.0, 3.0, 12).reshape(4, 3)
        for t in (0.0, 0.1):
            assert np.array_equal(drift.flow(t, grid),
                                  drift.flow_with_derivative(t, grid)[0])

    @pytest.mark.parametrize("coeffs", [(0.0, 1.0, 0.0, -1.0), (2.0, -0.5)])
    def test_flow_into_buffers_keeps_the_bits(self, coeffs):
        # closed-form cubic and affine
        drift = PolynomialDrift(coeffs)
        grid = np.linspace(-3.0, 3.0, 12).reshape(4, 3)
        for t in (0.0, 0.1):
            out, scratch = np.full_like(grid, np.nan), np.empty_like(grid)
            got = drift.flow(t, grid, out=out, scratch=scratch)
            assert got is out
            assert got.tobytes() == drift.flow(t, grid).tobytes()
            assert np.array_equal(grid, np.linspace(-3.0, 3.0, 12)
                                  .reshape(4, 3))

    def test_cubic_flow_keeps_its_rounding_order(self):
        # x e^{a1 t} (1 - a3 g x^2)^{-1/2}, evaluated left to right
        drift = PolynomialDrift.allen_cahn()
        x = substream(3, purpose="test").standard_normal((5, 4)) * 3.0
        t = 2.0 ** -7
        g = math.expm1(2.0 * t)
        expected = x * math.exp(t) * (1.0 / np.sqrt(1.0 - -1.0 * g * x * x))
        assert drift.flow(t, x).tobytes() == expected.tobytes()

    def test_affine_flow(self):
        drift = PolynomialDrift((2.0, -0.5))
        t, x = 0.8, 1.5
        expected = x * math.exp(-0.5 * t) + 2.0 * math.expm1(-0.5 * t) / -0.5
        assert drift.flow(t, x) == pytest.approx(expected, rel=1e-14)
        constant = PolynomialDrift((3.0,))
        assert constant.flow(0.25, 1.0) == pytest.approx(1.75, rel=1e-15)

    def test_boundaries(self):
        ac = PolynomialDrift.allen_cahn()
        x = np.array([0.3, -2.0])
        out, deriv = ac.flow_with_derivative(0.0, x)
        assert np.array_equal(out, x) and np.all(deriv == 1.0)
        with pytest.raises(ValueError):
            ac.flow(-0.1, 1.0)
        # dissipativity: huge initial values relax instead of overflowing
        assert abs(ac.flow(5.0, 1e3)) <= 1e3


@pytest.fixture(scope="module")
def small_setup():
    space = FemSpace(16)
    basis = SpectralBasis(k_max=128)
    cov = CovarianceSpec.power_decay(2.0, k_trunc=128)
    return space, basis, cov


class TestSchemes:
    def test_splitting_exact_for_linear_drift(self):
        # For f(x) = -x the flow commutes with the semigroup, so the
        # splitting integrates dX = -(A + 1)X dt without error.
        space = FemSpace(64)
        x0 = np.sin(np.pi * space.interior)
        cfg = SchemeConfig(dt=0.125, n_steps=8)
        out = Integrator(space, PolynomialDrift.linear(-1.0), cfg).run(x0)
        exact = space.from_eigen(
            np.exp(-(space.eigenvalues + 1.0)) * space.to_eigen(x0))
        assert np.abs(out - exact).max() < 1e-12

    def test_zero_drift_reduces_to_semigroup(self, small_setup):
        space, _, _ = small_setup
        x0 = np.sin(np.pi * space.interior)
        cfg = SchemeConfig(dt=0.25, n_steps=1)
        out = Integrator(space, PolynomialDrift.zero(), cfg).step(x0)
        assert np.abs(out - semigroup(space, 0.25, x0)).max() < 1e-13

    def test_splitting_with_operator_removed_is_nodewise_flow(self, small_setup):
        # emulate a zero operator by forcing unit decay factors into the
        # eigen-side scale a step applies
        space, _, _ = small_setup
        ac = PolynomialDrift.allen_cahn()
        cfg = SchemeConfig(dt=0.25, n_steps=1)
        integ = Integrator(space, ac, cfg)
        integ._eigen_side = space._to_eigen_scale.copy()
        x0 = np.sin(np.pi * space.interior) * 1.3
        out = integ.step(x0)
        assert np.abs(out - ac.flow(0.25, x0)).max() < 1e-12

    def test_batched_columns_evolve_independently(self, small_setup):
        space, _, _ = small_setup
        ac = PolynomialDrift.allen_cahn()
        cfg = SchemeConfig(dt=0.125, n_steps=4)
        cols = substream(6, purpose="test").standard_normal((space.n, 3))
        batch = Integrator(space, ac, cfg).run(cols)
        for j in range(3):
            single = Integrator(space, ac, cfg).run(cols[:, j])
            assert np.abs(batch[:, j] - single).max() < 1e-13

    def test_supplied_eigen_noise_matches_internal_draw(self, small_setup):
        space, basis, cov = small_setup
        ac = PolynomialDrift.allen_cahn()
        cfg = SchemeConfig(dt=0.125, n_steps=1)
        integ = Integrator(space, ac, cfg, covariance=cov, basis=basis)
        x0 = np.sin(np.pi * space.interior)
        internal = integ.step(x0, substream(7, purpose="test"))
        noise = integ._noise.product(
            substream(7, purpose="test").standard_normal(space.n))
        external = integ.step_with_eigen_noise(x0, noise)
        assert np.array_equal(internal, external)

    @pytest.mark.parametrize("shape", [(15,), (15, 4)])
    def test_step_into_buffers_keeps_the_bits(self, small_setup, shape):
        space, _, _ = small_setup
        integ = Integrator(space, PolynomialDrift.allen_cahn(),
                           SchemeConfig(dt=2.0 ** -5, n_steps=1))
        gen = substream(9, purpose="test")
        state = 2.0 * gen.standard_normal(shape)
        noise = 0.1 * gen.standard_normal(shape)
        before = state.copy(), noise.copy()
        out, scratch = np.full(shape, np.nan), np.empty(shape)
        got = integ.step_with_eigen_noise(state, noise, out=out,
                                          scratch=scratch)
        assert got is out
        assert got.tobytes() == integ.step_with_eigen_noise(
            state, noise).tobytes()
        assert np.array_equal(state, before[0])
        assert np.array_equal(noise, before[1])
        # the step's operation order: DST-I, one scale by the to-eigen
        # scale times the decay, the increment, the from-eigen scale,
        # DST-I back
        column = (slice(None),) + (None,) * (len(shape) - 1)
        flowed = integ.drift.flow(integ.dt, state)
        eigen_side = (space._to_eigen_scale * integ._decay)[column]
        coeffs = eigen_side * dst(flowed, type=1, axis=0) + noise
        expected = dst(space._from_eigen_scale[column] * coeffs, type=1,
                       axis=0)
        assert got.tobytes() == expected.tobytes()
        # and, to rounding, the three passes of the eigen transforms: the
        # to-eigen scale, then the decay, then the increment
        coeffs = space._to_eigen_scale[column] * dst(flowed, type=1, axis=0)
        coeffs = integ._decay[column] * coeffs + noise
        three_pass = dst(space._from_eigen_scale[column] * coeffs, type=1,
                         axis=0)
        assert np.abs(got - three_pass).max() \
            <= 1e-14 * np.abs(three_pass).max()

    def test_batched_steps_draw_factor_times_normals(self, small_setup):
        # every stochastic step draws factor @ normals from the generator,
        # in order, so feeding the same draws by hand repeats it bit for bit
        space, basis, cov = small_setup
        ac = PolynomialDrift.allen_cahn()
        integ = Integrator(space, ac, SchemeConfig(dt=2.0 ** -5, n_steps=4),
                           covariance=cov, basis=basis)
        x0 = np.tile(np.sin(np.pi * space.interior)[:, None], (1, 3))
        internal = integ.run(x0, substream(8, purpose="test"))
        gen = substream(8, purpose="test")
        external = x0
        for _ in range(4):
            noise = integ._noise.product(gen.standard_normal((space.n, 3)))
            external = integ.step_with_eigen_noise(external, noise)
        assert np.array_equal(internal, external)

    @pytest.mark.parametrize("shape", [(15,), (15, 4)])
    def test_step_increment_is_the_joint_noise_product(self, small_setup,
                                                       shape):
        # the one-mesh Integrator draws through a _JointNoise of its own
        # step: its increment is that object's product of the same normals
        space, basis, cov = small_setup
        integ = Integrator(space, PolynomialDrift.allen_cahn(),
                           SchemeConfig(dt=2.0 ** -5, n_steps=1),
                           covariance=cov, basis=basis)
        state = substream(11, purpose="test").standard_normal(shape)
        internal = integ.step(state, substream(12, purpose="test"))
        joint = _JointNoise([space], basis, cov, 2.0 ** -5)
        increment = joint.product(
            substream(12, purpose="test").standard_normal(shape))
        assert increment.shape == shape
        external = integ.step_with_eigen_noise(state, increment)
        assert internal.tobytes() == external.tobytes()

    def test_configuration_validation(self, small_setup):
        space, basis, cov = small_setup
        ac = PolynomialDrift.allen_cahn()
        with pytest.raises(ValueError):
            SchemeConfig(0.0, 4)
        with pytest.raises(ValueError):
            SchemeConfig(0.1, -1)
        with pytest.raises(ValueError, match="basis"):
            Integrator(space, ac, SchemeConfig(0.1, 1), covariance=cov)
        stoch = Integrator(space, ac, SchemeConfig(0.1, 1),
                           covariance=cov, basis=basis)
        with pytest.raises(ValueError, match="generator"):
            stoch.step(np.zeros(space.n))


class TestIntegrate:
    def test_zero_steps_returns_initial_state(self, small_setup):
        space, _, _ = small_setup
        x0 = np.sin(np.pi * space.interior)
        cfg = SchemeConfig(dt=0.1, n_steps=0)
        out = Integrator(space, PolynomialDrift.allen_cahn(), cfg).run(x0)
        assert np.array_equal(out, x0)
        assert out is not x0

    def test_linear_deterministic_case_is_exact(self, small_setup):
        space, _, _ = small_setup
        x0 = np.sin(np.pi * space.interior) \
            + 0.25 * np.sin(3 * np.pi * space.interior)
        cfg = SchemeConfig(dt=0.0625, n_steps=16)
        out = Integrator(space, PolynomialDrift.zero(), cfg).run(x0)
        assert np.abs(out - semigroup(space, 1.0, x0)).max() < 1e-10

    def test_bistable_plateaus_match_sine_collocation_reference(self):
        # Domain longer than the bifurcation length pi, so sign-indefinite
        # data settles onto +-1 plateaus with an interface in the middle.
        # The reference is an independent pseudospectral integration.
        length, n_modes = 10.0, 127
        grid = np.arange(1, n_modes + 1) * length / (n_modes + 1)
        lam = (np.arange(1, n_modes + 1) * np.pi / length) ** 2

        def to_sine(u):
            return dst(u, type=1) / (n_modes + 1)

        def from_sine(c):
            return dst(c, type=1) / 2.0

        def rhs(c):
            u = from_sine(c)
            return -lam * c + to_sine(u - u ** 3)

        coeffs = to_sine(np.sin(2 * np.pi * grid / length))
        dt_ref = 2e-4
        for _ in range(round(4.0 / dt_ref)):
            k1 = rhs(coeffs)
            k2 = rhs(coeffs + 0.5 * dt_ref * k1)
            k3 = rhs(coeffs + 0.5 * dt_ref * k2)
            k4 = rhs(coeffs + dt_ref * k3)
            coeffs = coeffs + (dt_ref / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        reference = from_sine(coeffs)

        space = FemSpace(128, length=length)
        ac = PolynomialDrift.allen_cahn()
        x0 = np.sin(2 * np.pi * space.interior / length)
        cfg = SchemeConfig(2.0 ** -10, 4 * 2 ** 10)
        out = Integrator(space, ac, cfg).run(x0)

        assert np.abs(field_values(space, out, grid) - reference).max() < 2e-3
        assert np.abs(out).max() <= 1.0 + 1e-9
        left = field_values(space, out, np.array([2.5]))[0]
        right = field_values(space, out, np.array([7.5]))[0]
        assert 0.8 < left < 1.0 and -1.0 < right < -0.8

    def test_overflow_reports_step_index(self, small_setup):
        space, _, _ = small_setup
        # the flow's growth e^{40 dt} beats the first mode's decay
        # e^{-lambda_1 dt}, so the state blows through the 1e6 guard
        # partway into the run
        drift = PolynomialDrift.linear(40.0)
        x0 = 1e3 * np.sin(np.pi * space.interior)
        cfg = SchemeConfig(dt=0.125, n_steps=32)
        with pytest.raises(IntegrationError, match="overflow at step"):
            Integrator(space, drift, cfg).run(x0)
        try:
            Integrator(space, drift, cfg).run(x0)
        except IntegrationError as err:
            assert 0 < err.step < 32

    def test_checkpoints_cover_every_step(self, small_setup):
        space, basis, cov = small_setup
        cfg = SchemeConfig(dt=0.1, n_steps=5)
        integ = Integrator(space, PolynomialDrift.allen_cahn(), cfg,
                           covariance=cov, basis=basis)
        x0 = np.sin(np.pi * space.interior)
        final, ckpts = integ.run(x0, substream(8, purpose="test"),
                                 keep_checkpoints=True)
        assert len(ckpts) == 6
        assert np.array_equal(ckpts[0], x0)
        assert np.array_equal(ckpts[-1], final)


class TestTangent:
    def test_zero_drift_tangent_is_semigroup(self, small_setup):
        space, basis, cov = small_setup
        cfg = SchemeConfig(dt=0.125, n_steps=8)
        integ = Integrator(space, PolynomialDrift.zero(), cfg,
                           covariance=cov, basis=basis)
        _, ckpts = integ.run(np.zeros(space.n), substream(9, purpose="test"),
                             keep_checkpoints=True)
        y = np.sin(2 * np.pi * space.interior)
        eta = tangent_integrate(integ, ckpts, 0, y)
        assert np.abs(eta - semigroup(space, 1.0, y)).max() < 1e-12

    def test_zero_direction_stays_zero(self, small_setup):
        space, basis, cov = small_setup
        cfg = SchemeConfig(dt=0.125, n_steps=4)
        integ = Integrator(space, PolynomialDrift.allen_cahn(), cfg,
                           covariance=cov, basis=basis)
        _, ckpts = integ.run(np.sin(np.pi * space.interior),
                             substream(10, purpose="test"),
                             keep_checkpoints=True)
        eta = tangent_integrate(integ, ckpts, 0, np.zeros(space.n))
        assert np.all(eta == 0.0)

    def test_finite_difference_agreement(self, small_setup):
        # perturbing the initial state both ways and rerunning with the
        # same noise reproduces the tangent to the central quotient's own
        # O(eps^2) error (measured at most 1.1e-8 at eps=1e-5; a one-sided
        # quotient's O(eps) error reached 1.4e-4 on one of these paths)
        space, basis, cov = small_setup
        cfg = SchemeConfig(dt=2.0 ** -6, n_steps=16)
        integ = Integrator(space, PolynomialDrift.allen_cahn(), cfg,
                           covariance=cov, basis=basis)
        eps = 1e-5
        for seed in range(3):
            gen = substream(seed, purpose="tangent-dir")
            x0 = 0.8 * np.sin(np.pi * space.interior) \
                + 0.2 * gen.standard_normal(space.n)
            y = gen.standard_normal(space.n)
            y /= space.l2_norm(y)
            _, ckpts = integ.run(x0, substream(seed, purpose="tangent"),
                                 keep_checkpoints=True)
            eta = tangent_integrate(integ, ckpts, 0, y)
            up, down = (integ.run(x0 + sign * eps * y,
                                  substream(seed, purpose="tangent"))
                        for sign in (1.0, -1.0))
            rel = space.l2_norm((up - down) / (2.0 * eps) - eta) \
                / space.l2_norm(eta)
            assert rel < 1e-6

    def test_partial_start_matches_restarted_run(self, small_setup):
        # starting the tangent midway only propagates the remaining steps
        space, basis, cov = small_setup
        cfg = SchemeConfig(dt=0.125, n_steps=4)
        integ = Integrator(space, PolynomialDrift.zero(), cfg,
                           covariance=cov, basis=basis)
        _, ckpts = integ.run(np.zeros(space.n), substream(11, purpose="test"),
                             keep_checkpoints=True)
        y = np.sin(np.pi * space.interior)
        eta = tangent_integrate(integ, ckpts, 2, y)
        assert np.abs(eta - semigroup(space, 0.25, y)).max() < 1e-12

    def test_checkpoint_validation(self, small_setup):
        space, basis, cov = small_setup
        cfg = SchemeConfig(dt=0.125, n_steps=4)
        integ = Integrator(space, PolynomialDrift.allen_cahn(), cfg,
                           covariance=cov, basis=basis)
        _, ckpts = integ.run(np.zeros(space.n), substream(12, purpose="test"),
                             keep_checkpoints=True)
        with pytest.raises(ValueError, match="checkpointed at every"):
            tangent_integrate(integ, ckpts[:-1], 0, np.zeros(space.n))
        with pytest.raises(ValueError, match="start step"):
            tangent_integrate(integ, ckpts, 9, np.zeros(space.n))
