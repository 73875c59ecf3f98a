"""Tests for covariance specs and the exact convolution sampler."""

import numpy as np
import pytest
import scipy.sparse as sparse
import sympy as sp

from spdefem import (FemSpace, Integrator, PolynomialDrift, SchemeConfig,
                     SpectralBasis, uniform_mesh)
from spdefem.noise import (CovarianceSpec, _joint_factor,
                           _regularized_cholesky, implied_beta)
from spdefem.rng import substream

from oracles import semigroup


def series_converges(rho, exponent_b):
    """Sympy oracle: does sum_k k^(2(b-1)-rho) converge?"""
    k = sp.symbols("k", positive=True, integer=True)
    expo = 2 * (sp.Rational(exponent_b) - 1) - sp.Rational(rho)
    return bool(sp.Sum(k ** expo, (k, 1, sp.oo)).is_convergent())


class TestCovarianceSpec:
    @pytest.mark.parametrize("rho", [sp.Rational(1, 2), 1, 2, 3])
    def test_index_sits_at_series_convergence_boundary(self, rho):
        uncapped = (float(rho) + 1.0) / 2.0
        assert series_converges(rho, sp.Rational(rho + 1, 2) - sp.Rational(1, 20))
        assert not series_converges(rho, sp.Rational(rho + 1, 2) + sp.Rational(1, 20))
        beta = implied_beta(CovarianceSpec.power_decay(float(rho), 8))
        assert beta == min(1.0, uncapped)

    def test_frozen_examples(self):
        assert implied_beta(CovarianceSpec.power_decay(2.0, 8)) == 1.0
        assert implied_beta(CovarianceSpec.power_decay(1.0, 8)) == 1.0
        assert implied_beta(CovarianceSpec.white(8)) == 0.5
        assert implied_beta(CovarianceSpec.power_decay(0.5, 8)) == 0.75

    def test_weight_sequences(self):
        w = CovarianceSpec.power_decay(1.0, 4).weights
        assert np.allclose(w, [1.0, 0.5, 1.0 / 3.0, 0.25])
        assert np.all(CovarianceSpec.white(16).weights == 1.0)
        spec = CovarianceSpec.custom([0.2, 0.0, 0.1], beta=0.8)
        assert spec.beta == 0.8
        assert np.allclose(spec.weights, [0.2, 0.0, 0.1])

    def test_validation(self):
        with pytest.raises(ValueError):
            CovarianceSpec.power_decay(-1.0, 8)
        with pytest.raises(ValueError):
            CovarianceSpec(kind="white", k_trunc=0)
        with pytest.raises(ValueError):
            CovarianceSpec(kind="white", k_trunc=8, rho=2.0)
        with pytest.raises(ValueError):
            CovarianceSpec.custom([1.0, -0.5], beta=0.5)
        with pytest.raises(ValueError):
            CovarianceSpec.custom([1.0], beta=1.5)
        with pytest.raises(ValueError, match="no implied index"):
            implied_beta(CovarianceSpec.custom([1.0], beta=0.5))


def dense_step_covariance(space, basis, spec, dt):
    """One-step convolution covariance from the dense overlap table."""
    lam = space.eigenvalues
    b = space.mode_overlap(basis).toarray()[:, :spec.k_trunc]
    pair = lam[:, None] + lam[None, :]
    return (b * spec.weights) @ b.T * (-np.expm1(-pair * dt) / pair)


class TestConvolutionSampler:
    """The single-mesh factor of `_joint_factor` and the Integrator draws."""

    def setup_method(self):
        self.basis = SpectralBasis(k_max=256)
        self.space = FemSpace(uniform_mesh(16))
        self.spec = CovarianceSpec.power_decay(2.0, k_trunc=256)

    def step_covariance(self, dt):
        factor, _ = _joint_factor([self.space], self.basis, self.spec, dt)
        return (factor @ factor.T).toarray()

    def integrator(self, dt, n_steps, spec=None):
        return Integrator(self.space, PolynomialDrift.zero(),
                          SchemeConfig(dt, n_steps),
                          covariance=spec or self.spec, basis=self.basis)

    def test_zero_covariance_gives_pure_decay(self):
        spec0 = CovarianceSpec.custom(np.zeros(64), beta=1.0)
        integ = self.integrator(0.125, 1, spec0)
        assert integ._noise_factor.nnz == 0
        state = substream(5, purpose="test").standard_normal(self.space.n)
        out = integ.step(state, substream(6, purpose="test"))
        expected = semigroup(self.space, 0.125, state)
        assert np.allclose(out, expected, atol=1e-14)

    def test_exact_in_time_matrix_identity(self):
        # Four quarter-steps compose to exactly the unit-step covariance.
        c1, c4 = self.step_covariance(1.0), self.step_covariance(0.25)
        d = np.exp(-self.space.eigenvalues * 0.25)
        total = np.zeros_like(c4)
        for j in range(4):
            scale = d ** j
            total += c4 * np.outer(scale, scale)
        assert np.abs(total - c1).max() < 1e-14 * np.abs(c1).max()

    def test_stationary_variance_reached_at_large_dt(self):
        # Z(t) -> N(0, q_i / (2 lam_i)) per mode, q_i = sum_k q_k b_ik^2
        b = self.space.mode_overlap(self.basis).toarray()
        stationary = (b ** 2 @ self.spec.weights) \
            / (2.0 * self.space.eigenvalues)
        assert np.allclose(np.diag(self.step_covariance(5.0)), stationary,
                           rtol=1e-12)

    def test_factor_matches_dense_covariance_formula(self):
        for dt in (0.01, 0.5):
            dense = dense_step_covariance(self.space, self.basis, self.spec,
                                          dt)
            assert np.abs(self.step_covariance(dt) - dense).max() \
                <= 1e-14 * np.abs(dense).max()

    def test_sampled_moments_match_covariance(self):
        factor, _ = _joint_factor([self.space], self.basis, self.spec, 1.0)
        n_samples = 20_000
        z = factor @ substream(7, purpose="test").standard_normal(
            (self.space.n, n_samples))
        cov = self.step_covariance(1.0)
        # total second moment against the trace, normalized by its SE
        total = (z ** 2).sum(axis=0).mean()
        se_total = np.sqrt(2.0) * np.linalg.norm(cov) / np.sqrt(n_samples)
        assert abs(total - np.trace(cov)) < 3.5 * se_total
        # per-mode variances, worst deviation over all modes
        var = z.var(axis=1)
        dev = np.abs(var - np.diag(cov)) / (np.diag(cov) * np.sqrt(2.0 / n_samples))
        assert dev.max() < 4.5
        # one off-diagonal entry: cov(Z_0, Z_1) has SE sqrt((C00 C11 + C01^2)/n)
        c01 = np.mean(z[0] * z[1])
        se_01 = np.sqrt((cov[0, 0] * cov[1, 1] + cov[0, 1] ** 2) / n_samples)
        assert abs(c01 - cov[0, 1]) < 4.0 * se_01

    def test_second_moment_independent_of_step_partition(self):
        # Simulating to T=1 in one exact step or four exact steps must give
        # the same law; compare the MC second moment of each route to the
        # closed-form trace.
        cov = self.step_covariance(1.0)
        n_samples = 10_000
        tr = np.trace(cov)
        se = np.sqrt(2.0) * np.linalg.norm(cov) / np.sqrt(n_samples)

        state = np.zeros((self.space.n, n_samples))
        out1 = self.integrator(1.0, 1).run(state, substream(8, purpose="test"))
        mom1 = (self.space.l2_norm(out1) ** 2).mean()
        assert abs(mom1 - tr) < 3.5 * se

        out4 = self.integrator(0.25, 4).run(state,
                                            substream(9, purpose="test"))
        mom4 = (self.space.l2_norm(out4) ** 2).mean()
        assert abs(mom4 - tr) < 3.5 * se

    def test_single_column_step_matches_batch_semantics(self):
        integ = self.integrator(0.5, 1)
        state = substream(10, purpose="test").standard_normal(self.space.n)
        out = integ.step(state, substream(11, purpose="test"))
        assert out.shape == (self.space.n,)
        decay_part = semigroup(self.space, 0.5, state)
        noise = out - decay_part
        assert self.space.l2_norm(noise) > 0.0

    def test_basis_smaller_than_truncation_rejected(self):
        small = SpectralBasis(k_max=16)
        with pytest.raises(ValueError, match="k_trunc"):
            _joint_factor([self.space], small, self.spec, 0.1)
        with pytest.raises(ValueError, match="dt"):
            _joint_factor([self.space], self.basis, self.spec, 0.0)

    def test_cholesky_jitter_cap_reports_failure(self):
        indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
        # n_diag = 1 fails in the Schur complement, n_diag = 0 in the
        # dense factor of the whole matrix
        for n_diag in (0, 1):
            with pytest.raises(np.linalg.LinAlgError, match="1e-14"):
                _regularized_cholesky(indefinite, n_diag=n_diag)
        near_psd = np.eye(3)
        near_psd[0, 0] = -1e-18
        # n_diag = 3 meets the negative pivot in the diagonal block
        for n_diag in (0, 3):
            chol, jitter = _regularized_cholesky(near_psd, n_diag=n_diag)
            assert sparse.issparse(chol) and chol.format == "csr"
            assert np.isfinite(chol.data).all()
            assert 0.0 < jitter <= 1e-14 * 2.0
            assert np.allclose((chol @ chol.T).toarray(),
                               near_psd + jitter * np.eye(3), atol=1e-15)

    def test_cholesky_rejects_non_diagonal_leading_block(self):
        with pytest.raises(ValueError, match="diagonal"):
            _regularized_cholesky(np.array([[2.0, 1.0], [1.0, 2.0]]),
                                  n_diag=2)

    def test_factor_is_diagonal_square_root(self):
        factor, jitter = _joint_factor([self.space], self.basis, self.spec,
                                       0.5)
        assert sparse.issparse(factor) and factor.format == "csr"
        assert factor.nnz == self.space.n and jitter == 0.0
        dense = dense_step_covariance(self.space, self.basis, self.spec, 0.5)
        assert np.allclose(factor.diagonal(), np.sqrt(np.diag(dense)),
                           rtol=1e-14, atol=0.0)
