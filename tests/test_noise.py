"""Tests for covariance specs and the exact convolution sampler."""

import copy
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sparse

from spdefem import (FemSpace, Integrator, PolynomialDrift, SchemeConfig,
                     SpectralBasis)
from spdefem import noise
from spdefem.experiments import default_initial_profile, linear_weak_reference
from spdefem.noise import (CovarianceSpec, _JointNoise, _nested_cholesky,
                           _step_covariances)
from spdefem.rng import substream

from oracles import nested_cholesky, semigroup


class TestCovarianceSpec:
    def test_weight_sequences(self):
        w = CovarianceSpec.power_decay(1.0, 4).weights
        assert np.allclose(w, [1.0, 0.5, 1.0 / 3.0, 0.25])
        assert np.all(CovarianceSpec.white(16).weights == 1.0)
        spec = CovarianceSpec.custom([0.2, 0.0, 0.1])
        assert np.allclose(spec.weights, [0.2, 0.0, 0.1])

    def test_validation(self):
        with pytest.raises(ValueError):
            CovarianceSpec.power_decay(-1.0, 8)
        with pytest.raises(ValueError):
            CovarianceSpec(kind="white", k_trunc=0)
        with pytest.raises(ValueError):
            CovarianceSpec(kind="white", k_trunc=8, rho=2.0)
        with pytest.raises(ValueError):
            CovarianceSpec.custom([1.0, -0.5])


def dense_step_covariance(space, basis, spec, dt):
    """One-step convolution covariance from the dense overlap table."""
    lam = space.eigenvalues
    b = space.mode_overlap(basis).toarray()[:, :spec.k_trunc]
    pair = lam[:, None] + lam[None, :]
    return (b * spec.weights) @ b.T * (-np.expm1(-pair * dt) / pair)


class TestConvolutionSampler:
    """The single-mesh factor of `_JointNoise` and the Integrator draws."""

    def setup_method(self):
        self.basis = SpectralBasis(k_max=256)
        self.space = FemSpace(16)
        self.spec = CovarianceSpec.power_decay(2.0, k_trunc=256)

    def factor(self, dt):
        return _JointNoise([self.space], self.basis, self.spec, dt)._chol

    def step_covariance(self, dt):
        factor = self.factor(dt)
        return (factor @ factor.T).toarray()

    def integrator(self, dt, n_steps, spec=None):
        return Integrator(self.space, PolynomialDrift.zero(),
                          SchemeConfig(dt, n_steps),
                          covariance=spec or self.spec, basis=self.basis)

    def test_zero_covariance_gives_pure_decay(self):
        spec0 = CovarianceSpec.custom(np.zeros(64))
        integ = self.integrator(0.125, 1, spec0)
        assert integ._noise._chol.nnz == 0
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
        factor = self.factor(1.0)
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
            _JointNoise([self.space], small, self.spec, 0.1)
        with pytest.raises(ValueError, match="dt"):
            _JointNoise([self.space], self.basis, self.spec, 0.0)

    def test_cholesky_jitter_cap_reports_failure(self):
        # [[1, 2], [2, 1]] as two one-index blocks, the second the first's
        # ancestor: its pivot, 1 - 2^2, stays negative on every rung
        one = np.array([0])
        indefinite = [[np.array([1.0]), np.array([2.0])],
                      [None, np.array([1.0])]]
        with pytest.raises(np.linalg.LinAlgError, match="1e-14"):
            _nested_cholesky(indefinite, [[None, one], [None, None]],
                             np.arange(2))
        near_psd = np.eye(3)
        near_psd[0, 0] = -1e-18
        # the negative pivot is met in one block of three indices, or in
        # the first of three one-index blocks (the second the first's
        # ancestor, the third nobody's)
        none = np.array([-1])
        zero = np.array([0.0])
        blocks = [([[np.diag(near_psd)]], [[None]]),
                  ([[np.array([-1e-18]), zero, zero],
                    [None, np.array([1.0]), zero],
                    [None, None, np.array([1.0])]],
                   [[None, one, none], [None, None, none], [None] * 3])]
        for cov, up in blocks:
            arrays, jitter = _nested_cholesky(cov, up, np.arange(3))
            chol = sparse.csr_matrix(arrays, shape=(3, 3))
            assert chol.has_canonical_format
            assert np.isfinite(chol.data).all()
            assert 0.0 < jitter <= 1e-14 * 2.0
            assert np.allclose((chol @ chol.T).toarray(),
                               near_psd + jitter * np.eye(3), atol=1e-15)

    def test_factor_bytes_do_not_depend_on_blas_threads(self):
        # the joint factor of a shipped multi-mesh study, built in fresh
        # processes with one and two OpenBLAS threads
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        script = (
            "import hashlib, sys\n"
            "from spdefem import load_config\n"
            "from spdefem.experiments import _CoupledEngine\n"
            "chol = _CoupledEngine(load_config(sys.argv[1])).noise._chol\n"
            "print(hashlib.sha256(chol.indptr.tobytes() + "
            "chol.indices.tobytes() + chol.data.tobytes()).hexdigest())\n")
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.path.join(root, "src"))
            out = subprocess.run(
                [sys.executable, "-c", script,
                 os.path.join(root, "configs", "strong_smooth.yaml")],
                capture_output=True, text=True, env=env, timeout=300)
            assert out.returncode == 0, out.stderr
            digests.add(out.stdout.strip())
        assert len(digests) == 1

    @pytest.mark.parametrize("nest,spec", [
        ((4, 8, 16), CovarianceSpec("power_decay", 64, rho=2.0)),
        ((4, 8, 16, 32), CovarianceSpec("white", 256))],
        ids=["power_decay-4-8-16", "white-4-8-16-32"])
    def test_nested_factor_bytes_match_scalar_loops(self, monkeypatch, nest,
                                                    spec):
        # the ancestor arrays of a real nest, eliminated again one scalar
        # at a time in ascending order: any change of the factor's
        # summation order changes its bytes.  The factor's numpy CSR
        # arrays, rows in mesh order, must also be the bytes scipy.sparse
        # gives for the oracle's rows in that order.
        calls = []

        def spy(cov, up, rows):
            calls.append((copy.deepcopy(cov), copy.deepcopy(up), rows))
            return _nested_cholesky(cov, up, rows)

        monkeypatch.setattr(noise, "_nested_cholesky", spy)
        got = _JointNoise([FemSpace(n) for n in nest],
                          SpectralBasis(k_max=spec.k_trunc), spec, 2.0 ** -8)
        (cov, up, rows), = calls
        want, want_jitter = nested_cholesky(cov, up)
        assert got.cholesky_jitter == want_jitter
        got = got._chol
        want = want[np.argsort(rows)]
        for part in ("indptr", "indices", "data"):
            assert (getattr(got, part).tobytes()
                    == getattr(want, part).tobytes()), part

    def test_factor_is_diagonal_square_root(self):
        noise = _JointNoise([self.space], self.basis, self.spec, 0.5)
        factor = noise._chol
        assert sparse.issparse(factor) and factor.format == "csr"
        assert factor.nnz == self.space.n and noise.cholesky_jitter == 0.0
        dense = dense_step_covariance(self.space, self.basis, self.spec, 0.5)
        assert np.allclose(factor.diagonal(), np.sqrt(np.diag(dense)),
                           rtol=1e-14, atol=0.0)


class TestHorizonVariance:
    """`linear_weak_reference` reads the exact horizon variance of
    `_step_covariances`, with no factor: it must equal the Gaussian
    closed form on the dense covariance formula."""

    @pytest.mark.parametrize("n,spec", [
        (16, CovarianceSpec.white(64)),
        (16, CovarianceSpec.power_decay(2.0, 64)),
        (32, CovarianceSpec.white(12)),
        (32, CovarianceSpec.power_decay(2.0, 12))],
        ids=["white", "power_decay", "white-k_trunc<n",
             "power_decay-k_trunc<n"])
    @pytest.mark.parametrize("mode", [1, 3])
    def test_reference_matches_dense_closed_form(self, n, spec, mode):
        space = FemSpace(n)
        basis = SpectralBasis(k_max=spec.k_trunc)
        x0 = default_initial_profile(space.interior, 1.0)
        horizon = 0.3
        dense = dense_step_covariance(space, basis, spec, horizon)
        pairing = space.mode_overlap(basis).toarray()[:, mode - 1]
        mean = pairing @ (np.exp(-space.eigenvalues * horizon)
                          * space.to_eigen(x0))
        want = np.cos(mean) * np.exp(-0.5 * pairing @ dense @ pairing)
        got = linear_weak_reference(space, basis, spec, x0, horizon,
                                    mode=mode)
        assert abs(got - want) <= 1e-13 * abs(want)

    def test_one_mesh_covariance_is_the_dense_diagonal(self):
        space, spec = FemSpace(32), CovarianceSpec.power_decay(2.0, 12)
        basis = SpectralBasis(k_max=12)
        cov, _, rows = _step_covariances([space], basis, spec, 0.3)
        dense = dense_step_covariance(space, basis, spec, 0.3)
        assert np.array_equal(rows, np.arange(space.n))
        assert np.abs(cov[0][0] - np.diag(dense)).max() \
            <= 1e-15 * np.abs(dense).max()
        # modes 13..31 are not covered: those indices have no noise
        assert not np.diag(dense)[12:].any() and not cov[0][0][12:].any()
