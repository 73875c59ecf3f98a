"""Tests for study configuration, rate fitting, the coupled estimators,
and report serialization."""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.special import stdtrit
from scipy.stats import t as student_t

from spdefem import (CovarianceSpec, FemSpace, Integrator, PolynomialDrift,
                     RateReport, SpectralBasis, StudyConfig,
                     default_initial_profile,
                     envelope_exponent, evaluate_functional, fit_rate,
                     growth_exponent, linear_weak_reference, run_moment_study,
                     run_operator_study, run_splitting_dt_study,
                     run_strong_study, run_study, run_weak_study,
                     simulate_trajectory, uniform_mesh)
from spdefem.dynamics import OVERFLOW_LIMIT
from spdefem.experiments import (FUNCTIONALS, _CoupledEngine, _JointNoise,
                                 validate_functional_id)
from spdefem.noise import _joint_factor
from test_fem import dense_eigensystem, hat_coupling

AC = PolynomialDrift.allen_cahn()
ZERO = PolynomialDrift.zero()


def strong_config(**overrides):
    base = dict(
        kind="strong",
        covariance=CovarianceSpec.power_decay(2.0, k_trunc=64),
        drift=AC,
        levels=(2.0 ** -2, 2.0 ** -3, 2.0 ** -4),
        h_ref=2.0 ** -6,
        horizon=0.25,
        dt_ref=2.0 ** -4,
        samples=200,
        batch_size=100,
        seed=17,
    )
    base.update(overrides)
    return StudyConfig(**base)


def splitting_config(**overrides):
    base = dict(
        kind="splitting_dt",
        covariance=CovarianceSpec.power_decay(2.0, k_trunc=64),
        drift=AC,
        levels=(2.0 ** -4,),
        dt_levels=(2.0 ** -3, 2.0 ** -4, 2.0 ** -5),
        dt_ref=2.0 ** -7,
        horizon=0.25,
        samples=200,
        batch_size=100,
        seed=5,
    )
    base.update(overrides)
    return StudyConfig(**base)


class TestFitRate:
    def test_exact_first_order(self):
        levels = [(h, h, 0.0) for h in (0.5, 0.25, 0.125, 0.0625)]
        fit = fit_rate(levels)
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert all(fit.used)

    def test_exact_second_order_with_prefactor(self):
        levels = [(h, 3.7 * h ** 2, 0.0) for h in (0.5, 0.25, 0.125)]
        fit = fit_rate(levels)
        assert fit.slope == pytest.approx(2.0, abs=1e-12)

    def test_noisy_three_halves_ci_covers_truth(self):
        rng = np.random.default_rng(5)
        hs = 2.0 ** -np.arange(2, 8)
        truth = hs ** 1.5
        errors = truth * (1.0 + 0.05 * rng.standard_normal(hs.size))
        stderrs = 0.05 * truth
        fit = fit_rate(list(zip(hs, errors, stderrs)))
        assert fit.ci_lo < 1.5 < fit.ci_hi
        assert fit.slope == pytest.approx(1.5, abs=0.15)

    def test_noise_floor_drops_levels(self):
        levels = [
            (0.5, 0.5, 0.001),
            (0.25, 0.25, 0.001),
            (0.125, 0.125, 0.001),
            (0.0625, 0.004, 0.002),   # error < 4 stderr: unusable
        ]
        fit = fit_rate(levels)
        assert fit.used == (True, True, True, False)
        assert fit.slope == pytest.approx(1.0, abs=1e-10)

    def test_insufficient_usable_levels_raise(self):
        levels = [(0.5, 0.5, 0.0), (0.25, 0.25, 0.0),
                  (0.125, 0.0001, 0.01)]
        with pytest.raises(ValueError, match="insufficient data"):
            fit_rate(levels)

    def test_zero_error_level_is_unusable(self):
        levels = [(0.5, 0.5, 0.0), (0.25, 0.25, 0.0),
                  (0.125, 0.125, 0.0), (0.0625, 0.0, 0.0)]
        fit = fit_rate(levels)
        assert fit.used[-1] is False

    def test_heteroscedastic_weighting_prefers_tight_levels(self):
        # Three tight levels on slope 1, one loose outlier pulled off the
        # line: the weighted slope should stay near 1.
        levels = [
            (0.5, 0.5, 1e-6),
            (0.25, 0.25, 1e-6),
            (0.125, 0.125, 1e-6),
            (0.0625, 0.09, 0.02),
        ]
        fit = fit_rate(levels)
        assert fit.slope == pytest.approx(1.0, abs=0.05)

    def test_ci_half_width_is_the_student_t_quantile(self):
        # stdtrit is bit-identical to scipy.stats' t.ppf over the degrees
        # of freedom a fit can have
        for dof in range(1, 200):
            assert stdtrit(dof, 0.975) == student_t.ppf(0.975, dof)
        rng = np.random.default_rng(8)
        hs = 2.0 ** -np.arange(2, 7)
        errors = hs ** 1.5 * (1.0 + 0.05 * rng.standard_normal(hs.size))
        stderrs = 0.05 * errors
        fit = fit_rate(list(zip(hs, errors, stderrs)))
        # weighted least squares in sqrt(weight)-scaled coordinates
        root_w = errors / stderrs
        design = np.column_stack([np.log(hs), np.ones(hs.size)]) \
            * root_w[:, None]
        coef, resid, _, _ = np.linalg.lstsq(design, np.log(errors) * root_w,
                                            rcond=None)
        dof = hs.size - 2
        se = math.sqrt(resid[0] / dof * np.linalg.inv(design.T @ design)[0, 0])
        half = student_t.ppf(0.975, dof) * se
        assert fit.slope == pytest.approx(coef[0], rel=1e-12)
        assert fit.ci_hi - fit.slope == pytest.approx(half, rel=1e-10)
        assert fit.slope - fit.ci_lo == pytest.approx(half, rel=1e-10)

    def test_cli_import_leaves_scipy_stats_unloaded(self):
        import spdefem
        src = os.path.dirname(os.path.dirname(spdefem.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, spdefem.cli; print('scipy.stats' in sys.modules)"],
            capture_output=True, text=True, check=True, env=env, timeout=120)
        assert out.stdout.strip() == "False"


def dense_joint_covariance(spaces, basis, covariance, dt):
    """Joint substep covariance from dense overlaps V^T C, block by block:
    ((B_a Q B_b^T) * kernel(lam_a, lam_b))."""
    systems = [dense_eigensystem(s) for s in spaces]
    overlaps = [vecs.T @ hat_coupling(s, basis)[:, :covariance.k_trunc]
                for s, (_, vecs) in zip(spaces, systems)]
    rows = []
    for (lam_a, _), b_a in zip(systems, overlaps):
        row = []
        for (lam_b, _), b_b in zip(systems, overlaps):
            pair = lam_a[:, None] + lam_b[None, :]
            row.append((b_a * covariance.weights) @ b_b.T
                       * (-np.expm1(-pair * dt) / pair))
        rows.append(row)
    return np.block(rows), overlaps


class TestJointNoise:
    """The alias-sparse joint factor against the dense block formula."""

    @pytest.mark.parametrize("k_trunc", [64, 16])
    def test_factor_reproduces_dense_covariance_without_fill(self, k_trunc):
        # k_trunc = 16 leaves modes 17..31 of the N = 32 mesh uncovered:
        # their rows are exactly zero and the jitter ladder steps in
        spaces = [FemSpace(uniform_mesh(n)) for n in (4, 8, 32)]
        basis = SpectralBasis(k_max=k_trunc)
        covariance = CovarianceSpec.power_decay(2.0, k_trunc=k_trunc)
        noise = _JointNoise(spaces, basis, covariance, 2.0 ** -7)
        dense, overlaps = dense_joint_covariance(spaces, basis, covariance,
                                                 2.0 ** -7)
        chol = noise._chol.toarray()
        assert noise.dim == dense.shape[0] == 3 + 7 + 31
        assert np.abs(chol @ chol.T - dense).max() \
            <= 1e-12 * np.abs(dense).max()
        assert (noise.cholesky_jitter > 0.0) == (k_trunc == 16)
        # pattern: (a, i) and (b, j) interact when one mode overlaps both;
        # the factor holds exactly the lower triangle of it, so no fill
        hits = np.vstack([np.abs(b) > 1e-9 * np.abs(b).max()
                          for b in overlaps]).astype(int)
        pattern = hits @ hits.T > 0
        off_diagonal = int(pattern.sum() - np.trace(pattern))
        assert noise._chol.nnz == off_diagonal // 2 + noise.dim
        assert noise.diagnostics() == {
            "joint_dim": noise.dim, "factor_nnz": noise._chol.nnz,
            "cholesky_jitter": noise.cholesky_jitter}

    def test_rejects_k_trunc_beyond_the_basis(self):
        spaces = [FemSpace(uniform_mesh(n)) for n in (4, 8)]
        covariance = CovarianceSpec.power_decay(2.0, k_trunc=32)
        with pytest.raises(ValueError, match="k_trunc"):
            _JointNoise(spaces, SpectralBasis(k_max=16), covariance, 0.1)

    def test_zero_weights_give_zero_factor(self):
        spaces = [FemSpace(uniform_mesh(n)) for n in (4, 8, 32)]
        covariance = CovarianceSpec.custom(np.zeros(16), beta=0.5)
        noise = _JointNoise(spaces, SpectralBasis(k_max=16), covariance,
                            2.0 ** -7)
        assert noise._chol.nnz == 0 and noise.cholesky_jitter == 0.0
        assert not noise.sample(0, 0, 0, 3).any()

    def test_reference_factor_composes_two_half_steps(self):
        # G_[0,2d] = e^{-Lam d} G_[0,d] + G_[d,2d] with independent halves
        spaces = [FemSpace(uniform_mesh(n)) for n in (4, 8, 32)]
        basis = SpectralBasis(k_max=64)
        covariance = CovarianceSpec.power_decay(2.0, k_trunc=64)
        half = _JointNoise(spaces, basis, covariance, 2.0 ** -7)
        full = _JointNoise(spaces, basis, covariance, 2.0 ** -6)
        decay = np.exp(-np.concatenate([s.eigenvalues for s in spaces])
                       * 2.0 ** -7)
        sub = (half._chol @ half._chol.T).toarray()
        expected = decay[:, None] * sub * decay[None, :] + sub
        got = (full._chol @ full._chol.T).toarray()
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()
        assert full._chol.nnz == half._chol.nnz

    def test_non_nested_meshes_match_dense_formula(self):
        # only the finest block must be diagonal; the coarse meshes' fill
        # lands in the dense Schur complement
        spaces = [FemSpace(uniform_mesh(n)) for n in (6, 8, 32)]
        basis = SpectralBasis(k_max=64)
        covariance = CovarianceSpec.power_decay(2.0, k_trunc=64)
        noise = _JointNoise(spaces, basis, covariance, 2.0 ** -7)
        dense, _ = dense_joint_covariance(spaces, basis, covariance,
                                          2.0 ** -7)
        chol = noise._chol.toarray()
        assert np.abs(chol @ chol.T - dense).max() \
            <= 1e-12 * np.abs(dense).max()


class TestCoupledDraws:
    def test_only_the_probe_batch_runs_probe_rows(self, monkeypatch):
        calls = []
        sample = _JointNoise.sample

        def counted(noise, *args):
            calls.append((noise.dt, args[2]))
            return sample(noise, *args)

        monkeypatch.setattr(_JointNoise, "sample", counted)
        cfg = strong_config()
        engine = _CoupledEngine(cfg)
        # the finest tested mesh and the reference again, at twice their
        # drift steps, close the table
        fine, ref = len(cfg.levels) - 1, engine.ref_index
        assert engine.probe_rows == (ref + 1, ref + 2)
        assert engine.mesh_of[ref + 1:] == [fine, ref]
        assert engine.ratios[ref + 1:] == [2 * engine.ratios[fine], 2]
        steps = [(cfg.dt_ref, step) for step in range(engine.n_steps)]
        out = engine.run_batch(0)
        assert calls == steps
        assert out["draws"] == engine.n_steps
        assert out["probe"].shape == out["probe_aborted"].shape == (100,)
        calls.clear()
        out = engine.run_batch(1)
        assert calls == steps
        assert out["draws"] == engine.n_steps
        assert "probe" not in out and "probe_aborted" not in out
        assert len(out["values"]) == len(cfg.levels)

    def test_batch_one_steps_no_probe_rows(self, monkeypatch):
        stepped = []
        step = Integrator.step_with_eigen_noise

        def counted(integrator, *args, **kwargs):
            stepped.append(integrator)
            return step(integrator, *args, **kwargs)

        monkeypatch.setattr(Integrator, "step_with_eigen_noise", counted)
        engine = _CoupledEngine(strong_config())
        probes = {id(engine.integrators[i]) for i in engine.probe_rows}
        engine.run_batch(1)
        assert stepped and not probes & {id(i) for i in stepped}
        stepped.clear()
        engine.run_batch(0)
        assert probes <= {id(i) for i in stepped}

    def test_report_counts_draws_of_the_one_factor(self, monkeypatch):
        built = []
        init = _JointNoise.__init__

        def counted(noise, *args):
            built.append(noise)
            init(noise, *args)

        monkeypatch.setattr(_JointNoise, "__init__", counted)
        cfg = strong_config()
        report = run_strong_study(cfg)
        assert len(built) == 1
        n_steps = round(cfg.horizon / cfg.dt_ref)
        assert report.noise == {
            "joint_dim": built[0].dim,
            "factor_nnz": built[0]._chol.nnz,
            "cholesky_jitter": 0.0,
            "draws": 2 * n_steps}

    def test_splitting_dt_draws_once_per_reference_step(self, monkeypatch):
        calls = []
        sample = _JointNoise.sample

        def counted(noise, *args):
            calls.append(noise.dt)
            return sample(noise, *args)

        monkeypatch.setattr(_JointNoise, "sample", counted)
        cfg = splitting_config()
        engine = _CoupledEngine(cfg)
        assert engine.probe_rows == ()
        assert engine.mesh_of == [0] * (len(cfg.dt_levels) + 1)
        out = engine.run_batch(0)
        assert calls == [cfg.dt_ref] * engine.n_steps
        assert out["draws"] == engine.n_steps and "probe" not in out
        report = run_splitting_dt_study(cfg)
        assert report.probe_ratio is None
        assert report.noise == {
            "joint_dim": engine.noise.dim,
            "factor_nnz": engine.noise._chol.nnz,
            "cholesky_jitter": engine.noise.cholesky_jitter,
            "draws": engine.n_batches * engine.n_steps}


class TestTemporalProbe:
    def test_coarse_reference_step_trips_the_note(self):
        # a deep double well, 20 x - 20 x^3, split at steps of 1/8: its
        # temporal error at the finest level is 20% of the spatial one
        report = run_strong_study(strong_config(
            drift=PolynomialDrift((0.0, 20.0, 0.0, -20.0)),
            dt_ref=2.0 ** -3))
        assert report.probe_ratio > 0.1
        assert any(note.startswith("dt-doubling probe above 10%")
                   for note in report.notes)

    def test_fine_reference_step_stays_quiet(self):
        report = run_strong_study(strong_config())
        assert report.probe_ratio < 0.1
        assert not any("probe" in note for note in report.notes)

    def test_probe_is_skipped_when_doubling_overruns_the_horizon(self):
        # three reference steps: a doubled step cannot land on the horizon
        cfg = strong_config(horizon=0.75, dt_ref=2.0 ** -2)
        engine = _CoupledEngine(cfg)
        assert engine.probe_rows == ()
        assert all(i.config.dt * i.config.n_steps == cfg.horizon
                   for i in engine.integrators)
        report = run_strong_study(cfg)
        assert report.probe_ratio is None
        assert any(note.startswith("dt-doubling probe skipped")
                   for note in report.notes)
        assert json.loads(report.to_json())["probe_ratio"] is None

    def test_probe_rows_at_doubled_h2beta_steps(self):
        cfg = StudyConfig(
            kind="weak", covariance=CovarianceSpec.power_decay(2.0, k_trunc=64),
            drift=AC, levels=(2.0 ** -2, 2.0 ** -3, 2.0 ** -4),
            h_ref=2.0 ** -6, horizon=0.25, dt_ref=2.0 ** -6, samples=100,
            batch_size=100, seed=3)
        engine = _CoupledEngine(cfg)
        fine = len(cfg.levels) - 1
        assert engine.ratios[-2:] == [2 * cfg.step_ratios[fine], 2]
        assert run_weak_study(cfg).probe_ratio is not None


class TestExponents:
    def test_growth_exponent_power_law(self):
        hs = [0.5, 0.25, 0.125, 0.0625]
        moments = [2.0 * (1.0 / h) ** 0.7 for h in hs]
        assert growth_exponent(hs, moments) == pytest.approx(0.7, abs=1e-12)

    def test_growth_exponent_flat(self):
        hs = [0.5, 0.25, 0.125]
        assert growth_exponent(hs, [3.0, 3.0, 3.0]) == pytest.approx(0.0)

    def test_envelope_exponent_log_law(self):
        hs = [0.5, 0.25, 0.125, 0.0625, 0.03125]
        moments = [1.0 + math.log(1.0 / h) for h in hs]
        assert envelope_exponent(hs, moments) == pytest.approx(1.0, abs=1e-12)

    def test_envelope_exponent_flat(self):
        hs = [0.5, 0.25, 0.125]
        assert envelope_exponent(hs, [2.0, 2.0, 2.0]) == pytest.approx(0.0)


class TestFunctionals:
    def setup_method(self):
        self.space = FemSpace(uniform_mesh(16))
        self.basis = SpectralBasis(k_max=64)

    def test_registry_ids_validate(self):
        for name in FUNCTIONALS:
            validate_functional_id(name)
        validate_functional_id("cos_mode_3")
        validate_functional_id("cos_mode_12")

    @pytest.mark.parametrize("bad", ["", "cos_mode_0", "cos_mode_-1",
                                     "cos_mode_1.5", "norm_sq", "exp"])
    def test_bad_ids_rejected(self, bad):
        with pytest.raises(ValueError, match="unknown functional"):
            validate_functional_id(bad)

    def test_values_at_zero_field(self):
        zero = np.zeros(self.space.n)
        for name in ("exp_neg_sq_norm", "inv_one_plus_sq_norm",
                     "cos_first_mode", "cos_mode_1", "cos_mode_4"):
            value = evaluate_functional(name, self.space, self.basis, zero)
            assert value == pytest.approx(1.0)

    def test_exp_neg_sq_norm_value(self):
        # Nodal interpolant of sin(pi x): ||.||^2 is the mass-matrix
        # quadratic form, slightly below the continuum 1/2.
        v = np.sin(np.pi * self.space.mesh.interior)
        norm_sq = float(v @ (self.space.mass @ v))
        expect = math.exp(-norm_sq)
        got = evaluate_functional("exp_neg_sq_norm", self.space, self.basis, v)
        assert got == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("mode", [3, 29, 16, 32])
    def test_cos_mode_matches_direct_pairing(self, mode):
        # On N = 16: mode 29 aliases to discrete sine 3 with sign -1, and
        # modes 16 and 32 vanish at every node.
        rng = np.random.default_rng(0)
        v = rng.standard_normal((self.space.n, 4))
        pairing = self.space.coupling(self.basis)[:, mode - 1] @ v
        got = evaluate_functional(f"cos_mode_{mode}", self.space,
                                  self.basis, v)
        assert got.shape == (4,)
        assert got == pytest.approx(np.cos(pairing), rel=1e-12)

    def test_bounded_on_large_fields(self):
        big = 1e3 * np.ones(self.space.n)
        for name in ("exp_neg_sq_norm", "inv_one_plus_sq_norm", "cos_mode_2"):
            assert abs(evaluate_functional(name, self.space, self.basis,
                                           big)) <= 1.0


class TestStudyConfig:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown study kind"):
            strong_config(kind="med")

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="at least 100"):
            strong_config(samples=50)

    @pytest.mark.parametrize("batch", [0, 500])
    def test_batch_size_bounds(self, batch):
        with pytest.raises(ValueError, match="batch_size"):
            strong_config(batch_size=batch)

    def test_dt_must_divide_horizon(self):
        with pytest.raises(ValueError, match="dt_ref"):
            strong_config(dt_ref=0.3)

    def test_levels_must_decrease(self):
        with pytest.raises(ValueError, match="strictly decreasing"):
            strong_config(levels=(0.25, 0.25, 0.125))

    def test_minimum_level_count(self):
        with pytest.raises(ValueError, match="at least 3 mesh levels"):
            strong_config(levels=(0.25, 0.125))

    def test_reference_width_separation(self):
        with pytest.raises(ValueError, match="reference width"):
            strong_config(h_ref=2.0 ** -5)   # exactly min/2: too close

    def test_invalid_x0(self):
        with pytest.raises(ValueError, match="x0"):
            strong_config(x0="bump")

    def test_splitting_needs_single_mesh(self):
        with pytest.raises(ValueError, match="exactly one mesh"):
            StudyConfig(
                kind="splitting_dt",
                covariance=CovarianceSpec.power_decay(2.0, k_trunc=32),
                drift=AC, levels=(0.125, 0.0625),
                dt_levels=(2.0 ** -3, 2.0 ** -4, 2.0 ** -5),
                dt_ref=2.0 ** -8, samples=100, batch_size=100)

    def test_splitting_dt_grid_alignment(self):
        with pytest.raises(ValueError, match="multiple"):
            StudyConfig(
                kind="splitting_dt",
                covariance=CovarianceSpec.power_decay(2.0, k_trunc=32),
                drift=AC, levels=(0.125,),
                dt_levels=(0.2, 0.1, 0.05),
                dt_ref=2.0 ** -8, samples=100, batch_size=100)

    def test_splitting_dt_accepts_odd_integer_multiples(self):
        # the step ratios need only be integers >= 2, not even ones
        cfg = splitting_config(dt_levels=(12 / 96, 6 / 96, 3 / 96),
                               dt_ref=1 / 96)
        assert cfg.step_ratios == (12, 6, 3)

    def test_splitting_dt_rejects_fractional_multiple(self):
        with pytest.raises(ValueError, match=r"every tested dt must be an "
                           r"integer multiple \(at least 2\) of dt_ref"):
            splitting_config(dt_levels=(0.125, 0.0625, 2.5 * 2.0 ** -7))

    def test_weak_functional_must_validate(self):
        with pytest.raises(ValueError, match="unknown functional"):
            strong_config(kind="weak", functional="cos_mode_0")

    def test_step_ratios_fixed_policy(self):
        cfg = strong_config()
        assert cfg.dt_policy == "fixed"
        assert cfg.step_ratios == (1, 1, 1)

    def test_step_ratios_h2beta(self):
        # beta = 1 at rho = 2 so level h steps at ~h^2, snapped to the
        # dt_ref grid: (1/4)^2 / 2^-8 = 16, (1/8)^2 / 2^-8 = 4, ...
        cfg = strong_config(
            kind="weak", dt_ref=2.0 ** -8, horizon=1.0, dt_policy="h2beta")
        assert cfg.step_ratios == (16, 4, 1)

    def test_weak_defaults_to_h2beta(self):
        cfg = strong_config(kind="weak", dt_ref=2.0 ** -8, horizon=1.0)
        assert cfg.dt_policy == "h2beta"

    def test_hash_stable_and_sensitive(self):
        a = strong_config()
        b = strong_config()
        c = strong_config(seed=18)
        d = strong_config(samples=300)
        assert a.config_hash == b.config_hash
        # seed lives in the provenance string and artifact names, not in
        # the configuration identity
        assert a.config_hash == c.config_hash
        assert a.provenance != c.provenance
        assert a.config_hash != d.config_hash

    def test_provenance_mentions_hash_and_seed(self):
        cfg = strong_config()
        assert cfg.config_hash in cfg.provenance
        assert f"s{cfg.seed}" in cfg.provenance


class TestDeterministicConvergence:
    """Noise off, drift off, first eigenmode start: the coupled strong
    study reduces to deterministic semigroup approximation, rate 2."""

    def test_second_order_with_zero_variance(self):
        cfg = StudyConfig(
            kind="strong",
            covariance=CovarianceSpec.custom(np.zeros(16), beta=1.0),
            drift=ZERO,
            levels=(2.0 ** -3, 2.0 ** -4, 2.0 ** -5, 2.0 ** -6),
            h_ref=2.0 ** -8,
            horizon=0.5, dt_ref=2.0 ** -4,
            samples=100, batch_size=100, x0="mode1", seed=0)
        report = run_strong_study(cfg)
        assert report.slope == pytest.approx(2.0, abs=0.05)
        assert report.monotonic
        for lv in report.levels:
            assert lv.stderr < 1e-15
            assert lv.usable


class TestRateFamily:
    """The coupled estimator against four noises of known strong rate
    min(2, (rho+1)/2): white 1/2, rho=1 -> 1, rho=2 -> 3/2, rho=3 -> 2.

    Slopes carry a small upward preasymptotic bias on these coarse
    hierarchies; the bands below bracket measured values with margin."""

    LEVELS = (2.0 ** -3, 2.0 ** -4, 2.0 ** -5, 2.0 ** -6)

    def run_case(self, covariance):
        cfg = StudyConfig(
            kind="strong", covariance=covariance, drift=AC,
            levels=self.LEVELS, h_ref=2.0 ** -8,
            horizon=1.0, dt_ref=2.0 ** -6,
            samples=200, batch_size=100, seed=11)
        return run_strong_study(cfg)

    @pytest.mark.parametrize("covariance, lo, hi", [
        (CovarianceSpec.white(k_trunc=512), 0.50, 0.75),
        (CovarianceSpec.power_decay(1.0, k_trunc=256), 0.95, 1.20),
        (CovarianceSpec.power_decay(2.0, k_trunc=256), 1.40, 1.70),
        (CovarianceSpec.power_decay(3.0, k_trunc=256), 1.80, 2.05),
    ], ids=["white", "rho1", "rho2", "rho3"])
    def test_slope_tracks_known_rate(self, covariance, lo, hi):
        report = self.run_case(covariance)
        assert lo < report.slope < hi
        assert report.monotonic
        assert report.probe_ratio is not None
        assert report.probe_ratio < 0.1
        assert report.aborted_total == 0


class TestWeakOracle:
    """Zero drift with a sine-mode pairing functional is exactly
    Gaussian, so every level mean has a closed form."""

    def test_means_match_closed_form_and_rate_is_two(self):
        cov = CovarianceSpec.power_decay(2.0, k_trunc=256)
        cfg = StudyConfig(
            kind="weak", covariance=cov, drift=ZERO,
            levels=(2.0 ** -2, 2.0 ** -3, 2.0 ** -4), h_ref=2.0 ** -6,
            horizon=0.5, dt_ref=2.0 ** -5,
            samples=400, batch_size=100,
            functional="cos_mode_1", seed=7)
        report = run_weak_study(cfg)
        basis = SpectralBasis(k_max=cov.k_trunc, length=cfg.length)
        assert report.functional_means is not None
        for entry in report.functional_means:
            n = round(cfg.length / entry["h"])
            space = FemSpace(uniform_mesh(n, cfg.length))
            x0 = default_initial_profile(space.mesh.interior, cfg.length)
            oracle = linear_weak_reference(space, basis, cov, x0,
                                           cfg.horizon)
            assert abs(entry["mean"] - oracle) < 4.0 * entry["stderr"]
        assert report.slope == pytest.approx(2.0, abs=0.35)
        assert report.monotonic

    def test_reference_rejects_modes_outside_the_basis(self):
        space = FemSpace(uniform_mesh(8))
        basis = SpectralBasis(k_max=32)
        cov = CovarianceSpec.power_decay(2.0, k_trunc=32)
        x0 = default_initial_profile(space.mesh.interior, 1.0)
        for mode in (0, 33):
            with pytest.raises(ValueError, match="1..32"):
                linear_weak_reference(space, basis, cov, x0, 0.5, mode=mode)
        # mode 8 = N vanishes at every node: a zero pairing, cos(0) = 1
        assert linear_weak_reference(space, basis, cov, x0, 0.5,
                                     mode=8) == 1.0


class TestDeterminism:
    @pytest.mark.parametrize("cfg", [
        strong_config(samples=300),
        strong_config(kind="weak", dt_ref=2.0 ** -6, samples=300),
        splitting_config(samples=300),
    ], ids=["strong", "weak", "splitting_dt"])
    def test_worker_count_does_not_change_bytes(self, cfg):
        serial = run_study(cfg, workers=1)
        forked = run_study(cfg, workers=3)
        assert serial.to_csv() == forked.to_csv()

    def test_map_fn_seam_matches_serial(self):
        cfg = strong_config()
        a = run_strong_study(cfg)
        b = run_strong_study(cfg, map_fn=map)
        assert a.to_csv() == b.to_csv()

    def test_json_stable_up_to_runtime(self):
        cfg = strong_config()
        a = json.loads(run_strong_study(cfg).to_json())
        b = json.loads(run_strong_study(cfg, workers=2).to_json())
        for doc in (a, b):
            doc.pop("runtime_seconds")
            doc.pop("workers")
        assert a == b

    def test_json_workers_counts_processes_that_ran_batches(self):
        # one batch runs serially; two batches fill a pool of two
        one_batch = strong_config(samples=100)
        assert run_strong_study(one_batch, workers=2).workers == 1
        assert run_strong_study(strong_config(), workers=3).workers == 2
        assert run_strong_study(strong_config(), map_fn=map,
                                workers=2).workers == 1
        reports = run_study(strong_config(kind="operators"), workers=2)
        assert {r.workers for r in reports.values()} == {1}

    def test_seed_changes_results(self):
        a = run_strong_study(strong_config(seed=1))
        b = run_strong_study(strong_config(seed=2))
        assert a.to_csv() != b.to_csv()


class TestSplittingDt:
    def test_first_order_in_dt(self):
        cfg = StudyConfig(
            kind="splitting_dt",
            covariance=CovarianceSpec.power_decay(2.0, k_trunc=128),
            drift=AC, levels=(2.0 ** -5,),
            dt_levels=(2.0 ** -3, 2.0 ** -4, 2.0 ** -5, 2.0 ** -6),
            dt_ref=2.0 ** -9, horizon=1.0,
            samples=200, batch_size=100, seed=3)
        report = run_splitting_dt_study(cfg)
        assert report.slope == pytest.approx(1.0, abs=0.25)
        assert report.monotonic
        errors = [lv.error for lv in report.levels]
        assert errors == sorted(errors, reverse=True)


class TestMoments:
    def test_trace_class_moments_stay_flat(self):
        cfg = StudyConfig(
            kind="moments",
            covariance=CovarianceSpec.power_decay(2.0, k_trunc=256),
            drift=AC, levels=(2.0 ** -3, 2.0 ** -4, 2.0 ** -5, 2.0 ** -6),
            horizon=1.0, dt_ref=2.0 ** -5,
            samples=200, batch_size=100, seed=4)
        report = run_moment_study(cfg)
        assert abs(report.exponents["z_sup"]) < 0.15
        assert abs(report.exponents["z_l2"]) < 0.15
        assert abs(report.exponents["x_sup"]) < 0.15
        assert len(report.resolutions) == 4
        for series in (report.z_sup_moment, report.z_l2_moment,
                       report.x_sup_moment):
            assert all(m > 0.0 for m in series)

    def test_white_sup_grows_but_within_log_envelope(self):
        cfg = StudyConfig(
            kind="moments",
            covariance=CovarianceSpec.white(k_trunc=1024),
            drift=AC, levels=(2.0 ** -3, 2.0 ** -4, 2.0 ** -5, 2.0 ** -6),
            horizon=1.0, dt_ref=2.0 ** -5,
            samples=200, batch_size=100, seed=4)
        report = run_moment_study(cfg)
        # sup-norm second moment grows with refinement under white noise,
        # but like a power of log(1/h), not of 1/h
        assert report.exponents["z_sup"] > 0.05
        assert report.exponents["z_sup_envelope"] < 1.3
        assert abs(report.exponents["z_l2"]) < 0.15

    def test_convolution_l2_moment_matches_exact_law(self):
        # Z_h(T) = L_T xi in eigen coordinates, M-orthonormal, so
        # E|Z_h(T)|^2 = |L_T|_F^2 with L_T the one-step factor over [0, T]
        cfg = StudyConfig(
            kind="moments",
            covariance=CovarianceSpec.power_decay(2.0, k_trunc=256),
            drift=AC, levels=(2.0 ** -3, 2.0 ** -4, 2.0 ** -5, 2.0 ** -6),
            horizon=1.0, dt_ref=2.0 ** -5,
            samples=200, batch_size=100, seed=4)
        report = run_moment_study(cfg)
        basis = SpectralBasis(k_max=256)
        for h, mean, se in zip(cfg.levels, report.z_l2_moment,
                               report.z_l2_stderr):
            space = FemSpace(uniform_mesh(round(1.0 / h)))
            factor, _ = _joint_factor([space], basis, cfg.covariance,
                                      cfg.horizon)
            exact = float(factor.multiply(factor).sum())
            assert abs(mean - exact) < 4.0 * se, (h, mean, exact, se)

    def test_overflowing_samples_are_aborted_not_averaged(self):
        cfg = StudyConfig(
            kind="moments",
            covariance=CovarianceSpec.power_decay(2.0, k_trunc=64),
            drift=PolynomialDrift.linear(26.0),
            levels=(2.0 ** -2, 2.0 ** -3, 2.0 ** -4),
            horizon=1.0, dt_ref=2.0 ** -4, x0="zero",
            samples=100, batch_size=100, seed=1)
        report = run_moment_study(cfg)
        assert 0 < report.aborted_total < cfg.samples
        assert report.notes == (
            f"{report.aborted_total} of 100 samples aborted (overflow or "
            "non-finite state) and were discarded",)
        for series in (report.z_sup_moment, report.z_l2_moment,
                       report.x_sup_moment):
            assert all(math.isfinite(m) for m in series)
        # every kept sample stayed under the limit at every step
        assert max(report.x_sup_moment) <= OVERFLOW_LIMIT ** 2


class TestOperators:
    def test_projection_and_ritz_rates(self):
        cfg = StudyConfig(
            kind="operators",
            covariance=CovarianceSpec.power_decay(2.0, k_trunc=64),
            drift=AC, levels=(2.0 ** -3, 2.0 ** -4, 2.0 ** -5, 2.0 ** -6),
            seed=0)
        fits = run_operator_study(cfg)
        assert fits[(0.0, 2.0, "l2")].slope == pytest.approx(2.0, abs=0.1)
        assert fits[(1.0, 2.0, "ritz")].slope == pytest.approx(1.0, abs=0.1)
        assert fits[(0.0, 1.0, "l2")].slope == pytest.approx(1.0, abs=0.1)

    def test_pair_runtimes_sum_within_the_call(self):
        cfg = StudyConfig(
            kind="operators",
            covariance=CovarianceSpec.power_decay(2.0, k_trunc=64),
            drift=AC, levels=(2.0 ** -3, 2.0 ** -4, 2.0 ** -5, 2.0 ** -6),
            seed=0)
        start = time.perf_counter()
        fits = run_operator_study(cfg)
        wall = time.perf_counter() - start
        runtimes = [fit.runtime_seconds for fit in fits.values()]
        assert all(r > 0.0 for r in runtimes)
        assert sum(runtimes) <= wall


class TestRunStudyDispatch:
    def test_strong_dispatch(self):
        report = run_study(strong_config())
        assert isinstance(report, RateReport)
        assert report.kind == "strong"


class TestTrajectory:
    def test_shape_and_determinism(self):
        cfg = strong_config(horizon=0.5, dt_ref=2.0 ** -5)
        space, times, states = simulate_trajectory(cfg)
        n_steps = round(cfg.horizon / cfg.dt_ref)
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(cfg.horizon)
        assert states.shape == (n_steps + 1, space.n)
        assert np.isfinite(states).all()
        again = simulate_trajectory(cfg)[2]
        assert np.array_equal(states, again)
        other = simulate_trajectory(cfg, seed=99)[2]
        assert not np.array_equal(states, other)


class TestReports:
    def make_report(self):
        return run_strong_study(strong_config())

    def test_csv_schema_and_roundtrip(self):
        report = self.make_report()
        text = report.to_csv()
        lines = text.strip().split("\n")
        comments = [ln for ln in lines if ln.startswith("#")]
        assert any("config_hash=" in c for c in comments)
        assert any("seed=" in c for c in comments)
        assert not any("runtime" in c for c in comments)
        header = lines[len(comments)]
        assert header == "level,h,error,stderr,usable"
        rows = lines[len(comments) + 1:]
        assert len(rows) == len(report.levels)
        for row, lv in zip(rows, report.levels):
            idx, h, err, se, usable = row.split(",")
            assert int(idx) == lv.index
            assert float(h) == lv.resolution       # %.17g round-trips
            assert float(err) == lv.error
            assert float(se) == lv.stderr
            assert usable in ("true", "false")

    def test_json_contents(self):
        report = self.make_report()
        doc = json.loads(report.to_json())
        for key in ("kind", "slope", "ci_lo", "ci_hi", "levels", "seed",
                    "config_hash", "provenance", "noise_floor", "monotonic",
                    "probe_ratio", "aborted_total", "runtime_seconds",
                    "workers", "version", "notes"):
            assert key in doc
        assert doc["kind"] == "strong"
        assert len(doc["levels"]) == len(report.levels)
        assert doc["config_hash"] == report.config_hash

    def test_moment_report_json(self):
        cfg = StudyConfig(
            kind="moments",
            covariance=CovarianceSpec.power_decay(2.0, k_trunc=64),
            drift=AC, levels=(2.0 ** -2, 2.0 ** -3, 2.0 ** -4),
            horizon=0.25, dt_ref=2.0 ** -4,
            samples=100, batch_size=100, seed=1)
        doc = json.loads(run_moment_study(cfg).to_json())
        for key in ("resolutions", "z_sup_moment", "z_l2_moment",
                    "x_sup_moment", "exponents", "config_hash",
                    "aborted_total", "noise"):
            assert key in doc
        assert set(doc["exponents"]) >= {"z_sup", "z_l2", "x_sup"}
        assert doc["aborted_total"] == 0 and doc["notes"] == []
        # one joint factor over the meshes (n = 3, 7, 15), one draw per step
        assert doc["noise"]["joint_dim"] == sum(
            round(1.0 / h) - 1 for h in cfg.levels)
        n_batches = -(-cfg.samples // cfg.batch_size)
        n_steps = round(cfg.horizon / cfg.dt_ref)
        assert doc["noise"]["draws"] == n_batches * n_steps
