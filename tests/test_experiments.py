"""Tests for study configuration, rate fitting, the coupled estimators,
and report serialization."""

import functools
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import stdtrit
from scipy.stats import t as student_t

import spdefem.experiments as experiments
from spdefem import (CovarianceSpec, FemSpace, Integrator, L2Comparer,
                     PolynomialDrift, RateReport, SpectralBasis, StudyConfig,
                     default_initial_profile,
                     envelope_exponent, evaluate_functional, fit_rate,
                     growth_exponent, linear_weak_reference, run_study,
                     simulate_trajectory, substream)
from spdefem.dynamics import OVERFLOW_LIMIT
from spdefem.experiments import (FUNCTIONALS, _CoupledEngine, _JointNoise,
                                 _discard_overflow, _rate_report,
                                 _reduce_rate_study, _rows,
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


def moments_config(**overrides):
    base = dict(
        kind="moments",
        covariance=CovarianceSpec.power_decay(2.0, k_trunc=64),
        drift=AC,
        levels=(2.0 ** -2, 2.0 ** -3, 2.0 ** -4),
        horizon=0.25,
        dt_ref=2.0 ** -4,
        samples=100,
        batch_size=100,
    )
    base.update(overrides)
    return StudyConfig(**base)


def rows_of(engine, role):
    return [row for row in engine.rows if row.role == role]


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

    def test_t_table_is_stdtrit_bit_for_bit(self, monkeypatch):
        from spdefem import experiments
        assert len(experiments._T975) == 30
        for dof, value in enumerate(experiments._T975, start=1):
            assert value == float(stdtrit(dof, 0.975)), dof
            assert experiments._t975(dof) == value
        # past the table the quantile comes from scipy.special
        for dof in (31, 64, 1000):
            assert experiments._t975(dof) == float(stdtrit(dof, 0.975))
        monkeypatch.setattr(experiments, "_T975", experiments._T975[:2])
        assert experiments._t975(3) == float(stdtrit(3, 0.975))

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
        spaces = [FemSpace(n) for n in (4, 8, 32)]
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
        spaces = [FemSpace(n) for n in (4, 8)]
        covariance = CovarianceSpec.power_decay(2.0, k_trunc=32)
        with pytest.raises(ValueError, match="k_trunc"):
            _JointNoise(spaces, SpectralBasis(k_max=16), covariance, 0.1)

    def test_zero_weights_give_zero_factor(self):
        spaces = [FemSpace(n) for n in (4, 8, 32)]
        covariance = CovarianceSpec.custom(np.zeros(16))
        noise = _JointNoise(spaces, SpectralBasis(k_max=16), covariance,
                            2.0 ** -7)
        assert noise._chol.nnz == 0 and noise.cholesky_jitter == 0.0
        assert not noise.sample(0, 0, 0, 3).any()

    def test_reference_factor_composes_two_half_steps(self):
        # G_[0,2d] = e^{-Lam d} G_[0,d] + G_[d,2d] with independent halves
        spaces = [FemSpace(n) for n in (4, 8, 32)]
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

    def test_non_nested_meshes_rejected(self):
        # 6 divides neither 8 nor 32: a 32-element eigen index would link
        # to two indices of the 6-element mesh, which the ancestor arrays
        # cannot hold
        spaces = [FemSpace(n) for n in (6, 8, 32)]
        covariance = CovarianceSpec.power_decay(2.0, k_trunc=64)
        with pytest.raises(ValueError, match=r"\[6, 8, 32\] do not nest"):
            _joint_factor(spaces, SpectralBasis(k_max=64), covariance,
                          2.0 ** -7)

    @pytest.mark.parametrize("rho", [None, 1.0])  # white, power decay
    @pytest.mark.parametrize("k_trunc", [16, 300])
    @pytest.mark.parametrize("counts", [(3, 6, 18, 36), (5, 15, 45),
                                        (36, 3, 12)])
    def test_non_dyadic_nests_factor_without_fill(self, counts, k_trunc,
                                                  rho):
        # k_trunc 16 leaves eigen indices of the finest mesh uncovered
        # (zero rows, so the jitter ladder steps in); 300 exceeds twice
        # the finest element count, so every alias class is hit
        spaces = [FemSpace(n) for n in counts]
        basis = SpectralBasis(k_max=k_trunc)
        spec = (CovarianceSpec.white(k_trunc) if rho is None
                else CovarianceSpec.power_decay(rho, k_trunc))
        chol, jitter = _joint_factor(spaces, basis, spec, 2.0 ** -7)
        dense, overlaps = dense_joint_covariance(spaces, basis, spec,
                                                 2.0 ** -7)
        chol_dense = chol.toarray()
        assert np.abs(chol_dense @ chol_dense.T - dense).max() \
            <= 1e-12 * np.abs(dense).max()
        assert (jitter > 0.0) == (k_trunc < max(counts))
        hits = np.vstack([np.abs(b) > 1e-9 * np.abs(b).max()
                          for b in overlaps]).astype(int)
        pattern = hits @ hits.T > 0
        off_diagonal = int(pattern.sum() - np.trace(pattern))
        assert chol.nnz == off_diagonal // 2 + dense.shape[0]


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
        fine = rows_of(engine, "tested")[-1]
        ref, = rows_of(engine, "reference")
        probe = rows_of(engine, "probe")
        assert engine.rows[-2:] == tuple(probe)
        assert [(row.mesh, row.ratio) for row in probe] == [
            (fine.mesh, 2 * fine.ratio), (ref.mesh, 2)]
        steps = [(cfg.dt_ref, step) for step in range(engine.n_steps)]
        out = engine.run_batch(0)
        assert calls == steps
        assert out["probe"].shape == out["probe_aborted"].shape == (100,)
        calls.clear()
        out = engine.run_batch(1)
        assert calls == steps
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
        probes = {id(engine.integrators[row])
                  for row in rows_of(engine, "probe")}
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
        report = run_study(cfg)
        assert len(built) == 1
        n_steps = round(cfg.horizon / cfg.dt_ref)
        assert report.noise == {
            "joint_dim": built[0].dim,
            "factor_nnz": built[0]._chol.nnz,
            "cholesky_jitter": 0.0,
            "draws": 2 * n_steps}

    def test_weak_engine_builds_no_comparer(self, monkeypatch):
        # a weak study compares functionals, never fields; the digest is
        # the CSV's under the SFC64 draws (under Philox it was the CSV of
        # an engine that still built a comparer per level)
        def refuse(*args):
            raise AssertionError("a weak study built an L2Comparer")

        monkeypatch.setattr(L2Comparer, "__init__", refuse)
        cfg = strong_config(kind="weak", dt_ref=2.0 ** -6, samples=300)
        assert _CoupledEngine(cfg).comparers == []
        csv = run_study(cfg).to_csv().encode()
        assert hashlib.sha256(csv).hexdigest() == (
            "b92bfa36464ac58d00c5fd5f905dda4207a8a9cde980e0f636e0594b5235c046")

    def test_splitting_dt_draws_once_per_reference_step(self, monkeypatch):
        calls = []
        sample = _JointNoise.sample

        def counted(noise, *args):
            calls.append(noise.dt)
            return sample(noise, *args)

        monkeypatch.setattr(_JointNoise, "sample", counted)
        cfg = splitting_config()
        engine = _CoupledEngine(cfg)
        assert rows_of(engine, "probe") == []
        assert [row.mesh for row in engine.rows] == \
            [0] * (len(cfg.dt_levels) + 1)
        out = engine.run_batch(0)
        assert calls == [cfg.dt_ref] * engine.n_steps
        assert "probe" not in out
        report = run_study(cfg)
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
        report = run_study(strong_config(
            drift=PolynomialDrift((0.0, 20.0, 0.0, -20.0)),
            dt_ref=2.0 ** -3))
        assert report.probe_ratio > 0.1
        assert any(note.startswith("dt-doubling probe above 10%")
                   for note in report.notes)

    def test_fine_reference_step_stays_quiet(self):
        report = run_study(strong_config())
        assert report.probe_ratio < 0.1
        assert not any("probe" in note for note in report.notes)

    def test_probe_is_skipped_when_doubling_overruns_the_horizon(self):
        # three reference steps: a doubled step cannot land on the horizon
        cfg = strong_config(horizon=0.75, dt_ref=2.0 ** -2)
        engine = _CoupledEngine(cfg)
        assert rows_of(engine, "probe") == []
        assert all(i.config.dt * i.config.n_steps == cfg.horizon
                   for i in engine.integrators.values())
        report = run_study(cfg)
        assert report.probe_ratio is None
        assert any(note.startswith("dt-doubling probe skipped")
                   for note in report.notes)
        assert json.loads(report.to_json())["probe_ratio"] is None

    def test_probe_rows_at_doubled_dt_ref(self):
        cfg = StudyConfig(
            kind="weak", covariance=CovarianceSpec.power_decay(2.0, k_trunc=64),
            drift=AC, levels=(2.0 ** -2, 2.0 ** -3, 2.0 ** -4),
            h_ref=2.0 ** -6, horizon=0.25, dt_ref=2.0 ** -6, samples=100,
            batch_size=100, seed=3)
        engine = _CoupledEngine(cfg)
        assert [(row.role, row.ratio) for row in engine.rows[-2:]] == \
            [("probe", 2)] * 2
        assert run_study(cfg).probe_ratio is not None


class TestRowTable:
    # (role, mesh, ratio) of each row; strong_config steps 4 times, its
    # horizon=0.75 variant 3 times (no room for a doubled step)
    STRONG = [("tested", 0, 1), ("tested", 1, 1), ("tested", 2, 1),
              ("reference", 3, 1)]
    PROBE = [("probe", 2, 2), ("probe", 3, 2)]

    @pytest.mark.parametrize("cfg, table, skipped", [
        (strong_config(), STRONG + PROBE, False),
        (strong_config(horizon=0.75, dt_ref=2.0 ** -2), STRONG, True),
        (strong_config(kind="weak"), STRONG + PROBE, False),
        (strong_config(kind="weak", horizon=0.75, dt_ref=2.0 ** -2), STRONG,
         True),
        (splitting_config(), [("tested", 0, 16), ("tested", 0, 8),
                              ("tested", 0, 4), ("reference", 0, 1)], False),
        # Z runs one exact step over the horizon: ratio n_steps = 4
        (moments_config(), [("tested", 0, 1), ("tested", 1, 1),
                            ("tested", 2, 1), ("z", 0, 4), ("z", 1, 4),
                            ("z", 2, 4)], False),
    ], ids=["strong", "strong-no-probe", "weak", "weak-no-probe",
            "splitting_dt", "moments"])
    def test_rows_per_kind(self, cfg, table, skipped):
        rows, notes = _rows(cfg, round(cfg.horizon / cfg.dt_ref))
        assert [(row.role, row.mesh, row.ratio) for row in rows] == table
        for row in rows:
            if row.role == "z":
                # the stochastic convolution: no drift, from zero
                assert row.drift.coeffs == (0.0,) and row.start == "zero"
            else:
                assert row.drift is cfg.drift and row.start == cfg.x0
        assert [note.startswith("dt-doubling probe skipped")
                for note in notes] == ([True] if skipped else [])


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
        self.space = FemSpace(16)
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
                     "cos_mode_1", "cos_mode_4"):
            value = evaluate_functional(name, self.space, self.basis, zero)
            assert value == pytest.approx(1.0)

    def test_exp_neg_sq_norm_value(self):
        # Nodal interpolant of sin(pi x): ||.||^2 is the mass-matrix
        # quadratic form, slightly below the continuum 1/2.
        v = np.sin(np.pi * self.space.interior)
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
    def test_drift_overflowing_over_the_probe_step_is_refused(self):
        # 8000 dt_ref = 500 leaves e^500 finite, the probe's 2 dt_ref
        # overflows; with an odd step count no row takes 2 dt_ref
        drift = PolynomialDrift.linear(8000.0)
        with pytest.raises(ValueError, match=r"\[0\.0, 8000\.0\] overflow "
                           r"a float over a step of 0\.125"):
            strong_config(drift=drift)
        strong_config(drift=drift, horizon=3 * 2.0 ** -4)
        moments_config(drift=drift)

    def test_drift_overflowing_over_the_coarsest_dt_level_is_refused(self):
        # the coarsest tested step, 2^-3, is the longest; dt_ref is 2^-7
        with pytest.raises(ValueError, match="over a step of 0.125"):
            splitting_config(drift=PolynomialDrift.linear(6000.0))
        with pytest.raises(ValueError, match="over a step of 0.125"):
            splitting_config(drift=PolynomialDrift((0.0, 3000.0, 0.0, -1.0)))
        splitting_config(drift=PolynomialDrift.linear(4000.0))

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

    @pytest.mark.parametrize("widths", [dict(levels=(0.3, 0.2, 0.1)),
                                        dict(h_ref=0.03)])
    def test_widths_must_tile_the_domain(self, widths):
        with pytest.raises(ValueError, match="does not tile the domain"):
            strong_config(**widths)

    @pytest.mark.parametrize("pair", [(0.0, 3.0, "l2"), (0.0, 0.5, "ritz"),
                                      (0.5, 1.0, "semigroup")])
    def test_operator_pairs_in_range(self, pair):
        with pytest.raises(ValueError, match="error norm needs"):
            strong_config(kind="operators", operator_pairs=(pair,))

    @pytest.mark.parametrize("kind, widths", [
        ("strong", dict(levels=(1 / 6, 1 / 8, 1 / 32), h_ref=2.0 ** -7)),
        ("strong", dict(h_ref=1 / 40)),
        ("moments", dict(levels=(1 / 6, 1 / 8, 1 / 32), h_ref=None)),
    ])
    def test_meshes_must_nest(self, kind, widths):
        with pytest.raises(ValueError, match="do not nest"):
            strong_config(kind=kind, **widths)

    @pytest.mark.parametrize("kind, field", [
        ("moments", dict()),
        ("operators", dict()),
        ("splitting_dt", dict(levels=(2.0 ** -4,), dt_ref=2.0 ** -7,
                              dt_levels=(2.0 ** -3, 2.0 ** -4, 2.0 ** -5))),
    ])
    def test_reference_width_only_for_strong_and_weak(self, kind, field):
        with pytest.raises(ValueError, match="reference width is only"):
            strong_config(kind=kind, **field)
        strong_config(kind=kind, **field, h_ref=None)

    @pytest.mark.parametrize("kind", ["weak", "moments", "operators"])
    def test_p_order_only_for_strong_and_splitting_dt(self, kind):
        no_ref = dict(h_ref=None) if kind != "weak" else {}
        with pytest.raises(ValueError, match="p_order is only"):
            strong_config(kind=kind, p_order=3, **no_ref)
        assert strong_config(kind=kind, **no_ref).p_order == 2

    @pytest.mark.parametrize("field, value, reader", [
        ("dt_levels", (2.0 ** -3, 2.0 ** -4, 2.0 ** -5), "splitting_dt"),
        ("functional", "cos_mode_1", "weak"),
        ("operator_pairs", ((0.0, 2.0, "l2"),), "operators"),
    ], ids=["dt_levels", "functional", "operator_pairs"])
    @pytest.mark.parametrize("kind", ["strong", "weak", "moments",
                                      "operators", "splitting_dt"])
    def test_kind_only_fields_keep_their_default(self, field, value,
                                                 reader, kind):
        # a field the kind never reads would only change the hash
        no_ref = {} if kind in ("strong", "weak") else dict(h_ref=None)
        make = splitting_config if kind == "splitting_dt" \
            else functools.partial(strong_config, kind=kind, **no_ref)
        if kind == reader:
            assert getattr(make(**{field: value}), field) == value
            return
        with pytest.raises(ValueError, match=f"{field} is only meaningful "
                           f"for {reader} studies"):
            make(**{field: value})
        default = StudyConfig.__dataclass_fields__[field].default
        assert getattr(make(**{field: default}), field) == default

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
        assert cfg.step_ratios == (1, 1, 1)

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
            covariance=CovarianceSpec.custom(np.zeros(16)),
            drift=ZERO,
            levels=(2.0 ** -3, 2.0 ** -4, 2.0 ** -5, 2.0 ** -6),
            h_ref=2.0 ** -8,
            horizon=0.5, dt_ref=2.0 ** -4,
            samples=100, batch_size=100, x0="mode1", seed=0)
        report = run_study(cfg)
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
        return run_study(cfg)

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
        report = run_study(cfg)
        basis = SpectralBasis(k_max=cov.k_trunc, length=cfg.length)
        assert report.functional_means is not None
        for entry in report.functional_means:
            n = round(cfg.length / entry["h"])
            space = FemSpace(n, cfg.length)
            x0 = default_initial_profile(space.interior, cfg.length)
            oracle = linear_weak_reference(space, basis, cov, x0,
                                           cfg.horizon)
            assert abs(entry["mean"] - oracle) < 4.0 * entry["stderr"]
        assert report.slope == pytest.approx(2.0, abs=0.35)
        assert report.monotonic

    def test_reference_rejects_modes_outside_the_basis(self):
        space = FemSpace(8)
        basis = SpectralBasis(k_max=32)
        cov = CovarianceSpec.power_decay(2.0, k_trunc=32)
        x0 = default_initial_profile(space.interior, 1.0)
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
        moments_config(samples=300),
    ], ids=["strong", "weak", "splitting_dt", "moments"])
    def test_worker_count_does_not_change_bytes(self, cfg):
        serial = run_study(cfg, workers=1)
        forked = run_study(cfg, workers=3)
        assert serial.to_csv() == forked.to_csv()

    def test_map_fn_seam_matches_serial(self):
        cfg = strong_config()
        a = run_study(cfg)
        b = run_study(cfg, map_fn=map)
        assert a.to_csv() == b.to_csv()

    def test_json_stable_up_to_runtime(self):
        cfg = strong_config()
        a = json.loads(run_study(cfg).to_json())
        b = json.loads(run_study(cfg, workers=2).to_json())
        assert a["runtime"]["start_method"] is None
        assert b["runtime"]["start_method"] == "fork"
        for doc in (a, b):
            doc.pop("runtime_seconds")
            doc.pop("timings")
            doc.pop("runtime")
            doc.pop("workers")
        assert a == b

    @pytest.mark.parametrize("kind", ["strong", "moments"])
    def test_json_timings_split_the_runtime(self, kind):
        cfg = strong_config()
        if kind == "moments":
            cfg = StudyConfig(
                kind="moments",
                covariance=CovarianceSpec.power_decay(2.0, k_trunc=64),
                drift=AC, levels=(2.0 ** -2, 2.0 ** -3, 2.0 ** -4),
                horizon=0.25, dt_ref=2.0 ** -4, samples=100, batch_size=100)
        report = run_study(cfg)
        doc = json.loads(report.to_json())
        timings = doc["timings"]
        assert set(timings) == {"setup_s", "batches_s", "reduce_s"}
        assert min(timings.values()) >= 0.0
        assert math.fsum(timings.values()) <= doc["runtime_seconds"]
        assert not any(key in report.to_csv() for key in timings)

    def test_json_workers_counts_processes_that_ran_batches(self):
        # one batch runs serially; two batches fill a pool of two
        one_batch = strong_config(samples=100)
        assert run_study(one_batch, workers=2).workers == 1
        assert run_study(strong_config(), workers=3).workers == 2
        assert run_study(strong_config(), map_fn=map,
                         workers=2).workers == 1
        reports = run_study(strong_config(kind="operators", h_ref=None),
                            workers=2)
        assert {r.workers for r in reports.values()} == {1}

    def test_seed_changes_results(self):
        a = run_study(strong_config(seed=1))
        b = run_study(strong_config(seed=2))
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
        report = run_study(cfg)
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
        report = run_study(cfg)
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
        report = run_study(cfg)
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
        report = run_study(cfg)
        basis = SpectralBasis(k_max=256)
        for h, mean, se in zip(cfg.levels, report.z_l2_moment,
                               report.z_l2_stderr):
            space = FemSpace(round(1.0 / h))
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
        report = run_study(cfg)
        assert 0 < report.aborted_total < cfg.samples
        assert report.notes == (
            f"{report.aborted_total} of 100 samples aborted (overflow or "
            "non-finite state) and were discarded",)
        for series in (report.z_sup_moment, report.z_l2_moment,
                       report.x_sup_moment):
            assert all(math.isfinite(m) for m in series)
        # every kept sample stayed under the limit at every step
        assert max(report.x_sup_moment) <= OVERFLOW_LIMIT ** 2

    def test_overflow_check_reads_the_abs_sup_without_writing(self):
        # the sup is max(max, -min) per column: the bits of |state|'s max,
        # +0.0 on a column of zeros of either sign, NaN on a NaN column;
        # NaN and +-inf columns are aborted and zeroed, the rest untouched
        state = substream(5, purpose="test").standard_normal((6, 8))
        state[:, 2] = 0.0
        state[:, 3] = -0.0
        state[1, 4] = np.nan
        state[2, 5] = np.inf
        state[3, 6] = -np.inf
        state[4, 7] = -2.0 * OVERFLOW_LIMIT
        before = state.copy()
        abs_sup = np.abs(state).max(axis=0)
        aborted = np.zeros(8, dtype=bool)
        sup = _discard_overflow(state, aborted)
        assert sup.tobytes() == abs_sup.tobytes()
        assert aborted.tolist() == [False] * 4 + [True] * 4
        assert np.all(state[:, 4:] == 0.0)
        assert state[:, :4].tobytes() == before[:, :4].tobytes()


class TestOperators:
    def test_projection_and_ritz_rates(self):
        cfg = StudyConfig(
            kind="operators",
            covariance=CovarianceSpec.power_decay(2.0, k_trunc=64),
            drift=AC, levels=(2.0 ** -3, 2.0 ** -4, 2.0 ** -5, 2.0 ** -6),
            seed=0)
        fits = run_study(cfg)
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
        fits = run_study(cfg)
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

    def test_operator_study_has_no_path(self):
        with pytest.raises(ValueError, match="no sample path"):
            simulate_trajectory(strong_config(kind="operators", h_ref=None))


class TestReports:
    def make_report(self):
        return run_study(strong_config())

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
        doc = json.loads(run_study(cfg).to_json())
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


def fake_engine(cfg, errors):
    """An engine stand-in whose one batch gives every sample of level i
    the error errors[i], exactly representable so its stderr is 0."""
    engine = SimpleNamespace(cfg=cfg, notes=(), resolutions=list(cfg.levels))
    batch = {"aborted": np.zeros(cfg.samples, dtype=bool),
             "values": [np.full(cfg.samples, e) for e in errors]}
    return engine, [batch]


class TestReportPath:
    HS = (2.0 ** -1, 2.0 ** -2, 2.0 ** -3, 2.0 ** -4)

    def flags(self, report):
        return ([(lv.error, lv.stderr, lv.usable) for lv in report.levels],
                report.noise_floor, report.monotonic, report.notes,
                report.fit_failed)

    def test_zero_error_level_is_not_usable(self):
        report = _rate_report(strong_config(), self.HS,
                              [(0.5, 0.0), (0.25, 0.0), (0.125, 0.0),
                               (0.0, 0.0)], [])
        assert [lv.usable for lv in report.levels] == [True] * 3 + [False]
        assert report.noise_floor and not report.fit_failed

    def test_non_monotone_usable_series_gets_the_note(self):
        # the drowned third level does not count against monotonicity
        report = _rate_report(strong_config(), self.HS,
                              [(0.5, 0.01), (0.25, 0.01), (0.3, 0.1),
                               (0.125, 0.01)], [])
        assert report.monotonic and report.notes == ()
        report = _rate_report(strong_config(), self.HS,
                              [(0.5, 0.01), (0.25, 0.01), (0.3, 0.01),
                               (0.125, 0.01)], [])
        assert not report.monotonic
        assert report.notes == (
            "usable errors are not monotone in resolution",)

    def test_failed_fit_gives_nan_and_its_message(self):
        report = _rate_report(strong_config(), self.HS,
                              [(0.5, 0.0), (0.25, 0.0), (0.0, 0.0),
                               (0.125, 1.0)], [])
        assert report.fit_failed
        assert all(math.isnan(v)
                   for v in (report.slope, report.ci_lo, report.ci_hi))
        assert report.notes == (
            "insufficient data: only 2 of 4 levels clear the noise floor, "
            "need 3 for a rate fit",)

    def test_fit_uses_exactly_the_usable_levels(self):
        for report in (run_study(strong_config()),
                       _rate_report(strong_config(), self.HS,
                                    [(0.5, 0.01), (0.2, 0.1), (0.1, 0.01),
                                     (0.05, 0.01)], [])):
            fit = fit_rate([(lv.resolution, lv.error, lv.stderr)
                            for lv in report.levels])
            assert fit.used == tuple(lv.usable for lv in report.levels)

    @pytest.mark.parametrize("errors", [
        (0.25, 0.5, 0.125, 0.0),      # a zero level and a rise
        (0.25, 0.0, 0.0, 0.0),        # too few levels for a fit
        (0.5, 0.25, 0.125, 0.0625),
    ])
    def test_operator_pair_gets_the_flags_of_a_monte_carlo_study(
            self, errors, monkeypatch):
        cfg = strong_config(levels=self.HS, h_ref=2.0 ** -6)
        monte_carlo = _reduce_rate_study(*fake_engine(cfg, errors))
        assert all(lv.stderr == 0.0 for lv in monte_carlo.levels)
        by_elements = {round(1.0 / h): e for h, e in zip(self.HS, errors)}
        monkeypatch.setattr(experiments, "operator_error_norm",
                            lambda space, *args, **kw:
                            by_elements[space.n + 1])
        operators = run_study(StudyConfig(
            kind="operators", covariance=cfg.covariance, drift=AC,
            levels=self.HS, operator_pairs=((0.0, 2.0, "l2"),)))
        pair = operators[(0.0, 2.0, "l2")]
        assert self.flags(pair) == self.flags(monte_carlo)
        assert (pair.slope == monte_carlo.slope
                or math.isnan(pair.slope) and math.isnan(monte_carlo.slope))
        assert operators.fit_failed == monte_carlo.fit_failed


class TestDegenerateLevels:
    """Studies whose levels keep too few samples report NaN, not a
    spurious number, and warn nothing."""

    @pytest.mark.parametrize("kind", ["strong", "weak"])
    def test_every_sample_aborted_reports_nan_error_and_stderr(self, kind):
        cfg = strong_config(kind=kind, drift=PolynomialDrift((0, 5000.0)),
                            horizon=0.5, samples=100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_study(cfg)
        assert report.aborted_total == 100 and report.fit_failed
        for lv in report.levels:
            assert math.isnan(lv.error) and math.isnan(lv.stderr)
            assert not lv.usable
        assert report.to_csv().splitlines()[-1] == "2,0.0625,nan,nan,false"
        assert report.probe_ratio is None

    def test_one_kept_sample_is_too_few(self):
        cfg = strong_config()
        engine, (batch,) = fake_engine(cfg, (0.5, 0.25, 0.125))
        batch["aborted"][1:] = True
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = _reduce_rate_study(engine, [batch])
        assert report.aborted_total == cfg.samples - 1
        assert all(math.isnan(lv.error) and math.isnan(lv.stderr)
                   and not lv.usable for lv in report.levels)

    def test_moment_series_not_all_positive_gets_nan_exponents(self):
        # no noise: Z is 0 on every mesh, X is deterministic and positive
        cfg = moments_config(covariance=CovarianceSpec.custom(np.zeros(8)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_study(cfg)
        assert report.z_sup_moment == report.z_l2_moment == [0.0] * 3
        for key in ("z_sup", "z_l2"):
            assert math.isnan(report.exponents[key])
            assert math.isnan(report.exponents[key + "_envelope"])
        assert math.isfinite(report.exponents["x_sup"])
        assert report.notes == tuple(
            f"{key} moments are not all positive: its exponents are NaN"
            for key in ("z_sup", "z_l2"))
