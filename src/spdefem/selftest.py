"""Built-in verification battery for a fresh checkout.

Each check exercises one hand-derivable fact against an independent
computation: closed-form discrete eigenvalues, the reaction flow against
a Runge-Kutta oracle, the composition law of the two-mesh convolution
covariance, the known deterministic approximation rates, a Gaussian
closed form for the weak estimator, the tangent process against finite
differences, and the byte-level determinism contract.  The battery is
what the ``selftest`` command runs; it finishes in well under a minute
on one core.

Checks return nothing on success and raise on failure; the runner
collects per-check status and timing.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .dynamics import Integrator, PolynomialDrift, SchemeConfig, \
    tangent_integrate
from .experiments import (StudyConfig, default_initial_profile, fit_rate,
                          linear_weak_reference, run_study)
from .fem import FemSpace, operator_error_norm
from .noise import CovarianceSpec, _step_covariances
from .rng import substream
from .spectral import SpectralBasis

__all__ = ["SelfTestResult", "run_selftest"]


@dataclass
class SelfTestResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _check(condition: bool, detail: str) -> None:
    if not condition:
        raise AssertionError(detail)


def check_discrete_eigenvalues_closed_form() -> None:
    """The closed-form eigenpairs (6/h^2) (1 - cos(i pi h)) / (2 + cos(i pi
    h)) with discrete-sine eigenvectors V solve the assembled pencil:
    S V = M V Lambda and V^T M V = I."""
    for n in (8, 16, 37):
        space = FemSpace(n)
        vecs = space.from_eigen(np.eye(space.n))
        lam = space.eigenvalues
        residual = np.abs(space.stiffness @ vecs
                          - space.mass @ vecs * lam).max()
        _check(residual < 1e-10 * lam[-1],
               f"n={n}: eigenpair residual {residual:.3e}")
        gram = np.abs(vecs.T @ space.mass @ vecs - np.eye(space.n)).max()
        _check(gram < 1e-12, f"n={n}: eigenvectors not M-orthonormal "
               f"({gram:.3e})")
        continuous = (np.arange(1, n) * np.pi) ** 2
        _check(np.all(lam >= continuous * (1.0 - 1e-12)),
               f"n={n}: discrete eigenvalue below its continuous partner")


def check_flow_against_rk4() -> None:
    """Closed-form reaction flow versus one fixed-step Runge-Kutta run of
    20,000 steps of 1/20,000, read at t = 0.1, 0.5 and 1."""
    drift = PolynomialDrift.allen_cahn()
    x = np.linspace(-2.0, 2.0, 41)
    y, dt = x.copy(), 1.0 / 20000
    for step in range(1, 20001):
        k1 = drift(y)
        k2 = drift(y + 0.5 * dt * k1)
        k3 = drift(y + 0.5 * dt * k2)
        k4 = drift(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if step in (2000, 10000, 20000):
            t = step / 20000
            gap = np.abs(drift.flow(t, x) - y).max()
            _check(gap < 1e-9, f"t={t}: flow differs from RK4 by {gap:.3e}")


def check_flow_derivative_bounds() -> None:
    """Monotonicity: 0 <= d/dx Phi_t(x) <= exp(L t) for the one-sided
    Lipschitz constant L."""
    drift = PolynomialDrift.allen_cahn()
    x = np.linspace(-3.0, 3.0, 601)
    for t in (0.05, 0.25, 1.0):
        _, deriv = drift.flow_with_derivative(t, x)
        _check(deriv.min() >= 0.0, f"t={t}: negative flow derivative")
        bound = math.exp(drift.one_sided_constant * t) * (1.0 + 1e-6)
        _check(deriv.max() <= bound,
               f"t={t}: flow derivative {deriv.max():.6f} above "
               f"exp(Lt)={bound:.6f}")


def check_covariance_composition() -> None:
    """Two nested meshes' convolution covariance over 2d, cross-mesh
    entries included, is the decayed composition of two d steps:
    C(2d) = e^{-(lam_a + lam_b) d} C(d) + C(d) on every ancestor link."""
    spaces = [FemSpace(24), FemSpace(8)]  # finest first: the block order
    basis = SpectralBasis(k_max=128)
    spec = CovarianceSpec.power_decay(2.0, k_trunc=128)
    dt = 0.05
    (single, up, _), (double, _, _) = (
        _step_covariances(spaces, basis, spec, step) for step in (dt, 2 * dt))
    for a, b in ((0, 0), (0, 1), (1, 1)):
        has = up[a][b] >= 0
        decay = np.exp(-dt * (spaces[a].eigenvalues[has]
                              + spaces[b].eigenvalues[up[a][b][has]]))
        composed = decay * single[a][b][has] + single[a][b][has]
        gap = np.abs(double[a][b][has] - composed).max()
        scale = np.abs(double[a][b]).max()
        _check(scale > 0.0 and gap < 1e-12 * max(scale, 1.0),
               f"mesh pair {a}{b}: covariance composition violated by "
               f"{gap:.3e}")


def check_truncation_tail() -> None:
    """Default mode counts keep the discarded covariance trace under
    0.1% of the full series."""
    for rho, k_trunc in ((2.0, 1024), (2.0, 2048), (3.0, 512)):
        spec = CovarianceSpec.power_decay(rho, k_trunc=k_trunc)
        kept = float(spec.weights.sum())
        tail_bound = k_trunc ** (1.0 - rho) / (rho - 1.0)
        fraction = tail_bound / (kept + tail_bound)
        _check(fraction < 1e-3,
               f"rho={rho}, k_trunc={k_trunc}: trace tail fraction "
               f"{fraction:.2e}")


def check_projection_rates() -> None:
    """Deterministic operator approximation orders 2 (L2), 1 (Ritz in
    the energy norm), and 1 (L2 from H1 data)."""
    widths = [2.0 ** -k for k in range(3, 7)]
    basis = SpectralBasis(k_max=512)
    cases = ((0.0, 2.0, "l2", 2.0), (1.0, 2.0, "ritz", 1.0),
             (0.0, 1.0, "l2", 1.0))
    for s, r, which, expected in cases:
        points = []
        for h in widths:
            space = FemSpace(round(1.0 / h))
            points.append((h, operator_error_norm(space, basis, s, r,
                                                  which), 0.0))
        slope = fit_rate(points).slope
        _check(abs(slope - expected) < 0.1,
               f"({s},{r},{which}): slope {slope:.3f}, expected "
               f"{expected}")


def check_rate_fit_exact() -> None:
    """The regression recovers exact power laws to round-off."""
    for order in (1.0, 2.0):
        levels = [(h, 2.5 * h ** order, 0.0)
                  for h in (0.5, 0.25, 0.125, 0.0625)]
        slope = fit_rate(levels).slope
        _check(abs(slope - order) < 1e-10,
               f"order {order}: fitted {slope}")


def check_deterministic_semigroup_rate() -> None:
    """Noise and drift off, first-eigenmode start: the coupled strong
    study must measure the order-2 semigroup rate with zero variance."""
    cfg = StudyConfig(
        kind="strong",
        covariance=CovarianceSpec.custom(np.zeros(8)),
        drift=PolynomialDrift.zero(),
        levels=(2.0 ** -3, 2.0 ** -4, 2.0 ** -5),
        h_ref=2.0 ** -7, horizon=0.5, dt_ref=2.0 ** -3,
        samples=100, x0="mode1", seed=0)
    report = run_study(cfg)
    _check(abs(report.slope - 2.0) < 0.1,
           f"semigroup slope {report.slope:.3f}, expected 2")
    _check(max(lv.stderr for lv in report.levels) < 1e-14,
           "deterministic study produced nonzero variance")


def check_weak_gaussian_oracle(seed: int) -> None:
    """With the reaction off, the mode-pairing observable is Gaussian
    and every level mean has a closed form."""
    cov = CovarianceSpec.power_decay(2.0, k_trunc=128)
    cfg = StudyConfig(
        kind="weak", covariance=cov, drift=PolynomialDrift.zero(),
        levels=(2.0 ** -2, 2.0 ** -3, 2.0 ** -4), h_ref=2.0 ** -6,
        horizon=0.5, dt_ref=2.0 ** -4, samples=200,
        functional="cos_mode_1", seed=seed)
    report = run_study(cfg)
    basis = SpectralBasis(k_max=cov.k_trunc)
    for entry in report.functional_means:
        space = FemSpace(round(1.0 / entry["h"]))
        x0 = default_initial_profile(space.interior, 1.0)
        oracle = linear_weak_reference(space, basis, cov, x0, cfg.horizon)
        z = abs(entry["mean"] - oracle) / entry["stderr"]
        _check(z < 4.0,
               f"h={entry['h']}: mean is {z:.1f} standard errors from "
               "the Gaussian value")


def _random_smooth_field(space, gen, n_modes: int = 8) -> np.ndarray:
    """Random combination of the first sine modes, amplitudes ~ 1/k.

    Rough (nodal-white) directions are nearly annihilated by the
    semigroup, which turns a relative tangent comparison into 0/0;
    colored directions keep the tangent well away from zero while still
    randomizing over the low-frequency content that survives.
    """
    modes = np.arange(1, n_modes + 1)
    amplitudes = gen.standard_normal(n_modes) / modes
    return np.sin(np.outer(space.interior, modes) * np.pi) @ amplitudes


def check_tangent_against_finite_difference(seed: int) -> None:
    """Perturb-and-rerun with common noise against the tangent process."""
    space = FemSpace(16)
    basis = SpectralBasis(k_max=64)
    cov = CovarianceSpec.power_decay(2.0, k_trunc=64)
    scheme = SchemeConfig(dt=2.0 ** -6, n_steps=16)
    integ = Integrator(space, PolynomialDrift.allen_cahn(), scheme,
                       covariance=cov, basis=basis)
    eps = 1e-5
    for trial in range(3):
        gen = substream(seed + trial, purpose="selftest-dir")
        x0 = 0.8 * np.sin(np.pi * space.interior) \
            + 0.5 * _random_smooth_field(space, gen)
        y = _random_smooth_field(space, gen)
        y /= space.l2_norm(y)
        base, ckpts = integ.run(
            x0, substream(seed + trial, purpose="selftest-noise"),
            keep_checkpoints=True)
        eta = tangent_integrate(integ, ckpts, 0, y)
        bumped = integ.run(
            x0 + eps * y, substream(seed + trial, purpose="selftest-noise"))
        rel = space.l2_norm((bumped - base) / eps - eta) / space.l2_norm(eta)
        _check(rel < 1e-4,
               f"trial {trial}: finite-difference gap {rel:.2e}")


def check_determinism(seed: int, workers: int) -> None:
    """Same config and seed: byte-identical CSV, any worker count."""
    cfg = StudyConfig(
        kind="strong",
        covariance=CovarianceSpec.power_decay(2.0, k_trunc=64),
        drift=PolynomialDrift.allen_cahn(),
        levels=(2.0 ** -2, 2.0 ** -3, 2.0 ** -4), h_ref=2.0 ** -6,
        horizon=0.25, dt_ref=2.0 ** -4, samples=200, seed=seed)
    first = run_study(cfg).to_csv()
    again = run_study(cfg).to_csv()
    _check(first == again, "rerun changed the CSV bytes")
    if workers > 1:
        forked = run_study(cfg, workers=workers).to_csv()
        _check(first == forked,
               f"workers={workers} changed the CSV bytes")


def run_selftest(seed: int = 0, workers: int = 2) -> list[SelfTestResult]:
    """Run the whole battery; failures are collected, not raised."""
    battery = [
        ("discrete_eigenvalues_closed_form",
         check_discrete_eigenvalues_closed_form),
        ("flow_against_rk4", check_flow_against_rk4),
        ("flow_derivative_bounds", check_flow_derivative_bounds),
        ("covariance_composition", check_covariance_composition),
        ("truncation_tail", check_truncation_tail),
        ("projection_rates", check_projection_rates),
        ("rate_fit_exact", check_rate_fit_exact),
        ("deterministic_semigroup_rate", check_deterministic_semigroup_rate),
        ("weak_gaussian_oracle", lambda: check_weak_gaussian_oracle(seed)),
        ("tangent_against_finite_difference",
         lambda: check_tangent_against_finite_difference(seed)),
        ("determinism", lambda: check_determinism(seed, workers)),
    ]
    results = []
    for name, check in battery:
        start = time.perf_counter()
        try:
            check()
        except Exception as exc:  # report, never crash the battery
            outcome = SelfTestResult(name, False, str(exc),
                                     time.perf_counter() - start)
        else:
            outcome = SelfTestResult(name, True, "",
                                     time.perf_counter() - start)
        results.append(outcome)
    return results
