"""End-to-end acceptance runs at the documented study sizes.

One test per numbered capability, each printing a single pass/fail line
with the measured quantity next to its target band.  The study tests
load the same YAML documents shipped in configs/, so what is accepted
here is exactly what the command line runs.

The whole file takes about a minute with two workers; studies are
session-scoped fixtures so reruns inside the file share results.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from spdefem import (CovarianceSpec, FemSpace, Integrator, PolynomialDrift,
                     SchemeConfig, SpectralBasis, default_initial_profile,
                     linear_weak_reference, load_config, run_study,
                     substream, tangent_integrate)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
WORKERS = 2


def study_from(name):
    return load_config(CONFIG_DIR / name)


def report_line(label, passed, detail):
    print(f"{label}: {'PASS' if passed else 'FAIL'} ({detail})")


@pytest.fixture(scope="session")
def strong_smooth_report():
    return run_study(study_from("strong_smooth.yaml"), workers=WORKERS)


@pytest.fixture(scope="session")
def strong_white_report():
    return run_study(study_from("strong_white.yaml"), workers=WORKERS)


@pytest.fixture(scope="session")
def weak_report():
    return run_study(study_from("weak_rate.yaml"), workers=WORKERS)


@pytest.fixture(scope="session")
def weak_linear_report():
    return run_study(study_from("weak_linear_oracle.yaml"), workers=WORKERS)


@pytest.fixture(scope="session")
def splitting_report():
    return run_study(study_from("splitting_dt.yaml"), workers=WORKERS)


def test_01_strong_rate_smooth_noise(strong_smooth_report):
    """Coupled strong error under q_k = k^-rho noise (rho = 2 in the
    shipped config): fitted slope within 0.15 of min(2, (rho+1)/2).

    The series sum_k lambda_k^(b-1) q_k ~ sum_k k^(2b-2-rho) converges
    for every b < (rho+1)/2, and P1 elements cap the L2 order at 2, so
    the sharp strong rate is min(2, (rho+1)/2) = 1.5 for k^-2 noise,
    the same law ``TestRateFamily`` checks on coarser hierarchies.  The
    paper's index beta is capped at 1 and only bounds the error by
    O(h^beta); the lower edge 1.35 implies that order-1 guarantee.
    """
    rho = study_from("strong_smooth.yaml").covariance.rho
    expected = min(2.0, (rho + 1.0) / 2.0)
    lo, hi = expected - 0.15, expected + 0.15
    slope = strong_smooth_report.slope
    passed = lo <= slope <= hi
    report_line("criterion 1, strong rate under trace-class noise",
                passed, f"slope {slope:.4f}, band [{lo:.2f}, {hi:.2f}] "
                f"around min(2, (rho+1)/2) = {expected:g}; the lower edge "
                "implies the paper's order-1 bound")
    assert passed, (
        f"measured slope {slope:.4f} outside [{lo:.2f}, {hi:.2f}], the "
        f"sharp strong rate min(2, (rho+1)/2) = {expected:g} for "
        f"q_k = k^-{rho:g} noise plus or minus 0.15")
    assert strong_smooth_report.monotonic


def test_02_strong_rate_white_noise(strong_white_report):
    """Coupled strong error under white noise: slope in [0.35, 0.65]."""
    slope = strong_white_report.slope
    passed = 0.35 <= slope <= 0.65
    report_line("criterion 2, strong rate under white noise", passed,
                f"slope {slope:.4f}, band [0.35, 0.65]")
    assert passed
    assert strong_white_report.monotonic


def test_03_weak_rate_with_gaussian_sanity(weak_report,
                                           weak_linear_report):
    """Weak error of a bounded observable: noise-floor-filtered slope in
    [1.6, 2.2]; the reaction-free variant agrees with the closed-form
    Gaussian value to 3 standard errors on every mesh."""
    slope = weak_report.slope
    passed = 1.6 <= slope <= 2.2
    report_line("criterion 3a, weak rate", passed,
                f"slope {slope:.4f}, band [1.6, 2.2]")
    assert passed

    cfg = study_from("weak_linear_oracle.yaml")
    basis = SpectralBasis(k_max=cfg.covariance.k_trunc)
    worst = 0.0
    for entry in weak_linear_report.functional_means:
        space = FemSpace(round(1.0 / entry["h"]))
        x0 = default_initial_profile(space.interior, space.length)
        oracle = linear_weak_reference(space, basis, cfg.covariance, x0,
                                       cfg.horizon)
        worst = max(worst,
                    abs(entry["mean"] - oracle) / entry["stderr"])
    sane = worst <= 3.0
    report_line("criterion 3b, Gaussian oracle sanity", sane,
                f"worst deviation {worst:.2f} standard errors, limit 3")
    assert sane


def test_04_splitting_step_order(splitting_report):
    """Halving the drift step on a fixed mesh: slope at least 0.85."""
    slope = splitting_report.slope
    passed = slope >= 0.85
    report_line("criterion 4, splitting order in the step size", passed,
                f"slope {slope:.4f}, floor 0.85")
    assert passed
    assert splitting_report.monotonic


def test_05_operator_approximation_orders():
    """Projection and Ritz error orders within 0.1 of r - s."""
    fits = run_study(study_from("operators.yaml")).fits
    expected = {(0.0, 2.0, "l2"): 2.0, (1.0, 2.0, "ritz"): 1.0,
                (0.0, 1.0, "l2"): 1.0}
    gaps = {key: abs(fits[key].slope - want)
            for key, want in expected.items()}
    passed = all(gap <= 0.1 for gap in gaps.values())
    detail = ", ".join(f"({s:g},{r:g},{which}) slope "
                       f"{fits[(s, r, which)].slope:.3f}"
                       for (s, r, which) in expected)
    report_line("criterion 5, operator approximation orders", passed,
                detail)
    assert passed, gaps


def test_06_tangent_finite_difference():
    """Tangent process against perturb-and-rerun with common noise:
    relative gap at most 1e-4 at eps = 1e-5 on 20 random pairs.

    Pairs are random low-mode combinations (amplitudes ~ 1/k): rough
    directions decay to numerical zero under the semigroup, which makes
    a relative comparison meaningless rather than informative.
    """
    space = FemSpace(32)
    basis = SpectralBasis(k_max=128)
    cov = CovarianceSpec.power_decay(2.0, k_trunc=128)
    scheme = SchemeConfig(dt=2.0 ** -6, n_steps=16)
    integ = Integrator(space, PolynomialDrift.allen_cahn(), scheme,
                       covariance=cov, basis=basis)

    def smooth_field(gen, n_modes=8):
        modes = np.arange(1, n_modes + 1)
        amps = gen.standard_normal(n_modes) / modes
        return np.sin(np.outer(space.interior, modes) * np.pi) @ amps

    eps = 1e-5
    worst = 0.0
    for pair in range(20):
        gen = substream(pair, purpose="acceptance-tangent-pair")
        x0 = 0.8 * np.sin(np.pi * space.interior) \
            + 0.5 * smooth_field(gen)
        y = smooth_field(gen)
        y /= space.l2_norm(y)
        base, ckpts = integ.run(
            x0, substream(pair, purpose="acceptance-tangent-noise"),
            keep_checkpoints=True)
        eta = tangent_integrate(integ, ckpts, 0, y)
        bumped = integ.run(
            x0 + eps * y,
            substream(pair, purpose="acceptance-tangent-noise"))
        rel = space.l2_norm((bumped - base) / eps - eta) \
            / space.l2_norm(eta)
        worst = max(worst, rel)
    passed = worst <= 1e-4
    report_line("criterion 6, tangent vs finite difference", passed,
                f"worst relative gap {worst:.2e}, limit 1e-4")
    assert passed


def test_07_reaction_flow_properties():
    """Flow-map derivative bounds and agreement with a Runge-Kutta
    oracle to 1e-9 on the test grid."""
    drift = PolynomialDrift.allen_cahn()

    def rk4(t, x, n_steps=20000):
        y = np.asarray(x, dtype=float).copy()
        dt = t / n_steps
        for _ in range(n_steps):
            k1 = drift(y)
            k2 = drift(y + 0.5 * dt * k1)
            k3 = drift(y + 0.5 * dt * k2)
            k4 = drift(y + dt * k3)
            y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return y

    grid = np.linspace(-2.0, 2.0, 41)
    worst_gap = 0.0
    for t in (0.1, 0.5, 1.0):
        worst_gap = max(worst_gap,
                        float(np.abs(drift.flow(t, grid) - rk4(t, grid))
                              .max()))
    wide = np.linspace(-3.0, 3.0, 601)
    bounds_ok = True
    for t in (0.05, 0.25, 1.0):
        _, deriv = drift.flow_with_derivative(t, wide)
        ceiling = math.exp(drift.one_sided_constant * t) * (1.0 + 1e-6)
        bounds_ok &= deriv.min() >= 0.0 and deriv.max() <= ceiling
    passed = worst_gap <= 1e-9 and bounds_ok
    report_line("criterion 7, reaction flow properties", passed,
                f"oracle gap {worst_gap:.2e} (limit 1e-9), derivative "
                f"bounds {'held' if bounds_ok else 'violated'}")
    assert passed


def test_08_moment_boundedness():
    """Second moments across the mesh ladder: flat (within 0.1) for
    trace-class noise and for the white-noise L2 norm; the white-noise
    sup-norm grows no faster than linearly in log(1/h)."""
    trace = run_study(study_from("moments_trace_class.yaml"),
                      workers=WORKERS)
    white = run_study(study_from("moments_white.yaml"), workers=WORKERS)
    checks = {
        "trace-class convolution sup": abs(trace.exponents["z_sup"]) <= 0.1,
        "trace-class solution sup": abs(trace.exponents["x_sup"]) <= 0.1,
        "white L2": abs(white.exponents["z_l2"]) <= 0.1,
        "white sup log-envelope": white.exponents["z_sup_envelope"] <= 1.3,
    }
    passed = all(checks.values())
    detail = (f"trace z_sup {trace.exponents['z_sup']:+.3f}, "
              f"trace x_sup {trace.exponents['x_sup']:+.3f}, "
              f"white z_l2 {white.exponents['z_l2']:+.3f}, "
              f"white envelope {white.exponents['z_sup_envelope']:.3f}")
    report_line("criterion 8, moment boundedness", passed, detail)
    assert passed, checks


def test_09_deterministic_reruns(strong_smooth_report):
    """Any study rerun with the same seed and a different worker count
    reproduces byte-identical CSV output."""
    again = run_study(study_from("strong_smooth.yaml"), workers=1)
    passed = again.to_csv() == strong_smooth_report.to_csv()
    report_line("criterion 9, worker-count determinism", passed,
                f"CSV bytes {'identical' if passed else 'differ'} "
                f"between {WORKERS} workers and serial")
    assert passed
