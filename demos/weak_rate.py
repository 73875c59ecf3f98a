"""Weak convergence doubles the strong rate, and a Gaussian cross-check.

The coupled estimator takes E phi(X_ref) - E phi(X_h) sample by sample,
so the sampling noise largely cancels and modest sample counts resolve
tiny weak errors.  Every level steps at dt_ref, so the levels differ
only in the mesh width, as in the weak analysis.

With the reaction switched off the solution is Gaussian and
E cos(<X(T), e_1>) has a closed form on every mesh, which pins the
whole pipeline against an independent formula.
"""

from spdefem import (CovarianceSpec, FemSpace, PolynomialDrift, SpectralBasis,
                     StudyConfig, default_initial_profile,
                     linear_weak_reference, run_study)

COV = CovarianceSpec.power_decay(2.0, k_trunc=512)
LEVELS = tuple(2.0 ** -k for k in range(2, 6))


def run(drift, functional, seed):
    cfg = StudyConfig(
        kind="weak",
        covariance=COV,
        drift=drift,
        levels=LEVELS,
        h_ref=2.0 ** -7,
        horizon=1.0,
        dt_ref=2.0 ** -6,
        samples=2000,
        batch_size=100,
        functional=functional,
        seed=seed,
    )
    return cfg, run_study(cfg, workers=2)


def main():
    cfg, report = run(PolynomialDrift.allen_cahn(), "exp_neg_sq_norm", 1)
    print("bounded observable exp(-||X||^2), cubic reaction")
    print("  level        h        |weak error|   stderr   usable")
    for lv in report.levels:
        print(f"  {lv.index:>5}  {lv.resolution:8.5f}   {lv.error:.3e}  "
              f"{lv.stderr:.3e}   {lv.usable}")
    print(f"  slope {report.slope:.3f}  "
          f"ci [{report.ci_lo:.3f}, {report.ci_hi:.3f}]")

    cfg, report = run(PolynomialDrift.zero(), "cos_mode_1", 1)
    basis = SpectralBasis(k_max=COV.k_trunc)
    print("\nreaction off: E cos(<X(T), e_1>) against the closed form")
    print("      h        sampled mean   exact value   gap/se")
    for entry in report.functional_means:
        space = FemSpace(round(1.0 / entry["h"]))
        x0 = default_initial_profile(space.interior, 1.0)
        oracle = linear_weak_reference(space, basis, COV, x0, cfg.horizon)
        z = abs(entry["mean"] - oracle) / entry["stderr"]
        print(f"  {entry['h']:8.5f}   {entry['mean']:+.7f}   "
              f"{oracle:+.7f}   {z:4.2f}")
    print(f"  slope {report.slope:.3f} (order 2 exactly in the "
          "Gaussian case)")


if __name__ == "__main__":
    main()
