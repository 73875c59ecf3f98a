"""Strong convergence under three noise regularities.

One Brownian path drives every mesh at once, so the difference against
the fine reference isolates the spatial discretization error.  The
measured slope follows min(2, (rho+1)/2) for q_k = k^-rho: about one
half for white noise, and climbing towards the deterministic order 2 as
the noise smooths out.  Desk-scale sizes; a minute or so in total.
"""

from spdefem import CovarianceSpec, PolynomialDrift, StudyConfig, run_study

LEVELS = tuple(2.0 ** -k for k in range(3, 7))

CASES = [
    ("white (q_k = 1)", CovarianceSpec.white(k_trunc=1024)),
    ("q_k = k^-1", CovarianceSpec.power_decay(1.0, k_trunc=512)),
    ("q_k = k^-2", CovarianceSpec.power_decay(2.0, k_trunc=512)),
]


def main():
    for label, covariance in CASES:
        cfg = StudyConfig(
            kind="strong",
            covariance=covariance,
            drift=PolynomialDrift.allen_cahn(),
            levels=LEVELS,
            h_ref=2.0 ** -8,
            horizon=1.0,
            dt_ref=2.0 ** -6,
            samples=200,
            seed=11,
        )
        report = run_study(cfg, workers=2)
        print(f"\n{label}")
        print("  level        h        error      stderr")
        for lv in report.levels:
            print(f"  {lv.index:>5}  {lv.resolution:8.5f}  "
                  f"{lv.error:.3e}  {lv.stderr:.3e}")
        print(f"  slope {report.slope:.3f}  "
              f"ci [{report.ci_lo:.3f}, {report.ci_hi:.3f}]  "
              f"temporal probe {report.probe_ratio:.1%}")


if __name__ == "__main__":
    main()
