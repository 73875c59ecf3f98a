"""Temporal order of the exact-flow splitting.

The noise is sampled exactly on the finest grid and aggregated, so the
only thing that degrades as the drift step grows is the splitting of
the reaction against the semigroup: a clean first-order signature, with
no mesh error in sight because every run shares one mesh.
"""

from spdefem import CovarianceSpec, PolynomialDrift, StudyConfig, run_study


def main():
    cfg = StudyConfig(
        kind="splitting_dt",
        covariance=CovarianceSpec.power_decay(2.0, k_trunc=256),
        drift=PolynomialDrift.allen_cahn(),
        levels=(2.0 ** -5,),
        dt_levels=tuple(2.0 ** -k for k in range(3, 9)),
        dt_ref=2.0 ** -12,
        horizon=1.0,
        samples=200,
        seed=2,
    )
    report = run_study(cfg, workers=2)
    print("mesh width fixed at 2^-5, drift step halving")
    print("  level      dt         error      stderr")
    for lv in report.levels:
        print(f"  {lv.index:>5}  {lv.resolution:9.6f}  "
              f"{lv.error:.3e}  {lv.stderr:.3e}")
    print(f"  slope {report.slope:.3f}  "
          f"ci [{report.ci_lo:.3f}, {report.ci_hi:.3f}]")


if __name__ == "__main__":
    main()
