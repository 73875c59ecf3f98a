"""Second moments across mesh refinement: bounded, except where not.

Trace-class noise keeps every moment flat as the mesh refines.  White
noise is the interesting edge: the L2 moment still converges, but the
sup-norm moment creeps upward, at a pace consistent with log(1/h)
rather than any power of 1/h.
"""

from spdefem import CovarianceSpec, PolynomialDrift, StudyConfig, run_study

LEVELS = tuple(2.0 ** -k for k in range(3, 8))


def run(covariance):
    cfg = StudyConfig(
        kind="moments",
        covariance=covariance,
        drift=PolynomialDrift.allen_cahn(),
        levels=LEVELS,
        horizon=1.0,
        dt_ref=2.0 ** -6,
        samples=200,
        batch_size=100,
        seed=5,
    )
    return run_study(cfg, workers=2)


def show(label, report):
    print(f"\n{label}")
    print("      h       E sup|Z|^2    E ||Z||^2    E sup|X|^2")
    rows = zip(report.resolutions, report.z_sup_moment,
               report.z_l2_moment, report.x_sup_moment)
    for h, z_sup, z_l2, x_sup in rows:
        print(f"  {h:8.5f}   {z_sup:.4e}   {z_l2:.4e}   {x_sup:.4e}")
    exps = report.exponents
    print(f"  growth exponents: convolution sup {exps['z_sup']:+.3f}, "
          f"L2 {exps['z_l2']:+.3f}, solution sup {exps['x_sup']:+.3f}")
    print(f"  sup-norm log-envelope exponent {exps['z_sup_envelope']:.3f} "
          "(1.0 means growth exactly linear in log(1/h))")


def main():
    show("q_k = k^-2 (trace class)",
         run(CovarianceSpec.power_decay(2.0, k_trunc=512)))
    show("white noise", run(CovarianceSpec.white(k_trunc=2048)))


if __name__ == "__main__":
    main()
