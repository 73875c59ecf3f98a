"""Pathwise sensitivity through the tangent process.

The tangent propagates an initial perturbation along a frozen noisy
trajectory using the exact Jacobian of each splitting step.  Against a
perturb-and-rerun finite difference with the identical noise, the two
agree to the quotient's own truncation error; and because the flow
derivative never leaves [0, e^(L t)], perturbations can grow only as
fast as the one-sided Lipschitz constant allows, noise or not.
"""

import numpy as np

from spdefem import (CovarianceSpec, FemSpace, Integrator, PolynomialDrift,
                     SchemeConfig, SpectralBasis, substream,
                     tangent_integrate)


def main():
    space = FemSpace(32)
    basis = SpectralBasis(k_max=128)
    cov = CovarianceSpec.power_decay(2.0, k_trunc=128)
    scheme = SchemeConfig(dt=2.0 ** -6, n_steps=32)
    drift = PolynomialDrift.allen_cahn()
    integ = Integrator(space, drift, scheme, covariance=cov, basis=basis)

    x0 = 0.8 * np.sin(np.pi * space.interior)
    y = np.sin(np.pi * space.interior)
    y /= space.l2_norm(y)

    base, ckpts = integ.run(x0, substream(3, purpose="demo-noise"),
                            keep_checkpoints=True)
    eta = tangent_integrate(integ, ckpts, 0, y)

    print("tangent against finite differences (same noise):")
    print("     eps     relative gap")
    for eps in (1e-3, 1e-4, 1e-5):
        bumped = integ.run(x0 + eps * y,
                           substream(3, purpose="demo-noise"))
        rel = space.l2_norm((bumped - base) / eps - eta) \
            / space.l2_norm(eta)
        print(f"  {eps:7.0e}   {rel:.2e}")

    horizon = scheme.dt * scheme.n_steps
    ceiling = np.exp(drift.one_sided_constant * horizon)
    diffusion = np.exp(-np.pi ** 2 * horizon)
    print(f"\ntangent norm {space.l2_norm(eta):.3e} from 1.0 at t=0")
    print(f"diffusion alone would leave e^(-pi^2 t) = {diffusion:.3e}; "
          f"the reaction can stretch\nany perturbation by at most "
          f"e^(L t) = {ceiling:.3f}, and here it lands in between")


if __name__ == "__main__":
    main()
