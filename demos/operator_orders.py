"""Deterministic approximation orders of the FEM operators.

No sampling here: each error norm is the exact operator norm on the
span of the first k_max sine modes, taken block by block over the alias
classes of the sine modes on the uniform mesh (exact to roundoff), and the
measured slopes land on r - s to three decimal places.  The semigroup
variant shows the same order once the smoothing of e^{-tA} kicks in.
"""

from spdefem import (CovarianceSpec, PolynomialDrift, StudyConfig,
                     run_operator_study)


def main():
    cfg = StudyConfig(
        kind="operators",
        covariance=CovarianceSpec.power_decay(2.0, k_trunc=64),
        drift=PolynomialDrift.allen_cahn(),
        levels=tuple(2.0 ** -k for k in range(3, 8)),
        operator_pairs=(
            (0.0, 2.0, "l2"),
            (1.0, 2.0, "ritz"),
            (0.0, 1.0, "l2"),
            (0.0, 2.0, "semigroup"),
        ),
        seed=0,
    )
    fits = run_operator_study(cfg)
    print("operator errors between Sobolev levels s -> r")
    print("    s    r   variant     slope     expected")
    for (s, r, which), fit in fits.items():
        print(f"  {s:3g}  {r:3g}   {which:<9}  {fit.slope:7.3f}     "
              f"{r - s:g}")


if __name__ == "__main__":
    main()
