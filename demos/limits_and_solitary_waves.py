"""Family collapses and solitary-wave limits.

Three degenerations connect the families:

  * c -> 0 of the even quadratic family (bottom signs, sigma (b-2d) > 0)
    lands on the c = 0 quadratic family, first order in c;
  * a -> 0 of that family reproduces the semi-trivial eta = -1 family
    exactly (symbolic cancellation, checked to machine precision);
  * m -> 1 turns cn profiles into sech profiles, giving the solitary
    forms; the quartic family keeps its sech^4 term.

The eta = -1 solutions restrict the system to a single equation of BBM
type; the verifier confirms the residual with an arbitrary probe value
for the inert third-derivative coefficient.
"""

import pathlib
from fractions import Fraction as F

import numpy as np

from abcdwaves import (ParameterSet, bbm_reduction_check, build_s43, m1_limit,
                       limit_a_to_zero, limit_c_to_zero, ode_residual)
from abcdwaves.cli import write_csv, write_svg

HERE = pathlib.Path(__file__).parent


def main():
    table = limit_c_to_zero(a=1, b=2, d=-1, lam=1, sigma=1, m=F(1, 2))
    print("c -> 0 collapse (bottom signs), max coefficient gap:")
    for c, diff in zip(table.values, table.diffs):
        print(f"   c = {c:8.1e}   gap = {diff:.3e}")
    print(f"   monotone: {table.monotone}, empirical order "
          f"{table.orders[-1]:.3f}\n")

    table = limit_a_to_zero(b=2, d=-1, lam=1, sigma=1, m=F(3, 5))
    print(f"a -> 0: gap to the semi-trivial family = {table.diffs[0]:.1e} "
          "(exact cancellation)\n")

    print("m -> 1 solitary limits (cn -> sech):")
    cases = [
        ("even quadratic", "4.1.2",
         (ParameterSet.make(1, F(-8, 3), 1, 1), 1, 1), {"sign": "top"},
         ParameterSet.make(1, F(-8, 3), 1, 1)),
        ("quartic", "4.2.1",
         (ParameterSet.make(0, F(1, 6), 0, F(1, 6)), 1, 1), {},
         ParameterSet.make(0, F(1, 6), 0, F(1, 6))),
        ("mixed", "4.1.1",
         (ParameterSet.make(F(-5, 6), 1, F(-1, 6), F(1, 3)),),
         {"tau1": 1, "tau2": -1},
         ParameterSet.make(F(-5, 6), 1, F(-1, 6), F(1, 3))),
    ]
    for label, family, args, kwargs, p in cases:
        sol = m1_limit(family, *args, **kwargs)
        rel = ode_residual(sol, p, 512).relative
        terms = [f"{v:+.4g} sech^{r}" for r, v in enumerate(sol.j) if v]
        print(f"   {label:15s} eta = {' '.join(terms)}   residual {rel:.1e}")
        span = 16.0 / sol.lam
        xs = -span / 2 + span * np.arange(501) / 500
        write_svg(HERE / f"solitary_{family.replace('.', '_')}.svg", xs,
                  *sol.profiles(xs),
                  title=f"solitary limit of {family}")

    print("\nBBM single-equation reduction at eta = -1:")
    sol = build_s43(2, 2, F(1, 8), F(3, 4))
    for probe in (F(7, 10), F(-311, 7)):
        rep = bbm_reduction_check(sol, 2, c_probe=probe)
        print(f"   probe coefficient {float(probe):8.2f}: residual "
              f"{rep.relative:.2e}")
    sol1 = build_s43(2, 1, 1, 1)
    rep = bbm_reduction_check(sol1, 2)
    print(f"   m = 1 sech^2 solitary wave:   residual {rep.relative:.2e}")
    xs = np.arange(-125, 126) / 25.0
    write_csv(HERE / "bbm_solitary.csv",
              zip(xs, *sol1.profiles(xs)))


if __name__ == "__main__":
    main()
