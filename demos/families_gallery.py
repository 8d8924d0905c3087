"""Build every closed-form family at its published illustration parameters.

Walks the eight cnoidal parameter sets (two per family branch), verifies
each against the moving-frame equations, and writes CSV + SVG profiles
next to this script.  The two semi-trivial figures (flat eta = -1) drop
out of the S412 bottom branch and the S422 family at a = 0; both coincide
with the dedicated S43 constructor.
"""

import math
import pathlib
from fractions import Fraction as F

import numpy as np

from abcdwaves import ParameterSet, build_s43, build_s411, build_s412, \
    build_s421, build_s422, complete_k, ode_residual
from abcdwaves.cli import write_csv, write_svg

HERE = pathlib.Path(__file__).parent

CASES = [
    ("s411_a", "mixed quadratic", ParameterSet.make(F(-5, 6), 1, F(-5, 6), 1),
     lambda p: build_s411(p, F(3, 4), 1, 1)),
    ("s411_b", "mixed quadratic", ParameterSet.make(-7, 2, F(4, 3), 4),
     lambda p: build_s411(p, F(1, 4), -1, 1)),
    ("s412_top", "even quadratic", ParameterSet.make(1, F(-8, 3), 1, 1),
     lambda p: build_s412(p, 1, 1, math.sqrt(0.5), "top")),
    ("s412_bottom", "semi-trivial via bottom signs",
     ParameterSet.make(0, -1, F(-2, 3), 2),
     lambda p: build_s412(p, F(1, 2), F(-1, 3), F(1, 4), "bottom")),
    ("s421_a", "quartic eta", ParameterSet.make(1, -1, 0, F(1, 3)),
     lambda p: build_s421(p, F(1, 2), -2, F(1, 2))),
    ("s421_b", "quartic eta", ParameterSet.make(0, F(1, 6), 0, F(1, 6)),
     lambda p: build_s421(p, 1, 1, F(9, 10))),
    ("s422_a", "even quadratic, c = 0", ParameterSet.make(F(-11, 3), 2, 0, 2),
     lambda p: build_s422(p, 1, -1, math.sqrt(0.5))),
    ("s422_b", "semi-trivial at a = 0", ParameterSet.make(0, F(-5, 3), 0, 2),
     lambda p: build_s422(p, 2, F(1, 8), F(3, 4))),
]


def main():
    for name, label, p, make in CASES:
        sol = make(p)
        rel = ode_residual(sol, p, 512).relative
        period = 4 * complete_k(sol.m) / sol.lam
        xs = 3 * period * np.arange(601) / 600
        etas, ws = sol.profiles(xs)
        write_csv(HERE / f"{name}.csv", zip(xs, etas, ws))
        write_svg(HERE / f"{name}.svg", xs, etas, ws,
                  title=f"{name}: {label} (residual {rel:.1e})")
        print(f"{name:14s} {label:32s} residual {rel:.2e}  "
              f"lam={sol.lam:.4g} sigma={sol.sigma:.4g} period={period:.4g}")

    # the two flat-eta cases coincide with the dedicated constructor
    flat = build_s412(ParameterSet.make(0, -1, F(-2, 3), 2),
                      F(1, 2), F(-1, 3), F(1, 4), "bottom")
    direct = build_s43(2, F(1, 2), F(-1, 3), F(1, 4))
    gap = max(abs(x - y) for x, y in zip(flat.j + flat.k, direct.j + direct.k))
    print(f"\nsemi-trivial cross-check: S412-bottom vs S43 coefficient gap {gap:.1e}")


if __name__ == "__main__":
    main()
