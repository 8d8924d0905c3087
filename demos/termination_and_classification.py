"""Series termination, mechanically checked.

For each dispersion-coefficient regime the finite cn series must
terminate at a fixed degree; this script replays the forced-vanishing
chains on the symbolic coefficient systems and prints which equation
forces which coefficient to vanish, then shows the classification table
on a few sample points.
"""

from fractions import Fraction as F

from abcdwaves import ParameterSet, classify_ansatz, verify_termination


def show_report(rep):
    print(f"case {rep.case}: shape {rep.shape.value} "
          f"(degrees {rep.shape.degrees}), passed = {rep.passed}")
    for result in rep.results:
        print(f"  n = {result.n}: {len(result.branches)} branch(es), "
              f"surviving degrees {result.realized_degrees}")
        for i, branch in enumerate(result.branches):
            steps = ", ".join(
                f"{e.var}<-h[{e.eq[0]},{e.eq[1]}]" + ("*" if e.move == "branch" else "")
                for e in branch.events)
            print(f"    branch {i}: {steps or '(nothing to force)'}")
    for note in rep.notes:
        print(f"  note: {note}")
    print()


def main():
    show_report(verify_termination(case="c_nonzero", n_max=5))
    show_report(verify_termination(case="c_zero", n_max=5))
    show_report(verify_termination(ParameterSet.make(0, 0, F(1, 2), F(-1, 6)), 4))
    show_report(verify_termination(ParameterSet.make(F(1, 3), 0, 0, 0), 4))
    show_report(verify_termination(ParameterSet.make(-1, 0, 0, 0), 4))

    print("classification samples:")
    samples = [
        (F(-5, 6), 1, F(-5, 6), 1),
        (0, 0, F(1, 2), F(-1, 6)),
        (1, -1, 0, F(1, 3)),
        (F(1, 3), 0, 0, 0),
        (-1, 0, 0, 0),
    ]
    for a, b, c, d in samples:
        p = ParameterSet.make(a, b, c, d)
        shape = classify_ansatz(p)
        print(f"  (a={a}, b={b}, c={c}, d={d}) -> {shape.value} "
              f"degrees {shape.degrees}")


if __name__ == "__main__":
    main()
