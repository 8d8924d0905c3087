"""An independent replay of verify_termination's reports.

The checker rebuilds the coefficient system of each degree and walks the
report's branches as a trie, event by event, with its own substitutions
and its own sign test; it reads nothing of the chain engine but the
report's JSON.  A change to the engine is then judged by whether its
report still proves the degree bound, not only by frozen bytes.

Run as a script, with abcdwaves importable, it replays the JSON files
that ``abcdwaves reduce`` wrote and fails on the first event that does not
follow:

    PYTHONPATH=src python tests/test_termination_replay.py reduce.json reduce_c0.json
"""

import json
import sys
from fractions import Fraction as F

import pytest

from abcdwaves.cli import main
from abcdwaves.cnexpr import build_coefficient_system
from abcdwaves.families import ParameterSet
from abcdwaves.ratpoly import RationalPoly
from abcdwaves.reduction import verify_termination

POSITIVE = {"lam", "m"}
ZERO = RationalPoly.const(0)
CASES = {"c_nonzero": (None, {"c"}), "c_zero": ({"c": 0}, set())}


def unknown(name):
    return name[0] in "jk" and name[1:].isdigit() and int(name[1:]) >= 1


def sign_definite(poly, nonzero):
    """Same-sign terms, every odd power on lam or m, and one term of lam, m
    and nonzero symbols only: a sum of nonnegative terms, one positive."""
    odd = any(exp % 2 for mono in poly.terms for name, exp in mono if name not in POSITIVE)
    if odd or len({coef > 0 for coef in poly.terms.values()}) != 1:
        return False
    return any({name for name, _ in mono} <= POSITIVE | nonzero for mono in poly.terms)


class Replay:
    """The live equations, and each unknown's value in the free unknowns."""

    def __init__(self, eqs, values, nonzero):
        self.eqs, self.values, self.nonzero = eqs, values, nonzero

    def forcing(self, event):
        """The unknowns of the content monomial of the event's live equation,
        one of which must vanish; fails unless the event records that
        equation and the rest of the content and the cofactor are nonzero."""
        poly = self.eqs[tuple(event["eq"])]
        assert event["detail"] == poly.to_text(), event
        content = poly.monomial_gcd()
        names = {name for name, _ in content}
        unknowns = {name for name in names if unknown(name)}
        assert names - unknowns <= POSITIVE | self.nonzero, event
        cofactor = poly.divide_by_monomial(content)
        assert cofactor.is_constant() or sign_definite(cofactor, self.nonzero), event
        return unknowns

    def substitute(self, name, value):
        sub = {name: value}
        return Replay({k: p.substitute(sub) for k, p in self.eqs.items()},
                      {k: v.substitute(sub) for k, v in self.values.items()}, self.nonzero)

    def top(self, prefix):
        return max((int(u[1:]) for u, v in self.values.items()
                    if u[0] == prefix and not v.is_zero()), default=0)

    def walk(self, branches, i=0):
        state = self
        while True:
            if any(len(b["events"]) == i for b in branches):
                assert len(branches) == 1, "a leaf shares its path with another branch"
                leaf = branches[0]
                assert (leaf["eta_degree"], leaf["w_degree"]) == (state.top("j"), state.top("k"))
                return
            event = branches[0]["events"][i]
            if event["move"] == "branch":
                break
            assert all(b["events"][i] == event for b in branches), i
            name = event["var"]
            if event["move"] == "forced":
                assert state.forcing(event) == {name}, event
                state = state.substitute(name, ZERO)
            else:
                assert event["move"] == "eliminate", event
                poly = state.eqs[tuple(event["eq"])]
                slope = poly.derivative(name)
                assert poly.degree_in(name) == 1 and slope.is_constant(), event
                definition = poly.substitute({name: F(0)}) * (F(-1) / slope.terms[()])
                assert event["detail"] == f"{name} := {definition.to_text()}", event
                state = state.substitute(name, definition)
            i += 1
        siblings = {}
        for b in branches:
            e = b["events"][i]
            assert (e["move"], e["eq"], e["detail"]) == ("branch", event["eq"], event["detail"])
            siblings.setdefault(e["var"], []).append(b)
        assert state.forcing(event) == set(siblings), event
        for name, below in siblings.items():
            state.substitute(name, ZERO).walk(below, i + 1)


def replay(report, params, nonzero):
    """Replay every degree of a report's JSON; fail on the first event that
    does not follow from the rebuilt system."""
    for result in report["results"]:
        n, branches = result["n"], result["branches"]
        system = build_coefficient_system(n, n, params=params)
        values = {f"{p}{r}": RationalPoly.var(f"{p}{r}") for p in "jk" for r in range(1, n + 1)}
        Replay(dict(system.nonzero()), values, nonzero).walk(branches)
        realized = [max(b[key] for b in branches) for key in ("eta_degree", "w_degree")]
        assert realized == result["realized_degrees"]
        assert all(r <= s for r, s in zip(realized, report["shape_degrees"]))


def replay_file(path):
    """Replay a saved ``abcdwaves reduce`` report against the symbolic case
    or the a, b, c, d of its run_config."""
    with open(path) as fh:
        report = json.load(fh)
    cfg = report["run_config"]
    if cfg["case"]:
        replay(report, *CASES[cfg["case"].replace("-", "_")])
    else:
        replay(report, {key: F(cfg[key]) for key in "abcd"}, set())


def symbolic(case, n_min, n_max):
    return json.loads(verify_termination(case=case, n_min=n_min, n_max=n_max).to_json())


@pytest.mark.parametrize("case", sorted(CASES))
def test_replay_symbolic_reports(case):
    replay(symbolic(case, 3, 12), *CASES[case])


@pytest.mark.parametrize("a,n_max", [(-1, 6), (F(1, 3), 9)])
def test_replay_rational_points(a, n_max):
    # the two points the CLI step of CI reduces
    report = json.loads(verify_termination(ParameterSet.make(a, 0, 0, 0), n_max).to_json())
    replay(report, {"a": F(a), "b": 0, "c": 0, "d": 0}, set())


@pytest.mark.parametrize("argv", [["--case", "c-zero", "--nmax", "5"],
                                  ["--a", "1/3", "--b", "0", "--c", "0", "--d", "0",
                                   "--nmax", "5"]], ids=["case", "point"])
def test_replay_a_reduce_output_file(tmp_path, capsys, argv):
    assert main(["reduce", *argv]) == 0
    path = tmp_path / "reduce.json"
    path.write_text(capsys.readouterr().out)
    replay_file(path)
    report = json.loads(path.read_text())
    report["results"][-1]["branches"][0]["eta_degree"] += 1
    path.write_text(json.dumps(report))
    with pytest.raises(AssertionError):
        replay_file(path)


# each mutation at n = 8 must be caught: a dropped event (the shared
# second one), a changed factor, a dropped sibling branch and a leaf that
# claims one degree lower
MUTATIONS = {
    "dropped-event": lambda bs: [b["events"].pop(1) for b in bs],
    "changed-factor": lambda bs: [e.update(detail="8*k8^3") for b in bs
                                  for e in b["events"] if e["detail"] == "8*k8^2"],
    "dropped-sibling": lambda bs: bs.pop(),
    "leaf-one-degree-lower": lambda bs: bs[0].update(eta_degree=bs[0]["eta_degree"] - 1),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_replay_rejects_a_mutated_report(case, mutation):
    report = symbolic(case, 8, 8)
    replay(report, *CASES[case])
    MUTATIONS[mutation](report["results"][0]["branches"])
    with pytest.raises(AssertionError):
        replay(report, *CASES[case])


if __name__ == "__main__":
    for path in sys.argv[1:]:
        replay_file(path)
        print(f"{path}: every event replays")
