import logging
from fractions import Fraction as F

import pytest

from abcdwaves import reduction
from abcdwaves.errors import ChainBrokenError, UsageError
from abcdwaves.families import ParameterSet
from abcdwaves.ratpoly import RationalPoly
from abcdwaves.reduction import (AnsatzShape, classify_ansatz,
                                 verify_termination)

from reference_systems import convolve, second_derivative, series

P = ParameterSet.make


# one classification sample per call; five points per region
CLASSIFICATION_GRID = [
    (P(F(-5, 6), 1, F(-5, 6), 1), AnsatzShape.GENERIC_QUADRATIC),
    (P(1, F(-8, 3), 1, 1), AnsatzShape.GENERIC_QUADRATIC),
    (P(0, 1, F(1, 7), 0), AnsatzShape.GENERIC_QUADRATIC),
    (P(F(2, 3), 0, -2, F(1, 5)), AnsatzShape.GENERIC_QUADRATIC),
    (P(-7, 2, F(4, 3), 4), AnsatzShape.GENERIC_QUADRATIC),
    (P(0, 0, F(1, 2), F(-1, 6)), AnsatzShape.SEMI_TRIVIAL_ETA_CONSTANT),
    (P(0, 0, -1, 0), AnsatzShape.SEMI_TRIVIAL_ETA_CONSTANT),
    (P(0, 0, F(1, 3), F(1, 3)), AnsatzShape.SEMI_TRIVIAL_ETA_CONSTANT),
    (P(0, 0, F(-2, 3), 2), AnsatzShape.SEMI_TRIVIAL_ETA_CONSTANT),
    (P(0, 0, 5, 5), AnsatzShape.SEMI_TRIVIAL_ETA_CONSTANT),
    (P(1, -1, 0, F(1, 3)), AnsatzShape.QUARTIC_ETA_QUADRATIC_W),
    (P(0, F(1, 6), 0, F(1, 6)), AnsatzShape.QUARTIC_ETA_QUADRATIC_W),
    (P(F(-11, 3), 2, 0, 2), AnsatzShape.QUARTIC_ETA_QUADRATIC_W),
    (P(3, 0, 0, F(1, 3)), AnsatzShape.QUARTIC_ETA_QUADRATIC_W),
    (P(0, F(-5, 3), 0, 2), AnsatzShape.QUARTIC_ETA_QUADRATIC_W),
    (P(F(1, 3), 0, 0, 0), AnsatzShape.TRIVIAL_ONLY),
    (P(2, 0, 0, 0), AnsatzShape.TRIVIAL_ONLY),
    (P(0, 0, 0, 0), AnsatzShape.TRIVIAL_ONLY),
    (P(F(7, 2), 0, 0, 0), AnsatzShape.TRIVIAL_ONLY),
    (P(F(1, 100), 0, 0, 0), AnsatzShape.TRIVIAL_ONLY),
]

# the fifth region, c = b = d = 0 with a < 0, outside the criterion-8 grid
# above (the physical constraint pins a = 1/3 there)
NEGATIVE_A_POINTS = [-1, F(-8, 3), F(-1, 7), -2, F(-1, 100)]


@pytest.mark.parametrize("p,shape", CLASSIFICATION_GRID)
def test_classification_grid(p, shape):
    got = classify_ansatz(p)
    assert got is shape
    assert got.degrees == shape.degrees


@pytest.mark.parametrize("a", NEGATIVE_A_POINTS)
def test_classification_negative_a(a):
    got = classify_ansatz(P(a, 0, 0, 0))
    assert got is AnsatzShape.QUADRATIC_ETA_LINEAR_W
    assert got.degrees == (2, 1)


def test_shape_degree_table():
    assert AnsatzShape.GENERIC_QUADRATIC.degrees == (2, 2)
    assert AnsatzShape.SEMI_TRIVIAL_ETA_CONSTANT.degrees == (0, 2)
    assert AnsatzShape.QUARTIC_ETA_QUADRATIC_W.degrees == (4, 2)
    assert AnsatzShape.QUADRATIC_ETA_LINEAR_W.degrees == (2, 1)
    assert AnsatzShape.TRIVIAL_ONLY.degrees == (0, 0)


def test_symbolic_c_nonzero_first_forced_zero_at_n4():
    report = verify_termination(case="c_nonzero", n_min=4, n_max=4)
    assert report.passed
    events = report.results[0].branches[0].events
    assert events[0].var == "k4"
    assert events[0].eq == (2, 7)
    assert events[0].detail == "4*k4^2"


def test_symbolic_c_zero_n5_forces_k5_then_j5():
    report = verify_termination(case="c_zero", n_min=5, n_max=5)
    assert report.passed
    order = [e.var for e in report.results[0].branches[0].events]
    assert order.index("k5") < order.index("j5")
    assert {"k5", "k4", "k3", "j5"} <= set(order)


def test_symbolic_chains_pass_n3_to_n5():
    for case in ("c_nonzero", "c_zero"):
        report = verify_termination(case=case, n_max=5)
        assert report.passed, report.to_json()


def test_semi_trivial_chain_forces_all_eta_coefficients():
    report = verify_termination(P(0, 0, F(1, 2), F(1, 3)), 3)
    assert report.passed
    assert report.shape is AnsatzShape.SEMI_TRIVIAL_ETA_CONSTANT
    for result in report.results:
        for branch in result.branches:
            assert branch.eta_degree == 0


def test_trivial_only_chain_closes_completely():
    report = verify_termination(P(F(1, 3), 0, 0, 0), 4)
    assert report.passed
    for result in report.results:
        assert result.realized_degrees == (0, 0)


GENERIC_GRID_POINTS = [
    # representatives with no extra degeneracy (each region's families
    # stay at full degree here)
    (P(F(-5, 6), 1, F(-5, 6), 1), AnsatzShape.GENERIC_QUADRATIC),
    (P(-7, 2, F(4, 3), 4), AnsatzShape.GENERIC_QUADRATIC),
    (P(0, 0, F(1, 2), F(-1, 6)), AnsatzShape.SEMI_TRIVIAL_ETA_CONSTANT),
    (P(0, 0, F(-2, 3), 2), AnsatzShape.SEMI_TRIVIAL_ETA_CONSTANT),
    (P(1, -1, 0, F(1, 3)), AnsatzShape.QUARTIC_ETA_QUADRATIC_W),
    (P(F(-11, 3), 2, 0, 2), AnsatzShape.QUARTIC_ETA_QUADRATIC_W),
    (P(F(1, 3), 0, 0, 0), AnsatzShape.TRIVIAL_ONLY),
    (P(-1, 0, 0, 0), AnsatzShape.QUADRATIC_ETA_LINEAR_W),
]


def test_chain_agrees_with_classification_on_grid():
    # at generic points the chain stabilizes exactly at the classified
    # degrees; every grid point must stay within them
    for p, shape in CLASSIFICATION_GRID:
        report = verify_termination(p, 3)
        assert report.passed, (p, shape)
        eta_d, w_d = report.results[0].realized_degrees
        assert eta_d <= shape.degrees[0] and w_d <= shape.degrees[1]
    for p, shape in GENERIC_GRID_POINTS:
        report = verify_termination(p, 3)
        realized = report.results[0].realized_degrees
        assert realized == (min(shape.degrees[0], 3),
                            min(shape.degrees[1], 3)), (p, shape)


def test_trivial_region_needs_positive_a():
    # with b = c = d = 0 the closure argument rests on a sum of squares
    # that is only sign-definite for a >= 0; the parameterization
    # constraint pins a = 1/3 there, but an unphysical a < 0 admits real
    # nonzero k1 (k1^2 = -4 a lam^2 m^2): that is the fifth shape, and
    # every chain closes at exactly its degrees (2, 1)
    for a in NEGATIVE_A_POINTS:
        report = verify_termination(P(a, 0, 0, 0), 9)
        assert report.passed and not report.notes
        for result in report.results:
            assert {(b.eta_degree, b.w_degree) for b in result.branches} == {(2, 1)}
    for a in (0, F(1, 3)):
        assert classify_ansatz(P(a, 0, 0, 0)) is AnsatzShape.TRIVIAL_ONLY


def test_shape_below_the_chain_raises(monkeypatch):
    # a classification below the true (2, 2) shape: the chain cannot close
    # and verify_termination raises instead of reporting a failed degree
    monkeypatch.setattr(reduction, "classify_ansatz",
                        lambda p: AnsatzShape.TRIVIAL_ONLY)
    with pytest.raises(ChainBrokenError, match=r"stalled at degrees \(2, 2\)"):
        verify_termination(P(1, F(-8, 3), 1, 1), 3)


def test_negative_a_wave_solves_the_odes():
    # eta = sigma w - w^2/2 + C with w = sigma + k1 cn, k1^2 = -4 a lam^2 m^2:
    # at a = -1, lam = 1, m = 1/2, sigma = 1 that is j = (-3/2, 0, -1/2),
    # k = (1, +-1, 0), of exactly the classified degrees (2, 1)
    from abcdwaves.families import SolutionParams
    from abcdwaves.verifier import ode_residual
    for k1 in (1.0, -1.0):
        sol = SolutionParams((-1.5, 0.0, -0.5, 0.0, 0.0), (1.0, k1, 0.0),
                             1.0, 0.5, 1.0, "QuadraticEtaLinearW")
        assert ode_residual(sol, P(-1, 0, 0, 0), 1024).relative <= 1e-14


def test_argument_validation():
    with pytest.raises(UsageError):
        verify_termination(case="c_nonzero", n_max=24)
    with pytest.raises(UsageError):
        verify_termination(case="c_zero", n_min=24, n_max=24)
    with pytest.raises(UsageError):
        verify_termination(case="c_zero", n_min=2, n_max=4)
    with pytest.raises(UsageError):
        verify_termination()
    with pytest.raises(UsageError):
        verify_termination(P(1, 1, 1, 1), 4, case="c_nonzero")
    with pytest.raises(UsageError):
        verify_termination(case="sideways")


def test_termination_degrees_reach_n_max_and_no_further():
    assert verify_termination(case="c_zero", n_min=reduction.N_MAX,
                              n_max=reduction.N_MAX).passed
    with pytest.raises(UsageError):
        verify_termination(case="c_zero", n_max=reduction.N_MAX + 1)


def test_sign_definite_takes_any_positive_coefficient():
    # 2 lam^2 + j1^2 / 2 > 0 for lam > 0: one coefficient is below 1
    lam, j1 = RationalPoly.var("lam"), RationalPoly.var("j1")
    assert reduction._is_sign_definite(2 * lam * lam + F(1, 2) * j1 * j1, frozenset())


@pytest.mark.parametrize("p", ["c_zero", (1, 1, 1, 1)])
def test_p_must_be_a_parameter_set(p):
    # the case passed positionally lands in p
    with pytest.raises(UsageError, match="p must be a ParameterSet"):
        verify_termination(p, n_max=3)


@pytest.mark.parametrize("case,degrees", [("c_nonzero", (2, 2)),
                                          ("c_zero", (4, 2))])
def test_symbolic_chains_pass_beyond_n8(case, degrees):
    report = verify_termination(case=case, n_min=9, n_max=12)
    assert report.passed, report.to_json()
    assert [r.n for r in report.results] == [9, 10, 11, 12]
    assert all(r.realized_degrees == degrees for r in report.results)


def test_termination_logs_each_degree(caplog):
    with caplog.at_level(logging.DEBUG, logger="abcdwaves.reduction"):
        report = verify_termination(case="c_nonzero", n_min=5, n_max=6)
    records = [r for r in caplog.records if r.name == "abcdwaves.reduction"]
    assert len(records) == 2
    for record, result in zip(records, report.results):
        assert record.levelno == logging.DEBUG
        n, branches, events, seconds = record.args[1:5]
        assert (n, branches) == (result.n, len(result.branches))
        assert events == sum(len(b.events) for b in result.branches)
        build, chains = record.args[5:7]
        assert build >= 0.0 and chains >= 0.0
        assert 0.0 <= build + chains <= seconds
    assert [r.args[7:] for r in records] == [(3, 0), (5, 2)]
    assert "n=6, 4 branches, 32 events" in records[1].getMessage()
    # silent by default: the library attaches no handler of its own
    assert logging.getLogger("abcdwaves.reduction").handlers == []


@pytest.mark.parametrize("case,counts", [("c_nonzero", [(7, 4), (11, 8)]),
                                         ("c_zero", [(5, 2), (9, 6)])])
def test_chain_memo_counts(caplog, case, counts):
    # both sides of a u*v = 0 split often reach the same zero set and
    # eliminations; each such state is explored once per degree, and the
    # per-degree record ends with (states explored, memo hits)
    with caplog.at_level(logging.DEBUG, logger="abcdwaves.reduction"):
        for n in (8, 12):
            verify_termination(case=case, n_min=n, n_max=n)
    records = [r for r in caplog.records if r.name == "abcdwaves.reduction"]
    assert [r.args[7:] for r in records] == counts


def test_memo_hit_branches_get_their_own_event_lists():
    branches = verify_termination(case="c_nonzero", n_min=8, n_max=8).results[0].branches
    assert len(branches) == 8
    assert len({id(b.events) for b in branches}) == len(branches)
    # the memo's copies are whole branches: no two branches repeat a path
    paths = [tuple((e.var, e.eq, e.move) for e in b.events) for b in branches]
    assert len(set(paths)) == len(paths)


def test_memo_key_holds_the_eliminations():
    # the same zero set reached with and without the elimination j1 := 0
    # is two states: the second chain must not get the first one's branches
    j1, k1 = RationalPoly.var("j1"), RationalPoly.var("k1")
    memo = reduction._ChainMemo()
    plain = reduction._Chain({(0, 1): 4 * k1 ** 2, (1, 1): 2 * j1 ** 2}, frozenset())
    eliminated = reduction._Chain({(0, 1): 4 * k1 ** 2}, frozenset())
    eliminated.eliminations.append(("j1", RationalPoly.const(0)))
    runs = [reduction._run_chain(chain, 1, AnsatzShape.TRIVIAL_ONLY, memo)
            for chain in (plain, eliminated)]
    assert [[e.var for e in below[0][0]] for below in runs] == \
        [["k1", "j1"], ["k1"]]
    assert (len(memo.states), memo.hits) == (2, 0)
    # an equal state found again returns the memo's own tuple, not a copy
    again = reduction._Chain({(0, 1): 4 * k1 ** 2, (1, 1): 2 * j1 ** 2}, frozenset())
    assert reduction._run_chain(again, 1, AnsatzShape.TRIVIAL_ONLY, memo) is runs[0]
    assert (len(memo.states), memo.hits) == (2, 1)


@pytest.mark.parametrize("case", ["c_nonzero", "c_zero"])
def test_memo_keeps_the_unmemoized_branches(monkeypatch, case):
    # a memo that never hits explores every state from scratch: the flat
    # branch list must come out the same, event for event (the golden
    # hashes of tests/test_ratpoly.py stop at n = 8)
    memoized = verify_termination(case=case, n_min=12, n_max=12).to_json()

    class Forgetful(dict):
        def get(self, key, default=None):
            return default

    memo_cls = reduction._ChainMemo
    monkeypatch.setattr(reduction, "_ChainMemo", lambda: memo_cls(Forgetful()))
    assert verify_termination(case=case, n_min=12, n_max=12).to_json() == memoized


def test_c_zero_report_notes_governing_condition():
    report = verify_termination(case="c_zero", n_max=3)
    assert any("c = 0" in note for note in report.notes)


def test_report_serializes():
    report = verify_termination(case="c_nonzero", n_max=3)
    data = report.to_dict()
    assert data["passed"] is True
    assert data["shape"] == "GenericQuadratic"
    assert data["results"][0]["n"] == 3


# -- degree bookkeeping against the iteration tables -------------------------

def _top(coeffs) -> int:
    """Highest cn power with a nonzero coefficient (-1 for zero)."""
    return max((q for q, c in enumerate(coeffs) if not c.is_zero()), default=-1)


def _build_state(n, w_top):
    """Top cn power of each residual term, eta at full degree n and w
    truncated at w_top.  Each term is the xi-derivative of a cn polynomial
    f; after its -lam*sn*dn factor its cn^q coefficient is (q+1)*f[q+1],
    so its top power is that of f[1:]."""
    eta, w = series(n, "j"), series(w_top, "k")
    integrated = {
        "eta'": eta, "w'": w,
        "eta'''": second_derivative(eta), "w'''": second_derivative(w),
        "(eta w)'": convolve(eta, w), "w w'": convolve(w, w),
    }
    return {name: _top(f[1:]) for name, f in integrated.items()}


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_rho_iteration_tables(n):
    # after i top-coefficient kills of w the cn orders must follow
    # eta': n-1   w': n-2-i   eta''': n+1   w''': n-i
    # (eta w)': 2n-2-i        w w': 2n-3-2i
    i = 0
    while 2 * n - 3 - 2 * i > n + 1:
        tops = _build_state(n, n - 1 - i)
        assert tops["eta'"] == n - 1
        assert tops["w'"] == n - 2 - i
        assert tops["eta'''"] == n + 1
        assert tops["w'''"] == n - i
        assert tops["(eta w)'"] == 2 * n - 2 - i
        assert tops["w w'"] == 2 * n - 3 - 2 * i
        i += 1


def test_rho_initial_table():
    for n in (3, 4, 5, 6):
        tops = _build_state(n, n)
        assert tops["eta'"] == n - 1
        assert tops["w'"] == n - 1
        assert tops["eta'''"] == n + 1
        assert tops["(eta w)'"] == 2 * n - 1
        assert tops["w w'"] == 2 * n - 1
