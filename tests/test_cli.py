import hashlib
import json
import logging
import os
import subprocess
import sys
import warnings

from fractions import Fraction as F

import pytest

import abcdwaves
from abcdwaves import cnexpr, solver
from abcdwaves.cli import EXIT_BROKEN_PIPE, main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_family_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "case"
    code, stdout, _ = run_cli([
        "family", "--set", "4.1.2", "--lambda", "1", "--m", "0.70710678",
        "--sigma", "1", "--a", "1", "--b", "-8/3", "--c", "1", "--d", "1",
        "--sign", "top", "--out", str(out), "--samples", "128"], capsys)
    assert code == 0
    payload = json.loads((tmp_path / "case.json").read_text())
    assert payload["solution"]["family_tag"] == "S412"
    assert payload["residual"]["relative"] <= 1e-9
    assert payload["run_config"]["b"] == "-8/3"

    csv_text = (tmp_path / "case.csv").read_bytes().decode()
    lines = csv_text.split("\n")
    assert lines[0] == "xi,eta,w"
    assert "\r" not in csv_text
    # 17 significant digits
    value = lines[1].split(",")[1]
    assert len(value.replace("-", "").replace(".", "").lstrip("0")) >= 16

    svg = (tmp_path / "case.svg").read_text()
    assert svg.startswith("<svg")
    assert 'stroke="blue"' in svg and 'stroke="green"' in svg


def test_family_semi_trivial_flat_eta(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, stdout, _ = run_cli([
        "family", "--set", "4.3", "--d", "2", "--lambda", "2", "--m", "0.75",
        "--sigma", "0.125", "--samples", "128"], capsys)
    assert code == 0
    payload = json.loads((tmp_path / "family_4_3.json").read_text())
    assert payload["solution"]["j"][0] == -1.0
    assert all(v == 0.0 for v in payload["solution"]["j"][1:])


def test_family_flat_profiles_plot(tmp_path, capsys, monkeypatch):
    # eta = w = -1 everywhere: the plot widens the empty value range
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(["family", "--set", "4.3", "--d", "0", "--sigma", "-1",
                          "--m", "1/2", "--samples", "64", "--out", "flat"], capsys)
    assert code == 0
    solution = json.loads((tmp_path / "flat.json").read_text())["solution"]
    assert solution["j"] == [-1.0, 0.0, 0.0, 0.0, 0.0] and solution["k"] == [-1.0, 0.0, 0.0]
    svg = (tmp_path / "flat.svg").read_text()
    assert svg.startswith("<svg") and "nan" not in svg.lower()
    # the widened range [-2, 0], padded by 5%, labels the axis
    assert '>-2.1</text>' in svg and '>0.1</text>' in svg


def test_family_m_zero_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, stderr = run_cli([
        "family", "--set", "4.1.1", "--m", "0", "--a", "-5/6", "--b", "1",
        "--c", "-5/6", "--d", "1"], capsys)
    assert code == 2
    assert "m = 0" in stderr


@pytest.mark.parametrize("argv,stream,text", [
    (["--set", "4.1.1", "--a", "-5/6", "--b", "1", "--c", "-5/6", "--d", "1",
      "--m", "3/4"], "out", "physical constraint ok: theta = 0.816496580928\n"),
    (["--set", "4.1.2", "--a", "1", "--b", "-8/3", "--c", "1", "--d", "1",
      "--m", "0.70710678"], "err", "c+d = 2 > 1/2 forces theta^2 = -3 < 0"),
], ids=["ok", "violated"])
def test_family_check_physical(tmp_path, capsys, monkeypatch, argv, stream, text):
    # a violated constraint is a warning: the family is still built
    monkeypatch.chdir(tmp_path)
    code, stdout, stderr = run_cli(["family", *argv, "--check-physical",
                                    "--samples", "128"], capsys)
    assert code == 0
    assert text in (stdout if stream == "out" else stderr)


def test_family_huge_span_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, stderr = run_cli([
        "family", "--set", "4.1.2", "--lambda", "1", "--m", "0.70710678",
        "--sigma", "1", "--a", "1", "--b", "-8/3", "--c", "1", "--d", "1",
        "--periods", "1e12", "--samples", "128"], capsys)
    assert code == 2
    assert "error:" in stderr and "periods" in stderr


def test_family_verify_round_trip(tmp_path, capsys):
    out = tmp_path / "rt"
    run_cli(["family", "--set", "4.2.1", "--a", "1", "--b", "-1", "--d", "1/3",
             "--lambda", "1/2", "--sigma", "-2", "--m", "1/2",
             "--out", str(out), "--samples", "128"], capsys)
    code, stdout, _ = run_cli(["verify", "--input", str(out) + ".json",
                               "--samples", "128"], capsys)
    assert code == 0
    data = json.loads(stdout)
    assert data["residual"]["relative"] <= 1e-9
    assert data["periodicity"]["defect"] <= 1e-9


@pytest.mark.parametrize("edit,message", [
    (lambda out: out["solution"].pop("k"), "lacks k"),
    (lambda out: out["solution"]["j"].append(0.5), "beyond j4"),
    (lambda out: out["solution"]["k"].extend([0.0, -2.0]), "beyond j4 or k2"),
    (lambda out: out["solution"].update(sigma=float("nan")), "finite"),
    (lambda out: out["solution"].update({"lambda": 0.0}), "lambda > 0"),
    (lambda out: out["run_config"].update(a="one"), "run_config a = 'one'"),
    (lambda out: out["run_config"].update(d=[1, 3]), "run_config d = [1, 3]"),
    (lambda out: out.update(run_config=["a", 1]), "run_config must be a JSON object"),
    # true is not read as a = 1
    (lambda out: out["run_config"].update(a=True), "run_config a = True is not a rational"),
    # an integer too large for a float
    (lambda out: out["solution"]["j"].__setitem__(0, 10**400), "malformed stored solution"),
    (lambda out: out["solution"].update(m=0), "m = 0"),
    (lambda out: out["solution"].update(sigma=0), "sigma must be nonzero"),
    # j and k must be arrays: a string or an object would be read as its
    # characters or its keys
    (lambda out: out["solution"].update(j="12"), "j and k as JSON arrays"),
    (lambda out: out["solution"].update(k={"0": 1, "2": 5}), "j and k as JSON arrays"),
    (lambda out: out["solution"]["branch"].update(tau1=7), "tau1 and tau2 of +1 or -1"),
    (lambda out: out["solution"]["branch"].update(pm="sideways"), "pm of top, bottom"),
    # a JSON boolean is not a number, though Python reads true as 1
    (lambda out: out["solution"].update(j=[True, 1]), "numbers in j, k, lambda, m and sigma"),
    (lambda out: out["solution"].update({"lambda": True}), "numbers in j, k, lambda"),
    (lambda out: out["solution"]["branch"].update(tau1=True), "tau1 and tau2 of +1 or -1"),
    (lambda out: out["solution"]["branch"].update(tau1=1.0), "tau1 and tau2 of +1 or -1"),
    (lambda out: out["solution"].update(family_tag=[5]), "a string family_tag"),
    (lambda out: out["solution"].update(origin=[5]), "a string or null origin"),
], ids=["missing-k", "six-j", "four-k", "nan-sigma", "zero-lambda",
        "non-rational-a", "list-d", "list-run-config", "boolean-a", "huge-j", "zero-m", "zero-sigma",
        "string-j", "object-k", "tau1-7", "pm-sideways", "boolean-j", "boolean-lambda",
        "boolean-tau1", "float-tau1", "list-family-tag", "list-origin"])
def test_verify_rejects_malformed_solution(tmp_path, capsys, edit, message):
    # a family run's output, edited into a malformed stored solution
    out = tmp_path / "bad"
    run_cli(["family", "--set", "4.2.1", "--a", "1", "--b", "-1", "--d", "1/3",
             "--lambda", "1/2", "--sigma", "-2", "--m", "1/2",
             "--out", str(out), "--samples", "128"], capsys)
    payload = json.loads((tmp_path / "bad.json").read_text())
    edit(payload)
    (tmp_path / "bad.json").write_text(json.dumps(payload))
    code, _, stderr = run_cli(["verify", "--input", str(out) + ".json"], capsys)
    assert code == 2
    assert message in stderr


def test_verify_reads_an_integer_run_config_value(tmp_path, capsys):
    out = tmp_path / "int"
    run_cli(["family", "--set", "4.2.1", "--a", "1", "--b", "-1", "--d", "1/3",
             "--lambda", "1/2", "--sigma", "-2", "--m", "1/2",
             "--out", str(out), "--samples", "128"], capsys)
    payload = json.loads((tmp_path / "int.json").read_text())
    payload["run_config"]["a"] = 1
    (tmp_path / "int.json").write_text(json.dumps(payload))
    code, stdout, _ = run_cli(["verify", "--input", str(out) + ".json",
                               "--samples", "128"], capsys)
    assert code == 0
    assert json.loads(stdout)["residual"]["relative"] <= 1e-9


@pytest.mark.parametrize("content,message", [
    (None, "No such file"), ("not json", "Expecting value"),
    ("[1, 2]", "JSON object"), ('{"solution": 5}', "JSON object"),
], ids=["missing-file", "not-json", "list", "solution-not-object"])
def test_verify_rejects_unreadable_file(tmp_path, capsys, content, message):
    path = tmp_path / "in.json"
    if content is not None:
        path.write_text(content)
    code, _, stderr = run_cli(["verify", "--input", str(path)], capsys)
    assert code == 2
    assert message in stderr


@pytest.mark.parametrize("extra,message", [
    (["--pin", "m=1/2,lamda=1,sigma=1"], "lamda"),
    (["--pin", "m=1/2,"], "''"),
    (["--pin", "m=1/2,lambda,sigma=1"], "'lambda'"),
    (["--pin", "m=1/2,lambda=one,sigma=1"], "'one'"),
    (["--system", "coeffs2", "--c", "1", "--pin", "m=1/2,lambda=1,sigma=1"],
     "system coeffs2 fixes c = 0"),
], ids=["unknown-pin", "trailing-comma", "no-equals", "bad-value", "fixed-c"])
def test_solve_rejects_malformed_input_exit_2(capsys, extra, message):
    code, _, stderr = run_cli(["solve", "--a", "1", "--b", "-8/3", "--c", "1",
                               "--d", "1", "--starts", "10", *extra], capsys)
    assert code == 2
    assert message in stderr


@pytest.mark.parametrize("argv, message", [
    (["solve", "--system", "coeffs1", "--pin", "m=1/2,lambda=1,sigma=1", "--a", "1",
      "--b", "-8/3", "--c", "1", "--d", "1", "--starts", "5", "--seed", "-1"],
     "seed = -1 must be >= 0"),
    (["solve", "--system", "coeffs1", "--pin", "m=1/2,lambda=1,sigma=1", "--a", "1",
      "--b", "-8/3", "--c", "1", "--d", "1", "--starts", "5", "--max-iter", "-3"],
     "max_iter = -3 must be >= 0"),
    (["nonexistence", "--var", "j1", "--grid-a", "1", "--grid-b", "1/6",
      "--grid-d", "-1/2", "--m", "3/4", "--seed", "-2"], "seed = -2 must be >= 0"),
], ids=["solve-seed", "solve-max-iter", "nonexistence-seed"])
def test_negative_seed_or_budget_exits_2(capsys, argv, message):
    code, stdout, stderr = run_cli(argv, capsys)
    assert code == 2 and stdout == ""
    assert stderr == f"error: {message}\n"


REDUCED = ["solve", "--system", "coeffs2red", "--a", "1", "--b", "1/6", "--d", "1/6",
           "--starts", "20", "--pin"]


@pytest.mark.parametrize("pin, message", [
    ("m=1/2,lambda=1,sigma=1,j1=1/2", "system coeffs2red fixes j1 = 0"),
    ("m=1/2,m=3/4,lambda=1,sigma=1", "--pin gives m more than once"),
    ("m=1/2,lambda=1,lam=2,sigma=1", "--pin gives lam more than once"),
    ("m=1/2,lambda=1,sigma=1,k1=0,k1=0", "--pin gives k1 more than once"),
], ids=["fixed-j1", "repeated-m", "lambda-and-lam", "repeated-fixed-k1"])
def test_solve_rejects_conflicting_pins_exit_2(capsys, pin, message):
    code, stdout, stderr = run_cli([*REDUCED, pin], capsys)
    assert code == 2 and stdout == ""
    assert stderr == f"error: {message}\n"


def test_solve_accepts_a_pin_equal_to_a_fixed_one(capsys):
    # coeffs2red fixes j1 = 0 anyway: the same run as without the pin
    plain = run_cli([*REDUCED, "m=1/2,lambda=1,sigma=1"], capsys)
    repeated = run_cli([*REDUCED, "m=1/2,lambda=1,sigma=1,j1=0"], capsys)
    assert plain[0] == 0 and repeated == plain


def test_solve_pins_leaving_no_unknown_exit_2(capsys):
    # with a..d at their default 0, these pins leave no unknown at all
    code, _, stderr = run_cli(["solve", "--system", "coeffs1", "--pin",
                               "sigma=1,j0=1,j1=1,j2=1,k0=1,k1=1,k2=1",
                               "--starts", "5"], capsys)
    assert code == 2
    assert "no unknown" in stderr


def test_solve_pins_leaving_affine_residuals(capsys):
    # with w = k pinned the residuals are affine in j: the Jacobian is constant
    code, stdout, _ = run_cli(["solve", "--system", "coeffs1", "--pin",
                               "m=0.70710678,lambda=1,sigma=1,k0=1,k1=1,k2=1",
                               "--a", "1", "--b", "-8/3", "--c", "1", "--d", "1",
                               "--starts", "20"], capsys)
    assert code == 0
    assert "coeffs1: 0/20 starts converged" in stdout  # no root at k = 1


def test_solve_seeded_from_family_output(tmp_path, capsys):
    out = tmp_path / "seed"
    run_cli(["family", "--set", "4.1.2", "--lambda", "1", "--m", "0.70710678",
             "--sigma", "1", "--a", "1", "--b", "-8/3", "--c", "1", "--d", "1",
             "--sign", "top", "--out", str(out), "--samples", "128"], capsys)
    code, stdout, _ = run_cli([
        "solve", "--system", "coeffs1",
        "--pin", "m=0.70710678,lambda=1,sigma=1",
        "--a", "1", "--b", "-8/3", "--c", "1", "--d", "1",
        "--seed-from", str(out) + ".json", "--out", str(tmp_path / "seeded.json")], capsys)
    assert code == 0
    data = json.loads(stdout)
    assert data["status"] == "converged"
    assert data["iterations"] <= 2
    # --out holds the JSON the run prints
    assert (tmp_path / "seeded.json").read_text() + "\n" == stdout


def test_solve_multistart_out_holds_the_branch_set(tmp_path, capsys, monkeypatch):
    out = tmp_path / "solve.json"
    argv = ["solve", "--system", "coeffs1", "--pin", "m=0.70710678,lambda=1,sigma=1",
            "--a", "1", "--b", "-8/3", "--c", "1", "--d", "1", "--starts", "60",
            "--seed", "3"]
    code, stdout, _ = run_cli(argv + ["--out", str(out)], capsys)
    assert code == 0
    assert stdout.endswith(f"wrote {out}\n")
    system, _ = cnexpr.build_named_system("coeffs1", {"a": 1, "b": F(-8, 3), "c": 1, "d": 1})
    sysn = solver.pin_and_square(system, {"m": F("0.70710678"), "lam": 1, "sigma": 1})
    branch_set = solver.multistart(sysn, 60, seed_rng=3, max_iter=200)
    branches = json.loads(out.read_text())["branches"]
    assert branches == json.loads(branch_set.to_json())
    stats = branches["stats"]
    assert stats["converged"] + stats["overflow"] + stats["stalled"] + stats["budget"] == 60
    assert f"{branch_set.values.shape[0]} distinct roots" in stdout
    # without --out no payload is built, and the summary is the same

    def to_dict(self):
        raise AssertionError("no --out, no payload")

    monkeypatch.setattr(solver.BranchSet, "to_dict", to_dict)
    code, summary, _ = run_cli(argv, capsys)
    assert code == 0 and summary + f"wrote {out}\n" == stdout


def _perturbed_family_seed(tmp_path, capsys):
    # the S412 reference wave with every stored value moved by 3-5%
    out = tmp_path / "wave"
    run_cli(["family", "--set", "4.1.2", "--lambda", "1", "--m", "0.70710678",
             "--sigma", "1", "--a", "1", "--b", "-8/3", "--c", "1", "--d", "1",
             "--sign", "top", "--out", str(out), "--samples", "128"], capsys)
    payload = json.loads((tmp_path / "wave.json").read_text())
    sol = payload["solution"]
    sol["j"] = [v * 1.04 for v in sol["j"]]
    sol["k"] = [v * 0.97 for v in sol["k"]]
    sol["lambda"] *= 1.03
    sol["sigma"] *= 0.95
    seed = tmp_path / "seed.json"
    seed.write_text(json.dumps(payload))
    return str(seed)


def test_solve_seed_from_honours_max_iter(tmp_path, capsys):
    seed = _perturbed_family_seed(tmp_path, capsys)
    code, stdout, _ = run_cli([
        "solve", "--system", "coeffs1", "--pin", "m=0.70710678,lambda=1,sigma=1",
        "--a", "1", "--b", "-8/3", "--c", "1", "--d", "1",
        "--seed-from", seed, "--max-iter", "1"], capsys)
    data = json.loads(stdout)
    assert data["run_config"]["max_iter"] == 1
    assert data["status"] != "converged" and data["iterations"] <= 1
    assert code == 3


def test_solve_seed_from_with_lam_sigma_free(tmp_path, capsys):
    # lam and sigma free: the solutions form a continuum, the Jacobian is
    # rank-deficient at every root, and the Gauss-Newton step still converges
    seed = _perturbed_family_seed(tmp_path, capsys)
    code, stdout, _ = run_cli([
        "solve", "--system", "coeffs1", "--pin", "m=0.70710678",
        "--a", "1", "--b", "-8/3", "--c", "1", "--d", "1",
        "--seed-from", seed], capsys)
    data = json.loads(stdout)
    assert data["unknowns"][:2] == ["lam", "sigma"]
    assert data["status"] == "converged" and data["hinf"] <= 1e-12
    assert code == 0


def test_solve_seed_from_far_out_seed_converges(tmp_path, capsys):
    # the S412 reference wave with every j and k scaled by 1e8: the seed lies
    # beyond multistart's 1e7 escape radius, but solve_newton's radius scales
    # with the seed, so Newton walks back to the root
    out = tmp_path / "wave"
    run_cli(["family", "--set", "4.1.2", "--lambda", "1", "--m", "0.70710678",
             "--sigma", "1", "--a", "1", "--b", "-8/3", "--c", "1", "--d", "1",
             "--sign", "top", "--out", str(out), "--samples", "128"], capsys)
    payload = json.loads((tmp_path / "wave.json").read_text())
    sol = payload["solution"]
    sol["j"] = [v * 1e8 for v in sol["j"]]
    sol["k"] = [v * 1e8 for v in sol["k"]]
    seed = tmp_path / "far.json"
    seed.write_text(json.dumps(payload))
    code, stdout, _ = run_cli([
        "solve", "--system", "coeffs1", "--pin", "m=0.70710678,lambda=1,sigma=1",
        "--a", "1", "--b", "-8/3", "--c", "1", "--d", "1",
        "--seed-from", str(seed)], capsys)
    data = json.loads(stdout)
    assert data["status"] == "converged" and data["hinf"] <= 1e-12
    assert data["iterations"] > 0
    assert abs(data["x"]["k2"] - sol["k"][2] / 1e8) <= 1e-8
    assert code == 0


def test_classify_output(capsys):
    code, stdout, _ = run_cli(
        ["classify", "--a", "0", "--b", "0", "--c", "1/2", "--d", "-1/6"],
        capsys)
    assert code == 0
    data = json.loads(stdout)
    assert data["shape"] == "SemiTrivialEtaConstant"
    assert data["max_w_degree"] == 2


def test_classify_rejects_a_non_rational_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--a", "x"])
    assert exc.value.code == 2
    assert "argument --a: not a rational: 'x'" in capsys.readouterr().err


def test_classify_negative_a_fifth_shape(capsys):
    code, stdout, _ = run_cli(
        ["classify", "--a", "-1", "--b", "0", "--c", "0", "--d", "0"], capsys)
    assert code == 0
    data = json.loads(stdout)
    assert data["run_config"]["a"] == "-1"
    assert data["shape"] == "QuadraticEtaLinearW"
    assert (data["max_eta_degree"], data["max_w_degree"]) == (2, 1)


def test_reduce_negative_a_closes_at_2_1(capsys):
    code, stdout, _ = run_cli(
        ["reduce", "--a", "-1", "--b", "0", "--c", "0", "--d", "0", "--nmax", "6"],
        capsys)
    assert code == 0
    data = json.loads(stdout)
    assert data["passed"] is True and data["shape_degrees"] == [2, 1]
    assert [r["realized_degrees"] for r in data["results"]] == [[2, 1]] * 4


def test_family_43_rejects_nonzero_a(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, stdout, stderr = run_cli([
        "family", "--set", "4.3", "--a", "1", "--b", "1", "--c", "1", "--d", "2",
        "--m", "1/2"], capsys)
    assert code == 2 and stdout == "" and not list(tmp_path.iterdir())
    assert "family S43 requires a = 0" in stderr
    code, _, stderr = run_cli([
        "limit", "--kind", "m-to-one", "--set", "4.3", "--a", "1", "--d", "2"], capsys)
    assert code == 2 and "family S43 requires a = 0" in stderr


@pytest.mark.parametrize("argv, name", [
    (["--set", "4.2.2", "--a", "1e400", "--b", "2", "--d", "-1", "--m", "1/2"], "j0"),
    (["--set", "4.1.2", "--lambda", "1e400", "--m", "1/2", "--sigma", "1",
      "--a", "1", "--b", "-8/3", "--c", "1", "--d", "1"], "k2"),
    (["--set", "4.2.2", "--a", "1", "--b", "2", "--d", "-1", "--m", "1e400"], "m"),
], ids=["a", "lambda", "m"])
def test_family_rational_too_large_for_a_float_exits_2(tmp_path, capsys, monkeypatch,
                                                       argv, name):
    monkeypatch.chdir(tmp_path)
    code, stdout, stderr = run_cli(["family", *argv], capsys)
    assert code == 2 and stdout == "" and not list(tmp_path.iterdir())
    assert stderr.startswith(f"error: {name} is about 1e") and "Traceback" not in stderr


@pytest.mark.parametrize("flag, name", [("--lambda", "lam"), ("--m", "m")])
def test_family_output_that_rounds_to_zero_exits_2(tmp_path, capsys, monkeypatch, flag, name):
    # an exact 1e-400 is accepted, but its float would be 0.0: no wave is written
    monkeypatch.chdir(tmp_path)
    code, stdout, stderr = run_cli(["family", "--set", "4.2.2", "--a", "1", "--b", "2",
                                    "--d", "-1", "--m", "1/2", flag, "1e-400",
                                    "--out", "tiny"], capsys)
    assert code == 2 and stdout == "" and not list(tmp_path.iterdir())
    assert stderr == f"error: {name} rounds to 0.0, too small for a float\n"



def test_family_residual_that_overflows_exits_2(tmp_path, capsys, monkeypatch):
    # every coefficient is a finite float, but the residual check overflows
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")     # nor does numpy warn on the way
        code, stdout, stderr = run_cli(["family", "--set", "4.1.2", "--a", "1e300",
                                        "--b", "1", "--c", "1", "--d", "1", "--m", "1/2",
                                        "--out", "huge"], capsys)
    assert code == 2 and stdout == "" and not list(tmp_path.iterdir())
    assert stderr.startswith("error: residual terms overflow a float")


@pytest.mark.parametrize("argv, message", [
    (["--a", "1e400", "--pin", "m=1/2,lambda=1,sigma=1"],
     "a coefficient of the pinned system is about -1e401"),
    (["--a", "1", "--pin", "m=1/2,lambda=1e400,sigma=1"], "lam is about 1e400"),
], ids=["a", "lambda"])
def test_solve_rational_too_large_for_a_float_exits_2(capsys, argv, message):
    code, stdout, stderr = run_cli(["solve", "--system", "coeffs1", "--b", "-8/3",
                                    "--c", "1", "--d", "1", "--starts", "10", *argv],
                                   capsys)
    assert code == 2 and stdout == ""
    assert stderr == f"error: {message}, too large for a float\n"

@pytest.mark.parametrize("pin, name", [
    ("m=1e-400,lambda=1,sigma=1", "m"),
    ("m=1/2,lambda=1e-400,sigma=1", "lam"),
    ("m=1/2,lambda=1,sigma=1e-400", "sigma"),
], ids=["m", "lambda", "sigma"])
def test_solve_pin_that_rounds_to_zero_exits_2(tmp_path, capsys, pin, name):
    out = tmp_path / "o.json"
    code, stdout, stderr = run_cli(["solve", "--system", "coeffs1", "--pin", pin,
                                    "--a", "1", "--b", "-8/3", "--c", "1", "--d", "1",
                                    "--starts", "20", "--out", str(out)], capsys)
    assert code == 2 and stdout == "" and not out.exists()
    assert stderr == f"error: {name} rounds to 0.0, too small for a float\n"


def test_solve_multistart_finds_branches(capsys):
    code, stdout, _ = run_cli([
        "solve", "--system", "coeffs1",
        "--pin", "m=0.70710678,lambda=1,sigma=1",
        "--a", "1", "--b", "-8/3", "--c", "1", "--d", "1",
        "--starts", "250", "--seed", "42", "--require-nontrivial"], capsys)
    assert code == 0
    assert "non-trivial" in stdout


def test_solve_require_nontrivial_exit_3(capsys):
    code, _, stderr = run_cli([
        "solve", "--system", "coeffs1",
        "--pin", "m=0.5,lambda=1,sigma=1/10,j1=0,k1=0",
        "--a", "-10", "--b", "2", "--c", "10", "--d", "1",
        "--starts", "60", "--seed", "3", "--require-nontrivial"], capsys)
    assert code == 3
    assert "non-trivial" in stderr


def test_reduce_command(capsys):
    code, stdout, _ = run_cli(["reduce", "--case", "c-nonzero", "--nmax", "3"],
                              capsys)
    assert code == 0
    data = json.loads(stdout)
    assert data["passed"] is True


def test_limit_a_to_zero_is_one_exact_row(capsys):
    code, stdout, _ = run_cli([
        "limit", "--kind", "a-to-zero", "--b", "2", "--d", "-1", "--m", "3/5"], capsys)
    assert code == 0
    data = json.loads(stdout)
    assert data["values"] == [0.0] and data["diffs"] == [0.0]
    assert data["monotone"] is True


def test_limit_command(capsys):
    code, stdout, _ = run_cli([
        "limit", "--kind", "c-to-zero", "--a", "1", "--b", "2", "--d", "-1",
        "--sigma", "1", "--m", "1/2"], capsys)
    assert code == 0
    data = json.loads(stdout)
    assert data["monotone"] is True
    assert data["diffs"][-1] < 1e-8


# one input per solution set and the solution it builds: each value is the
# float of the exact one (S411's j0 is exactly -27/2)
FAMILY_CASES = {
    "4.1.1": (["--a", "-5/6", "--b", "1", "--c", "-5/6", "--d", "1", "--m", "3/4",
               "--tau1", "-1"],
              {"family_tag": "S411", "branch": {"tau1": -1, "tau2": 1, "pm": None},
               "j": [-13.5, -0.0, 202.5, 0.0, 0.0],
               "k": [-8.959786703810408, 0.0, 128.07224523681936],
               "lambda": 4.898979485566356, "m": 0.75, "sigma": 2.1081851067789197,
               "origin": None}),
    "4.1.2": (["--a", "1", "--b", "-8/3", "--c", "1", "--d", "1", "--lambda", "1/2",
               "--sigma", "-1/3", "--m", "1/4", "--sign", "bottom"],
              {"family_tag": "S412", "branch": {"tau1": 1, "tau2": 1, "pm": "bottom"},
               "j": [-0.5502858641142375, 0.0, 0.05890815256326875, 0.0, 0.0],
               "k": [-0.5727372288449031, 0.0, -0.14089415673264533],
               "lambda": 0.5, "m": 0.25, "sigma": -0.3333333333333333, "origin": None}),
    "4.2.1": (["--a", "1", "--b", "-1", "--d", "1/3", "--lambda", "1/2", "--sigma", "-2",
               "--m", "1/2"],
              {"family_tag": "S421", "branch": {"tau1": 1, "tau2": 1, "pm": None},
               "j": [7.288954635108481, 0.0, -4.711538461538462, 0.0, -3.75],
               "k": [-0.44871794871794873, 0.0, 2.5],
               "lambda": 0.5, "m": 0.5, "sigma": -2.0, "origin": None}),
    "4.2.2": (["--a", "1", "--b", "2", "--d", "-1", "--lambda", "1", "--sigma", "-1",
               "--m", "3/4"],
              {"family_tag": "S422", "branch": {"tau1": 1, "tau2": 1, "pm": None},
               "j": [-1.0625, 0.0, 1.6875, 0.0, 0.0], "k": [-1.75, 0.0, 6.75],
               "lambda": 1.0, "m": 0.75, "sigma": -1.0, "origin": None}),
    "4.3": (["--d", "2", "--lambda", "2", "--sigma", "1/8", "--m", "3/4"],
            {"family_tag": "S43", "branch": {"tau1": 1, "tau2": 1, "pm": None},
             "j": [-1.0, 0.0, 0.0, 0.0, 0.0], "k": [-0.375, 0.0, 6.75],
             "lambda": 2.0, "m": 0.75, "sigma": 0.125, "origin": None}),
}


@pytest.mark.parametrize("label", sorted(FAMILY_CASES))
def test_family_every_set(tmp_path, capsys, label):
    flags, expected = FAMILY_CASES[label]
    code, _, _ = run_cli(["family", "--set", label, *flags, "--samples", "128",
                          "--out", str(tmp_path / "fam")], capsys)
    assert code == 0
    payload = json.loads((tmp_path / "fam.json").read_text())
    # compared as JSON text, so that -0.0 and 0.0 differ
    assert (json.dumps(payload["solution"], sort_keys=True)
            == json.dumps(expected, sort_keys=True))
    assert payload["residual"]["relative"] <= 1e-9


# the SHA-256 of the parent tree's m -> 1 table, run_config left out,
# as sorted JSON
M_TO_ONE_CASES = {
    "4.1.2": (["--a", "1", "--b", "-8/3", "--c", "1", "--d", "1", "--sign", "bottom",
               "--lambda", "1/2"],
              "1528c2ee00c0a37acf61b4635f0b0e5d1761b491e3c3ff2694767c5bebed2ad1"),
    "4.2.1": (["--b", "1/6", "--d", "1/6"],
              "3f223ce88dcae689efe1e5596f76e176dbb1beb66894d3b20531127eb33af9e5"),
    "4.2.2": (["--a", "1", "--b", "2", "--d", "-1", "--sigma", "-1"],
              "0e2e70dde0498db990066e75ecff0454fd3824b65241edb76e201f0c21b5e3e9"),
    "4.3": (["--d", "2", "--lambda", "2", "--sigma", "1/8"],
            "9e286979a51d695c546630fe6871a47836c056c4d9e3d85137dd67a7c2cb2371"),
}


@pytest.mark.parametrize("label", sorted(M_TO_ONE_CASES))
def test_limit_m_to_one_every_set(capsys, label):
    flags, digest = M_TO_ONE_CASES[label]
    code, stdout, _ = run_cli(["limit", "--kind", "m-to-one", "--set", label, *flags],
                              capsys)
    assert code == 0
    data = json.loads(stdout)
    assert data["run_config"]["set"] == label
    assert data["monotone"] is True and data["target"]["m"] == 1.0
    # first-order convergence in 1 - m
    assert all(0.9 < order < 1.1 for order in data["orders"])
    del data["run_config"]
    text = json.dumps(data, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_limit_m_to_one_rejects_411(capsys):
    code, stdout, stderr = run_cli([
        "limit", "--kind", "m-to-one", "--set", "4.1.1", "--a", "-5/6", "--b", "1",
        "--c", "-5/6", "--d", "1"], capsys)
    assert code == 2 and stdout == ""
    assert stderr == ("error: m->1 limit via this command supports sets "
                      "4.1.2, 4.2.1, 4.2.2 and 4.3\n")


def test_limit_side_condition_exit_2(capsys):
    code, _, stderr = run_cli([
        "limit", "--kind", "c-to-zero", "--a", "1", "--b", "2", "--d", "2",
        "--sigma", "1", "--m", "1/2"], capsys)
    assert code == 2
    assert "side condition" in stderr


def test_limit_rejects_unread_c(capsys):
    code, stdout, stderr = run_cli([
        "limit", "--kind", "c-to-zero", "--a", "1", "--b", "2", "--d", "-1",
        "--c", "5"], capsys)
    assert code == 2 and stdout == ""
    assert stderr == "error: this run does not read --c 5\n"


def test_family_rejects_unread_lambda_sigma(tmp_path, capsys, monkeypatch):
    # S411 computes lam and sigma itself
    monkeypatch.chdir(tmp_path)
    code, stdout, stderr = run_cli([
        "family", "--set", "4.1.1", "--a", "-5/6", "--b", "1", "--c", "-5/6",
        "--d", "1", "--m", "3/4", "--lambda", "2", "--sigma", "5"], capsys)
    assert code == 2 and stdout == "" and not list(tmp_path.iterdir())
    assert stderr == "error: this run does not read --lambda 2, --sigma 5\n"


def test_family_m1_rejects_unread_periods(tmp_path, capsys, monkeypatch):
    # the m = 1 solitary profile is plotted over 24/lam
    monkeypatch.chdir(tmp_path)
    code, stdout, stderr = run_cli([
        "family", "--set", "4.2.2", "--a", "1", "--b", "2", "--d", "-1",
        "--m", "1", "--periods", "7"], capsys)
    assert code == 2 and stdout == "" and not list(tmp_path.iterdir())
    assert stderr == "error: this run does not read --periods 7\n"


@pytest.mark.parametrize("periods", ["0", "-1"])
def test_family_rejects_nonpositive_periods(tmp_path, capsys, monkeypatch, periods):
    # a span of zero or fewer periods has no curve to write
    monkeypatch.chdir(tmp_path)
    code, stdout, stderr = run_cli([
        "family", "--set", "4.2.2", "--a", "1", "--b", "2", "--d", "-1",
        "--m", "1/2", "--periods", periods], capsys)
    assert code == 2 and stdout == "" and not list(tmp_path.iterdir())
    assert stderr == f"error: --periods {periods} must be > 0\n"


def test_solve_seed_from_rejects_unread_multistart_flags(tmp_path, capsys):
    # a seeded run is one Newton solve: no starts, no seed, no branch count
    seed = _perturbed_family_seed(tmp_path, capsys)
    code, stdout, stderr = run_cli([
        "solve", "--system", "coeffs1", "--pin", "m=0.70710678,lambda=1,sigma=1",
        "--a", "1", "--b", "-8/3", "--c", "1", "--d", "1", "--seed-from", seed,
        "--starts", "9", "--seed", "5", "--require-nontrivial"], capsys)
    assert code == 2 and stdout == ""
    assert stderr == ("error: this run does not read --require-nontrivial, "
                      "--seed 5, --starts 9\n")


def test_reduce_case_rejects_unread_a(capsys):
    code, stdout, stderr = run_cli([
        "reduce", "--case", "c-zero", "--a", "5", "--nmax", "3"], capsys)
    assert code == 2 and stdout == ""
    assert stderr == "error: this run does not read --a 5\n"


def test_nonexistence_command(tmp_path, capsys):
    out = tmp_path / "ne.json"
    code, stdout, _ = run_cli([
        "nonexistence", "--var", "j1", "--grid-a", "1", "--grid-b", "-1",
        "--grid-d", "1/3", "--m", "3/4", "--starts", "80",
        "--out", str(out)], capsys)
    assert code == 0
    data = json.loads(stdout.split("wrote")[0])
    assert data["upheld"] is True
    assert data["total_roots"] == 0
    assert data["run_config"]["grid_d"] == ["1/3"]
    report = json.loads(out.read_text())
    assert report["points"][0]["pins"]["j1"] == 0.1
    # how the 80 starts ended, in the summary and the report
    stats = report["stats"]
    assert data["stats"] == stats == report["points"][0]["stats"]
    assert stats["starts"] == 80 and stats["converged"] == 0
    assert stats["overflow"] + stats["stalled"] + stats["budget"] == 80


@pytest.mark.parametrize("flag, name", [("--lambda", "lam"), ("--m", "m"),
                                        ("--sigma", "sigma")])
def test_nonexistence_value_that_rounds_to_zero_exits_2(tmp_path, capsys, flag, name):
    out = tmp_path / "ne.json"
    code, stdout, stderr = run_cli(["nonexistence", "--var", "j1", "--grid-a", "1",
                                    "--grid-b", "-1", "--grid-d", "1/3", flag, "1e-400",
                                    "--starts", "20", "--out", str(out)], capsys)
    assert code == 2 and stdout == "" and not out.exists()
    assert stderr == f"error: {name} rounds to 0.0, too small for a float\n"


def test_nonexistence_k1_rejects_unread_sigma(tmp_path, capsys):
    # the k1 sweep leaves sigma free; j1 and j3 pin it to --sigma
    argv = ["nonexistence", "--grid-a", "1", "--grid-b", "1/6", "--grid-d", "-1/2",
            "--m", "1/2", "--sigma", "5", "--starts", "20"]
    code, stdout, stderr = run_cli(argv + ["--var", "k1"], capsys)
    assert code == 2 and stdout == ""
    assert stderr == "error: this run does not read --sigma 5\n"
    out = tmp_path / "j1.json"
    code, _, _ = run_cli(argv + ["--var", "j1", "--out", str(out)], capsys)
    assert code == 0
    assert json.loads(out.read_text())["points"][0]["pins"]["sigma"] == 5.0


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


@pytest.mark.parametrize("argv,code", [
    (["classify", "--a", "0", "--b", "0", "--c", "1/2", "--d", "-1/6"], 0),
    (["limit", "--kind", "c-to-zero", "--a", "1", "--b", "2", "--d", "-1",
      "--c", "5"], 2),
], ids=["ok", "exit-2"])
def test_cli_logs_one_record(argv, code, capsys, caplog):
    with caplog.at_level(logging.DEBUG, logger="abcdwaves.cli"):
        assert run_cli(argv, capsys)[0] == code
    (record,) = [r for r in caplog.records if r.name == "abcdwaves.cli"]
    assert record.levelno == logging.DEBUG
    assert record.args[:2] == (argv[0], code) and record.args[2] >= 0.0



def test_debug_records_format(tmp_path, capsys, caplog, monkeypatch):
    # every record's arguments fit its format: a mismatch would print
    # "--- Logging error ---" at run time, not fail a test that reads args
    monkeypatch.chdir(tmp_path)
    pins = ["--system", "coeffs1", "--pin", "m=0.70710678,lambda=1,sigma=1",
            "--a", "1", "--b", "-8/3", "--c", "1", "--d", "1"]
    runs = [["family", "--set", "4.1.2", "--lambda", "1", "--m", "0.70710678",
             "--sigma", "1", "--a", "1", "--b", "-8/3", "--c", "1", "--d", "1",
             "--samples", "64", "--out", "wave"],
            ["solve", *pins, "--starts", "50"],
            ["solve", *pins, "--seed-from", "wave.json"],
            ["nonexistence", "--var", "j1", "--grid-a", "1", "--grid-b", "1/6",
             "--grid-d", "-1/2", "--m", "3/4", "--starts", "20"],
            ["reduce", "--case", "c-zero", "--nmax", "4"]]
    with caplog.at_level(logging.DEBUG, logger="abcdwaves"):
        for argv in runs:
            assert run_cli(argv, capsys)[0] == 0, argv
    messages = [(r.funcName, r.getMessage()) for r in caplog.records]
    funcs = [func for func, _ in messages]
    assert funcs.count("main") == len(runs)
    # two multistarts (solve and one grid point) and the seeded solve
    assert funcs.count("_newton_batch") == 3 and funcs.count("multistart") == 2
    assert "reproduce_nonexistence" in funcs and "verify_termination" in funcs
    newton = [text for func, text in messages if func == "_newton_batch"]
    assert newton[0].startswith("newton: RunStats(starts=50, converged=50, ")
    assert newton[1].startswith("newton: RunStats(starts=1, converged=1, ")
    assert all(text.endswith(" batch iterations") for text in newton)


def _env() -> dict:
    """This process's environment with this checkout's abcdwaves first on the path."""
    src = os.path.dirname(os.path.dirname(abcdwaves.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}


def test_closed_stdout_exits_without_a_traceback():
    # about 300 kB of JSON, more than a pipe holds: the CLI is still writing
    # when the reader closes its end
    proc = subprocess.Popen([sys.executable, "-m", "abcdwaves.cli", "reduce", "--case",
                             "c-nonzero", "--nmax", "12"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env())
    assert proc.stdout.read(100).startswith(b"{")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE
    assert b"Traceback" not in err and b"BrokenPipeError" not in err, err.decode()


# imports the exact modules and runs reduce and classify; with the argument
# "blocked" any import of numpy fails
_EXACT_RUN = """
import sys
if sys.argv[1:] == ["blocked"]:
    sys.modules["numpy"] = None
import abcdwaves.cnexpr, abcdwaves.families, abcdwaves.ratpoly, abcdwaves.reduction
from abcdwaves.cli import main
assert main(["reduce", "--case", "c-zero", "--nmax", "5"]) == 0
assert main(["classify", "--a", "-1"]) == 0
"""


def test_exact_layer_and_commands_run_without_numpy():
    blocked, plain = (subprocess.run([sys.executable, "-c", _EXACT_RUN, *argv],
                                     capture_output=True, env=_env(), timeout=60)
                      for argv in (["blocked"], []))
    assert blocked.returncode == plain.returncode == 0, blocked.stderr.decode()
    assert blocked.stdout == plain.stdout
    assert b'"shape": "QuadraticEtaLinearW"' in blocked.stdout


def test_nonexistence_counterexample_exits_0(capsys):
    # at b = c = d = 0 the QuadraticEtaLinearW roots (k1^2 = -4 a lam^2 m^2,
    # k0 = sigma, j0 = -1 + a lam^2 (1 - 2m^2), j2 = -k1^2 / 2) have sigma free
    code, stdout, stderr = run_cli([
        "nonexistence", "--var", "k1", "--value", "1/10", "--grid-a", "-1/100",
        "--grid-b", "0", "--grid-d", "0", "--m", "1/2", "--starts", "50"], capsys)
    assert code == 0
    assert stderr == "counterexample found; see report\n"
    data = json.loads(stdout)
    assert data["upheld"] is False and data["counterexamples"]
    for root in data["counterexamples"]:
        values = root["values"]
        assert abs(root["sigma"]) > 1e-10
        assert abs(values["k0"] - root["sigma"]) <= 1e-5
        assert values["j0"] == pytest.approx(-1.005, abs=1e-9)
        assert values["j2"] == pytest.approx(-0.005, abs=1e-9)
