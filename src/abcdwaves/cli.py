"""Command-line surface.

Subcommands: family, verify, classify, solve, reduce, limit, nonexistence.
Every run echoes its configuration into the JSON output so results are
reproducible from the file alone.  Exit codes: 0 ok, 2 domain/usage error,
3 solver non-convergence where a result was required, 141 (128 + SIGPIPE,
as a shell reports a process that signal ends) when the reader of stdout
closed it early, as ``| head`` does.

a, b, c, d accept exact rationals ("-8/3"); lam, sigma, m accept floats.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import logging
import os
import re
import sys
import time
from fractions import Fraction

import numpy as np

# lets "-8/3" pass as an option value rather than being read as a flag
_NEGATIVE_VALUE = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")

from . import __version__
from .errors import AbcdWavesError, ConstraintError, DomainError, UsageError
from .families import (FAMILIES, ParameterSet, SolutionParams, _frac, build_family,
                       check_physical_constraint)
from .reduction import classify_ansatz, verify_termination
from .solver import (SYSTEMS, build_named_system, multistart, pin_and_square,
                     reproduce_nonexistence, solve_newton)
from .verifier import (limit_a_to_zero, limit_c_to_zero, limit_m_to_one,
                       ode_residual, periodicity_check)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_NO_CONVERGENCE = 3
EXIT_BROKEN_PIPE = 141


class _SubParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_VALUE


def _rat(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _add_abcd(parser):
    for name in "abcd":
        parser.add_argument(f"--{name}", type=_rat, default=Fraction(0),
                            help=f"coefficient {name} (rational, e.g. -8/3)")


def _params_from(args) -> ParameterSet:
    return ParameterSet.make(args.a, args.b, args.c, args.d)


def _family_inputs(args, p: ParameterSet) -> dict:
    """The arguments of family ``args.set``'s builder, by name, from the flags."""
    values = {"p": p, **vars(args)}
    return {name: values[name]
            for name in inspect.signature(FAMILIES[args.set]).parameters}


def _reject_unread(parser, args, unread) -> None:
    """UsageError naming each flag in ``unread`` set off its default: the
    run would echo it without using it."""
    given = [("--" + ("lambda" if name == "lam" else name.replace("_", "-")), getattr(args, name))
             for name in sorted(unread) if getattr(args, name) != parser.get_default(name)]
    if given:
        raise UsageError("this run does not read " + ", ".join(
            flag if value is True else f"{flag} {value}" for flag, value in given))


# ---------------------------------------------------------------- outputs
def write_csv(path: str, rows):
    with open(path, "w", newline="") as fh:
        fh.write("xi,eta,w\n")
        for row in rows:
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")


def _svg_path(points, x_min, x_max, y_min, y_max, width, height, pad):
    sx = (width - 2 * pad) / (x_max - x_min)
    sy = (height - 2 * pad) / (y_max - y_min) if y_max > y_min else 1.0
    coords = []
    for x, y in points:
        px = pad + (x - x_min) * sx
        py = height - pad - (y - y_min) * sy
        coords.append(f"{px:.2f},{py:.2f}")
    return "M" + " L".join(coords)


def write_svg(path: str, xs, etas, ws, title=""):
    """Dependency-free two-curve plot: eta in blue, w in green."""
    width, height, pad = 800, 500, 50
    x_min, x_max = min(xs), max(xs)
    y_all = list(etas) + list(ws)
    y_min, y_max = min(y_all), max(y_all)
    if y_max == y_min:
        y_min, y_max = y_min - 1.0, y_max + 1.0
    margin = 0.05 * (y_max - y_min)
    y_min, y_max = y_min - margin, y_max + margin
    p_eta = _svg_path(zip(xs, etas), x_min, x_max, y_min, y_max, width, height, pad)
    p_w = _svg_path(zip(xs, ws), x_min, x_max, y_min, y_max, width, height, pad)
    ticks = []
    for i in range(5):
        xv = x_min + (x_max - x_min) * i / 4
        px = pad + (width - 2 * pad) * i / 4
        ticks.append(f'<line x1="{px:.1f}" y1="{height-pad}" x2="{px:.1f}" '
                     f'y2="{height-pad+6}" stroke="black"/>'
                     f'<text x="{px:.1f}" y="{height-pad+20}" font-size="12" '
                     f'text-anchor="middle">{xv:.3g}</text>')
        yv = y_min + (y_max - y_min) * i / 4
        py = height - pad - (height - 2 * pad) * i / 4
        ticks.append(f'<line x1="{pad-6}" y1="{py:.1f}" x2="{pad}" y2="{py:.1f}" '
                     f'stroke="black"/>'
                     f'<text x="{pad-10}" y="{py+4:.1f}" font-size="12" '
                     f'text-anchor="end">{yv:.3g}</text>')
    svg = f'''<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">
<rect width="{width}" height="{height}" fill="white"/>
<text x="{width/2}" y="25" font-size="14" text-anchor="middle">{title}</text>
<line x1="{pad}" y1="{height-pad}" x2="{width-pad}" y2="{height-pad}" stroke="black"/>
<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height-pad}" stroke="black"/>
{''.join(ticks)}
<path d="{p_eta}" fill="none" stroke="blue" stroke-width="1.5"/>
<path d="{p_w}" fill="none" stroke="green" stroke-width="1.5"/>
<text x="{width-pad-60}" y="{pad+10}" font-size="13" fill="blue">eta</text>
<text x="{width-pad-60}" y="{pad+28}" font-size="13" fill="green">w</text>
</svg>
'''
    with open(path, "w") as fh:
        fh.write(svg)


def _json_default(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    raise TypeError(f"not JSON serializable: {obj!r}")


def _dumps(obj, **kw):
    return json.dumps(obj, default=_json_default, **kw)


def _echo_config(args):
    """The run's flags, sorted by name; ``_dumps`` writes Fractions as text."""
    cfg = {"command": args.command, "version": __version__}
    cfg.update((key, val) for key, val in sorted(vars(args).items()) if key != "func")
    return cfg


# ---------------------------------------------------------------- commands
def cmd_family(parser, args) -> int:
    p = _params_from(args)
    inputs = _family_inputs(args, p)
    # every builder takes m, and the residual check reads a, b, c, d
    unread = {"lam", "sigma", "tau1", "tau2", "sign"} - set(inputs)
    # the m = 1 solitary profile is plotted over 24/lam, not over periods
    solitary = args.m == 1
    if solitary:
        unread.add("periods")
    _reject_unread(parser, args, unread)
    if not solitary and args.periods <= 0:
        raise UsageError(f"--periods {args.periods} must be > 0")
    if args.check_physical:
        try:
            theta = check_physical_constraint(p)
            print(f"physical constraint ok: theta = {theta:.12g}")
        except ConstraintError as exc:
            print(f"warning: physical constraint violated: {exc}", file=sys.stderr)

    sol = build_family(args.set, **inputs)

    report = ode_residual(sol, p, args.samples)
    span = 24.0 / sol.lam if solitary else args.periods * report.period
    xs = span * np.arange(args.samples) / (args.samples - 1)
    etas, ws = sol.profiles(xs)

    out = args.out or f"family_{args.set.replace('.', '_')}"
    payload = {
        "run_config": _echo_config(args),
        "solution": sol.to_dict(),
        "residual": report.to_dict(),
    }
    with open(out + ".json", "w") as fh:
        fh.write(_dumps(payload, indent=2))
    write_csv(out + ".csv", zip(xs, etas, ws))
    write_svg(out + ".svg", xs, etas, ws,
              title=f"family {args.set} (relative residual {report.relative:.2e})")
    print(f"family {args.set}: wrote {out}.json, {out}.csv, {out}.svg")
    print(f"relative residual: {report.relative:.3e}")
    return EXIT_OK


def _load_solution(path):
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read solution file: {exc}") from None
    if isinstance(payload, dict) and "solution" in payload:
        return SolutionParams.from_dict(payload["solution"]), payload.get("run_config", {})
    return SolutionParams.from_dict(payload), {}


def cmd_verify(args) -> int:
    sol, cfg = _load_solution(args.input)
    if not isinstance(cfg, dict):
        raise UsageError("run_config must be a JSON object")
    coeffs = []
    for name in "abcd":
        flag = getattr(args, name)
        coeffs.append(_frac(cfg.get(name, 0) if flag is None else flag, f"run_config {name}"))
    p = ParameterSet(*coeffs)
    report = ode_residual(sol, p, args.samples)
    out = {"run_config": _echo_config(args), "residual": report.to_dict()}
    if sol.m < 1.0:
        out["periodicity"] = periodicity_check(sol).to_dict()
    print(_dumps(out, indent=2))
    return EXIT_OK


def cmd_classify(args) -> int:
    shape = classify_ansatz(_params_from(args))
    max_eta, max_w = shape.degrees
    out = {
        "run_config": _echo_config(args),
        "shape": shape.value,
        "max_eta_degree": max_eta,
        "max_w_degree": max_w,
    }
    print(_dumps(out, indent=2))
    return EXIT_OK


def cmd_solve(parser, args) -> int:
    if args.seed_from:
        _reject_unread(parser, args, {"starts", "seed", "require_nontrivial"})
    system, pins = build_named_system(
        args.system, {name: getattr(args, name) for name in "abcd"})
    given = set()
    for chunk in args.pin.split(",") if args.pin else ():
        key, sep, val = chunk.partition("=")
        if not sep:
            raise UsageError(f"--pin entry {chunk!r} is not var=value")
        key = key.strip()
        name = "lam" if key == "lambda" else key
        if name in given:
            raise UsageError(f"--pin gives {name} more than once")
        given.add(name)
        exact = _frac(val, f"--pin {key}")
        if exact != pins.setdefault(name, exact):
            raise DomainError(f"system {args.system} fixes {name} = {pins[name]}")
    sysn = pin_and_square(system, pins)

    if args.seed_from:
        sol, _ = _load_solution(args.seed_from)
        seed_map = sol.coefficient_map()
        missing = [u for u in sysn.unknowns if u not in seed_map]
        if missing:
            raise UsageError(f"seed file does not cover unknowns {missing}")
        result = solve_newton(sysn, [seed_map[u] for u in sysn.unknowns],
                              args.max_iter)
        out = {
            "run_config": _echo_config(args),
            "unknowns": sysn.unknowns,
            "status": result.status,
            "iterations": result.iterations,
            "hinf": result.hinf,
            "x": {u: float(v) for u, v in zip(sysn.unknowns, result.x)},
        }
        print(_dumps(out, indent=2))
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(_dumps(out, indent=2))
        return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE

    branch_set = multistart(sysn, args.starts, seed_rng=args.seed,
                            max_iter=args.max_iter)
    nontrivial = branch_set.nontrivial()
    print(f"{args.system}: {branch_set.n_converged}/{args.starts} starts converged, "
          f"{branch_set.codes.size} distinct roots, "
          f"{len(nontrivial)} non-trivial")
    for rec in nontrivial:
        vals = ", ".join(f"{k}={v:.8g}" for k, v in rec.values.items())
        print(f"  [{rec.classification}] {vals} (hits {rec.hits}, |h|_inf {rec.hinf:.2e})")
    if args.out:
        out = {"run_config": _echo_config(args), "unknowns": sysn.unknowns,
               "branches": branch_set.to_dict()}
        with open(args.out, "w") as fh:
            fh.write(_dumps(out, indent=2))
        print(f"wrote {args.out}")
    if args.require_nontrivial and not nontrivial:
        print("no non-trivial root found", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_reduce(parser, args) -> int:
    if args.case:
        _reject_unread(parser, args, set("abcd"))
        report = verify_termination(case=args.case.replace("-", "_"),
                                    n_max=args.nmax)
    else:
        report = verify_termination(_params_from(args), args.nmax)
    out = {"run_config": _echo_config(args), **report.to_dict()}
    print(_dumps(out, indent=2))
    return EXIT_OK


def cmd_limit(parser, args) -> int:
    if args.kind == "c-to-zero":
        _reject_unread(parser, args, {"c", "set", "sign"})
        table = limit_c_to_zero(args.a, args.b, args.d, args.lam, args.sigma, args.m)
    elif args.kind == "a-to-zero":
        _reject_unread(parser, args, {"a", "c", "set", "sign"})
        table = limit_a_to_zero(args.b, args.d, args.lam, args.sigma, args.m)
    elif args.set == "4.1.1":
        # the limit parser has no --tau1/--tau2
        raise UsageError("m->1 limit via this command supports sets "
                         "4.1.2, 4.2.1, 4.2.2 and 4.3")
    else:
        inputs = _family_inputs(args, _params_from(args))
        del inputs["m"]
        taken = set(inputs) | (set("abcd") if "p" in inputs else set())
        _reject_unread(parser, args, {*"abcd", "lam", "sigma", "m", "sign"} - taken)
        table = limit_m_to_one(args.set, **inputs)
    out = {"run_config": _echo_config(args), **table.to_dict()}
    print(_dumps(out, indent=2))
    return EXIT_OK


def cmd_nonexistence(parser, args) -> int:
    if args.var == "k1":
        # the k1 sweep leaves sigma free
        _reject_unread(parser, args, {"sigma"})
    grid = []
    for a in args.grid_a:
        for b in args.grid_b:
            for d in args.grid_d:
                grid.append({"a": a, "b": b, "d": d, "lam": args.lam,
                             "m": args.m, "sigma": args.sigma})
    report = reproduce_nonexistence(args.var, grid, value=args.value,
                                    n_starts=args.starts, seed=args.seed)
    summary = {
        "run_config": _echo_config(args),
        "constrained": report.constrained,
        "value": report.value,
        "delta": report.delta,
        "sigma_free": report.sigma_free,
        "grid_points": len(report.points),
        "total_roots": report.total_roots,
        "upheld": report.upheld,
        "counterexamples": report.counterexamples,
        "stats": report.stats.to_dict(),
    }
    print(_dumps(summary, indent=2))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(_dumps({"run_config": summary["run_config"],
                             **report.to_dict()}, indent=2))
        print(f"wrote {args.out}")
    if not report.upheld:
        print("counterexample found; see report", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abcdwaves",
        description="Exact cnoidal traveling-wave solutions of the "
                    "abcd-Boussinesq system")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_SubParser)

    fam = sub.add_parser("family", help="construct a closed-form solution family")
    fam.add_argument("--set", required=True, choices=sorted(FAMILIES),
                     help="solution set label")
    _add_abcd(fam)
    fam.add_argument("--m", type=_rat, required=True)
    fam.add_argument("--lambda", dest="lam", type=_rat, default=1.0)
    fam.add_argument("--sigma", type=_rat, default=1.0)
    fam.add_argument("--tau1", type=int, choices=(1, -1), default=1)
    fam.add_argument("--tau2", type=int, choices=(1, -1), default=1)
    fam.add_argument("--sign", choices=("top", "bottom"), default="top")
    fam.add_argument("--periods", type=_rat, default=3.0)
    fam.add_argument("--samples", type=int, default=1024)
    fam.add_argument("--out", default=None)
    fam.add_argument("--check-physical", action="store_true")
    # these commands also get their parser, to tell a flag's value from its default
    fam.set_defaults(func=functools.partial(cmd_family, fam))

    ver = sub.add_parser("verify", help="ODE residual of a stored solution")
    ver.add_argument("--input", required=True)
    for name in "abcd":
        ver.add_argument(f"--{name}", type=_rat, default=None)
    ver.add_argument("--samples", type=int, default=1024)
    ver.set_defaults(func=cmd_verify)

    cla = sub.add_parser("classify", help="ansatz shape for given (a,b,c,d)")
    _add_abcd(cla)
    cla.set_defaults(func=cmd_classify)

    sol = sub.add_parser("solve", help="multistart rediscovery of branches")
    sol.add_argument("--system", choices=sorted(SYSTEMS), default="coeffs1")
    _add_abcd(sol)
    sol.add_argument("--pin", default="",
                     help="comma list var=value (rationals), e.g. m=3/4,lambda=1")
    sol.add_argument("--starts", type=int, default=500)
    sol.add_argument("--seed", type=int, default=0)
    sol.add_argument("--max-iter", type=int, default=200)
    sol.add_argument("--seed-from", default=None,
                     help="solution JSON used as the single Newton seed")
    sol.add_argument("--require-nontrivial", action="store_true")
    sol.add_argument("--out", default=None)
    sol.set_defaults(func=functools.partial(cmd_solve, sol))

    red = sub.add_parser("reduce", help="verify series-termination chains")
    red.add_argument("--case", choices=("c-nonzero", "c-zero"), default=None)
    _add_abcd(red)
    red.add_argument("--nmax", type=int, default=5)
    red.set_defaults(func=functools.partial(cmd_reduce, red))

    lim = sub.add_parser("limit", help="limit-consistency tables")
    lim.add_argument("--kind", required=True,
                     choices=("c-to-zero", "a-to-zero", "m-to-one"))
    _add_abcd(lim)
    lim.add_argument("--set", default="4.1.2", choices=sorted(FAMILIES))
    lim.add_argument("--lambda", dest="lam", type=_rat, default=1.0)
    lim.add_argument("--sigma", type=_rat, default=1.0)
    lim.add_argument("--m", type=_rat, default=0.5)
    lim.add_argument("--sign", choices=("top", "bottom"), default="top")
    lim.set_defaults(func=functools.partial(cmd_limit, lim))

    non = sub.add_parser("nonexistence",
                         help="sweep for roots with a coefficient pinned off zero")
    non.add_argument("--var", required=True, choices=("j1", "j3", "k1"))
    non.add_argument("--value", type=_rat, default=0.1)
    non.add_argument("--grid-a", type=_rat, nargs="+", required=True)
    non.add_argument("--grid-b", type=_rat, nargs="+", required=True)
    non.add_argument("--grid-d", type=_rat, nargs="+", required=True)
    non.add_argument("--lambda", dest="lam", type=_rat, default=1.0)
    non.add_argument("--m", type=_rat, default=0.5)
    non.add_argument("--sigma", type=_rat, default=1.0)
    non.add_argument("--starts", type=int, default=500)
    non.add_argument("--seed", type=int, default=0)
    non.add_argument("--out", default=None)
    non.set_defaults(func=functools.partial(cmd_nonexistence, non))

    return parser


def main(argv=None) -> int:
    """Run one subcommand; it leaves one DEBUG record on this module's
    logger: the subcommand, its exit code and its seconds."""
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        code = args.func(args)
        sys.stdout.flush()          # a closed stdout fails here, not at exit
    except AbcdWavesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_DOMAIN
    except BrokenPipeError:
        # Python flushes stdout again at exit; pointed at os.devnull, that
        # flush cannot fail (the SIGPIPE note of the Python docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = EXIT_BROKEN_PIPE
    logger.debug("%s: exit %d, %.3f s", args.command, code,
                 time.perf_counter() - t0)
    return code


if __name__ == "__main__":
    sys.exit(main())
