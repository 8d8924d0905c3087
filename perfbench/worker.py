"""One workload run in a fresh process; started by ``run.py``, not by hand.

Protocol on standard output: the line ``READY`` once abcdwaves and numpy are
imported and the first block of inputs is generated (the end of set-up),
then, unless ``--setup-only`` is given, one line ``RESULT <json>`` after the
last call.

The worker runs whole blocks of calls.  With ``--blocks N`` it runs exactly
N; otherwise it starts another block only while the blocks so far, at their
mean duration, predict that it ends within ``--seconds``.  At least one
block always runs.

Speed reference (``calibrate.py``): by default, reference rounds run between
calls; with ``--sample-in-call`` they run from a timer during each call
instead, and their time is taken off the call's latency.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path


def _layer_metrics(tracer, counts, wall_s):
    """The per-layer metrics of the traced run, keyed by their benchmark names."""
    stats = tracer.stats

    def calls(name):
        return stats.get(name, [0])[0]

    def self_s(name):
        return stats.get(name, [0, 0.0, 0.0])[2]

    def total_s(name):
        return stats.get(name, [0, 0.0])[1]

    def ratio(num, den):
        return num / den if den else 0.0

    builds = [f"families.build_{tag}" for tag in ("s411", "s412", "s421", "s422", "s43")]
    build_calls = sum(calls(n) for n in builds)
    build_raised = sum(stats.get(n, [0, 0, 0, 0])[3] for n in builds)
    m = {
        "elliptic.jacobi_eval.calls": (calls("elliptic.jacobi_eval"), "count"),
        "elliptic.jacobi_eval.self_s": (self_s("elliptic.jacobi_eval"), "s"),
        "elliptic.jacobi_eval.us_per_call": (
            1e6 * ratio(total_s("elliptic.jacobi_eval"), calls("elliptic.jacobi_eval")), "us"),
        "elliptic.complete_k.calls": (calls("elliptic.complete_k"), "count"),
    }
    for short, name in (("substitute", "substitute"), ("mul", "__mul__"),
                        ("derivative", "derivative")):
        full = f"ratpoly.RationalPoly.{name}"
        m[f"ratpoly.{short}.calls"] = (calls(full), "count")
        m[f"ratpoly.{short}.self_s"] = (self_s(full), "s")
    for name in ("cnexpr.build_coefficient_system", "solver.pin_and_square",
                 "solver.multistart", "verifier.ode_residual",
                 "verifier.periodicity_check"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    m["reduction.verify_termination.self_s"] = (self_s("reduction.verify_termination"), "s")
    m["reduction.branches"] = (counts["branches"], "count")
    m["reduction.events"] = (counts["events"], "count")
    m["families.build.calls"] = (build_calls, "count")
    m["families.build.self_s"] = (sum(self_s(n) for n in builds), "s")
    m["families.accept_ratio"] = (ratio(build_calls - build_raised, build_calls), "1")
    m["solver.us_per_start"] = (1e6 * ratio(total_s("solver.multistart"), counts["starts"]), "us")
    for key in ("starts", "converged", "roots_kept", "nontrivial_roots"):
        m[f"solver.{key}"] = (counts[key], "count")
    m["solver.converged_ratio"] = (ratio(counts["converged"], counts["starts"]), "1")
    m["solver.kept_ratio"] = (ratio(counts["roots_kept"], counts["converged"]), "1")
    m["verifier.samples"] = (counts["samples"], "count")
    m["verifier.us_per_sample"] = (
        1e6 * ratio(total_s("verifier.ode_residual"), counts["samples"]), "us")
    for layer in ("elliptic", "ratpoly", "cnexpr", "reduction", "families",
                  "solver", "verifier"):
        layer_self = sum(s[2] for n, s in stats.items() if n.startswith(layer + "."))
        m[f"{layer}.self_share"] = (ratio(layer_self, wall_s), "1")
    m["solver.multistart.wall_share"] = (ratio(total_s("solver.multistart"), wall_s), "1")
    return m


def _install_tracer():
    import tracer as tracing

    tracer = tracing.Tracer()
    counts = dict.fromkeys(("starts", "converged", "roots_kept", "nontrivial_roots",
                            "branches", "events", "samples"), 0)

    def on_branch_set(bs):
        counts["starts"] += bs.n_starts
        counts["converged"] += bs.n_converged
        counts["roots_kept"] += len(bs.roots)
        counts["nontrivial_roots"] += sum(r.classification == "non-trivial"
                                          for r in bs.roots)

    def on_termination(report):
        for result in report.results:
            counts["branches"] += len(result.branches)
            counts["events"] += sum(len(b.events) for b in result.branches)

    def on_residual(report):
        counts["samples"] += report.n_samples

    tracer.hooks.update({"solver.multistart": on_branch_set,
                         "reduction.verify_termination": on_termination,
                         "verifier.ode_residual": on_residual})
    tracing.install(tracer)
    return tracer, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--blocks", type=int)
    parser.add_argument("--starts", type=int)
    parser.add_argument("--s412-shift", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--sample-in-call", action="store_true")
    args = parser.parse_args(argv)

    # Set-up: what a user pays before the first call (imports + inputs).
    import numpy
    import abcdwaves
    src = Path(args.src).resolve()
    if src not in Path(abcdwaves.__file__).resolve().parents:
        print(f"abcdwaves imported from {abcdwaves.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    import workloads
    from calibrate import Calibrator, InCallSampler, round_factor, run_round, trimmed_mean

    opts = workloads.Options(args.starts, args.s412_shift)
    workload = workloads.REGISTRY[args.workload]
    stream = workloads.blocks(args.workload, args.seed, opts)
    block = next(stream)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = counts = None
    run = workload.run
    if args.trace:
        tracer, counts = _install_tracer()
        run = tracer.wrap("bench.call", run, True, root=True)

    labels, latencies, block_walls, block_factors, failures = [], [], [], [], []
    call_factors = []       # per call, with --sample-in-call only
    digest = hashlib.sha256()
    sampler = InCallSampler() if args.sample_in_call else None
    calibrator = None if sampler else Calibrator()
    call_s = 0.0
    started = time.perf_counter()
    while True:
        block_wall, block_ref = 0.0, 0.0
        first_round = len(calibrator.rounds) if calibrator else 0
        for call in block:
            if tracer is not None:
                tracer.call_id = len(latencies)
            if sampler:
                sampler.begin()
            t0 = time.perf_counter()
            try:
                out = run(call.spec, opts)
            except Exception as exc:  # counted as a failed call, never retried
                out = exc
            latency = time.perf_counter() - t0
            if sampler:
                handler_s, factors = sampler.end()
                latency -= handler_s
                # A call shorter than the timer interval gets one round after it.
                call_factors.append(trimmed_mean(factors) if factors
                                    else round_factor(run_round()))
                block_ref += latency * call_factors[-1]
            labels.append(call.label)
            latencies.append(latency)
            block_wall += latency
            call_s += latency
            if isinstance(out, Exception):
                failures.append(f"{call.label}: {type(out).__name__}: {out}")
                text = f"raised {type(out).__name__}"
            else:
                if not workload.check(call.spec, out):
                    failures.append(f"{call.label}: check failed")
                text = workload.canonical(out)
            digest.update(f"{call.label}\n{text}\n".encode())
            if calibrator:
                calibrator.keep_up(call_s)
        block_walls.append(block_wall)
        block_factors.append(block_ref / block_wall if sampler
                             else calibrator.speed_factor(since=first_round))
        if args.blocks is not None:
            if len(block_walls) == args.blocks:
                break
        else:
            elapsed = time.perf_counter() - started
            if elapsed + elapsed / len(block_walls) > args.seconds:
                break
        block = next(stream)
    if sampler:
        sampler.close()

    result = {
        "labels": labels,
        "latencies_s": latencies,
        "block_walls_s": block_walls,
        "block_speed_factors": block_factors,
        "call_speed_factors": call_factors,
        "speed_factor": (sum(w * f for w, f in zip(block_walls, block_factors)) / call_s
                         if sampler else calibrator.speed_factor()),
        "ref_rounds": len(sampler.factors) if sampler else len(calibrator.rounds),
        "failures": failures,
        "call_s": call_s,
        "digest": digest.hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
        "blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name"),
    }
    if tracer is not None:
        result["layers"] = {k: {"value": v, "unit": u}
                            for k, (v, u) in _layer_metrics(tracer, counts, call_s).items()}
        result["stats"] = {k: dict(zip(("calls", "total_s", "self_s", "raised"), v))
                           for k, v in sorted(tracer.stats.items()) if v[0]}
        result["spans"] = tracer.spans
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
