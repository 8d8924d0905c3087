"""Benchmark of the abcdwaves library: one workload per run.

    python3 perfbench/run.py --workload sweep --seed 3 --seconds 20 --trace 0

Run it from the root of a source checkout; the library is imported from
``./src``.  Workloads (see ``workloads.py`` for the inputs and checks):

    rediscover   2000-start multistart at the S412 reference pinning
    sweep        c = 0 non-existence grid points for j1, j3 and k1
    termination  the symbolic forced-vanishing chains, n = 3..8
    verify       family build + ode_residual(1024) + periodicity_check

The seed fixes a stream of call blocks; every block has the same mix of
inputs and is the workload's fixed set of calls.  A run executes whole
blocks from the start of the stream for about ``--seconds`` seconds (at
least one block), so a faster program measures more blocks of the same
stream.  ``wall_s`` is the median block wall time, ``call_p50_s`` the median
call latency; both are in reference-speed seconds (see ``calibrate.py``).  Each run starts fresh worker processes: a few that only
set up (import + first block of inputs; the median is ``setup_s``) and one
that also runs the calls.  With ``--trace 1`` a worker runs a fixed number
of blocks (``TRACE_BLOCKS``, so that the counts repeat exactly) untraced,
and a second one runs the same blocks traced; the per-layer metrics plus
``trace.overhead_ratio`` are reported instead of the end-to-end ones.

Standard output: readable lines with every metric by name and unit, the run
record and the output digest, then one JSON line.  The full record, per-call
latencies and the trace go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("rediscover", "sweep", "termination", "verify")
# Every time metric but setup_s is in reference-speed seconds (calibrate.py):
# the machine's speed changes up to 2x within seconds, and the measured
# ten-run spreads of wall_s were 0.15-0.32.  On the IN_CALL workloads the
# reference rounds run during each call, because their calls (rediscover
# about 20 s, sweep about 1 s, termination up to 1 s) change speed within
# the call; on verify (calls of about 20 ms) they run between calls.
# Rounds after the calls had raised the spread of sweep and rediscover.
IN_CALL = frozenset({"rediscover", "sweep", "termination"})
# Calls of seconds, which rounds between calls cannot follow: the traced
# run's overhead ratio is taken from measured times on these.
LONG_CALLS = frozenset({"rediscover", "sweep"})
# Blocks per traced run: one for the long-call workloads, about ten seconds
# of untraced calls for the others on a 2-core Xeon.
TRACE_BLOCKS = {"rediscover": 1, "sweep": 1, "termination": 3, "verify": 60}
SETUP_SAMPLES = 9          # set-up measurements per untraced run (median)
TAIL_BEYOND = 10           # calls that must lie beyond the tail percentile
BLAS_THREADS = "1"         # <= nproc; one thread keeps runs steady
DEADLINE_S = 170.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def _worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in BLAS_VARS:
        env[var] = BLAS_THREADS
    return env


def _run_worker(args, deadline, *, seconds=0.0, blocks=None, trace=False,
                setup_only=False):
    """Start one worker; return (set-up seconds, parsed RESULT or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(SRC),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--s412-shift", repr(args.s412_shift)]
    if blocks is not None:
        cmd += ["--blocks", str(blocks)]
    if args.starts is not None:
        cmd += ["--starts", str(args.starts)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    elif args.workload in IN_CALL and not trace:
        cmd.append("--sample-in-call")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline().strip() == "READY"
        setup_s = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker exceeded the run deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if not ready or proc.returncode != 0:
        raise BenchError(f"worker failed (exit code {proc.returncode})")
    if setup_only:
        return setup_s, None
    results = [ln[len("RESULT "):] for ln in out.splitlines() if ln.startswith("RESULT ")]
    if not results:
        raise BenchError("worker printed no result")
    return setup_s, json.loads(results[-1])


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _src_fingerprint():
    lines, digest = 0, hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        lines += data.count(b"\n")
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
    return lines, digest.hexdigest()[:16]


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _run_record(args, result):
    src_lines, src_sha = _src_fingerprint()
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu": _cpu_model(),
        "python": platform.python_version(), "numpy": result["numpy"],
        "blas": result["blas"], "blas_threads": int(BLAS_THREADS),
        "commit": _git_commit(), "src_lines": src_lines, "src_sha256": src_sha,
    }


def _tail(latencies):
    """Latency at the highest percentile with >= TAIL_BEYOND calls beyond it."""
    n = len(latencies)
    if n < 2 * TAIL_BEYOND:
        return None
    k = n - TAIL_BEYOND             # calls at or below the reported one
    return sorted(latencies)[k - 1], 100.0 * k / n, n


def _end_to_end(setups, result):
    """Wall and call times in reference-speed seconds: each block's wall
    times the block's speed factor, each call's latency times the call's
    own factor where the rounds ran in the calls, else its block's.
    Set-up stays in measured seconds: it happens before any reference
    round, and scaling it by the run's factor spread it 0.44 where the
    measured values spread 0.06."""
    raw = result["latencies_s"]
    blocks = len(result["block_walls_s"])
    size = len(raw) // blocks
    factors = result["block_speed_factors"]
    call_factors = result["call_speed_factors"] or [factors[i // size] for i in range(len(raw))]
    lat = [t * f for t, f in zip(raw, call_factors)]
    n = len(lat)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(w * f for w, f in zip(result["block_walls_s"], factors)), "s"),
        "call_p50_s": (statistics.median(lat), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    lines = [f"{name} {value!r} {unit}" for name, (value, unit) in metrics.items()]
    speed = f"speed factor {result['speed_factor']!r} from {result['ref_rounds']} reference rounds"
    lines.append(f"# wall_s, call_p50_s in reference-speed seconds ({speed}); measured: "
                 f"wall_s {statistics.median(result['block_walls_s'])!r} s, "
                 f"call_p50_s {statistics.median(raw)!r} s")
    lines.append(f"# {blocks} blocks, {n} calls, {result['call_s']!r} s measured in calls")
    tail = _tail(lat)
    if tail is None:
        lines.append(f"# call_tail_s omitted: {n} calls, fewer than {2 * TAIL_BEYOND}")
    else:
        value, pct, count = tail
        lines.append(f"call_tail_s {value!r} s (p{pct:.1f} of {count} calls)")
    lines.append(f"fail_ratio {len(result['failures']) / n!r} 1 "
                 f"({len(result['failures'])} of {n} calls)")
    return metrics, lines


WHY_LAYER = {"rediscover": "solver.multistart.wall_share",
             "sweep": "solver.multistart.wall_share",
             "termination": "ratpoly.self_share",
             "verify": "elliptic.self_share"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blocks", type=int, help="run exactly this many blocks (smoke tests)")
    parser.add_argument("--starts", type=int, help="override the multistart size (smoke tests)")
    parser.add_argument("--s412-shift", type=float, default=0.0,
                        help="shift the expected S412 branches (smoke tests)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "abcdwaves" / "__init__.py").is_file():
        print(f"error: no abcdwaves sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            blocks = args.blocks or TRACE_BLOCKS[args.workload]
            _, plain = _run_worker(args, deadline, blocks=blocks)
            _, result = _run_worker(args, deadline, trace=True, blocks=blocks)
            metrics = {k: (v["value"], v["unit"]) for k, v in result["layers"].items()}
            ratio = result["call_s"] / plain["call_s"]
            if args.workload not in LONG_CALLS:
                ratio *= result["speed_factor"] / plain["speed_factor"]
            metrics["trace.overhead_ratio"] = (ratio, "1")
            lines = [f"{name} {value!r} {unit}" for name, (value, unit) in metrics.items()]
            why = WHY_LAYER[args.workload]
            lines.append(f"# why: {why} = {metrics[why][0]:.3f} of the traced wall_s")
            failures = plain["failures"] + result["failures"]
            attempted = len(plain["latencies_s"]) + len(result["latencies_s"])
            if plain["digest"] != result["digest"]:
                failures.append("traced and untraced outputs differ")
        else:
            setups = [_run_worker(args, deadline, setup_only=True)[0]
                      for _ in range(SETUP_SAMPLES - 1)]
            setup_s, result = _run_worker(args, deadline, seconds=args.seconds,
                                          blocks=args.blocks)
            setups.append(setup_s)
            result["setup_samples_s"] = setups
            metrics, lines = _end_to_end(setups, result)
            failures = result["failures"]
            attempted = len(result["latencies_s"])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    record = _run_record(args, result)
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    out_path = results_dir / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out_path.write_text(json.dumps({"record": record, "metrics": metrics,
                                    "failures": failures, **result}) + "\n")

    print("record " + json.dumps(record, sort_keys=True))
    print(f"digest {result['digest']}")
    for line in lines:
        print(line)
    for failure in failures[:20]:
        print(f"# failed: {failure}")
    summary = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
