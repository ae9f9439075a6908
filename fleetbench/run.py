#!/usr/bin/env python3
"""Fleet-engine benchmark: host cost of simulating an OpenVDAP fleet.

Builds the `fleetbench` package (release), then runs one workload for
--seconds, one process per repetition so that each repetition's peak RSS
(VmHWM) is its own, and prints as its last stdout line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the medians of the `end_to_end` metrics
named in BENCHMARK.json over the repetitions, except setup_s, which is
the 5th percentile over many short processes that only time the setup
(started after each repetition, so they sample the whole run); with
--trace 1 traced and untraced repetitions alternate, the metrics are the
medians of the `per_layer` metrics over the traced ones,
`trace.overhead_frac` compares the two, and the spans of the last traced
repetition are written to fleetbench/out/.

The throughput and restore metrics are on the wall clock with the time
the hypervisor stole from the machine taken out (see `Took` in
src/lib.rs), so they still show work spread over more or fewer cores.

Every repetition is checked: its validity checks must pass and its
summary digest must equal the invocation's first. Once per invocation,
steady-city is rerun on one CPU (executor width 1) and crash-resume's
config is run straight through; both must reproduce that digest. A
failed check counts as a failed run and makes the exit code 1.

    python3 fleetbench/run.py --workload steady-city --seed 42 --seconds 35 --trace 0
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"
WORKLOADS = ("steady-city", "rush-overload", "crash-resume")
# Setup-timing processes after each repetition (each takes a few
# milliseconds). A setup takes tens to hundreds of nanoseconds, and each
# process settles in a fast or a slow mode about 40 % apart, with a share
# of slow processes that changes with the load on the host. So setup_s is
# the 5th percentile over the run's processes: the cost of a setup in the
# fast mode, which any work added to the setup still raises.
SETUP_PROCS_PER_REP = 30
# Fewest repetitions a run reports a median over, however long they take.
MIN_REPS = 3


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Builds the benchmark binary and returns its path, or None."""
    cmd = ["cargo", "build", "--release", "--offline", "--message-format=json-render-diagnostics",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    except OSError as err:
        log(f"fleetbench: cannot run cargo: {err}")
        return None
    if proc.returncode != 0:
        return None
    for line in proc.stdout.splitlines():
        msg = json.loads(line)
        if msg.get("reason") == "compiler-artifact" and msg["target"]["name"] == "fleetbench" \
                and msg.get("executable"):
            return msg["executable"]
    return None


def child(binary, args, one_cpu=False):
    """Runs one repetition process; returns its JSON output or None."""
    pin = None
    if one_cpu:
        cpu = min(os.sched_getaffinity(0))
        pin = lambda: os.sched_setaffinity(0, {cpu})  # noqa: E731
    proc = subprocess.run([binary, *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, preexec_fn=pin, timeout=170)
    if proc.returncode != 0:
        log(proc.stderr.strip())
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="scaled-down shapes (about 200 vehicles), for the tests")
    args = ap.parse_args(argv)

    spec = json.loads(SPEC.read_text())
    binary = build()
    if binary is None:
        log("fleetbench: build failed")
        return 2

    base = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.small:
        base.append("--small")
    trace_path = HERE / "out" / f"{args.workload}-seed{args.seed}.trace.json"
    if args.trace:
        trace_path.parent.mkdir(exist_ok=True)

    attempted, failed, problems = 0, 0, []
    reference = None
    plain, traced, rep_secs, setups = [], [], [], []

    def check(out, what, extra=()):
        """Counts one run; returns whether it produced values."""
        nonlocal attempted, failed, reference
        attempted += 1
        found = list(extra)
        if out is None:
            found.append("the repetition process failed")
        else:
            found.extend(out.get("problems", []))
            if reference is None:
                reference = out["digest"]
            elif out["digest"] != reference:
                found.append(f"summary digest {out['digest']} != {reference}")
        problems.extend(f"{what}: {p}" for p in found)
        failed += bool(found)
        return out is not None

    started = time.monotonic()
    while True:
        with_trace = bool(args.trace) and len(traced) < len(plain)
        t0 = time.monotonic()
        out = child(binary, base + (["--trace-out", str(trace_path)] if with_trace else []))
        rep_secs.append(time.monotonic() - t0)
        if check(out, f"rep {attempted + 1}"):
            (traced if with_trace else plain).append(out["values"])
        if not args.trace:
            for _ in range(SETUP_PROCS_PER_REP):
                timing = child(binary, base + ["--setup-only"])
                if timing is None:
                    check(None, "setup timing")
                    break
                setups.append(timing["setup_s"])
        done = len(traced) if args.trace else len(plain)
        elapsed = time.monotonic() - started
        if out is None or (done >= MIN_REPS and elapsed + statistics.median(rep_secs) > args.seconds):
            break

    # Determinism checks, once per invocation.
    if args.workload == "steady-city":
        out = child(binary, base, one_cpu=True)
        one = out is None or out["values"]["pool.workers"] == 1
        check(out, "width-1 rerun", () if one else ["the executor ran on more than one worker"])
    if args.workload == "crash-resume":
        check(child(binary, base + ["--straight"]), "straight run()")

    names = spec["per_layer" if args.trace else "end_to_end"]
    reps = traced if args.trace else plain
    metrics = {}
    for m in names:
        if m["name"] == "setup_s":
            value = statistics.quantiles(setups, n=20)[0] if len(setups) > 1 else None
        elif m["name"] == "trace.overhead_frac":
            run_t = [r["run_s"] for r in traced]
            run_p = [r["run_s"] for r in plain]
            value = statistics.median(run_t) / statistics.median(run_p) - 1 if run_t and run_p else None
        else:
            xs = [r[m["name"]] for r in reps if r.get(m["name"]) is not None]
            value = statistics.median(xs) if xs else None
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    log(f"fleetbench {args.workload} seed={args.seed} reps={len(reps)} "
        f"cpus={len(os.sched_getaffinity(0))} small={args.small}")
    log(f"  summary digest: {reference}")
    log(f"  error_rate: {failed}/{attempted}")
    # Every reading, reported or not (absolute checkpoint times, run
    # wall), with its quartiles over the repetitions.
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name in reps[0] if reps else ():
        xs = sorted(r[name] for r in reps if r.get(name) is not None)
        if xs:
            q1, q2, q3 = quartiles(xs)
            log(f"  {name:<32} {q2:>14.6g} {units.get(name, ''):<11} q1={q1:.6g} q3={q3:.6g}")
    if setups:
        q1, q2, q3 = quartiles(setups)
        log(f"  setup_s over {len(setups)} processes: p5 {metrics['setup_s']['value']:.6g} s, "
            f"q1={q1:.6g} median={q2:.6g} q3={q3:.6g}")
    if args.trace:
        log(f"  trace.overhead_frac: {metrics['trace.overhead_frac']['value']}")
        log(f"  spans: {trace_path}")
    for p in problems:
        log(f"  FAILED {p}")

    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
