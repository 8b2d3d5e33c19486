#!/usr/bin/env python3
"""cellmat benchmark: one workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload stiff_n64 --seed 0 --seconds 20 --trace 0

Each workload runs in fresh child processes (bench/worker.py), one at a
time, with CELLMAT_THREADS=1 and no other thread-count variables, so BLAS
uses one thread.  With --trace 0 the run repeats the timed call for
--seconds and sets up SETUP_REPEATS extra times, half before and half
after, for a median set-up time;
with --trace 1 one child makes the timed call untraced and then traced.
Every timed call is checked: against the committed artifacts under runs/
at seed 0, for finite results at other seeds.

The full record, with provenance, goes to
bench/results/BENCH_<workload>_seed<seed>_trace<trace>.json; the last
line of standard output is the summary JSON.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import REQUIRED_FILES, WORKLOADS
from worker import ROOT, THREAD_VARS

SETUP_REPEATS = 6
RUN_BUDGET_S = 170.0      # every child must end within this many seconds


class BenchError(Exception):
    pass


def _child(workload, seed, seconds, mode, deadline):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["CELLMAT_THREADS"] = "1"
    cmd = [sys.executable, str(ROOT / "bench" / "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode]
    spawned_at = time.monotonic()
    timeout = deadline - spawned_at
    if timeout <= 0.0:
        raise BenchError(f"no time left for the {mode} process")
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)],
                              env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} process exited with {proc.returncode}")
    return json.loads(lines[-1])


def _end_to_end(setups, run):
    calls = run["calls"]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(c["wall_s"] for c in calls), "s"),
        "unit_s": (statistics.median(c["wall_s"] / c["units"] for c in calls
                                     if c["units"]), "s"),
        "cpu_s": (statistics.median(c["cpu_s"] for c in calls), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MiB"),
    }


def _git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_sha256():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cellmat").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _provenance(args, child):
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "workload": args.workload, "seed": args.seed,
        "run_seconds": args.seconds, "trace": args.trace,
        "cpu_model": _cpu_model(), "nproc": len(os.sched_getaffinity(0)),
        "thread_env": child["threads"],
        **child["versions"],
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [f for f in REQUIRED_FILES if not (ROOT / f).is_file()]
    if missing:
        print(f"bench: checkout lacks {', '.join(missing)}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        if args.trace:
            run = _child(args.workload, args.seed, args.seconds, "trace",
                         deadline)
            metrics = run["per_layer"]
            setups = []
        else:
            def setup():
                return _child(args.workload, args.seed, args.seconds,
                              "setup", deadline)["setup_s"]

            # set-up samples straddle the run so slow drift in machine
            # load affects both halves alike
            setups = [setup() for _ in range(SETUP_REPEATS // 2)]
            run = _child(args.workload, args.seed, args.seconds, "run",
                         deadline)
            setups.append(run["setup_s"])
            setups += [setup() for _ in range(SETUP_REPEATS
                                              - SETUP_REPEATS // 2)]
            metrics = _end_to_end(setups, run)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    attempted = len(run["calls"])
    failed = sum(1 for c in run["calls"] if c["errors"])
    record = {
        "provenance": _provenance(args, run),
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "setup_samples_s": setups,
        "calls": run["calls"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    out_dir = ROOT / "bench" / "results"
    out_dir.mkdir(exist_ok=True)
    out_file = (out_dir / f"BENCH_{args.workload}_seed{args.seed}"
                f"_trace{args.trace}.json")
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    for c in run["calls"]:
        for err in c["errors"]:
            print(f"check failed: {err}")
    for k, (v, u) in metrics.items():
        print(f"{k:40s} {v:14.6g} {u}")
    print(f"failed_frac {record['failed_frac']:g} ({failed}/{attempted}); "
          f"record in {out_file.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
