"""One workload process of the benchmark; run.py starts it, one at a time.

Modes:
  setup  set up (import, parse the config, read the grid) and stop; reports
         setup_s only.
  run    set up, then repeat the timed call untraced until --seconds have
         been spent, and at least the workload's min_calls times; reports
         per-call wall and CPU times.
  trace  set up with the tracer installed, make the timed call once
         untraced and once traced; reports per-layer metrics.

The last line of standard output is one JSON object.  setup_s runs from
--spawned-at, a time.monotonic() reading the parent took just before
starting this process, to the start of the first timed call.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import types
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
ROOT = Path(__file__).resolve().parents[1]


def _import_cellmat():
    """Import the checkout's cellmat with one BLAS thread, numpy after it."""
    if "numpy" in sys.modules:
        raise SystemExit("numpy was imported before cellmat pinned its "
                         "threads; refusing to time this run")
    if os.environ.get("CELLMAT_THREADS") != "1":
        raise SystemExit("CELLMAT_THREADS must be 1 in the workload process")
    sys.path.insert(0, str(ROOT / "src"))
    import cellmat
    if Path(cellmat.__file__).resolve().parent != ROOT / "src" / "cellmat":
        raise SystemExit(f"imported cellmat from {cellmat.__file__}, not "
                         "from this checkout")
    threads = {v: os.environ.get(v) for v in ("CELLMAT_THREADS",)
               + THREAD_VARS}
    import cellmat.config
    import cellmat.gridio
    import cellmat.optimize
    import cellmat.pipeline
    cm = types.SimpleNamespace(config=cellmat.config, gridio=cellmat.gridio,
                               optimize=cellmat.optimize,
                               pipeline=cellmat.pipeline)
    return cm, threads


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _timed_call(wl, cm, problem, material, rho, seed):
    """One timed call and its check; returns the call's record."""
    from cellmat.errors import CellmatError

    gc.collect()
    c0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        result = wl.call(cm, problem, material, rho)
        errors = []
    except CellmatError as exc:
        result, errors = None, [f"{type(exc).__name__}: {exc}"]
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - c0
    if result is not None:
        errors = wl.check(str(ROOT), result, seed)
    return {"wall_s": wall, "cpu_s": cpu, "errors": errors,
            "units": wl.work_units(result) if result is not None else None}


def repeat_calls(call, seconds, min_calls, clock=time.perf_counter):
    """Call ``call`` (which returns its wall time) at least ``min_calls``
    times, and again while one more median call still fits in ``seconds``.
    """
    start = clock()
    walls = [call()]
    while (len(walls) < min_calls
           or clock() - start + statistics.median(walls) <= seconds):
        walls.append(call())
    return walls


def _versions():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"),
                    required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    args = ap.parse_args(argv)

    cm, threads = _import_cellmat()
    from tracer import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    tracer = None
    if args.mode == "trace":
        tracer = Tracer()
        tracer.install()
    problem, material = cm.config.parse_config(wl.config)
    rho = wl.start_density(str(ROOT), cm, problem, args.seed)
    setup_s = time.monotonic() - args.spawned_at
    out = {"setup_s": setup_s, "threads": threads, "versions": _versions()}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    calls = []

    def timed_call():
        calls.append(_timed_call(wl, cm, problem, material, rho, args.seed))
        return calls[-1]["wall_s"]

    if args.mode == "run":
        repeat_calls(timed_call, args.seconds, wl.min_calls)
    else:
        tracer.uninstall()
        untraced = timed_call()
        tracer.install()
        traced = timed_call()
        tracer.uninstall()
        layers = tracer.metrics(wl.ROOT_SPAN, traced)
        layers["trace.overhead_s"] = (traced - untraced, "s")
        out["per_layer"] = layers
    out["calls"] = calls
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024.0)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
