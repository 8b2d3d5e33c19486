#!/usr/bin/env python3
"""Produce the optimized design set used by the acceptance tests.

Each run gets a directory under runs/ holding the optimizer outputs, the
projected intermediate design, a full property report and meta.json with
the problem definition and wall time.  Finished runs are skipped, so the
script can resume after an interruption.
"""

import json
import os
import sys
from pathlib import Path

os.environ.setdefault("CELLMAT_THREADS", "1")

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cellmat.materials import get_material  # noqa: E402
from cellmat.optimize import (KSParams, OptimizationProblem,  # noqa: E402
                              build_run, finish_run)

ROOT = Path(__file__).resolve().parents[1]
RUNS = ROOT / "runs"


def run_one(name, problem, material=None, seed_from=None):
    """Optimize once, then report; each phase is cached independently.

    meta.json marks a finished optimization (see cellmat.optimize.
    build_run), whereas an aborted optimize still leaves design.grid
    behind.  Deleting report.json (but not meta.json) regenerates the
    blueprint and property report without re-optimizing.
    """
    out = RUNS / name
    if (out / "report.json").exists():
        print(f"[{name}] cached", flush=True)
        return out

    if (out / "meta.json").exists():
        print(f"[{name}] report", flush=True)
        report = finish_run(problem, out, material)
    else:
        print(f"[{name}] optimize", flush=True)
        seed = None if seed_from is None else RUNS / seed_from / "design.grid"
        report = build_run(problem, out, material, seed, seed_from)
    for ck in out.glob("checkpoint_*.grid"):
        ck.unlink()
    meta = json.loads((out / "meta.json").read_text())
    print(f"[{name}] {meta['status']} after {meta['iterations']} iterations "
          f"in {meta['elapsed_s']:.0f}s; ebar={report.ebar:.5g} "
          f"sigma_y={report.sigma_y:.5g} sigma_c={report.sigma_c:.5g}",
          flush=True)
    return out


def main(argv=None):
    wanted = sys.argv[1:] if argv is None else list(argv)
    runs = []

    def add_run(name, problem, **kw):
        runs.append((name, problem, kw))

    pc = get_material("PC")
    steel = get_material("Steel")
    tpu = get_material("TPU")

    # stiffness-optimal pole of the f*=0.2 set, also criteria 2 and 3
    add_run("c2_stiff_f020_n64",
            OptimizationProblem(n=64, f_star=0.2, gamma1=0.0,
                                sigma1_rel=pc.sigma1_rel),
            material=pc)

    # strength co-design, criterion 4; needs a long settle after the
    # final beta jump for the two failure modes to meet
    add_run("c4_codesign_f020_n64",
            OptimizationProblem(n=64, f_star=0.2, gamma1=1.0,
                                sigma1_rel=pc.sigma1_rel, max_iter=700,
                                ks=KSParams(kappa1=1, kappa2=1,
                                            n_seg=2, m_bands=6)),
            material=pc, seed_from="c2_stiff_f020_n64")

    # buckling-optimal pole of the f*=0.2 set
    add_run("b1_buckling_f020_n64",
            OptimizationProblem(n=64, f_star=0.2, gamma1=1.0,
                                sigma1_rel=pc.sigma1_rel,
                                ks=KSParams(kappa1=0, kappa2=1,
                                            n_seg=2, m_bands=6)),
            material=pc, seed_from="c2_stiff_f020_n64")

    # scaling-law endpoints, criterion 9; TPU's yield term sits far below
    # its buckling term and never binds, so the pure buckling objective is
    # its strength optimum
    for f in (0.05, 0.1):
        tag = f"f{int(round(1000 * f)):03d}"
        add_run(f"c9_tpu_{tag}_n96",
                OptimizationProblem(n=96, f_star=f, gamma1=1.0,
                                    sigma1_rel=tpu.sigma1_rel,
                                    max_iter=250,
                                    ks=KSParams(kappa1=0, kappa2=1,
                                                n_seg=2, m_bands=4)),
                material=tpu)
    # steel needs both terms: a yield-only objective lets buckling collapse
    # below yield and the governed strength follows the wrong branch.  Seed
    # from the buckling pole at the same volume fraction so the low-density
    # run starts with its buckling strength already developed
    for f in (0.05, 0.1):
        tag = f"f{int(round(1000 * f)):03d}"
        add_run(f"c9_steel_{tag}_n96",
                OptimizationProblem(n=96, f_star=f, gamma1=1.0,
                                    sigma1_rel=steel.sigma1_rel,
                                    max_iter=400,
                                    ks=KSParams(kappa1=1, kappa2=1,
                                                n_seg=2, m_bands=4)),
                material=steel, seed_from=f"c9_tpu_{tag}_n96")

    # finer f*=0.2 pole: filter at the mesh floor and a fresh seed let
    # hierarchy form, trading yield strength for buckling strength
    add_run("b2_buckling_f020_n96",
            OptimizationProblem(n=96, f_star=0.2, gamma1=1.0,
                                sigma1_rel=pc.sigma1_rel,
                                radius=2.0 / 96, max_iter=500,
                                ks=KSParams(kappa1=0, kappa2=1,
                                            n_seg=2, m_bands=6)),
            material=pc)

    names = [name for name, _, _ in runs]
    unknown = sorted(set(wanted) - set(names))
    if unknown:
        sys.exit(f"unknown run(s) {', '.join(unknown)}; "
                 f"known: {', '.join(names)}")
    if wanted:
        runs = [r for r in runs if r[0] in wanted]
    selected = {name for name, _, _ in runs}
    for name, _, kw in runs:
        seed = kw.get("seed_from")
        if seed and seed not in selected \
                and not (RUNS / seed / "meta.json").exists():
            sys.exit(f"[{name}] seed run {seed!r} is not optimized; "
                     f"build it first or name it too")
    RUNS.mkdir(exist_ok=True)
    for name, problem, kw in runs:
        run_one(name, problem, **kw)
    print("all runs complete" if not wanted else
          f"runs complete: {', '.join(n for n, _, _ in runs)}", flush=True)


if __name__ == "__main__":
    main()
