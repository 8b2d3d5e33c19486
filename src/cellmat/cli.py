"""Command line front end.

Exit codes: 0 success, 2 bad configuration or input, 3 failed analysis,
4 solver failure.  Errors are reported as a one-line JSON object on
stderr so callers can parse them.
"""

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import __version__
from .bloch import buckling_strength
from .config import load_config
from .element import element_matrices
from .errors import CellmatError, ConfigError, SolverError
from .gridio import read_grid, write_json
from .materials import fit_scaling, get_material
from .mesh import build_mesh
from .optimize import build_run
from .pipeline import NU, REPORT_M_BANDS, REPORT_N_SEG, analyze_cell, \
    evaluate_design, gradient_check


def _check_out(path):
    """Reject an --out file that cannot be created, before any work."""
    parent = os.path.dirname(path) or "."
    if path != "-" and (os.path.isdir(path) or not os.path.isdir(parent)):
        raise ConfigError(f"cannot write --out {path}: not a file in an "
                          "existing directory")


def _sigma1_rel(args):
    if args.material is not None:
        if args.sigma1_rel is not None:
            raise ConfigError("give either --material or --sigma1-rel")
        mat = get_material(args.material)
        return mat.sigma1_rel, mat
    if args.sigma1_rel is None:
        raise ConfigError("need --material or --sigma1-rel")
    return args.sigma1_rel, None


def cmd_optimize(args):
    problem, material = load_config(args.config)
    report = build_run(problem, args.out_dir, material, args.seed_grid,
                       args.seed_grid)
    write_json("-", report.to_dict())
    return 0


def cmd_evaluate(args):
    sigma1_rel, material = _sigma1_rel(args)
    rho, n = read_grid(args.grid)
    report = evaluate_design(rho, n, sigma1_rel, material=material,
                             with_bands=not args.no_bands,
                             n_seg=args.n_seg, m_bands=args.m_bands)
    write_json(args.out, report.to_dict())
    return 0


def _band_setup(args):
    rho, n = read_grid(args.grid)
    mesh = build_mesh(n)
    elem = element_matrices(NU, mesh.h)
    cell = analyze_cell(mesh, elem, rho)

    def run(**kw):
        return buckling_strength(mesh, elem, cell.e_k, cell.stress_weights,
                                 m=args.m_bands, **kw)
    return run


def cmd_band(args):
    try:
        kx, ky = (float(v) for v in args.k.split(","))
    except ValueError as err:
        raise ConfigError(f"--k wants KX,KY, got {args.k!r}") from err
    run = _band_setup(args)
    band = run(k_points=(np.array([[kx, ky]]), np.zeros(1)))
    out = {"k": [kx, ky],
           "samples": [{"k": [float(s.k[0]), float(s.k[1])],
                        "pinned": s.pinned,
                        "direction": (None if s.direction is None else
                                      [float(c) for c in s.direction]),
                        "tau": [float(t) for t in s.tau]}
                       for s in band.samples],
           "tau_max": band.tau_max,
           "sigma_c": band.sigma_c if np.isfinite(band.sigma_c) else None}
    write_json(args.out, out)
    return 0


def cmd_sweep(args):
    run = _band_setup(args)
    band = run(n_seg=args.n_seg)
    fh = sys.stdout if args.out == "-" else open(args.out, "w", newline="")
    try:
        w = csv.writer(fh)
        nb = max(s.tau.size for s in band.samples)
        w.writerow(["arclength", "kx", "ky", "pinned", "nx", "ny"]
                   + [f"tau_{i + 1}" for i in range(nb)])
        for s in band.samples:
            # nx, ny: the direction of a zone-center limit, else empty
            d = ["", ""] if s.direction is None else \
                [f"{c:.12g}" for c in s.direction]
            w.writerow([f"{s.arclength:.12g}", f"{s.k[0]:.12g}",
                        f"{s.k[1]:.12g}", int(s.pinned)] + d
                       + [f"{t:.12g}" for t in s.tau])
    finally:
        if fh is not sys.stdout:
            fh.close()
    return 0


def cmd_fit(args):
    pts = []
    try:
        fh = open(args.points)
    except OSError as err:
        raise ConfigError(
            f"cannot read {args.points}: {err.strerror}") from err
    with fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].replace(",", " ").strip()
            if not line:
                continue
            try:
                d, s = (float(v) for v in line.split())
            except ValueError as err:
                raise ConfigError(
                    f"{args.points} line {lineno}: want 'density strength', "
                    f"got {line!r}") from err
            pts.append((d, s))
    fit = fit_scaling(pts)
    write_json(args.out, {"c0": fit.c0, "n0": fit.n0, "points_used": 2,
                          "points_given": len(pts)})
    return 0


def cmd_check_gradients(args):
    out = gradient_check(n=args.n, elements=args.elements, seed=args.seed)
    out = {k: (float(v) if isinstance(v, np.floating) else v)
           for k, v in out.items()}
    write_json(args.out, out)
    if not out["pass"]:
        raise SolverError(
            "gradient check failed: ebar %(err_ebar).3g, "
            "stress %(err_stress).3g, tau %(err_tau).3g" % out)
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="cellmat",
        description="design and analysis of periodic cellular materials")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optimize", help="run a design optimization")
    p.add_argument("--config", required=True, help="JSON problem definition")
    p.add_argument("--out", dest="out_dir", required=True,
                   help="output directory")
    p.add_argument("--seed-grid", help="starting design (.grid)")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("evaluate", help="analyze a density grid")
    p.add_argument("--grid", required=True)
    p.add_argument("--material")
    p.add_argument("--sigma1-rel", type=float, dest="sigma1_rel")
    p.add_argument("--no-bands", action="store_true")
    p.add_argument("--n-seg", type=int, default=REPORT_N_SEG)
    p.add_argument("--m-bands", type=int, default=REPORT_M_BANDS)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("band", help="eigenvalues at one wavevector")
    p.add_argument("--grid", required=True)
    p.add_argument("--k", required=True, help="KX,KY")
    p.add_argument("--m-bands", type=int, default=REPORT_M_BANDS)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_band)

    p = sub.add_parser("sweep", help="band sweep along the zone boundary")
    p.add_argument("--grid", required=True)
    p.add_argument("--n-seg", type=int, default=REPORT_N_SEG)
    p.add_argument("--m-bands", type=int, default=REPORT_M_BANDS)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("fit", help="strength scaling law from data points")
    p.add_argument("--points", required=True,
                   help="file of 'density strength' lines")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("check-gradients",
                       help="adjoint gradients vs finite differences")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--elements", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_check_gradients)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if "out" in vars(args):       # every command but optimize
            _check_out(args.out)
        return args.func(args)
    except CellmatError as err:
        json.dump({"error": type(err).__name__, "message": str(err)},
                  sys.stderr)
        sys.stderr.write("\n")
        return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
