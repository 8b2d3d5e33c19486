#!/usr/bin/env python3
"""Compare the band outputs of two checkouts on the committed blueprints.

    python3 scripts/compare_band_outputs.py write ROOT OUT_DIR
    python3 scripts/compare_band_outputs.py OLD_DIR NEW_DIR

The write step runs the checkout at ROOT on every blueprint <run> in
RUNS, single-threaded, from its own src/ and runs/, and puts into
OUT_DIR (see README, "Checking a band-solver change"):

    <run>.csv           cellmat sweep --n-seg 2
    <run>.json          cellmat evaluate --material PC --n-seg 10
    <run>.sweep.err     their standard error under python -W always
    <run>.evaluate.err

It exits 1 if a command failed.  The compare step reads two such
directories.

Every sweep row must sample the same k, and its tau must agree within
RTOL relative.  A row's sample is its arclength, k, pinned flag and, for
a zone-center limit, its direction (nx, ny): the two limits share
k = (0, 0), and a sweep printed before the limits existed, with neither
column, sampled the zone-center offsets there instead, which shows as
"sample differs" on those rows.  The evaluate reports must be
byte-identical, and every .err file must be empty: a warning there names
a sample where the eigensolver did not converge.  Prints one line per
difference and exits 1 if there is any, 0 otherwise.
"""

import argparse
import csv
import os
import subprocess
import sys
from pathlib import Path

RUNS = ("b1_buckling_f020_n64", "b2_buckling_f020_n96",
        "c2_stiff_f020_n64", "c4_codesign_f020_n64")
SUFFIXES = (".csv", ".json", ".sweep.err", ".evaluate.err")
RTOL = 1e-8


SAMPLE = ("arclength", "kx", "ky", "pinned", "nx", "ny")
# the cellmat arguments of each output, after --grid
COMMANDS = ((".csv", ".sweep.err", ["sweep", "--n-seg", "2"]),
            (".json", ".evaluate.err",
             ["evaluate", "--material", "PC", "--n-seg", "10"]))


def write_commands(root, out_dir):
    """(argv, environment, stderr path) of every command of the write
    step, in the order it runs them."""
    root, out_dir = Path(root).resolve(), Path(out_dir).resolve()
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               CELLMAT_THREADS="1")
    out = []
    for run in RUNS:
        grid = root / "runs" / run / "design_int.grid"
        for suffix, err, args in COMMANDS:
            argv = [sys.executable, "-W", "always", "-m", "cellmat.cli",
                    args[0], "--grid", str(grid), *args[1:],
                    "--out", str(out_dir / f"{run}{suffix}")]
            out.append((argv, env, out_dir / f"{run}{err}"))
    return out


def write(root, out_dir):
    """Run the write step; 1 if a command failed, 0 otherwise."""
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    failed = 0
    for argv, env, err in write_commands(root, out_dir):
        with open(err, "w") as fh:
            rc = subprocess.run(argv, env=env, stderr=fh).returncode
        if rc:
            print(f"{err}: exit {rc}")
            failed = 1
    return failed


def _rows(path):
    """(tau column names, rows as dicts) of a sweep CSV."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    return [c for c in reader.fieldnames if c.startswith("tau_")], rows


def _sample(row):
    return tuple(row.get(c) or "" for c in SAMPLE)


def _taus(row, names):
    return [float(row[c]) for c in names if row[c] not in (None, "")]


def compare_sweeps(old_path, new_path):
    """One message per difference between two sweep CSVs."""
    (old_taus, old), (new_taus, new) = _rows(old_path), _rows(new_path)
    name = Path(new_path).name
    if old_taus != new_taus or len(old) != len(new):
        return [f"{name}: header or sample count differs"]
    out = []
    for a, b in zip(old, new):
        where = f"{name} k=({a['kx']}, {a['ky']})"
        x, y = _taus(a, old_taus), _taus(b, new_taus)
        if _sample(a) != _sample(b):
            out.append(f"{where}: sample differs")
        elif len(x) != len(y) or any(
                abs(p - q) > RTOL * max(abs(p), abs(q))
                for p, q in zip(x, y)):
            out.append(f"{where}: tau differs beyond {RTOL:g} relative")
    return out


def compare_dirs(old_dir, new_dir):
    """Every difference between the outputs in two directories."""
    out = []
    for run in RUNS:
        pairs = {s: (Path(old_dir) / f"{run}{s}", Path(new_dir) / f"{run}{s}")
                 for s in SUFFIXES}
        missing = [p for pair in pairs.values() for p in pair
                   if not p.is_file()]
        if missing:
            out.extend(f"missing {p}" for p in missing)
            continue
        out.extend(compare_sweeps(*pairs[".csv"]))
        old_json, new_json = pairs[".json"]
        if old_json.read_bytes() != new_json.read_bytes():
            out.append(f"{run}.json differs")
        for suffix in (".sweep.err", ".evaluate.err"):
            for p in pairs[suffix]:
                if p.stat().st_size:
                    first = p.read_text().splitlines()[0]
                    out.append(f"{p} is not empty: {first}")
    return out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["write"]:
        ap = argparse.ArgumentParser(
            prog="compare_band_outputs.py write",
            description="write the band outputs of one checkout")
        ap.add_argument("root")
        ap.add_argument("out_dir")
        args = ap.parse_args(argv[1:])
        return write(args.root, args.out_dir)
    ap = argparse.ArgumentParser(
        description="compare band outputs of two checkouts")
    ap.add_argument("old_dir")
    ap.add_argument("new_dir")
    args = ap.parse_args(argv)
    problems = compare_dirs(args.old_dir, args.new_dir)
    for line in problems:
        print(line)
    print(f"{len(RUNS)} blueprints: "
          + (f"{len(problems)} differences" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
