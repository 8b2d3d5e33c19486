#!/usr/bin/env python3
"""Compare the band outputs of two checkouts on the committed blueprints.

    python3 scripts/compare_band_outputs.py OLD_DIR NEW_DIR

Each directory holds, for every blueprint <run> in RUNS, what one
checkout printed (see README, "Checking a band-solver change"):

    <run>.csv           cellmat sweep --n-seg 2
    <run>.json          cellmat evaluate --material PC --n-seg 10
    <run>.sweep.err     their standard error under python -W always
    <run>.evaluate.err

Every sweep row must sample the same k, and its tau must agree within
RTOL relative.  A row's sample is its arclength, k, pinned flag and, for
a zone-center limit, its direction (nx, ny): the two limits share
k = (0, 0), and a sweep printed before the limits existed, with neither
column, sampled the zone-center offsets there instead, which shows as
"sample differs" on those rows.  The evaluate reports must be
byte-identical, and every .err file must be empty: a warning there names
a sample where the eigensolver did not converge.  Prints one line per difference and exits 1
if there is any, 0 otherwise.
"""

import argparse
import csv
import sys
from pathlib import Path

RUNS = ("b1_buckling_f020_n64", "b2_buckling_f020_n96",
        "c2_stiff_f020_n64", "c4_codesign_f020_n64")
SUFFIXES = (".csv", ".json", ".sweep.err", ".evaluate.err")
RTOL = 1e-8


SAMPLE = ("arclength", "kx", "ky", "pinned", "nx", "ny")


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
