"""Density grid files: diffable ASCII plus a PGM mirror for the eye, and
the JSON writer of every report.

Grid layout matches the mesh: element e = ey * n + ex, rows written in
ascending ey.  Values are serialized with 17 significant digits so a
write/read round trip is exact in double precision.
"""

import json
import sys

import numpy as np

from .errors import ConfigError


def check_density(rho, source):
    """Raise ConfigError unless every value is a finite density in [0, 1]."""
    bad = ~((rho >= 0.0) & (rho <= 1.0))    # nan fails both comparisons
    if bad.any():
        i = int(np.argmax(bad))
        value = float(rho[i])       # the plain number, not numpy's repr
        raise ConfigError(f"{source}: value {value!r} at element {i} is "
                          "not a density in [0, 1]")


def check_material(rho, source):
    """Raise ConfigError when no element of rho holds material: a void
    cell has no stiffness to analyze."""
    if not np.any(rho):
        raise ConfigError(f"{source} has no material: every density is 0")


def write_grid(path, rho, n):
    rho = np.asarray(rho, dtype=float)
    if rho.size != n * n:
        raise ConfigError(f"grid wants {n * n} values, got {rho.size}")
    grid = rho.reshape(n, n)
    with open(path, "w") as fh:
        fh.write(f"{n} {n}\n")
        for row in grid:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def read_grid(path):
    """Returns (rho, n); accepts any n_x == n_y header and values in [0, 1]."""
    try:
        fh = open(path)
    except OSError as err:
        raise ConfigError(f"cannot read grid {path}: {err.strerror}") from err
    with fh:
        header = fh.readline().split()
        try:
            nx, ny = (int(v) for v in header)
        except ValueError as err:
            raise ConfigError(
                f"bad grid header in {path}: {header!r}") from err
        if nx != ny:
            raise ConfigError(f"only square grids are supported, got {nx}x{ny}")
        try:
            data = np.loadtxt(fh, ndmin=2)
        except ValueError as err:
            raise ConfigError(f"bad grid body in {path}: want {ny} rows of "
                              f"{nx} numbers") from err
    if data.shape != (ny, nx):
        raise ConfigError(
            f"grid body {data.shape} does not match header {ny}x{nx}")
    rho = data.ravel()
    check_density(rho, path)
    return rho, nx


def write_json(path, obj):
    """obj as sorted, indented JSON with a trailing newline; "-" is stdout."""
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def write_pgm(path, rho, n):
    """8-bit preview, solid material dark, top image row at ey = n-1."""
    rho = np.asarray(rho, dtype=float)
    if rho.size != n * n:
        raise ConfigError(f"grid wants {n * n} values, got {rho.size}")
    pix = 255 - np.rint(255.0 * np.clip(rho, 0.0, 1.0)).astype(int)
    grid = pix.reshape(n, n)[::-1]
    with open(path, "w") as fh:
        fh.write(f"P2\n{n} {n}\n255\n")
        for row in grid:
            fh.write(" ".join(str(v) for v in row) + "\n")
