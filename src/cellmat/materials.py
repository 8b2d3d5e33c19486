"""Constituent material database, failure classification and scaling fits."""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class BaseMaterial:
    name: str
    e1: float          # Young's modulus, GPa
    rho1: float        # mass density, kg/m^3
    sigma1_rel: float  # yield stress over Young's modulus

    def __post_init__(self):
        if min(self.e1, self.rho1, self.sigma1_rel) <= 0.0:
            raise ConfigError(f"material {self.name}: properties must be positive")
        if self.sigma1_rel >= 1.0:
            raise ConfigError(
                f"material {self.name}: relative yield strength must be < 1")


_DB = (
    BaseMaterial("Steel", 215.0, 7800.0, 0.002),
    BaseMaterial("Epoxy", 3.08, 1400.0, 0.023),
    BaseMaterial("PC", 62.0, 1400.0, 0.044),
    BaseMaterial("PC-Nano", 350.0, 2600.0, 0.113),
    BaseMaterial("TPU", 0.012, 1190.0, 0.333),
)


def get_material(name):
    for mat in _DB:
        if mat.name.lower() == name.lower():
            return mat
    known = ", ".join(m.name for m in _DB)
    raise ConfigError(f"unknown material {name!r}; known: {known}")


# relative strength gap below which the two mechanisms count as simultaneous
TIE_BAND = 0.02


def classify_failure(sigma_c, sigma_y):
    """Label the governing failure mechanism of one design and material."""
    if sigma_y <= 0.0 or sigma_c <= 0.0:
        raise ConfigError("strengths must be positive to classify failure")
    if abs(sigma_c - sigma_y) / min(sigma_c, sigma_y) <= TIE_BAND:
        return "simultaneous"
    return "buckling" if sigma_c < sigma_y else "yield"


@dataclass(frozen=True)
class ScalingFit:
    c0: float
    n0: float

    def __call__(self, f):
        return self.c0 * np.asarray(f, dtype=float) ** self.n0


def fit_scaling(points):
    """Two-point log-log fit of strength vs density, lowest densities first.

    points: iterable of (density, strength) pairs, at least two.
    """
    pts = sorted((float(d), float(s)) for d, s in points)
    if len(pts) < 2:
        raise ConfigError("scaling fit needs at least two points")
    (d0, s0), (d1, s1) = pts[0], pts[1]
    if d0 <= 0.0 or s0 <= 0.0 or s1 <= 0.0:
        raise ConfigError("scaling fit needs positive densities and strengths")
    if d0 == d1:
        raise ConfigError(f"duplicate density {d0} in scaling fit")
    n0 = np.log(s1 / s0) / np.log(d1 / d0)
    return ScalingFit(c0=s0 / d0 ** n0, n0=n0)
