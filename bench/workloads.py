"""The three benchmark workloads: inputs, the timed call and its checks.

Every workload runs at n=64 on committed designs under ``runs/``.  Seed 0
uses exactly the committed inputs and checks results against the
committed artifacts; any other seed adds a D4-symmetric perturbation of
amplitude at most 1e-3 to the starting density (clipped to [0, 1]) and
checks only that results are finite.
"""

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 0
PERTURBATION = 1e-3

C2 = "runs/c2_stiff_f020_n64"
B1 = "runs/b1_buckling_f020_n64"

_D4_MAPS = (
    lambda a: a,
    lambda a: np.rot90(a, 1),
    lambda a: np.rot90(a, 2),
    lambda a: np.rot90(a, 3),
    lambda a: a.T,
    lambda a: np.flipud(a),
    lambda a: np.fliplr(a),
    lambda a: np.rot90(a, 2).T,
)


def d4_average(grid):
    """Mean of the eight dihedral images of a square array.

    Kept apart from cellmat.design.enforce_symmetry so that a change to
    the program cannot change the benchmark's inputs.
    """
    return sum(m(grid) for m in _D4_MAPS) / 8.0


def perturb(rho, n, seed):
    """Starting density for a seed: unchanged at seed 0, else perturbed."""
    rho = np.asarray(rho, dtype=float)
    if seed == DEFAULT_SEED:
        return rho.copy()
    rng = np.random.default_rng(seed)
    noise = d4_average(rng.uniform(-PERTURBATION, PERTURBATION, (n, n)))
    return np.clip(rho + noise.ravel(), 0.0, 1.0)


def rel_err(got, want):
    scale = max(abs(got), abs(want))
    return abs(got - want) / scale if scale > 0.0 else 0.0


def _compare(errors, label, got, want, rtol):
    if not (math.isfinite(got) and rel_err(got, want) <= rtol):
        errors.append(f"{label}: got {got!r}, committed {want!r}, "
                      f"rtol {rtol:g}")


def _finite(errors, label, values):
    bad = [v for v in values if v is not None and not math.isfinite(v)]
    if bad:
        errors.append(f"{label}: non-finite values {bad}")


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _history_values(row):
    _, obj, ebar, sigma_y, sigma_c, f_int = row[:6]
    return {"objective": obj, "ebar": ebar, "sigma_y": sigma_y,
            "sigma_c": sigma_c, "f_int": f_int}


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict            # passed to cellmat.config.parse_config
    grid: str | None        # starting density file, None for the seed lattice
    min_calls: int = 1      # timed calls a run makes even past --seconds

    def start_density(self, root, cm, problem, seed):
        if self.grid is None:
            rho = cm.optimize.seed_lattice(problem.n, problem.f_star)
        else:
            rho, n = cm.gridio.read_grid(f"{root}/{self.grid}")
            if n != problem.n:
                raise ValueError(f"{self.grid} is {n}x{n}, want {problem.n}")
        return perturb(rho, problem.n, seed)


class OptimizeWorkload(Workload):
    """Timed call: optimize.optimize for config["max_iter"] iterations."""

    ROOT_SPAN = "optimize.optimize"

    def call(self, cm, problem, material, rho):
        return cm.optimize.optimize(problem, rho0=rho)

    def work_units(self, result):
        return result.iterations

    def check(self, root, result, seed):
        errors = []
        f = result.final
        _finite(errors, "final evaluation",
                [f.objective, f.ebar, f.sigma_y, f.sigma_c, f.f_int])
        for row in result.history:
            _finite(errors, f"row {row[0]}", _history_values(row).values())
        if seed == DEFAULT_SEED:
            self.check_committed(root, result, errors)
        return errors


class StiffWorkload(OptimizeWorkload):
    def check_committed(self, root, result, errors):
        ref = _csv_rows(f"{root}/{C2}/iterations.csv")
        for row in result.history:
            got = _history_values(row)
            for key in ("objective", "ebar", "f_int"):
                _compare(errors, f"row {row[0]} {key}", got[key],
                         float(ref[row[0]][key]), 1e-9)


class CodesignWorkload(OptimizeWorkload):
    # row 0 does not depend on kappa1, so the committed buckling run's
    # first row is the reference; later rows are checked for finiteness
    def check_committed(self, root, result, errors):
        ref = _csv_rows(f"{root}/{B1}/iterations.csv")[0]
        got = _history_values(result.history[0])
        for key in ("ebar", "sigma_y", "sigma_c", "f_int"):
            _compare(errors, f"row 0 {key}", got[key], float(ref[key]), 1e-9)


class SweepWorkload(Workload):
    """Timed call: pipeline.evaluate_design with the full band sweep."""

    ROOT_SPAN = "pipeline.evaluate_design"

    N_SEG = 10
    M_BANDS = 6

    def call(self, cm, problem, material, rho):
        return cm.pipeline.evaluate_design(
            rho, problem.n, problem.sigma1_rel, material=material,
            n_seg=self.N_SEG, m_bands=self.M_BANDS)

    def work_units(self, result):
        # four path edges of n_seg samples; the zone center adds two offsets
        return 4 * self.N_SEG + 2

    def check(self, root, result, seed):
        errors = []
        keys = ("tau_max", "sigma_c", "ebar", "sigma_y")
        got = {k: float(getattr(result, k)) for k in keys}
        kc = [float(c) for c in result.k_critical]
        _finite(errors, "report", list(got.values()) + kc)
        if seed == DEFAULT_SEED:
            with open(f"{root}/{C2}/report.json") as fh:
                ref = json.load(fh)
            for k in keys:
                _compare(errors, k, got[k], ref[k], 1e-8)
            for i, (g, w) in enumerate(zip(kc, ref["k_critical"])):
                _compare(errors, f"k_critical[{i}]", g, w, 1e-8)
        return errors


PC64 = {"n": 64, "f_star": 0.2, "material": "PC"}

WORKLOADS = {w.name: w for w in (
    StiffWorkload(
        name="stiff_n64",
        config={**PC64, "gamma1": 0.0, "max_iter": 10},
        grid=None),
    CodesignWorkload(
        name="codesign_n64",
        config={**PC64, "gamma1": 1.0, "max_iter": 1,
                "ks": {"kappa1": 1, "kappa2": 1, "n_seg": 2, "m_bands": 6}},
        grid=f"{C2}/design.grid",
        # one call takes about 21 s, as long as a whole run of the others;
        # two calls halve the weight of a slow spell of the shared host
        min_calls=2),
    SweepWorkload(
        name="sweep_n64",
        config={**PC64, "gamma1": 0.0},
        grid=f"{C2}/design_int.grid"),
)}

# files a checkout must hold for the workloads to run and be checked
REQUIRED_FILES = (
    "src/cellmat/__init__.py",
    f"{C2}/design.grid", f"{C2}/design_int.grid", f"{C2}/iterations.csv",
    f"{C2}/report.json", f"{B1}/iterations.csv",
)
