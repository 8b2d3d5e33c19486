"""Robust strength/stiffness design loop on the periodic cell.

One iteration: symmetrize and filter the raw design, project the eroded,
intermediate and dilated realizations, analyze the eroded one (stiffness,
stress, and when requested the band sweep), aggregate, chain all
gradients back to the raw variables along each realization's own
projection, and take one MMA step.  The raw design is D4-symmetric: MMA
runs on its values at the orbit representatives (design.d4_orbits),
each weighted by its orbit's size, so that its steps are those of MMA on
the whole symmetric field.  A seed enters as its D4 average, the field
that the analysis chain sees anyway.  The dilated realization carries
the volume constraint; its bound is retuned every 20 iterations so the
intermediate design lands on the requested fraction.  Projection
sharpness doubles on a fixed schedule; the loop ends at the iteration
cap or when the design stops moving at the final sharpness.
"""

import csv
import json
import os
import time
from dataclasses import asdict, dataclass

import numpy as np

from .aggregate import KSAggregator
from .bloch import buckling_strength
from .design import PDEFilter, d4_orbits, enforce_symmetry, project
from .element import element_matrices
from .errors import CellmatError, ConfigError
from .gridio import check_density, check_material, read_grid, write_grid, \
    write_json, write_pgm
# not called here; bench/test_bench.py checks that the tracer wraps it here
from .homogenize import homogenize  # noqa: F401
from .mesh import build_mesh
from .mma import MMA
from .pipeline import NU, analyze_cell, evaluate_design
from .sensitivity import chain_to_design, grad_ebar, stability_grad, \
    stress_grad
from .stress import yield_strength


def _integer(value):
    """An int or numpy integer, but no bool: True would pass as 1."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _require(params, rules):
    """Raise a ConfigError naming the first field that is not finite (json
    reads Infinity and NaN) or whose bound fails."""
    for name, holds, bound in rules:
        value = getattr(params, name)
        if not (_integer(value) or np.isfinite(value)):
            raise ConfigError(f"{name} must be finite, got {value}")
        if not holds:
            raise ConfigError(f"{name} must be {bound}, got {value}")


@dataclass(frozen=True)
class KSParams:
    zeta: float = 100.0
    kappa1: int = 1
    kappa2: int = 1
    n_seg: int = 2
    m_bands: int = 6

    def validate(self):
        _require(self, [("zeta", self.zeta > 0.0, "positive"),
                        ("kappa1", _integer(self.kappa1)
                         and self.kappa1 in (0, 1), "0 or 1"),
                        ("kappa2", _integer(self.kappa2)
                         and self.kappa2 in (0, 1), "0 or 1"),
                        ("n_seg", _integer(self.n_seg) and self.n_seg >= 2,
                         "an integer >= 2"),
                        ("m_bands", _integer(self.m_bands)
                         and self.m_bands >= 1, "an integer >= 1")])


@dataclass(frozen=True)
class OptimizationProblem:
    n: int
    f_star: float
    gamma1: float
    ks: KSParams = KSParams()
    sigma_star: float = 0.0
    e_star: float = 0.0
    sigma1_rel: float = 0.044
    radius: float = 0.0          # 0 picks the default for f_star and n
    delta_eta: float = 0.05
    beta_max: float = 32.0
    beta_every: int = 50
    max_iter: int = 400
    move: float = 0.1
    tol_change: float = 1e-3
    checkpoint_every: int = 25

    def validate(self):
        """Check every bound; the mesh size is build_mesh's to check."""
        self.ks.validate()
        _require(self, [
            ("gamma1", 0.0 <= self.gamma1 <= 1.0, "in [0,1]"),
            ("f_star", 0.0 < self.f_star < 1.0, "in (0,1)"),
            ("sigma_star", self.sigma_star >= 0.0, ">= 0"),
            ("e_star", self.e_star >= 0.0, ">= 0"),
            ("sigma1_rel", 0.0 < self.sigma1_rel < 1.0, "in (0,1)"),
            ("radius", self.radius >= 0.0, ">= 0"),
            ("delta_eta", 0.0 < self.delta_eta < 0.5, "in (0,0.5)"),
            ("beta_max", self.beta_max >= 1.0, ">= 1"),
            ("beta_every", _integer(self.beta_every)
             and self.beta_every >= 1, "an integer >= 1"),
            ("max_iter", _integer(self.max_iter) and self.max_iter >= 1,
             "an integer >= 1"),
            ("move", 0.0 < self.move <= 1.0, "in (0,1]"),
            ("tol_change", self.tol_change > 0.0, "positive"),
            ("checkpoint_every", _integer(self.checkpoint_every)
             and self.checkpoint_every >= 1, "an integer >= 1")])
        if self.gamma1 > 0.0 and not (self.ks.kappa1 or self.ks.kappa2):
            raise ConfigError("strength objective needs kappa1 or kappa2")

    def filter_radius(self):
        if self.radius > 0.0:
            return self.radius
        base = 0.03 if self.f_star >= 0.15 else 0.01
        return max(base, 2.0 / self.n)

    def beta_at(self, it):
        return float(min(self.beta_max, 2.0 ** (it // self.beta_every)))

    def constraint_names(self):
        """The constraints in the order evaluate_problem returns them."""
        return ((["yield"] if self.sigma_star > 0.0 else [])
                + (["stiffness"] if self.e_star > 0.0 else [])
                + ["volume"])


def blueprint_field(problem, rho, beta):
    """0/1 fabrication blueprint: the thresholded intermediate projection.

    Residual gray in the projected field belongs to the parameterization,
    not the part; near-void residue in particular reads as spurious
    stress hotspots under the relaxed stress interpolation.
    """
    mesh = build_mesh(problem.n)
    elem = element_matrices(NU, mesh.h)
    filt = PDEFilter(mesh, elem, problem.filter_radius())
    rho = np.asarray(rho, dtype=float)
    rb = project(filt.apply(enforce_symmetry(rho, problem.n)), beta, 0.5)
    return (rb > 0.5).astype(float)


def seed_lattice(n, f_star):
    """Orthogonal-bar lattice whose solid fraction hits the target."""
    w = 1.0 - np.sqrt(1.0 - f_star)
    c = (np.arange(n) + 0.5) / n
    on = np.abs(c - 0.5) < w / 2.0
    rho = np.zeros((n, n))
    rho[on, :] = 1.0
    rho[:, on] = 1.0
    return rho.ravel()


@dataclass
class Evaluation:
    objective: float
    grad: np.ndarray | None    # None for a values-only evaluation
    cons_vals: np.ndarray      # in the order of constraint_names()
    cons_grads: np.ndarray | None
    ebar: float
    sigma_y: float
    sigma_c: float | None
    f_int: float


def evaluate_problem(mesh, elem, filt, problem, rho, beta, aggs, f_dil_star,
                     gradients=True):
    """Objective, constraints and design-space gradients at one iterate.

    With gradients False only the values are computed: grad and
    cons_grads stay None and the band sweep stores no modes.  The
    aggregators are called as with gradients, so their logs are the same.
    """
    p = problem
    n = mesh.n
    eta_e = 0.5 + p.delta_eta
    eta_d = 0.5 - p.delta_eta

    rho_t = filt.apply(enforce_symmetry(rho, n))
    rb = project(rho_t, beta, eta_e)

    cell = analyze_cell(mesh, elem, rb)
    ebar, st = cell.homog.ebar, cell.stresses
    sigma1 = p.sigma1_rel

    need_tau = p.gamma1 > 0.0 and p.ks.kappa2 == 1
    need_vm_obj = p.gamma1 > 0.0 and p.ks.kappa1 == 1

    band = None
    if need_tau:
        # the sweep solves its zone center on the analysis's periodic
        # factor, which the adjoint solves of the gradients reuse: on c2
        # at n = 64, 0.30M entries in L+U and 3 to 5 MB per pair of classes
        band = buckling_strength(mesh, elem, cell.e_k, cell.stress_weights,
                                 n_seg=p.ks.n_seg, m=p.ks.m_bands,
                                 store_modes=gradients,
                                 solver=cell.homog.solver)

    obj = 0.0
    if p.gamma1 > 0.0:
        vals = []
        if need_vm_obj:
            vals.append(st.vm / sigma1)
        if need_tau:
            vals.append(np.concatenate([s.tau for s in band.samples]))
        ks_val, w = aggs["objective"](np.concatenate(vals))
        obj += p.gamma1 * ks_val
    if p.gamma1 < 1.0:
        obj += (1.0 - p.gamma1) / ebar

    vals = []
    for name in p.constraint_names():
        if name == "yield":
            ks_y, w_y = aggs["yield"](st.vm / sigma1)
            vals.append(p.sigma_star * ks_y - 1.0)
        elif name == "stiffness":
            vals.append(1.0 - ebar / p.e_star)
        else:                              # volume
            f_dil = float(project(rho_t, beta, eta_d).mean())
            vals.append(f_dil / f_dil_star - 1.0)

    ev = Evaluation(
        objective=obj, grad=None, cons_vals=np.array(vals), cons_grads=None,
        ebar=ebar, sigma_y=yield_strength(st.max_vm, sigma1),
        sigma_c=band.sigma_c if band is not None else None,
        f_int=float(project(rho_t, beta, 0.5).mean()))
    if not gradients:
        return ev

    def chain_e(g):
        return chain_to_design(g, filt, rho_t, beta, eta_e, n)

    grad_phys = np.zeros(mesh.ne)
    if p.gamma1 > 0.0:
        if need_vm_obj:
            w_vm, w = w[:mesh.ne], w[mesh.ne:]
            grad_phys += p.gamma1 * stress_grad(mesh, elem, cell,
                                                w_vm / sigma1)
        if need_tau:
            wlist = []
            at = 0
            for s in band.samples:
                wlist.append(w[at:at + s.tau.size])
                at += s.tau.size
            grad_phys += p.gamma1 * stability_grad(mesh, elem, cell, band,
                                                   wlist)
    if p.gamma1 < 1.0:
        grad_phys -= (1.0 - p.gamma1) / ebar ** 2 * grad_ebar(cell)

    grads = []
    for name in p.constraint_names():
        if name == "yield":
            grads.append(chain_e(p.sigma_star * stress_grad(
                mesh, elem, cell, w_y / sigma1)))
        elif name == "stiffness":
            grads.append(chain_e(-grad_ebar(cell) / p.e_star))
        else:                              # volume
            g_vol = np.full(mesh.ne, 1.0 / (mesh.ne * f_dil_star))
            grads.append(chain_to_design(g_vol, filt, rho_t, beta, eta_d, n))
    ev.grad, ev.cons_grads = chain_e(grad_phys), np.array(grads)
    return ev


@dataclass
class OptimizationResult:
    rho: np.ndarray
    status: str
    iterations: int
    history: list
    final: Evaluation


def _fmt(v):
    return "" if v is None else f"{v:.12g}"


class _RunLog:
    """Iteration CSV, aggregation CSV and checkpoint files, all optional."""

    def __init__(self, out_dir, names):
        self.out_dir = out_dir
        self._fh = None
        self._csv = None
        if out_dir is not None:
            try:
                os.makedirs(out_dir, exist_ok=True)
                self._fh = open(os.path.join(out_dir, "iterations.csv"),
                                "w", newline="")
            except OSError as err:
                raise ConfigError(f"cannot write the run to {out_dir}: "
                                  f"{err.strerror}") from err
            self._csv = csv.writer(self._fh)
            self._csv.writerow(["iter", "objective", "ebar", "sigma_y",
                                "sigma_c", "f_int", "beta"]
                               + [f"g_{c}" for c in names])

    def row(self, it, ev, beta):
        if self._csv is None:
            return
        self._csv.writerow([it, _fmt(ev.objective), _fmt(ev.ebar),
                            _fmt(ev.sigma_y), _fmt(ev.sigma_c),
                            _fmt(ev.f_int), _fmt(beta)]
                           + [_fmt(v) for v in ev.cons_vals])
        self._fh.flush()

    def checkpoint(self, tag, rho, n):
        if self.out_dir is None:
            return
        write_grid(os.path.join(self.out_dir, f"checkpoint_{tag}.grid"),
                   rho, n)

    def finish(self, aggs, rho, n):
        if self.out_dir is None:
            return
        write_grid(os.path.join(self.out_dir, "design.grid"), rho, n)
        write_pgm(os.path.join(self.out_dir, "design.pgm"), rho, n)
        with open(os.path.join(self.out_dir, "ks_log.csv"),
                  "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["iter", "tag", "count", "zeta_eff", "max", "ks"])
            for agg in aggs.values():
                for it, tag, count, zeff, vmax, out in agg.history:
                    w.writerow([it, tag, count, _fmt(zeff), _fmt(vmax),
                                _fmt(out)])
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def optimize(problem, rho0=None, out_dir=None):
    """Run the design loop; returns the final design and its history.

    rho0 (default: the seed lattice) enters as its D4 average; every
    design evaluated, checkpointed or returned is D4-symmetric.  The
    history rows mirror the iteration CSV.  On an analysis or solver
    error the log files are closed as at the end of a run, next to a
    checkpoint_abort.grid of the last design, and the error is re-raised.
    """
    problem.validate()
    p = problem
    mesh = build_mesh(p.n)
    elem = element_matrices(NU, mesh.h)
    filt = PDEFilter(mesh, elem, p.filter_radius())
    rho = seed_lattice(p.n, p.f_star) if rho0 is None else \
        np.asarray(rho0, dtype=float).copy()
    if rho.size != mesh.ne:
        raise ConfigError(f"seed has {rho.size} values, mesh wants {mesh.ne}")
    check_density(rho, "seed")
    check_material(rho, "seed")
    orbits = d4_orbits(p.n)
    x = enforce_symmetry(rho, p.n)[orbits.reps]
    rho = x[orbits.index]

    aggs = {"objective": KSAggregator(p.ks.zeta, "objective"),
            "yield": KSAggregator(p.ks.zeta, "yield")}
    names = p.constraint_names()
    mma = MMA(x.size, len(names), 0.0, 1.0, move=p.move,
              weights=orbits.sizes)
    f_dil_star = p.f_star
    obj_scale = None
    history = []
    log = _RunLog(out_dir, names)

    status = "max_iter"
    beta = 1.0
    try:
        for it in range(p.max_iter):
            beta = p.beta_at(it)
            for agg in aggs.values():
                agg.refresh(it)
            ev = evaluate_problem(mesh, elem, filt, p, rho, beta, aggs,
                                  f_dil_star)
            if obj_scale is None:
                obj_scale = 1.0 / max(abs(ev.objective), 1e-12)
            history.append((it, ev.objective, ev.ebar, ev.sigma_y,
                            ev.sigma_c, ev.f_int, beta,
                            tuple(ev.cons_vals)))
            log.row(it, ev, beta)
            if it % p.checkpoint_every == 0:
                log.checkpoint(f"{it:04d}", rho, p.n)
            if it > 0 and it % 20 == 0:
                f_dil_star = float(np.clip(
                    f_dil_star * p.f_star / max(ev.f_int, 1e-9),
                    1e-3, 0.999))

            # the gradients are orbit averages (chain_to_design), taken
            # at the representatives
            x_new = mma.update(x, obj_scale * ev.grad[orbits.reps],
                               ev.cons_vals, ev.cons_grads[:, orbits.reps])
            change = float(np.abs(x_new - x).max())
            x = x_new
            rho = x[orbits.index]
            if change < p.tol_change and beta >= p.beta_max:
                status = "converged"
                break
        final = evaluate_problem(mesh, elem, filt, p, rho, beta, aggs,
                                 f_dil_star, gradients=False)
    except CellmatError:
        log.checkpoint("abort", rho, p.n)
        log.finish(aggs, rho, p.n)
        raise

    log.finish(aggs, rho, p.n)
    return OptimizationResult(rho=rho, status=status,
                              iterations=len(history), history=history,
                              final=final)


def build_run(problem, out_dir, material, seed_grid, seed_from):
    """Optimize into out_dir from seed_grid (None: the seed lattice), then
    write meta.json, recording seed_from as the seed, and finish_run.

    meta.json appears only once optimize returns: it marks a run to report.
    """
    # optimize rejects a seed of the wrong size or with no material
    rho0 = None if seed_grid is None else read_grid(seed_grid)[0]
    t0 = time.time()
    res = optimize(problem, rho0=rho0, out_dir=out_dir)
    write_json(os.path.join(out_dir, "meta.json"), {
        "problem": asdict(problem), "status": res.status,
        "iterations": res.iterations, "elapsed_s": time.time() - t0,
        "material": material.name if material else None,
        "seed_from": seed_from})
    return finish_run(problem, out_dir, material)


def finish_run(problem, out_dir, material):
    """Blueprint and property report of the optimized run in out_dir.

    The blueprint, design_int.grid/.pgm, is projected at the sharpness of
    the last iteration, fixed by the iteration count in meta.json; its
    evaluate_design report, with the default band sweep, is report.json.
    """
    n = problem.n
    rho, _ = read_grid(os.path.join(out_dir, "design.grid"))
    with open(os.path.join(out_dir, "meta.json")) as fh:
        iterations = json.load(fh)["iterations"]
    rho_int = blueprint_field(problem, rho, problem.beta_at(iterations - 1))
    write_grid(os.path.join(out_dir, "design_int.grid"), rho_int, n)
    write_pgm(os.path.join(out_dir, "design_int.pgm"), rho_int, n)
    report = evaluate_design(rho_int, n, problem.sigma1_rel,
                             material=material)
    write_json(os.path.join(out_dir, "report.json"), report.to_dict())
    return report
