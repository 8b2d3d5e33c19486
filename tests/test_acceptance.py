"""End-to-end acceptance checks, one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
appear.  Criteria 2, 3, 4, 8 and 9 evaluate the optimized design set under
runs/ (rebuild it with `python3 scripts/make_acceptance_runs.py`; the README
lists the measured wall time of each run).  Everything else is computed
fresh in-test.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import cross_density

from cellmat.aggregate import KSAggregator
from cellmat.bloch import buckling_strength, fold, solve_band, \
    stress_stiffness
from cellmat.design import PDEFilter, enforce_symmetry, interpolate, project
from cellmat.element import element_matrices
from cellmat.fem import assemble, assemble_k0, pin
from cellmat.gridio import read_grid
from cellmat.homogenize import homogenize
from cellmat.materials import classify_failure, fit_scaling, get_material
from cellmat.mesh import build_mesh
from cellmat.optimize import KSParams, OptimizationProblem, \
    evaluate_problem, optimize
from cellmat.pipeline import analyze_cell, area_bulk_modulus, \
    evaluate_design, gradient_check

NU = 1.0 / 3.0
RUNS = Path(__file__).resolve().parents[1] / "runs"
REBUILD = "rebuild with `python3 scripts/make_acceptance_runs.py`"

PC = get_material("PC")


def verdict(num, label, ok, detail):
    print(f"ACCEPTANCE {num:02d} {label}: "
          f"{'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def _load_run(name):
    d = RUNS / name
    if not (d / "report.json").exists():
        pytest.fail(f"optimized design {name!r} is missing; {REBUILD}")
    rho, n = read_grid(d / "design_int.grid")
    return {
        "report": json.loads((d / "report.json").read_text()),
        "meta": json.loads((d / "meta.json").read_text()),
        "rho": rho,
        "n": n,
    }


@pytest.fixture(scope="module")
def stiff_run():
    return _load_run("c2_stiff_f020_n64")


@pytest.fixture(scope="module")
def codesign_run():
    return _load_run("c4_codesign_f020_n64")


@pytest.fixture(scope="module")
def buckling_run():
    return _load_run("b1_buckling_f020_n64")


@pytest.fixture(scope="module")
def pole_run():
    return _load_run("b2_buckling_f020_n96")


def _evaluate(run):
    """Fresh full property evaluation of a cached design."""
    return evaluate_design(run["rho"], run["n"], PC.sigma1_rel)


@pytest.fixture(scope="module")
def stiff_eval(stiff_run):
    return _evaluate(stiff_run)


@pytest.fixture(scope="module")
def codesign_eval(codesign_run):
    return _evaluate(codesign_run)


@pytest.fixture(scope="module")
def buckling_eval(buckling_run):
    return _evaluate(buckling_run)


@pytest.fixture(scope="module")
def pole_eval(pole_run):
    return _evaluate(pole_run)


def test_criterion_01_homogenization_oracle():
    t0 = time.perf_counter()
    n = 32
    mesh = build_mesh(n)
    elem = element_matrices(NU, mesh.h)
    e_k, _ = interpolate(np.ones(mesh.ne), "stiffness")
    res = homogenize(mesh, elem, e_k)

    exact = 1.0 / (1.0 - NU * NU) * np.array([
        [1.0, NU, 0.0],
        [NU, 1.0, 0.0],
        [0.0, 0.0, (1.0 - NU) / 2.0]])
    err_d = np.max(np.abs(res.dbar - exact)) / np.max(np.abs(exact))
    err_e = abs(res.ebar - 1.0)
    err_k = abs(area_bulk_modulus(res.cbar) - 1.0 / (2.0 * (1.0 - NU)))
    dt = time.perf_counter() - t0

    ok = err_d <= 1e-9 and err_e <= 1e-9 and err_k <= 1e-9 and dt < 5.0
    verdict(1, "homogenization oracle", ok,
            f"dbar err {err_d:.2e}, ebar err {err_e:.2e}, "
            f"kappa err {err_k:.2e}, {dt:.2f}s")


def test_criterion_02_stiffness_near_bound(stiff_run, stiff_eval):
    bound = 0.2 / 1.8
    meta = stiff_run["meta"]
    frac = stiff_eval.ebar / bound
    ok = (stiff_eval.ebar >= 0.95 * bound
          and meta["iterations"] <= 400
          and meta["elapsed_s"] < 900.0)
    verdict(2, "stiffness near theoretical bound", ok,
            f"ebar {stiff_eval.ebar:.5f} = {100 * frac:.2f}% of bound, "
            f"{meta['iterations']} iterations in {meta['elapsed_s']:.0f}s")


def test_criterion_03_stiff_design_buckles_near_zone_center(stiff_eval):
    kx, ky = stiff_eval.k_critical
    knorm = math.hypot(kx, ky)
    # critical wavevector must sit on or next to the zone center, within
    # one path step of the sweep that produced it
    step = math.pi / 10.0
    err_e = abs(stiff_eval.ebar - 0.1074) / 0.1074
    ok = (4e-4 <= stiff_eval.sigma_c <= 9e-4
          and knorm <= step * 1.0001
          and err_e <= 0.10)
    verdict(3, "stiffness-optimal design buckling", ok,
            f"sigma_c {stiff_eval.sigma_c:.5g}, |k| {knorm:.4f}, "
            f"ebar within {100 * err_e:.1f}% of 0.1074")


def test_criterion_04_codesign_balances_failure_modes(stiff_eval,
                                                      codesign_eval):
    gap = (abs(codesign_eval.sigma_c - codesign_eval.sigma_y)
           / min(codesign_eval.sigma_c, codesign_eval.sigma_y))
    s_co = min(codesign_eval.sigma_c, codesign_eval.sigma_y)
    s_stiff = min(stiff_eval.sigma_c, stiff_eval.sigma_y)
    degradation = 1.0 - codesign_eval.ebar / stiff_eval.ebar
    ok = (gap <= 0.15 and s_co > s_stiff
          and 0.10 <= degradation <= 0.35)
    verdict(4, "strength co-design", ok,
            f"strength gap {100 * gap:.1f}%, min-strength "
            f"{s_co:.5g} vs {s_stiff:.5g}, "
            f"stiffness degradation {100 * degradation:.1f}%")


def test_criterion_05_gradients_match_finite_differences():
    t0 = time.perf_counter()
    # analysis gradients on randomized fields; n=4 has 16 elements total,
    # so complete coverage stands in for 20 random ones there
    res4 = gradient_check(n=4, elements=16, seed=1)
    res8 = gradient_check(n=8, elements=24, seed=2)

    # the same machinery chained all the way to raw design variables
    p = OptimizationProblem(n=8, f_star=0.3, gamma1=1.0, sigma_star=6e-4,
                            e_star=0.02, sigma1_rel=PC.sigma1_rel,
                            ks=KSParams(kappa1=1, kappa2=1,
                                        n_seg=2, m_bands=4))
    mesh = build_mesh(8)
    elem = element_matrices(NU, mesh.h)
    filt = PDEFilter(mesh, elem, p.filter_radius())
    rng = np.random.default_rng(7)
    rho = rng.uniform(0.3, 0.7, mesh.ne)
    beta = 2.0
    f_dil_star = 0.35
    aggs = {"objective": KSAggregator(zeta=p.ks.zeta, tag="objective"),
            "yield": KSAggregator(zeta=p.ks.zeta, tag="yield")}

    # the first call freezes the aggregation scales every probe reuses
    base = evaluate_problem(mesh, elem, filt, p, rho, beta, aggs,
                            f_dil_star)

    def values(r):
        ev = evaluate_problem(mesh, elem, filt, p, r, beta, aggs,
                              f_dil_star)
        return np.concatenate([[ev.objective], ev.cons_vals])

    analytic = np.vstack([base.grad, base.cons_grads])
    rows = ["objective"] + p.constraint_names()
    tols = {"objective": 1e-3}
    worst = {name: 0.0 for name in rows}
    h = 1e-6
    for i in np.random.default_rng(11).choice(mesh.ne, 21, replace=False):
        xp = rho.copy()
        xp[i] += h
        xm = rho.copy()
        xm[i] -= h
        fd = (values(xp) - values(xm)) / (2.0 * h)
        for r, name in enumerate(rows):
            gmax = max(np.max(np.abs(analytic[r])), 1e-12)
            denom = max(abs(analytic[r, i]), 1e-6 * gmax)
            worst[name] = max(worst[name],
                              abs(fd[r] - analytic[r, i]) / denom)

    chain_ok = all(err <= tols.get(name, 1e-4)
                   for name, err in worst.items())
    dt = time.perf_counter() - t0
    ok = res4["pass"] and res8["pass"] and chain_ok and dt < 120.0
    detail = (f"n=4 tau err {res4['err_tau']:.1e}, "
              f"n=8 tau err {res8['err_tau']:.1e}, chain "
              + " ".join(f"{k} {v:.1e}" for k, v in worst.items())
              + f", {dt:.0f}s")
    verdict(5, "gradients vs finite differences", ok, detail)


def _loaded(mesh, elem, rho):
    cell = analyze_cell(mesh, elem, rho)
    return cell.e_k, cell.stress_weights


def test_criterion_06_bloch_pencil_consistency():
    mesh = build_mesh(8)
    elem = element_matrices(NU, mesh.h)
    rng = np.random.default_rng(3)
    blob = project(
        PDEFilter(mesh, elem, 0.3).apply(rng.uniform(0.2, 0.95, mesh.ne)),
        4.0, 0.5)
    cells = {"cross": cross_density(8, 0.35), "blob": blob}

    err_pin = err_imag = 0.0
    ratio_worst = -np.inf
    for name, rho in cells.items():
        e_k, weights = _loaded(mesh, elem, rho)

        # (a) the pinned zone-center solve equals the plain periodic one
        center = buckling_strength(
            mesh, elem, e_k, weights, m=6,
            k_points=(np.zeros((1, 2)), np.zeros(1)))
        pinned = next(s for s in center.samples if s.pinned)
        k_red = assemble_k0(mesh, elem, e_k, reduced=True)
        ks_red = assemble(mesh.edofs, mesh.ndof, np.einsum(
            "ec,cij->eij", weights, elem.g_stress))
        tau_ref, _ = solve_band(pin(k_red.astype(complex), 1.0),
                                pin(ks_red.astype(complex), 0.0), 6)
        scale = max(1.0, np.max(np.abs(tau_ref)))
        err_pin = max(err_pin,
                      np.max(np.abs(pinned.tau - tau_ref)) / scale)

        # (b) the quadratic forms behind every reported eigenvalue stay
        # real relative to their own accumulation scale |phi|'|A||phi|;
        # near the zone center the modes are huge in the Euclidean norm,
        # so any eigenvalue-relative measure would only see that
        out = buckling_strength(mesh, elem, e_k, weights, n_seg=10, m=6,
                                store_modes=True)
        k0f = assemble_k0(mesh, elem, e_k, reduced=False)
        ksf = stress_stiffness(mesh, elem, weights)
        for s in out.samples:
            # the pencil each sample was solved in, in its own basis
            k0k, ksk = fold(k0f, s.transform), fold(ksf, s.transform)
            if s.pinned:
                k0k, ksk = pin(k0k, 1.0), pin(ksk, 0.0)
            for j in range(s.modes.shape[1]):
                phi = s.modes[:, j]
                mag = np.abs(phi)
                for a in (k0k, ksk):
                    q = phi.conj() @ (a @ phi)
                    scale = max(float(mag @ (abs(a) @ mag)), 1e-300)
                    err_imag = max(err_imag, abs(q.imag) / scale)

        # (c) the boundary path never misses the dense-grid critical load
        assert out.buckled, name
        ax = np.linspace(-np.pi, np.pi, 17)
        gx, gy = np.meshgrid(ax, ax)
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        grid = buckling_strength(mesh, elem, e_k, weights, m=6,
                                 k_points=(pts, np.zeros(len(pts))))
        ratio_worst = max(ratio_worst, out.sigma_c / grid.sigma_c)

    ok = err_pin <= 1e-8 and err_imag <= 1e-9 and ratio_worst <= 1.02
    verdict(6, "Bloch pencil consistency", ok,
            f"zone-center err {err_pin:.1e}, imag part {err_imag:.1e}, "
            f"path/grid sigma_c ratio {ratio_worst:.4f}")


def test_criterion_07_ks_stays_within_overestimate_bound(tmp_path):
    # fresh aggregations checked in memory at full precision
    agg = KSAggregator(zeta=77.0, tag="probe")
    rng = np.random.default_rng(5)
    for it in range(4):
        for size in (5, 50, 500):
            agg(rng.normal(scale=10.0 ** (it - 1), size=size))
        agg.refresh(it)
    checked = 0
    for _, _, count, zeta_eff, vmax, out in agg.history:
        bound = vmax + math.log(count) / zeta_eff
        assert vmax <= out <= bound * (1.0 + 1e-12) + 1e-15
        checked += 1

    # a small logged strength run of its own, plus every aggregation
    # recorded by the optimized design set
    mini = OptimizationProblem(n=8, f_star=0.3, gamma1=1.0, sigma_star=6e-4,
                               sigma1_rel=PC.sigma1_rel, max_iter=5,
                               ks=KSParams(kappa1=1, kappa2=1,
                                           n_seg=2, m_bands=4))
    optimize(mini, out_dir=str(tmp_path))

    logged = 0
    worst = 0.0
    for path in ([tmp_path / "ks_log.csv"]
                 + sorted(RUNS.glob("*/ks_log.csv"))):
        with open(path) as fh:
            header = fh.readline()
            assert header.startswith("iter,")
            for line in fh:
                _, _, count, zeta_eff, vmax, out = line.split(",")
                count, zeta_eff = int(count), float(zeta_eff)
                vmax, out = float(vmax), float(out)
                bound = vmax + math.log(count) / zeta_eff
                # rows round-trip through 12 significant digits
                slack = 1e-9 * max(abs(vmax), abs(bound))
                assert vmax - slack <= out <= bound + slack, path
                worst = max(worst, (out - bound) / max(abs(bound), 1e-12))
                logged += 1
    ok = checked == 12 and logged > 0
    verdict(7, "KS overestimate bound", ok,
            f"{checked} fresh + {logged} logged aggregations, "
            f"worst margin {worst:.1e}")


def test_criterion_08_failure_classification_sweep(pole_eval,
                                                   buckling_eval,
                                                   codesign_eval,
                                                   stiff_eval):
    # buckling-optimal through stiffness-optimal at f*=0.2, ordered by
    # rising Young's modulus as in the set's defining sweep
    designs = sorted([("pole", pole_eval),
                      ("buckling-opt", buckling_eval),
                      ("co-design", codesign_eval),
                      ("stiffness-opt", stiff_eval)],
                     key=lambda d: d[1].ebar)
    names = ["Steel", "Epoxy", "PC", "PC-Nano", "TPU"]
    classes = {}
    for mat_name in names:
        mat = get_material(mat_name)
        row = []
        for _, ev in designs:
            max_vm = PC.sigma1_rel / ev.sigma_y
            row.append(classify_failure(ev.sigma_c, mat.sigma1_rel / max_vm))
        classes[mat_name] = row

    def transitions(row):
        return "simultaneous" in row or {"yield", "buckling"} <= set(row)

    ok = (all(c == "yield" for c in classes["Steel"])
          and all(c == "buckling" for c in classes["TPU"])
          and all(transitions(classes[m])
                  for m in ("Epoxy", "PC", "PC-Nano")))
    detail = "; ".join(
        f"{m}: {'/'.join(c[:5] for c in classes[m])}" for m in names)
    verdict(8, "failure classification sweep", ok, detail)


def test_criterion_09_strength_scaling_exponents():
    # synthetic power law comes back exactly
    fit = fit_scaling([(0.05, 5.0 * 0.05 ** 2), (0.1, 5.0 * 0.1 ** 2)])
    exact = abs(fit.n0 - 2.0) < 1e-12 and abs(fit.c0 - 5.0) < 1e-10

    exps = {}
    for label, runs, lo, hi in (
            ("Steel", ("c9_steel_f050_n96", "c9_steel_f100_n96"), 0.9, 1.2),
            ("TPU", ("c9_tpu_f050_n96", "c9_tpu_f100_n96"), 1.9, 2.7)):
        pts = []
        for name in runs:
            rep = _load_run(name)["report"]
            pts.append((rep["volume_fraction"],
                        min(rep["sigma_y"], rep["sigma_c"])))
        exps[label] = (fit_scaling(pts).n0, lo, hi)

    ok = exact and all(lo <= n0 <= hi for n0, lo, hi in exps.values())
    verdict(9, "strength scaling exponents", ok,
            "synthetic exact; " + ", ".join(
                f"{m} n0 {n0:.2f} in [{lo},{hi}]"
                for m, (n0, lo, hi) in exps.items()))


def test_criterion_10_deterministic_iteration_logs(tmp_path):
    problem = OptimizationProblem(n=24, f_star=0.3, gamma1=1.0,
                                  sigma_star=6e-4,
                                  sigma1_rel=PC.sigma1_rel, max_iter=8,
                                  ks=KSParams(kappa1=1, kappa2=1,
                                              n_seg=2, m_bands=4))
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        optimize(problem, out_dir=str(out))
        outs.append(out)
    same = all(
        (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
        for f in ("iterations.csv", "ks_log.csv", "design.grid"))
    verdict(10, "deterministic iteration logs", same,
            "iterations.csv, ks_log.csv and design.grid byte-identical"
            if same else "logs differ between identical runs")
