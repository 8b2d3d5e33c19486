import warnings
from pathlib import Path

import numpy as np
import pytest

from cellmat import optimize as optimize_module
from cellmat import pipeline
from cellmat.aggregate import KSAggregator
from cellmat.design import PDEFilter, d4_orbits, enforce_symmetry, project
from cellmat.element import element_matrices
from cellmat.errors import AnalysisError, ConfigError
from cellmat.gridio import read_grid
from cellmat.mesh import build_mesh
from cellmat.mma import MMA
from cellmat.optimize import (KSParams, OptimizationProblem, build_run,
                              evaluate_problem, optimize, seed_lattice)


def small_problem(**kw):
    base = dict(n=8, f_star=0.3, gamma1=0.0, max_iter=10)
    base.update(kw)
    return OptimizationProblem(**base)


def test_seed_lattice_volume():
    rho = seed_lattice(64, 0.2)
    assert rho.min() == 0.0 and rho.max() == 1.0
    assert abs(rho.mean() - 0.2) < 0.05
    # symmetric under the dihedral maps
    img = rho.reshape(64, 64)
    np.testing.assert_array_equal(img, img.T)
    np.testing.assert_array_equal(img, img[::-1, :])


# one value outside each bound of validate(), and the field it names
BAD_FIELDS = [
    (dict(gamma1=1.5), "gamma1"),
    (dict(f_star=0.0), "f_star"),
    (dict(sigma_star=-1.0), "sigma_star"),
    (dict(e_star=-1.0), "e_star"),
    (dict(sigma1_rel=2), "sigma1_rel"),
    (dict(radius=-1), "radius"),
    (dict(delta_eta=0.5), "delta_eta"),
    (dict(beta_max=0.5), "beta_max"),
    (dict(beta_every=0), "beta_every"),
    (dict(max_iter=0), "max_iter"),
    (dict(move=5), "move"),
    (dict(tol_change=-1), "tol_change"),
    (dict(checkpoint_every=0), "checkpoint_every"),
    (dict(ks=KSParams(zeta=-3.0)), "zeta"),
    (dict(ks=KSParams(kappa1=2)), "kappa1"),
    (dict(ks=KSParams(kappa2=-1)), "kappa2"),
    (dict(ks=KSParams(n_seg=1)), "n_seg"),
    (dict(ks=KSParams(m_bands=0)), "m_bands"),
    (dict(gamma1=1.0, ks=KSParams(kappa1=0, kappa2=0)), "kappa1 or kappa2"),
]
# a bool in each int field: True would pass every bound as 1
BOOL_FIELDS = [
    (dict(beta_every=True), "beta_every"),
    (dict(max_iter=True), "max_iter"),
    (dict(checkpoint_every=True), "checkpoint_every"),
    (dict(ks=KSParams(kappa1=True)), "kappa1"),
    (dict(ks=KSParams(kappa2=False)), "kappa2"),
    (dict(ks=KSParams(n_seg=True)), "n_seg"),
    (dict(ks=KSParams(m_bands=True)), "m_bands"),
]


@pytest.mark.parametrize(
    "kw, field", BAD_FIELDS + BOOL_FIELDS,
    ids=[field for _, field in BAD_FIELDS]
    + [f"bool-{field}" for _, field in BOOL_FIELDS])
def test_validation(kw, field):
    with pytest.raises(ConfigError, match=field):
        small_problem(**kw).validate()


@pytest.mark.parametrize("n", [8.0, True])
def test_mesh_size_must_be_an_integer(n):
    with pytest.raises(ConfigError, match=r"\bn must be"):
        optimize(small_problem(n=n, max_iter=1))


def test_build_run_rejects_the_problem_before_the_analysis(tmp_path,
                                                           monkeypatch):
    def analysis(*args, **kwargs):
        raise AssertionError("the analysis ran")
    monkeypatch.setattr(optimize_module, "evaluate_problem", analysis)
    with pytest.raises(ConfigError, match="sigma1_rel"):
        build_run(small_problem(sigma1_rel=2), str(tmp_path / "run"), None,
                  None, None)


def test_filter_radius_default():
    assert small_problem(n=8, f_star=0.2).filter_radius() == 0.25
    assert small_problem(n=100, f_star=0.2).filter_radius() == 0.03
    assert small_problem(n=100, f_star=0.05).filter_radius() == 0.02
    assert small_problem(n=8, radius=0.2).filter_radius() == 0.2


def test_beta_schedule():
    p = small_problem()
    assert [p.beta_at(i) for i in (0, 49, 50, 99, 100, 250, 399)] == \
        [1.0, 1.0, 2.0, 2.0, 4.0, 32.0, 32.0]
    assert small_problem(beta_max=8.0).beta_at(399) == 8.0


def test_stiffness_run_writes_outputs(tmp_path):
    p = small_problem(max_iter=8)
    res = optimize(p, out_dir=str(tmp_path))
    assert res.iterations == 8
    assert res.status == "max_iter"
    assert len(res.history) == 8
    # the final sharpness follows from the iteration count
    assert p.beta_at(res.iterations - 1) == res.history[-1][6]
    # volume settles on the dilated bound
    assert res.final.cons_vals[-1] < 1e-2
    assert res.final.sigma_c is None
    for name in ("iterations.csv", "ks_log.csv", "design.grid",
                 "design.pgm", "checkpoint_0000.grid"):
        assert (tmp_path / name).exists(), name
    rho, n = read_grid(tmp_path / "design.grid")
    assert n == 8
    np.testing.assert_allclose(rho, res.rho)
    lines = (tmp_path / "iterations.csv").read_text().splitlines()
    assert lines[0] == "iter,objective,ebar,sigma_y,sigma_c,f_int,beta,g_volume"
    assert len(lines) == 9
    # no band sweep ran, the sigma_c column stays empty
    assert lines[1].split(",")[4] == ""


def test_converged_run_ends_at_the_scheduled_beta():
    p = small_problem(max_iter=50, beta_max=1.0, tol_change=0.05)
    res = optimize(p)
    assert res.status == "converged"
    assert res.iterations < p.max_iter
    assert p.beta_at(res.iterations - 1) == res.history[-1][6]


def test_runs_are_deterministic(tmp_path):
    p = small_problem(gamma1=1.0, sigma_star=0.0006,
                      ks=KSParams(kappa1=1, kappa2=1, n_seg=2, m_bands=4),
                      max_iter=6)
    texts = []
    for d in ("a", "b"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            optimize(p, out_dir=str(tmp_path / d))
        texts.append((tmp_path / d / "iterations.csv").read_bytes()
                     + (tmp_path / d / "ks_log.csv").read_bytes())
    assert texts[0] == texts[1]


def test_strength_run_tracks_band_sweep():
    p = small_problem(gamma1=1.0,
                      ks=KSParams(kappa1=0, kappa2=1, n_seg=2, m_bands=4),
                      max_iter=6)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = optimize(p)
    assert res.final.sigma_c is not None and np.isfinite(res.final.sigma_c)
    sigma_cs = [row[4] for row in res.history]
    assert all(np.isfinite(s) for s in sigma_cs)
    # objective aggregator logged once per iteration plus the final report
    obj_rows = [h for h in res.history]
    assert len(obj_rows) == 6


def test_analysis_failure_writes_abort_checkpoint(tmp_path, monkeypatch):
    calls = {"n": 0}
    real = pipeline.homogenize

    def failing(mesh, elem, moduli):
        calls["n"] += 1
        if calls["n"] >= 3:
            raise AnalysisError("injected failure")
        return real(mesh, elem, moduli)

    monkeypatch.setattr(pipeline, "homogenize", failing)
    with pytest.raises(AnalysisError, match="injected"):
        optimize(small_problem(), out_dir=str(tmp_path))
    assert (tmp_path / "checkpoint_abort.grid").exists()
    assert (tmp_path / "iterations.csv").exists()
    lines = Path(tmp_path / "iterations.csv").read_text().splitlines()
    assert len(lines) == 3  # header + two completed iterations


def test_first_iteration_failure_writes_the_abort_files(tmp_path,
                                                         monkeypatch):
    def failing(mesh, elem, moduli):
        raise AnalysisError("injected failure")

    monkeypatch.setattr(pipeline, "homogenize", failing)
    p = small_problem()
    with pytest.raises(AnalysisError, match="injected"):
        optimize(p, out_dir=str(tmp_path))
    rho, _ = read_grid(tmp_path / "checkpoint_abort.grid")
    np.testing.assert_array_equal(rho, seed_lattice(p.n, p.f_star))
    lines = (tmp_path / "iterations.csv").read_text().splitlines()
    assert lines == ["iter,objective,ebar,sigma_y,sigma_c,f_int,beta,g_volume"]
    # the same files as an abort in a later iteration
    for name in ("ks_log.csv", "design.grid", "design.pgm"):
        assert (tmp_path / name).exists(), name


@pytest.mark.parametrize("sigma_star,e_star", [
    (0.0, 0.0), (6e-4, 0.0), (0.0, 0.02), (6e-4, 0.02)])
def test_constraint_names_order_the_constraints(monkeypatch, sigma_star,
                                                e_star):
    p = small_problem(sigma_star=sigma_star, e_star=e_star, max_iter=1)
    names = p.constraint_names()
    assert names == ["yield"] * (sigma_star > 0.0) \
        + ["stiffness"] * (e_star > 0.0) + ["volume"]

    # each value sits at its name's position
    mesh = build_mesh(p.n)
    elem = element_matrices(pipeline.NU, mesh.h)
    filt = PDEFilter(mesh, elem, p.filter_radius())
    rho = seed_lattice(p.n, p.f_star)
    beta, f_dil_star = 1.0, 0.3
    aggs = {"objective": KSAggregator(p.ks.zeta, "objective"),
            "yield": KSAggregator(p.ks.zeta, "yield")}
    ev = evaluate_problem(mesh, elem, filt, p, rho, beta, aggs, f_dil_star)
    assert len(ev.cons_vals) == len(ev.cons_grads) == len(names)
    vals = dict(zip(names, ev.cons_vals))
    rb_d = project(filt.apply(enforce_symmetry(rho, p.n)), beta,
                   0.5 - p.delta_eta)
    assert vals["volume"] == float(rb_d.mean()) / f_dil_star - 1.0
    if e_star:
        assert vals["stiffness"] == 1.0 - ev.ebar / e_star
    if sigma_star:
        assert vals["yield"] == sigma_star * aggs["yield"].history[-1][5] - 1.0

    made = []

    class RecordingMMA(MMA):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(optimize_module, "MMA", RecordingMMA)
    res = optimize(p)
    assert [m.m for m in made] == [len(names)]
    assert len(res.final.cons_vals) == len(names)


def test_the_optimizer_steps_the_orbit_representatives(tmp_path,
                                                       monkeypatch):
    made = []

    class RecordingMMA(MMA):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(optimize_module, "MMA", RecordingMMA)
    p = small_problem(max_iter=3)
    rho0 = np.random.default_rng(5).uniform(0.2, 0.8, 64)
    res = optimize(p, rho0=rho0, out_dir=str(tmp_path))
    orbits = d4_orbits(p.n)
    assert [m.n for m in made] == [orbits.reps.size] == [10]
    np.testing.assert_array_equal(made[0].w, orbits.sizes)
    # the seed enters as its D4 average, and every design written or
    # returned is symmetric bit for bit
    start, _ = read_grid(tmp_path / "checkpoint_0000.grid")
    np.testing.assert_array_equal(
        start, enforce_symmetry(rho0, p.n)[orbits.reps][orbits.index])
    final, _ = read_grid(tmp_path / "design.grid")
    np.testing.assert_array_equal(final, res.rho)
    np.testing.assert_array_equal(res.rho, res.rho[orbits.reps][orbits.index])
    assert np.abs(res.rho - start).max() > 1e-3


def test_seed_override_and_size_check():
    rng = np.random.default_rng(3)
    rho0 = rng.uniform(0.2, 0.8, 64)
    res = optimize(small_problem(max_iter=2), rho0=rho0)
    assert res.iterations == 2
    with pytest.raises(ConfigError, match="seed"):
        optimize(small_problem(max_iter=2), rho0=rho0[:10])


@pytest.mark.parametrize("value", [1.5, -0.2, np.nan],
                         ids=["above", "below", "nan"])
def test_seed_must_be_densities(value):
    # a seed of values outside [0, 1], or with one NaN, is refused before
    # any analysis
    rho0 = np.full(64, 0.5 if np.isnan(value) else value)
    rho0[9] = value
    with pytest.raises(ConfigError,
                       match="seed: value .* at element [09]") as err:
        optimize(small_problem(max_iter=2), rho0=rho0)
    # the value reads as the number alone, not numpy's np.float64(...)
    assert f"seed: value {float(value)!r} at element" in str(err.value)


def test_values_only_evaluation_repeats_the_full_one():
    # optimize closes with gradients=False: the same values and the same
    # aggregator calls, and no gradients
    p = small_problem(gamma1=0.5, sigma_star=6e-4, e_star=0.02, max_iter=1,
                      ks=KSParams(kappa1=1, kappa2=1, n_seg=2, m_bands=3))
    mesh = build_mesh(p.n)
    elem = element_matrices(pipeline.NU, mesh.h)
    filt = PDEFilter(mesh, elem, p.filter_radius())
    rho = np.random.default_rng(4).uniform(0.2, 0.9, mesh.ne)
    out = []
    for gradients in (True, False):
        aggs = {"objective": KSAggregator(p.ks.zeta, "objective"),
                "yield": KSAggregator(p.ks.zeta, "yield")}
        ev = evaluate_problem(mesh, elem, filt, p, rho, 2.0, aggs, 0.3,
                              gradients=gradients)
        out.append((ev, [agg.history for agg in aggs.values()]))
    (full, full_log), (vals, vals_log) = out
    assert vals.grad is None and vals.cons_grads is None
    assert full.grad is not None and full.cons_grads is not None
    for key in ("objective", "ebar", "sigma_y", "sigma_c", "f_int"):
        assert getattr(vals, key) == getattr(full, key), key
    np.testing.assert_array_equal(vals.cons_vals, full.cons_vals)
    assert vals_log == full_log
