"""Run selection and resume rules of scripts/make_acceptance_runs.py."""

import importlib.util
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

import cellmat.optimize
from cellmat.errors import ConfigError
from cellmat.gridio import read_grid, write_grid
from cellmat.materials import get_material
from cellmat.optimize import OptimizationProblem, blueprint_field, \
    seed_lattice
from cellmat.pipeline import evaluate_design

PC = get_material("PC")
SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / \
    "make_acceptance_runs.py"


@pytest.fixture
def script(tmp_path, monkeypatch):
    # the script sets CELLMAT_THREADS and sys.path on import; undo both
    monkeypatch.setenv("CELLMAT_THREADS",
                       os.environ.get("CELLMAT_THREADS", "1"))
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("make_acceptance_runs",
                                                  SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    monkeypatch.setattr(mod, "RUNS", tmp_path)
    return mod


@pytest.fixture
def built(script, monkeypatch):
    calls = []
    monkeypatch.setattr(script, "run_one",
                        lambda name, problem, **kw: calls.append(name))
    return calls


def test_named_runs_follow_the_script_order(script, built):
    script.main(["c9_tpu_f100_n96", "c2_stiff_f020_n64", "c9_tpu_f050_n96"])
    assert built == ["c2_stiff_f020_n64", "c9_tpu_f050_n96",
                     "c9_tpu_f100_n96"]


def test_no_names_builds_every_run(script, built):
    script.main([])
    assert built[0] == "c2_stiff_f020_n64"
    assert built[-1] == "b2_buckling_f020_n96"
    assert len(built) == 8


def test_unknown_name_stops(script, built):
    with pytest.raises(SystemExit, match="c5_nope"):
        script.main(["c5_nope"])
    assert built == []


def test_missing_seed_run_stops_and_names_it(script, built, tmp_path):
    with pytest.raises(SystemExit, match="'c9_tpu_f050_n96'"):
        script.main(["c9_steel_f050_n96"])
    assert built == []
    # an aborted seed optimization leaves design.grid but no meta.json
    (tmp_path / "c9_tpu_f050_n96").mkdir()
    (tmp_path / "c9_tpu_f050_n96" / "design.grid").write_text("")
    with pytest.raises(SystemExit, match="'c9_tpu_f050_n96'"):
        script.main(["c9_steel_f050_n96"])
    (tmp_path / "c9_tpu_f050_n96" / "meta.json").write_text("{}")
    script.main(["c9_steel_f050_n96"])
    assert built == ["c9_steel_f050_n96"]


def test_aborted_optimization_is_rerun(script, monkeypatch, tmp_path):
    out = tmp_path / "c2_stiff_f020_n64"
    out.mkdir()
    (out / "design.grid").write_text("")

    class Reoptimized(Exception):
        pass

    def fake_optimize(*args, **kwargs):
        raise Reoptimized

    monkeypatch.setattr(script, "build_run", fake_optimize)
    with pytest.raises(Reoptimized):
        script.main(["c2_stiff_f020_n64"])


def _no_optimize(*args, **kwargs):
    raise AssertionError("optimize called")


def test_optimized_run_is_reported_again(script, monkeypatch, tmp_path):
    monkeypatch.setattr(script, "build_run", _no_optimize)
    monkeypatch.setattr(cellmat.optimize, "optimize", _no_optimize)
    problem = OptimizationProblem(n=8, f_star=0.3, gamma1=0.0,
                                  sigma1_rel=PC.sigma1_rel)
    out = tmp_path / "r"
    out.mkdir()
    write_grid(out / "design.grid", seed_lattice(8, 0.3), 8)
    (out / "meta.json").write_text(json.dumps(
        {"status": "max_iter", "iterations": 60, "elapsed_s": 1.0}))
    (out / "checkpoint_0000.grid").write_text("")
    script.run_one("r", problem, material=PC)
    rho_int, _ = read_grid(out / "design_int.grid")
    assert np.array_equal(rho_int,
                          blueprint_field(problem, seed_lattice(8, 0.3),
                                          problem.beta_at(59)))
    report = evaluate_design(rho_int, 8, PC.sigma1_rel, material=PC)
    assert (out / "report.json").read_text() == \
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    assert report.sigma_c is not None
    assert not (out / "checkpoint_0000.grid").exists()


def test_seed_of_the_wrong_size_is_a_config_error(script, tmp_path):
    (tmp_path / "seed").mkdir()
    write_grid(tmp_path / "seed" / "design.grid", seed_lattice(4, 0.3), 4)
    problem = OptimizationProblem(n=8, f_star=0.3, gamma1=0.0,
                                  sigma1_rel=PC.sigma1_rel)
    with pytest.raises(ConfigError, match="seed"):
        script.run_one("r", problem, material=PC, seed_from="seed")
    assert not (tmp_path / "r" / "meta.json").exists()
