"""Pass and fail rules of scripts/compare_band_outputs.py."""

import importlib.util
import shutil
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / \
    "compare_band_outputs.py"

SWEEP = ("arclength,kx,ky,pinned,tau_1,tau_2\n"
         "0,0.01,0,0,1258.86546218,1001.5\n"
         "0,0,0.01,0,1258.8654,1001.5\n"
         "0,0,0,1,1200.25,900.125\n"
         "1.57079632679,1.57079632679,0,0,812.345678901,700.5\n")


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("compare_band_outputs",
                                                  SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture
def dirs(script, tmp_path):
    old = tmp_path / "old"
    old.mkdir()
    for run in script.RUNS:
        (old / f"{run}.csv").write_text(SWEEP)
        (old / f"{run}.json").write_text('{\n  "tau_max": 1258.8654\n}\n')
        (old / f"{run}.sweep.err").write_text("")
        (old / f"{run}.evaluate.err").write_text("")
    new = tmp_path / "new"
    shutil.copytree(old, new)
    return old, new


def test_identical_outputs_pass(script, dirs, capsys):
    assert script.main([str(d) for d in dirs]) == 0
    assert capsys.readouterr().out.endswith("ok\n")


def test_a_tau_moved_by_1e6_fails(script, dirs, capsys):
    old, new = dirs
    csv = new / f"{script.RUNS[2]}.csv"
    moved = f"{812.345678901 * (1.0 + 1e-6):.12g}"
    csv.write_text(SWEEP.replace("812.345678901", moved))
    assert script.main([str(old), str(new)]) == 1
    assert "tau differs" in capsys.readouterr().out
