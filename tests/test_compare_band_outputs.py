"""Pass and fail rules of scripts/compare_band_outputs.py."""

import importlib.util
import shutil
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / \
    "compare_band_outputs.py"

SWEEP = ("arclength,kx,ky,pinned,nx,ny,tau_1,tau_2\n"
         "0,0,0,0,1,0,1258.87624623,1001.5\n"
         "0,0,0,0,0,1,1258.8762,1001.5\n"
         "0,0,0,1,,,1200.25,900.125\n"
         "1.57079632679,1.57079632679,0,0,,,812.345678901,700.5\n")
# the same sweep as printed before the zone-center limits: the offsets
# k = (0.01, 0) and (0, 0.01) in their place, and no direction columns
OFFSET_SWEEP = ("arclength,kx,ky,pinned,tau_1,tau_2\n"
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


def test_a_limit_direction_is_part_of_the_sample(script, dirs, capsys):
    old, new = dirs
    csv = new / f"{script.RUNS[0]}.csv"
    # the two limits swapped: the same k, the same tau, other directions
    lines = SWEEP.splitlines(keepends=True)
    lines[1] = lines[1].replace(",1,0,", ",0,1,")
    csv.write_text("".join(lines))
    assert script.main([str(old), str(new)]) == 1
    assert capsys.readouterr().out.splitlines()[0] == \
        f"{script.RUNS[0]}.csv k=(0, 0): sample differs"


def test_offset_rows_differ_and_the_rest_compare(script, dirs, capsys):
    old, new = dirs
    for run in script.RUNS:
        (old / f"{run}.csv").write_text(OFFSET_SWEEP)
    problems = script.compare_dirs(old, new)
    assert len(problems) == 2 * len(script.RUNS)
    assert all(p.endswith("sample differs") for p in problems)
    assert not any("(0, 0)" in p for p in problems)
