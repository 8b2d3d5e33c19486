import json
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from cellmat import cli, optimize
from cellmat.cli import main
from cellmat.config import load_config, parse_config
from cellmat.errors import ConfigError
from cellmat.gridio import read_grid, write_grid
from cellmat.optimize import seed_lattice
from cellmat.pipeline import evaluate_design


def base_cfg(**kw):
    cfg = {"n": 8, "f_star": 0.3, "gamma1": 0.0}
    cfg.update(kw)
    return cfg


class TestConfig:
    def test_minimal(self):
        problem, material = parse_config(base_cfg())
        assert problem.n == 8
        assert material is None

    def test_material_lookup(self):
        problem, material = parse_config(base_cfg(material="PC"))
        assert material.name == "PC"
        assert problem.sigma1_rel == 0.044

    def test_material_conflicts_with_sigma1(self):
        with pytest.raises(ConfigError, match="not both"):
            parse_config(base_cfg(material="PC", sigma1_rel=0.01))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="volume: unknown key"):
            parse_config(base_cfg(volume=0.5))
        with pytest.raises(ConfigError, match="sharpness: unknown key"):
            parse_config(base_cfg(ks={"sharpness": 10}))

    def test_bad_types_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(base_cfg(n=8.5))
        with pytest.raises(ConfigError):
            parse_config(base_cfg(gamma1=2.0))
        with pytest.raises(ConfigError):
            parse_config({"n": 8})

    @pytest.mark.parametrize("cfg, field", [
        (base_cfg(n=True), "n"),
        (base_cfg(gamma1=True), "gamma1"),
        (base_cfg(material=5), "material"),
        (base_cfg(ks=5), "ks"),
        (base_cfg(ks={"n_seg": 2.0}), "ks/n_seg"),
        ({"n": 8, "gamma1": 0.0}, "f_star"),
    ], ids=["n-bool", "gamma1-bool", "material-int", "ks-int",
            "n_seg-float", "f_star-missing"])
    def test_field_type_and_presence(self, cfg, field):
        with pytest.raises(ConfigError, match=f"^{field}: "):
            parse_config(cfg)

    def test_values_pass_through_unconverted(self):
        problem, _ = parse_config(base_cfg(gamma1=1, ks={"zeta": 60}))
        assert type(problem.gamma1) is int
        assert type(problem.ks.zeta) is int

    def test_ks_block(self):
        problem, _ = parse_config(base_cfg(
            gamma1=1.0, ks={"kappa1": 0, "kappa2": 1, "n_seg": 3,
                            "m_bands": 5, "zeta": 60.0}))
        assert problem.ks.zeta == 60.0
        assert problem.ks.n_seg == 3

    def test_load_rejects_bad_json(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{nope")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(p)
        p.write_text("[1,2]")
        with pytest.raises(ConfigError, match="object"):
            load_config(p)

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.json")


class TestCli:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n": 8}))
        rc = main(["optimize", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"

    def test_evaluate_round_trip(self, tmp_path, capsys):
        grid = tmp_path / "d.grid"
        write_grid(grid, seed_lattice(8, 0.3), 8)
        argv = ["evaluate", "--grid", str(grid), "--material", "PC",
                "--n-seg", "2", "--m-bands", "4"]
        assert main(argv) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["material"] == "PC"
        assert rep["failure"] in ("yield", "buckling", "simultaneous")
        assert rep["sigma_c"] < rep["sigma_y"]

        # byte-identical on a second run
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_evaluate_without_bands(self, tmp_path, capsys):
        grid = tmp_path / "d.grid"
        write_grid(grid, seed_lattice(8, 0.3), 8)
        argv = ["evaluate", "--grid", str(grid), "--material", "PC",
                "--n-seg", "2", "--m-bands", "4"]
        assert main(argv) == 0
        banded = json.loads(capsys.readouterr().out)
        assert main(argv + ["--no-bands"]) == 0
        plain = json.loads(capsys.readouterr().out)
        assert plain["ebar"] == banded["ebar"]
        assert plain["sigma_y"] == banded["sigma_y"]
        assert banded["sigma_c"] is not None
        for key in ("sigma_c", "tau_max", "k_critical", "failure"):
            assert plain[key] is None, key

    @pytest.mark.parametrize("argv", [["evaluate", "--material", "PC"],
                                      ["sweep"], ["band", "--k", "0.5,0"]])
    @pytest.mark.parametrize("out", ["missing/x", "."])
    def test_unwritable_out_fails_before_the_analysis(
            self, tmp_path, capsys, monkeypatch, argv, out):
        def analysis(*args, **kwargs):
            raise AssertionError("the analysis ran")
        monkeypatch.setattr(cli, "analyze_cell", analysis)
        monkeypatch.setattr(cli, "evaluate_design", analysis)
        grid = tmp_path / "d.grid"
        write_grid(grid, seed_lattice(8, 0.3), 8)
        target = str(tmp_path / out)
        assert main(argv + ["--grid", str(grid), "--out", target]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "ConfigError"
        assert target in err["message"]

    def test_float_mesh_size_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(base_cfg(n=8.0)))
        rc = main(["optimize", "--config", str(cfg),
                   "--out", str(tmp_path / "run")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"].startswith("n: ")

    def test_optimize_out_is_an_existing_file(self, tmp_path, capsys,
                                              monkeypatch):
        def analysis(*args, **kwargs):
            raise AssertionError("the analysis ran")
        monkeypatch.setattr(optimize, "evaluate_problem", analysis)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(base_cfg(max_iter=2)))
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["optimize", "--config", str(cfg),
                     "--out", str(taken)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert str(taken) in err["message"]

    def test_evaluate_needs_material_info(self, tmp_path, capsys):
        grid = tmp_path / "d.grid"
        write_grid(grid, seed_lattice(8, 0.3), 8)
        assert main(["evaluate", "--grid", str(grid)]) == 2
        assert main(["evaluate", "--grid", str(grid), "--material", "PC",
                     "--sigma1-rel", "0.01"]) == 2

    def test_evaluate_rejects_bad_density(self, tmp_path, capsys):
        grid = tmp_path / "d.grid"
        grid.write_text("2 2\n0.5 0.5\n0.5 nan\n")
        assert main(["evaluate", "--grid", str(grid), "--material", "PC"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        # malformed text: the header, a value, rows of 3 and 1 values
        for text in ("x y\n0.5\n", "2 2\n0.5 abc\n0.5 0.5\n",
                     "2 2\n0.5 0.5 0.5\n0.5\n"):
            grid.write_text(text)
            assert main(["evaluate", "--grid", str(grid),
                         "--material", "PC"]) == 2
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "ConfigError"
            assert str(grid) in err["message"]

    def test_band_and_sweep(self, tmp_path, capsys):
        grid = tmp_path / "d.grid"
        write_grid(grid, seed_lattice(8, 0.3), 8)
        assert main(["band", "--grid", str(grid), "--k", "0.8,0.3",
                     "--m-bands", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["samples"]) == 1
        assert len(out["samples"][0]["tau"]) == 3

        # the exact zone center expands into its limits along x and y and
        # the pinned sample, each at k = (0, 0)
        assert main(["band", "--grid", str(grid), "--k", "0,0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert [s["pinned"] for s in out["samples"]] == [False, False, True]
        assert [s["direction"] for s in out["samples"]] == [[1.0, 0.0],
                                                            [0.0, 1.0], None]
        assert all(s["k"] == [0.0, 0.0] for s in out["samples"])

        sweep_csv = tmp_path / "s.csv"
        assert main(["sweep", "--grid", str(grid), "--n-seg", "2",
                     "--m-bands", "3", "--out", str(sweep_csv)]) == 0
        lines = sweep_csv.read_text().splitlines()
        assert lines[0] == "arclength,kx,ky,pinned,nx,ny,tau_1,tau_2,tau_3"
        assert len(lines) == 1 + 4 * 2 + 2
        assert [line.split(",")[1:6] for line in lines[1:4]] == [
            ["0", "0", "0", "1", "0"], ["0", "0", "0", "0", "1"],
            ["0", "0", "1", "", ""]]

        assert main(["band", "--grid", str(grid), "--k", "zzz"]) == 2

    def test_fit(self, tmp_path, capsys):
        pts = tmp_path / "p.txt"
        pts.write_text("# density strength\n0.1, 0.05\n0.05 0.0125\n0.2 1\n")
        assert main(["fit", "--points", str(pts)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["n0"] == pytest.approx(2.0, rel=1e-12)
        assert out["c0"] == pytest.approx(5.0, rel=1e-12)
        assert out["points_given"] == 3

    @pytest.mark.parametrize("body", ["0.1 0.05\n0.2\n",
                                      "0.1 0.05\n0.2 abc\n",
                                      "0.1 0.05\n0.2 1 3\n"])
    def test_fit_rejects_malformed_line(self, tmp_path, capsys, body):
        pts = tmp_path / "p.txt"
        pts.write_text(body)
        assert main(["fit", "--points", str(pts)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "line 2" in err["message"]

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--material", "PC", "--grid"],
        ["fit", "--points"],
        ["optimize", "--config"]])
    def test_missing_input_file(self, tmp_path, capsys, argv):
        out = ["--out", str(tmp_path / "run")]
        assert main(argv + [str(tmp_path / "absent")] + out) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "absent" in err["message"]

    def test_check_gradients(self, capsys):
        assert main(["check-gradients", "--n", "4", "--elements", "4"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["pass"] is True
        assert out["err_tau"] < 1e-3

    @pytest.mark.parametrize("argv", [["--elements", "0"],
                                      ["--elements", "-1"],
                                      ["--seed", "-1"]])
    def test_check_gradients_rejects_bad_counts(self, capsys, argv):
        assert main(["check-gradients", "--n", "4"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "ConfigError"

    def test_band_rejects_non_finite_k(self, tmp_path, capsys):
        grid = tmp_path / "d.grid"
        write_grid(grid, seed_lattice(8, 0.3), 8)
        assert main(["band", "--grid", str(grid), "--k", "nan,0"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "outside the first zone" in err["message"]

    def test_optimize_end_to_end(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(base_cfg(max_iter=4, material="PC")))
        out_dir = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = main(["optimize", "--config", str(cfg),
                       "--out", str(out_dir)])
        assert rc == 0
        meta = json.loads((out_dir / "meta.json").read_text())
        assert meta["iterations"] == 4
        rep = json.loads((out_dir / "report.json").read_text())
        assert rep["material"] == "PC"
        assert rep["sigma_c"] is not None  # every report sweeps the bands
        rho, n = read_grid(out_dir / "design_int.grid")
        assert n == 8
        assert np.all((rho >= 0.0) & (rho <= 1.0))
        assert (out_dir / "design_int.pgm").exists()

    def test_optimize_report_is_the_evaluate_report(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(base_cfg(max_iter=3, material="PC")))
        out_dir = tmp_path / "run"
        assert main(["optimize", "--config", str(cfg),
                     "--out", str(out_dir)]) == 0
        printed = capsys.readouterr().out
        report = (out_dir / "report.json").read_text()
        assert printed == report
        assert json.loads(report)["sigma_c"] is not None
        assert main(["evaluate", "--material", "PC", "--grid",
                     str(out_dir / "design_int.grid"),
                     "--out", str(tmp_path / "eval.json")]) == 0
        assert (tmp_path / "eval.json").read_text() == report
        meta = json.loads((out_dir / "meta.json").read_text())
        assert meta["status"] == "max_iter"
        assert meta["iterations"] == 3
        assert meta["material"] == "PC"
        assert meta["seed_from"] is None

    def test_optimize_seed_grid_mismatch(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(base_cfg()))
        bad = tmp_path / "seed.grid"
        write_grid(bad, np.zeros(16), 4)
        rc = main(["optimize", "--config", str(cfg), "--out",
                   str(tmp_path / "r"), "--seed-grid", str(bad)])
        assert rc == 2


@pytest.mark.parametrize("value", [np.nan, 7.0, -1.0])
def test_evaluate_design_rejects_bad_density(value):
    rho = np.full(16, 0.5)
    rho[5] = value
    with pytest.raises(ConfigError, match="element 5"):
        evaluate_design(rho, 4, 0.01)


def test_config_needs_no_jsonschema():
    # a None entry in sys.modules makes any import of jsonschema fail
    code = textwrap.dedent("""
        import sys
        sys.modules["jsonschema"] = None
        import cellmat.cli
        from cellmat.config import parse_config
        from cellmat.errors import ConfigError
        parse_config({"n": 64, "f_star": 0.2, "gamma1": 1.0, "material": "PC",
                      "ks": {"kappa1": 1, "kappa2": 1, "n_seg": 2,
                             "m_bands": 6}})
        try:
            parse_config({"n": 8})
        except ConfigError:
            pass
        else:
            sys.exit("parse_config accepted a config without f_star")
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("numpy_first", [False, True],
                         ids=["cellmat-first", "numpy-first"])
def test_threads_setting_warns_when_numpy_came_first(numpy_first):
    # OpenBLAS reads its thread count when numpy loads, so CELLMAT_THREADS
    # is void once numpy is in; cellmat says so instead of ignoring it
    code = textwrap.dedent(f"""
        import warnings
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            {"import numpy" if numpy_first else "pass"}
            import cellmat
        print(sum(issubclass(w.category, RuntimeWarning)
                  and "CELLMAT_THREADS" in str(w.message) for w in caught))
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, CELLMAT_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1" if numpy_first else "0"]
