import numpy as np
import pytest

from cellmat.errors import ConfigError
from cellmat.gridio import read_grid, write_grid, write_pgm
from cellmat.materials import (TIE_BAND, classify_failure, fit_scaling,
                               get_material)


def test_grid_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(11)
    rho = rng.uniform(0.0, 1.0, 36)
    path = tmp_path / "d.grid"
    write_grid(path, rho, 6)
    back, n = read_grid(path)
    assert n == 6
    np.testing.assert_array_equal(back, rho)
    # writing the read-back field reproduces the file byte for byte
    path2 = tmp_path / "d2.grid"
    write_grid(path2, back, n)
    assert path.read_bytes() == path2.read_bytes()


def test_grid_validation(tmp_path):
    with pytest.raises(ConfigError):
        write_grid(tmp_path / "x.grid", np.zeros(10), 6)
    p = tmp_path / "bad1.grid"
    p.write_text("4\n")
    with pytest.raises(ConfigError, match="header"):
        read_grid(p)
    p.write_text("4 6\n")
    with pytest.raises(ConfigError, match="square"):
        read_grid(p)
    p.write_text("2 2\n1 2\n")
    with pytest.raises(ConfigError):
        read_grid(p)
    # text that is not numbers, or rows of unequal length
    for text, part in (("x y\n0.5\n", "header"),
                       ("2 2\n0.5 abc\n0.5 0.5\n", "body"),
                       ("2 2\n0.5 0.5 0.5\n0.5\n", "body"),
                       ("2 2\n0.5 0.5\n0.5\n", "body")):
        p.write_text(text)
        with pytest.raises(ConfigError, match=f"bad grid {part} in .*bad1"):
            read_grid(p)


@pytest.mark.parametrize("value", ["nan", "7", "-1"])
def test_grid_rejects_values_outside_unit_interval(tmp_path, value):
    p = tmp_path / "bad.grid"
    p.write_text(f"2 2\n0.5 1\n0 {value}\n")
    with pytest.raises(ConfigError, match="element 3"):
        read_grid(p)


def test_pgm_orientation(tmp_path):
    # single solid element at ex=0, ey=0 must land in the bottom-left
    rho = np.zeros(16)
    rho[0] = 1.0
    path = tmp_path / "d.pgm"
    write_pgm(path, rho, 4)
    lines = path.read_text().splitlines()
    assert lines[:3] == ["P2", "4 4", "255"]
    img = np.array([[int(v) for v in ln.split()] for ln in lines[3:]])
    assert img[3, 0] == 0          # solid is dark
    assert img[0, 0] == 255        # void is white


def test_material_table():
    db = {name: get_material(name)
          for name in ("Steel", "Epoxy", "PC", "PC-Nano", "TPU")}
    assert {m.name for m in db.values()} == set(db)
    assert db["PC"].e1 == 62.0
    assert db["PC"].sigma1_rel == 0.044
    assert db["Steel"].sigma1_rel == 0.002
    assert db["TPU"].sigma1_rel == 0.333
    assert get_material("pc-nano").e1 == 350.0
    with pytest.raises(ConfigError, match="unknown material") as err:
        get_material("Adamantium")
    # the error lists every known material, and no more
    known = str(err.value).split("known: ")[1]
    assert sorted(known.split(", ")) == sorted(db)


def test_classify_failure():
    assert classify_failure(1.0, 2.0) == "buckling"
    assert classify_failure(2.0, 1.0) == "yield"
    assert classify_failure(1.0, 1.0 + 0.5 * TIE_BAND) == "simultaneous"
    with pytest.raises(ConfigError):
        classify_failure(0.0, 1.0)


def test_fit_scaling_exact_on_power_law():
    f = np.array([0.05, 0.1, 0.2])
    s = 5.0 * f ** 2.0
    fit = fit_scaling(zip(f, s))
    assert fit.c0 == pytest.approx(5.0, rel=1e-12)
    assert fit.n0 == pytest.approx(2.0, rel=1e-12)
    np.testing.assert_allclose(fit(f), s, rtol=1e-12)


def test_fit_scaling_uses_two_lowest_densities():
    # third point off the law must not influence the fit
    fit = fit_scaling([(0.2, 999.0), (0.05, 5.0 * 0.05 ** 2), (0.1, 5.0 * 0.1 ** 2)])
    assert fit.n0 == pytest.approx(2.0, rel=1e-12)


def test_fit_scaling_validation():
    with pytest.raises(ConfigError):
        fit_scaling([(0.1, 1.0)])
    with pytest.raises(ConfigError, match="duplicate"):
        fit_scaling([(0.1, 1.0), (0.1, 2.0)])
    with pytest.raises(ConfigError):
        fit_scaling([(0.1, -1.0), (0.2, 2.0)])
