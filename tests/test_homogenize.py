"""Homogenization checks: exact solids, exact laminates, invariances.

The laminate oracle is the closed-form effective tensor of a layered cell,
which the discretization reproduces exactly because the corrector fields
are piecewise constant per layer.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

import cellmat.fem
import cellmat.homogenize
from cellmat.design import enforce_symmetry
from cellmat.element import elastic_matrix, element_matrices
from cellmat.fem import PINS, PinnedSolver, assemble_k0, assemble_loads, pin
from cellmat.homogenize import class_loads, class_stiffness, homogenize
from cellmat.mesh import CLASSES, build_mesh

NU = 1.0 / 3.0


def hs_bound(f, e1=1.0):
    """Upper bound on the Young's modulus of a porous cell at fraction f."""
    f = np.asarray(f, dtype=float)
    return f / (2.0 - f) * e1


def laminate_dbar(moduli_by_layer, nu):
    """Exact plane-stress laminate with layers stacked along y."""
    e = np.asarray(moduli_by_layer, dtype=float)
    mean_e = e.mean()
    mean_inv = (1.0 / e).mean()
    g_harm = 1.0 / (2.0 * (1.0 + nu) * mean_inv)
    d = np.zeros((3, 3))
    d[1, 1] = 1.0 / ((1.0 - nu * nu) * mean_inv)
    d[0, 1] = d[1, 0] = nu * d[1, 1]
    d[0, 0] = mean_e + nu * nu * d[1, 1]
    d[2, 2] = g_harm
    return d


# ==========================================================================
# solid cell
# ==========================================================================


class TestSolidCell:
    def test_recovers_base_material(self, mesh8, elem8):
        res = homogenize(mesh8, elem8, np.ones(mesh8.ne))
        assert_allclose(res.dbar, elastic_matrix(NU), rtol=0, atol=1e-12)
        assert res.ebar == pytest.approx(1.0, abs=1e-12)
        # correctors vanish identically on a homogeneous cell
        assert_allclose(res.chi, 0.0, atol=1e-10)

    def test_uniform_scaling(self, mesh8, elem8, rng):
        rho = rng.uniform(0.1, 1.0, mesh8.ne)
        r1 = homogenize(mesh8, elem8, rho)
        r2 = homogenize(mesh8, elem8, 3.0 * rho)
        assert_allclose(r2.dbar, 3.0 * r1.dbar, rtol=1e-12)


# ==========================================================================
# laminate oracle
# ==========================================================================


class TestLaminate:
    @pytest.mark.parametrize("pattern", [
        [1.0, 0.3], [1.0, 1e-3], [0.7, 0.7], [1.0, 0.5, 0.25, 0.125]])
    def test_layers_along_y(self, pattern, mesh8, elem8):
        layers = np.tile(pattern, mesh8.n // len(pattern))
        moduli = np.repeat(layers, mesh8.n)    # constant within each row
        res = homogenize(mesh8, elem8, moduli)
        assert_allclose(res.dbar, laminate_dbar(layers, NU), rtol=1e-10,
                        atol=1e-13,
                        err_msg="laminate effective tensor mismatch")

    def test_layers_along_x_swap_roles(self, mesh8, elem8):
        layers = np.tile([1.0, 0.3], mesh8.n // 2)
        moduli = np.tile(layers, mesh8.n)      # constant within each column
        res = homogenize(mesh8, elem8, moduli)
        ref = laminate_dbar(layers, NU)
        swap = ref[np.ix_([1, 0, 2], [1, 0, 2])]
        assert_allclose(res.dbar, swap, rtol=1e-10, atol=1e-13)


# ==========================================================================
# structure of the result
# ==========================================================================


class TestInvariances:
    def test_cyclic_shift(self, mesh8, elem8, rng):
        rho = rng.uniform(0.05, 1.0, (mesh8.n, mesh8.n))
        base = homogenize(mesh8, elem8, rho.ravel())
        rolled = np.roll(np.roll(rho, 3, axis=0), 5, axis=1)
        shifted = homogenize(mesh8, elem8, rolled.ravel())
        assert_allclose(shifted.dbar, base.dbar, rtol=1e-10)

    def test_quarter_turn_swaps_axes(self, mesh8, elem8, rng):
        rho = rng.uniform(0.05, 1.0, (mesh8.n, mesh8.n))
        base = homogenize(mesh8, elem8, rho.ravel())
        turned = homogenize(mesh8, elem8, np.rot90(rho).ravel())
        assert base.dbar[0, 0] == pytest.approx(turned.dbar[1, 1], rel=1e-10)
        assert base.dbar[1, 1] == pytest.approx(turned.dbar[0, 0], rel=1e-10)
        assert base.dbar[0, 1] == pytest.approx(turned.dbar[0, 1], rel=1e-10)

    def test_energy_identity(self, mesh8, elem8, rng):
        # Dbar assembled from element tensors equals the global identity
        # sum_e E_e V d0 - F' chi
        rho = rng.uniform(0.1, 1.0, mesh8.ne)
        res = homogenize(mesh8, elem8, rho)
        f = assemble_loads(mesh8, elem8, rho)
        direct = rho.sum() * elem8.volume * elem8.d0 - f.T @ res.chi
        assert_allclose(res.dbar, 0.5 * (direct + direct.T), rtol=1e-11)

    def test_q_tensors_are_psd_and_consistent(self, mesh8, elem8, rng):
        rho = rng.uniform(0.1, 1.0, mesh8.ne)
        res = homogenize(mesh8, elem8, rho)
        w = np.linalg.eigvalsh(0.5 * (res.q_tensors
                                      + res.q_tensors.transpose(0, 2, 1)))
        assert w.min() > -1e-12
        assert_allclose(np.einsum("e,eab->ab", rho, res.q_tensors), res.dbar,
                        rtol=1e-12)


# ==========================================================================
# the two-mirror class basis
# ==========================================================================


def d4_field(n, seed):
    rng = np.random.default_rng(seed)
    return enforce_symmetry(rng.uniform(0.1, 1.0, n * n), n)


@pytest.mark.parametrize("n", [4, 8, 64])
def test_class_stiffness_is_the_pinned_stiffness_in_the_class_basis(n):
    mesh = build_mesh(n)
    elem = element_matrices(NU, mesh.h)
    rho = d4_field(n, n)
    q, col = mesh.classes.q, mesh.classes.col
    cls = np.empty(mesh.ndof, dtype=int)
    for i in range(4):
        cls[col[i][col[i] >= 0]] = i
    ref = (q.T @ pin(assemble_k0(mesh, elem, rho), 1.0) @ q).tocoo()
    block = cls[ref.row] == cls[ref.col]
    ref = sp.csr_matrix((ref.data[block], (ref.row[block], ref.col[block])),
                        shape=ref.shape)
    got = pin(class_stiffness(mesh, elem, rho), 1.0, q[PINS].indices)
    assert abs(got - ref).max() <= 1e-14 * abs(ref).max()


def column_classes(mesh):
    """The class (an index into CLASSES) of every column of the class
    basis."""
    col = mesh.classes.col
    cls = np.empty(mesh.ndof, dtype=int)
    for i in range(4):
        cls[col[i][col[i] >= 0]] = i
    return cls


@pytest.mark.parametrize("n", [4, 8, 64])
def test_class_loads_are_the_loads_in_the_class_basis(n):
    mesh = build_mesh(n)
    elem = element_matrices(NU, mesh.h)
    rho = d4_field(n, n + 1)
    got = class_loads(mesh, elem, rho)
    ref = mesh.classes.q.T @ assemble_loads(mesh, elem, rho)
    # the loads are below 0.06 at every n here
    assert np.abs(got - ref).max() <= 1e-15
    # the normal strains load (+, +) alone, the shear strain (-, -) alone
    cls = column_classes(mesh)
    for a, own in enumerate([(1, 1), (1, 1), (-1, -1)]):
        outside = cls != CLASSES.index(own)
        assert np.all(got[outside, a] == 0.0)
        assert np.all(got[~outside, a] != 0.0)


def count_factors(monkeypatch):
    """Count the factors fem makes from now on."""
    made = []
    real = cellmat.fem.symmetric_lu

    def counting(a):
        made.append(a.shape[0])
        return real(a)

    monkeypatch.setattr(cellmat.fem, "symmetric_lu", counting)
    return made


def test_the_translation_pair_is_factored_on_first_use(mesh8, elem8, rng,
                                                        monkeypatch):
    made = count_factors(monkeypatch)
    rho = d4_field(8, 7)
    res = homogenize(mesh8, elem8, rho)
    # the correctors need the corrector pair alone
    split = mesh8.classes.split
    assert made == [split]
    assert np.all(column_classes(mesh8)[:split] < 2)

    # a general load builds the translation pair once, pinned, and
    # solves the pinned system
    k = pin(assemble_k0(mesh8, elem8, rho), 1.0).toarray()
    for _ in range(2):
        b = rng.standard_normal(mesh8.ndof)
        u = res.solver.solve(b)
        b[PINS] = 0.0
        ref = np.linalg.solve(k, b)
        assert np.abs(u - ref).max() <= 1e-12 * np.abs(ref).max()
    assert made == [split, mesh8.ndof - split]


def torus_only(monkeypatch):
    monkeypatch.setattr(cellmat.homogenize, "mirror_axes",
                        lambda mesh, moduli: ())


def test_class_basis_matches_the_torus_order(mesh8, elem8, rng, monkeypatch):
    rho = d4_field(8, 3)
    res = homogenize(mesh8, elem8, rho)
    assert res.solver.basis is mesh8.classes.q
    torus_only(monkeypatch)
    ref = homogenize(mesh8, elem8, rho)
    assert ref.solver.basis is mesh8.torus_basis
    assert np.abs(res.dbar - ref.dbar).max() <= 1e-12 * np.abs(ref.dbar).max()
    assert np.abs(res.chi - ref.chi).max() <= 1e-10 * np.abs(ref.chi).max()
    # the adjoint route: any load orthogonal to the translations
    b = rng.standard_normal(mesh8.ndof)
    b -= np.repeat(b.reshape(-1, 2).mean(axis=0)[None], mesh8.nn, 0).ravel()
    u = ref.solver.solve(b)
    assert np.abs(res.solver.solve(b) - u).max() <= 1e-10 * np.abs(u).max()


def test_the_torus_path_solves_the_permuted_stiffness_bit_for_bit(rng):
    # the gather into the torus order moves the assembled entries without
    # summing them again, so the correctors are those of K[o][:, o]
    mesh = build_mesh(16)
    elem = element_matrices(NU, mesh.h)
    rho = rng.uniform(0.05, 1.0, mesh.ne)
    res = homogenize(mesh, elem, rho)
    assert res.solver.basis is mesh.torus_basis
    o = mesh.order
    ref = PinnedSolver(assemble_k0(mesh, elem, rho)[o][:, o],
                       mesh.torus_basis)
    f = assemble_loads(mesh, elem, rho)
    chi = np.column_stack([ref.solve(f[:, a]) for a in range(3)])
    np.testing.assert_array_equal(res.chi, chi)


def test_only_a_two_mirror_symmetric_field_takes_the_class_basis(
        mesh8, elem8, rng):
    rho = d4_field(8, 5)
    roundoff = rho * (1.0 + 1e-15 * rng.standard_normal(rho.size))
    for field in (rho, roundoff):
        assert homogenize(mesh8, elem8, field).solver.basis \
            is mesh8.classes.q
    asymmetric = rng.uniform(0.1, 1.0, (8, 8))
    one_mirror = asymmetric + asymmetric[:, ::-1]
    perturbed = rho.copy()
    perturbed[9] *= 1.0 + 1e-10
    for field in (asymmetric, one_mirror, one_mirror.T, perturbed):
        assert homogenize(mesh8, elem8, field.ravel()).solver.basis \
            is mesh8.torus_basis


# ==========================================================================
# bound
# ==========================================================================


def test_hs_bound_values():
    assert hs_bound(0.2) == pytest.approx(0.2 / 1.8, rel=1e-14)
    assert hs_bound(0.05) == pytest.approx(0.05 / 1.95, rel=1e-14)
    assert hs_bound(1.0) == pytest.approx(1.0)
    f = np.linspace(0.01, 1.0, 50)
    assert np.all(np.diff(hs_bound(f)) > 0.0)


def test_porous_cell_respects_bound():
    from conftest import cross_density

    from cellmat.design import interpolate
    mesh = build_mesh(16)
    elem = element_matrices(NU, mesh.h)
    rho = cross_density(mesh.n, 0.4)
    e, _ = interpolate(rho, "stiffness")
    res = homogenize(mesh, elem, e)
    assert res.ebar < hs_bound(rho.mean()) * 1.0001
