"""Mesh bookkeeping, periodic assembly and the pinned solve."""

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose, assert_array_equal

from cellmat.design import enforce_symmetry
from cellmat.element import element_matrices
from cellmat.errors import ConfigError, SolverError
from cellmat.fem import PINS, PinnedSolver, assemble_k0, assemble_loads, pin
from cellmat.mesh import CLASSES, build_mesh

NU = 1.0 / 3.0


# ==========================================================================
# mesh bookkeeping
# ==========================================================================


def test_build_mesh_counts():
    m = build_mesh(4)
    assert m.ne == 16
    assert m.nn_full == 25
    assert m.nn == 16
    assert m.ndof == 32
    assert m.conn.shape == (16, 4)
    assert m.edofs.max() == m.ndof - 1
    assert m.edofs.min() == 0


@pytest.mark.parametrize("n", [3, 5, 2, 7, 0, -4, 8.0, True])
def test_build_mesh_rejects_bad_n(n):
    with pytest.raises(ConfigError):
        build_mesh(n)


def test_periodic_master_map():
    m = build_mesh(4)
    n = m.n
    # the right edge folds onto the left, the top onto the bottom
    for iy in range(n + 1):
        right = iy * (n + 1) + n
        left = iy * (n + 1)
        assert m.master[right] == m.master[left]
    for ix in range(n + 1):
        top = n * (n + 1) + ix
        bottom = ix
        assert m.master[top] == m.master[bottom]
    # corner nodes all collapse to one master
    corners = [0, n, n * (n + 1), (n + 1) ** 2 - 1]
    assert len({m.master[c] for c in corners}) == 1
    # every reduced node is hit
    assert set(m.master) == set(range(m.nn))


@pytest.mark.parametrize("n", [4, 6, 10, 64, 96])
def test_grid_orders_are_permutations(n):
    m = build_mesh(n)
    assert_array_equal(np.sort(m.node_order), np.arange(m.nn))
    assert_array_equal(m.order.reshape(-1, 2) // 2,
                       np.repeat(m.node_order[:, None], 2, axis=1))
    for axis in (0, 1):
        order = m.mirror_orders[axis]
        assert_array_equal(np.sort(order), np.arange(m.ndof))
        assert_array_equal(order[0::2] + 1, order[1::2])


@pytest.mark.parametrize("axis", [0, 1])
def test_mirror_order_keeps_each_node_next_to_its_image(axis):
    n = 10
    nodes = build_mesh(n).mirror_orders[axis][0::2] // 2
    c = (nodes % n, nodes // n)[axis]
    i = 0
    while i < nodes.size:
        if c[i] in (0, n // 2):         # its own image
            i += 1
            continue
        assert c[i + 1] == n - c[i]
        assert nodes[i + 1] - nodes[i] == (n - 2 * c[i]) * (1, n)[axis]
        i += 2


def test_torus_order_cuts_columns_0_and_half_last():
    n = 8
    nodes = build_mesh(n).node_order
    last = nodes[-2 * n:]
    assert_array_equal(np.sort(last % n), np.repeat([0, n // 2], n))


def class_of_columns(mesh):
    """The class index of every column of mesh.classes.q."""
    col = mesh.classes.col
    cls = np.empty(mesh.ndof, dtype=int)
    for i in range(4):
        cls[col[i][col[i] >= 0]] = i
    return cls


@pytest.mark.parametrize("n", [4, 6, 8, 64])
def test_class_basis_is_orthogonal_and_splits_the_stiffness(n):
    mesh = build_mesh(n)
    q = mesh.classes.q
    assert np.diff(q.indptr).max() <= 4
    eye = (q.T @ q).tocoo()
    assert np.abs(eye - sp.identity(mesh.ndof)).max() <= 1e-15
    # the columns come class by class
    cls = class_of_columns(mesh)
    assert np.all(np.diff(cls) >= 0)
    assert_array_equal(np.unique(cls), np.arange(4))

    rho = enforce_symmetry(np.random.default_rng(n).uniform(
        0.1, 1.0, mesh.ne), n)
    k = assemble_k0(mesh, element_matrices(NU, mesh.h), rho)
    kq = (q.T @ k @ q).tocoo()
    off = cls[kq.row] != cls[kq.col]
    assert np.abs(kq.data[off]).max() <= 1e-14 * np.abs(kq.data).max()


def test_class_basis_keeps_the_pins_and_sorts_the_rigid_fields(mesh8):
    q = mesh8.classes.q
    cls = class_of_columns(mesh8)
    # each pinned dof is itself a column of Q, in the class of its
    # translation
    for dof, (sx, sy) in zip(PINS, [(-1, 1), (1, -1)]):
        assert q[dof].nnz == 1 and q[dof].data[0] == 1.0
        assert CLASSES[cls[q[dof].indices[0]]] == (sx, sy)
        assert q[:, q[dof].indices[0]].nnz == 1
        translation = (np.arange(mesh8.ndof) % 2 == dof).astype(float)
        coords = q.T @ translation
        live = np.abs(coords) > 1e-12
        assert {CLASSES[c] for c in cls[live]} == {(sx, sy)}


# ==========================================================================
# assembly
# ==========================================================================


def test_assembly_linearity(mesh8, elem8, rng):
    rho = rng.uniform(0.2, 1.0, mesh8.ne)
    k1 = assemble_k0(mesh8, elem8, rho)
    k2 = assemble_k0(mesh8, elem8, 2.0 * rho)
    assert_allclose((k2 - 2.0 * k1).toarray(), 0.0, atol=1e-14)


def test_assembly_against_dense_scatter(rng):
    mesh = build_mesh(4)
    elem = element_matrices(NU, mesh.h)
    rho = rng.uniform(0.1, 1.0, mesh.ne)
    k = assemble_k0(mesh, elem, rho).toarray()
    ref = np.zeros((mesh.ndof, mesh.ndof))
    for e in range(mesh.ne):
        idx = mesh.edofs[e]
        ref[np.ix_(idx, idx)] += rho[e] * elem.k0
    assert_allclose(k, ref, rtol=0, atol=1e-14)


def test_reduced_stiffness_nullity_is_two(mesh8, elem8):
    k = assemble_k0(mesh8, elem8, np.ones(mesh8.ne)).toarray()
    w = np.linalg.eigvalsh(k)
    assert np.sum(np.abs(w) < 1e-10) == 2, "periodic cell must keep only translations"
    tx = np.zeros(mesh8.ndof)
    tx[0::2] = 1.0
    assert_allclose(k @ tx, 0.0, atol=1e-12)


def test_unit_strain_loads_are_self_equilibrated(mesh8, elem8, rng):
    rho = rng.uniform(0.1, 1.0, mesh8.ne)
    f = assemble_loads(mesh8, elem8, rho)
    # resultants along both translations vanish for each unit strain
    assert_allclose(f[0::2].sum(axis=0), 0.0, atol=1e-13)
    assert_allclose(f[1::2].sum(axis=0), 0.0, atol=1e-13)


# ==========================================================================
# periodic solve
# ==========================================================================


class TestPinnedSolve:
    def test_matches_dense_reference(self, rng):
        mesh = build_mesh(6)
        elem = element_matrices(NU, mesh.h)
        rho = rng.uniform(0.05, 1.0, mesh.ne)
        k = assemble_k0(mesh, elem, rho)
        f = assemble_loads(mesh, elem, rho)
        o = mesh.order
        s = PinnedSolver(k[o][:, o], mesh.torus_basis)
        u = np.column_stack([s.solve(f[:, j]) for j in range(3)])

        kd = k.toarray()
        free = np.arange(2, mesh.ndof)
        u_ref = np.zeros_like(f)
        u_ref[free] = np.linalg.solve(kd[np.ix_(free, free)], f[free])
        assert_allclose(u, u_ref, rtol=0, atol=1e-11)
        # pinned solution still satisfies the full singular system
        assert_allclose(kd @ u - f, 0.0, atol=1e-9)

    @pytest.mark.parametrize("value", [1.0, 0.0])
    def test_pin_zeroes_node0_and_stores_no_zeros(self, mesh8, elem8, rng,
                                                  value):
        k = assemble_k0(mesh8, elem8, rng.uniform(0.1, 1.0, mesh8.ne))
        a = pin(k, value)
        ref = k.toarray()
        ref[PINS, :] = 0.0
        ref[:, PINS] = 0.0
        ref[PINS, PINS] = value
        assert_array_equal(a.toarray(), ref)
        assert np.all(a.data != 0.0)

    def test_pin_takes_any_sparse_form_and_any_pin_order(self, rng):
        # duplicates, a stored zero, unsorted rows, CSR, complex, and pins
        # out of order: the pin of the summed matrix, canonical, no zeros
        rows = np.array([0, 3, 3, 5, 1, 2, 4, 4, 2, 5, 0])
        cols = np.array([0, 3, 3, 1, 5, 2, 4, 0, 4, 5, 3])
        vals = rng.standard_normal(rows.size) + 1j * rng.standard_normal(
            rows.size)
        vals[2] = -vals[1]                     # sums to a zero at (3, 3)
        a = sp.coo_matrix((vals, (rows, cols)), shape=(6, 6))
        ref = a.toarray()
        ref[[4, 2], :] = 0.0
        ref[:, [4, 2]] = 0.0
        ref[[4, 2], [4, 2]] = 1.0
        by_col = np.argsort(cols, kind="stable")   # rows unsorted within
        raw = sp.csc_matrix((vals[by_col], rows[by_col], np.searchsorted(
            cols[by_col], np.arange(7))), shape=(6, 6))
        assert not raw.has_canonical_format
        for form in (a.tocsr(), a.tocsc(), raw):
            got = pin(form, 1.0, [4, 2])
            assert got.format == "csc" and got.has_canonical_format
            assert_array_equal(got.toarray(), ref)
            assert np.all(got.data != 0.0)

    def test_singular_operator_raises(self):
        with pytest.raises(SolverError):
            PinnedSolver(sp.csc_matrix((8, 8)), sp.identity(8, format="csr"))

    def test_solver_reuse_multiple_rhs(self, mesh8, elem8):
        rho = np.ones(mesh8.ne)
        k = assemble_k0(mesh8, elem8, rho)
        f = assemble_loads(mesh8, elem8, rho)
        o = mesh8.order
        k = k[o][:, o]
        s = PinnedSolver(k, mesh8.torus_basis)
        u = np.column_stack([s.solve(f[:, j]) for j in range(3)])
        fresh = np.column_stack([PinnedSolver(k, mesh8.torus_basis).solve(
            f[:, j]) for j in range(3)])
        assert_allclose(u, fresh, rtol=0, atol=0)
