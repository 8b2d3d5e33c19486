"""Mesh bookkeeping, periodic assembly and the pinned solve."""

import ast
import hashlib
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose, assert_array_equal

import cellmat
from cellmat.design import enforce_symmetry
from cellmat.element import element_matrices
from cellmat.errors import ConfigError, SolverError
from cellmat.fem import PinnedSolver, assemble_k0, assemble_loads
from cellmat.mesh import CLASSES, PINS, STRESS_PARITY, build_mesh, \
    cell_basis, class_basis, cut_map, dissection, mirror_map, node_dofs, \
    orbit_mean, orbit_sum, quarter_cell

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


# the corners of the quarter zone and a point on each of its edges
PATH_KS = [(0.0, 0.0), (np.pi, 0.0), (np.pi, np.pi), (0.0, np.pi),
           (0.7, 0.0), (np.pi, 0.7), (0.7, np.pi), (0.0, 0.7)]


@pytest.mark.parametrize("n", [4, 6, 10, 64, 96])
def test_grid_orders_are_permutations(n):
    m = build_mesh(n)
    assert_array_equal(np.sort(m.node_order), np.arange(m.nn))
    assert_array_equal(m.order.reshape(-1, 2) // 2,
                       np.repeat(m.node_order[:, None], 2, axis=1))
    for k in PATH_KS:
        # every column of the class basis belongs to one orbit, in one
        # class, and every orbit in every class it lives in has one, but
        # that of reduced node 0 at k = 0: its two dofs are the pins
        basis = class_basis(n, k)
        size = m.ndof - 2 if k == (0.0, 0.0) else m.ndof
        assert basis.q.shape == (m.ndof, size)
        col = basis.col
        assert_array_equal(np.unique(col[col >= 0]), np.arange(size))
        assert np.all(col[:, PINS] < 0) == (k == (0.0, 0.0))


def quarter_rep(n):
    """The quarter-grid representative of every reduced dof's orbit."""
    node = np.arange(n * n)
    cx, cy = np.minimum(node % n, n - node % n), np.minimum(node // n,
                                                           n - node // n)
    return node_dofs(cy * n + cx)


@pytest.mark.parametrize("axis", [0, 1])
def test_mirror_basis_columns_come_in_the_mirror_order(axis):
    # on a mirror line of the zone, the mirror about axis is antiunitary:
    # each class of the other mirror takes the quarter-grid dofs in
    # dissection order, two columns side by side for a dof that is not
    # its own image under the antiunitary mirror, one for a dof that is;
    # each column holds one orbit only
    n = 10
    h = n // 2
    k = np.array([0.7, 0.0] if axis == 0 else [np.pi, 0.7])
    basis = class_basis(n, k)
    assert len(basis.bounds) == 3
    q = basis.q.tocsc()
    rep = quarter_rep(n)
    quarter = dissection(np.arange((h + 1) ** 2).reshape(h + 1, h + 1))
    quarter_dofs = node_dofs((quarter // (h + 1)) * n + quarter % (h + 1))
    position = np.empty(2 * n * n, dtype=int)
    position[quarter_dofs] = np.arange(quarter_dofs.size)
    c = (quarter_dofs // 2 % n, quarter_dofs // 2 // n)[axis]
    own = c % h == 0
    for start, stop in zip(basis.bounds, basis.bounds[1:]):
        lead = []
        for j in range(start, stop):
            rows = q.indices[q.indptr[j]:q.indptr[j + 1]]
            assert len(set(rep[rows])) == 1
            lead.append(position[rep[rows[0]]])
        lead = np.array(lead)
        assert np.all(np.diff(lead) >= 0)
        seen, count = np.unique(lead, return_counts=True)
        assert_array_equal(count, np.where(own[seen], 1, 2))


@pytest.mark.parametrize("axis", [0, 1])
def test_mirror_order_keeps_each_node_next_to_its_image(axis):
    # on a mirror line of the zone, a dof that the antiunitary mirror about
    # axis moves has two columns side by side in each class of the other
    # mirror; the two hold the dof and its image and are orthonormal, so
    # together they span both, and a dof the mirror fixes has one column
    n = 10
    k = np.array([0.7, 0.0] if axis == 0 else [np.pi, 0.7])
    basis = class_basis(n, k)
    q = basis.q.tocsc()
    rep = quarter_rep(n)
    image, c = mirror_map(n, axis)
    image_dof = node_dofs(image)
    lead = np.array([rep[q.indices[q.indptr[j]]] for j in range(n * n * 2)])
    for start, stop in zip(basis.bounds, basis.bounds[1:]):
        j = start
        while j < stop:
            d = lead[j]
            rows = set(q.indices[q.indptr[j]:q.indptr[j + 1]])
            assert {d, image_dof[d]} <= rows
            if image_dof[d] == d:
                assert c[d // 2] % (n // 2) == 0
                assert j + 1 == stop or lead[j + 1] != d
                j += 1
                continue
            assert j + 1 < stop and lead[j + 1] == d
            assert set(q.indices[q.indptr[j + 1]:q.indptr[j + 2]]) == rows
            pair = q[:, [j, j + 1]].toarray()
            assert_allclose(pair.conj().T @ pair, np.eye(2), atol=1e-12)
            j += 2


def test_dissection_orders_are_built_once_per_n_and_read_only():
    a, b = build_mesh(12), build_mesh(12)
    assert a.node_order is b.node_order
    assert a.classes is b.classes is class_basis(12)
    corner = class_basis(12, (np.pi, 0.0))
    assert class_basis(12, (-np.pi, 0.0)) is corner
    # on a mirror line the structure is shared and the phase applied per k
    line = class_basis(12, (0.7, 0.0))
    assert class_basis(12, (0.3, 0.0)).col is line.col
    for order in (a.node_order, a.classes.q.data, a.classes.col,
                  corner.coef, line.col):
        assert not order.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            order[0] = 1


def test_class_assembly_is_cached_small_and_read_only():
    # the quarter pattern is built once per n and the pencil structure
    # once per n and set of linear phases, integer arrays but for the
    # scales kept at k = 0: at n = 64 all of it stays below 8 MiB
    quarter = quarter_cell(64)
    assert quarter_cell(64) is quarter and quarter_cell(8) is not quarter
    arrays = [quarter.dofs, quarter.edofs, quarter.slot, quarter.row,
              quarter.col]
    # the pinned k = 0, the three corners and a point of each quarter-zone
    # edge: the eight sets of linear phases of the path
    for k in ((0.0, 0.0), (np.pi, 0.0), (np.pi, np.pi), (0.0, np.pi),
              (1.1, 0.0), (np.pi, 0.7), (1.1, np.pi), (0.0, 0.7)):
        s = class_basis(64, k).assembly
        assert s.quarter is quarter
        assert s.take.dtype == s.row.dtype == np.uint16
        arrays += [s.indptr, s.take, s.row, *(s.fixed or ())]
    # k = 0 keeps its row indices and scales too
    assert len({id(a) for a in arrays}) == 5 + 3 * 8 + 2
    assert sum(a.nbytes for a in arrays) <= 8 * 2 ** 20
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1


@pytest.mark.parametrize("n", [4, 8, 12])
def test_cell_basis_splits_the_full_node_set_by_class(n):
    # square and orthogonal; each class of columns is its own parity class
    # of the full-node mirrors (column c -> n - c, that displacement
    # component negated); interior dofs first, then the 2n on the cut
    basis = cell_basis(n)
    q = basis.q.toarray()
    assert_allclose(q.T @ q, np.eye(q.shape[0]), atol=1e-15)
    side = n + 1
    dof = np.arange(2 * side * side)
    cx, cy = dof // 2 % side, dof // 2 // side
    on_cut = (cx % n == 0) | (cy % n == 0)
    for c, (sx, sy) in enumerate(CLASSES):
        lo, hi = basis.bounds[c], basis.bounds[c + 1]
        cut = hi - 2 * n
        cols = q[:, lo:hi]
        for image, sign in (((cy * side + n - cx), np.where(dof % 2 == 0,
                                                             -1, 1) * sx),
                            (((n - cy) * side + cx), np.where(dof % 2 == 1,
                                                               -1, 1) * sy)):
            # (M Q)[i] = sign_i Q[image_i]: M Q_c = s Q_c
            assert_array_equal(sign[:, None] * cols[2 * image + dof % 2],
                               cols)
        rows = np.abs(cols) > 0
        assert not rows[on_cut, :cut - lo].any()
        assert not rows[~on_cut, cut - lo:].any()


def test_cell_basis_and_cut_maps_are_cached_small_and_read_only():
    # the full-node basis is built once per n, each cut map once per n and
    # set of linear phases: at n = 64 the basis and the eight maps of the
    # path stay below 4 MiB
    basis = cell_basis(64)
    assert cell_basis(64) is basis and cell_basis(8) is not basis
    assert cut_map(64, (0.3, 0.0)) is cut_map(64, (1.1, 0.0))
    assert cut_map(64, (np.pi, 0.7)) is not cut_map(64, (-0.7, np.pi))
    s = basis.assembly
    arrays = [basis.q.data, basis.q.indices, basis.q.indptr, basis.col,
              basis.coef, s.dofs, s.indptr, s.take, s.row, *s.fixed]
    for k in ((0.0, 0.0), (np.pi, 0.0), (np.pi, np.pi), (0.0, np.pi),
              (1.1, 0.0), (np.pi, 0.7), (1.1, np.pi), (0.0, 0.7)):
        m = cut_map(64, k)
        arrays += [m.rows, m.slot, m.base, m.wrap]
    assert sum(a.nbytes for a in arrays) <= 4 * 2 ** 20
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1
    with pytest.raises(ConfigError, match="no axis mirror"):
        cut_map(64, (1.1, 0.7))


def test_orbit_mean_makes_a_field_exactly_symmetric():
    # the mean over each orbit is mirror-symmetric to the last bit, keeps
    # the orbit sums the class assembly takes, and keeps a field that is
    # symmetric already
    n = 8
    rng = np.random.default_rng(3)
    q = rng.uniform(0.1, 1.0, (n // 2, n // 2))
    top = np.hstack([q, q[:, ::-1]])                # rows are y
    moduli = np.vstack([top, top[::-1]]).ravel()
    assert_array_equal(orbit_mean(n, moduli), moduli)
    for a, parity in ((rng.uniform(0.1, 1.0, n * n), 1),
                      (rng.standard_normal((n * n, 3)), STRESS_PARITY)):
        mean = orbit_mean(n, a, parity)
        assert mean.shape == a.shape
        grid = mean.reshape(n, n, -1)           # [row, column, :]
        for axis in (0, 1):
            assert_array_equal(np.asarray(parity) * np.flip(grid, axis),
                               grid)
        assert_array_equal(orbit_sum(n, mean, parity),
                           orbit_sum(n, a, parity))


def test_the_basis_at_k0_is_unchanged():
    # digests of the class basis at k = 0 as homogenize has factored in
    # it since it was introduced, less the two columns of the pins: each
    # pin's own, which q drops, col renumbers past and coef zeroes.
    # Generalizing it to every k of the path and leaving out the pins
    # left every other column bitwise as it was
    for n, split, digest in ((8, 60, "9ced065613debe28"),
                             (64, 4092, "2ed4473ed3d37625")):
        basis = class_basis(n)
        h = hashlib.sha256()
        for a in (basis.q.data, basis.q.indices, basis.q.indptr, basis.col,
                  basis.coef):
            h.update(np.ascontiguousarray(a).tobytes())
        assert (basis.split, h.hexdigest()[:16]) == (split, digest)


def test_torus_order_cuts_columns_0_and_half_last():
    n = 8
    nodes = build_mesh(n).node_order
    last = nodes[-2 * n:]
    assert_array_equal(np.sort(last % n), np.repeat([0, n // 2], n))


def class_of_columns(mesh):
    """The class index of every column of mesh.classes.q."""
    col = mesh.classes.col
    cls = np.empty(mesh.classes.q.shape[1], dtype=int)
    for i in range(4):
        cls[col[i][col[i] >= 0]] = i
    return cls


@pytest.mark.parametrize("n", [4, 6, 8, 64])
def test_class_basis_is_orthogonal_and_splits_the_stiffness(n):
    mesh = build_mesh(n)
    q = mesh.classes.q
    assert np.diff(q.indptr).max() <= 4
    eye = (q.T @ q).tocoo()
    assert np.abs(eye - sp.identity(mesh.ndof - 2)).max() <= 1e-15
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
    # each pinned dof, its own orbit, has no column in any class; the
    # translation of its component, less the pin, lies in the class the
    # pin would take
    for dof, (sx, sy) in zip(PINS, [(-1, 1), (1, -1)]):
        assert q[dof].nnz == 0
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
        p = mesh.torus_basis
        s = PinnedSolver([p.T @ k @ p], p)
        u = np.column_stack([s.solve(f[:, j]) for j in range(3)])

        kd = k.toarray()
        free = np.arange(2, mesh.ndof)
        u_ref = np.zeros_like(f)
        u_ref[free] = np.linalg.solve(kd[np.ix_(free, free)], f[free])
        assert_allclose(u, u_ref, rtol=0, atol=1e-11)
        # pinned solution still satisfies the full singular system
        assert_allclose(kd @ u - f, 0.0, atol=1e-9)

    def test_singular_operator_raises(self):
        with pytest.raises(SolverError):
            PinnedSolver([sp.csc_matrix((8, 8))],
                         sp.identity(8, format="csr"))

    def test_solver_reuse_multiple_rhs(self, mesh8, elem8):
        rho = np.ones(mesh8.ne)
        k = assemble_k0(mesh8, elem8, rho)
        f = assemble_loads(mesh8, elem8, rho)
        p = mesh8.torus_basis
        k = p.T @ k @ p
        s = PinnedSolver([k], p)
        u = np.column_stack([s.solve(f[:, j]) for j in range(3)])
        fresh = np.column_stack([PinnedSolver([k], p).solve(f[:, j])
                                 for j in range(3)])
        assert_allclose(u, fresh, rtol=0, atol=0)


# the SuperLU entry points of scipy.sparse.linalg that make a sparse factor
SUPERLU = {"splu", "spilu", "factorized", "spsolve"}


def test_every_sparse_factor_is_symmetric_lu():
    # the package names SuperLU in fem.symmetric_lu and nowhere else: no
    # other function imports, calls or binds splu or its relatives
    found = []
    for path in sorted(Path(cellmat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        inside = set()
        if path.name == "fem.py":
            home, = [f for f in tree.body if isinstance(f, ast.FunctionDef)
                     and f.name == "symmetric_lu"]
            inside = {id(node) for node in ast.walk(home)}
        for node in ast.walk(tree):
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {part for alias in node.names
                         for part in alias.name.split(".")}
            if names & SUPERLU and id(node) not in inside:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_the_bases_at_k0_carry_the_pin():
    # the class basis and the torus basis at k = 0 have no column for the
    # two dofs of reduced node 0, so the stiffness in either is the pinned
    # one; and the package spells no pin step: it defines or calls no
    # function named pin
    for n in (4, 8, 64):
        mesh = build_mesh(n)
        for q in (class_basis(n).q, mesh.torus_basis):
            assert q.shape == (mesh.ndof, mesh.ndof - 2)
            assert q[PINS].nnz == 0
    found = []
    for path in sorted(Path(cellmat.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            func = getattr(node, "func", None)
            names = {getattr(node, "name", None), getattr(func, "id", None),
                     getattr(func, "attr", None)}
            if isinstance(node, (ast.FunctionDef, ast.Call, ast.alias)) \
                    and "pin" in names:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


# the names that spell the mirrors of the node set and the basis they make
SYMMETRY = {"mirror_map", "ClassBasis", "CutMap"}


def symmetry_names(path):
    """file:line of every use of a SYMMETRY name in the module at path,
    and of every module function it defines that builds a basis
    (*_basis)."""
    tree = ast.parse(path.read_text(), str(path))
    found = [f"{path.name}:{f.lineno}" for f in tree.body
             if isinstance(f, ast.FunctionDef) and f.name.endswith("_basis")]
    for node in ast.walk(tree):
        names = {getattr(node, "id", None), getattr(node, "attr", None)}
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = {alias.name.split(".")[-1] for alias in node.names}
        if names & SYMMETRY:
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_symmetry_lives_in_mesh():
    # the mirrors of the node set and every symmetry basis are spelled in
    # cellmat.mesh alone: no other module calls or imports mirror_map,
    # makes a ClassBasis or a CutMap, or defines a basis builder of its
    # own
    home = Path(cellmat.__file__).parent
    assert symmetry_names(home / "mesh.py")
    assert [f for path in sorted(home.glob("*.py")) if path.name != "mesh.py"
            for f in symmetry_names(path)] == []
