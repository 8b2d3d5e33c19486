"""Sparse assembly, the sparse factor and the periodic linear solve.

The periodic solve factors the stiffness in a basis of the mesh
(cellmat.mesh), whose columns carry the factor's order and leave out the
two dofs of reduced node 0, so that the stiffness in it is the pinned
one, and maps every right-hand side into that basis and every solution
back: the torus order, factored whole, or, for a cell mirror-symmetric
about both axes, the two-mirror class basis, in which the stiffness
comes as its two diagonal blocks, the two pairs of classes, each with a
factor of its own, the translation pair's made only when a load reaches
it (cellmat.homogenize picks the basis and builds the blocks).  The band
sweep of such a cell solves its zone center on the same factors
(PinnedSolver.solve_blocks and bordered).
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolverError

RESIDUAL_TOL = 1e-9


def assemble(edofs, ndof, ke_all):
    """Assemble per-element dense blocks ke_all (ne, 8, 8) into CSC."""
    rows = np.repeat(edofs, edofs.shape[1], axis=1).ravel()
    cols = np.tile(edofs, (1, edofs.shape[1])).ravel()
    return sp.coo_matrix((ke_all.ravel(), (rows, cols)),
                         shape=(ndof, ndof)).tocsc()


def assemble_k0(mesh, elem, moduli, reduced=True):
    """Elastic stiffness for an element modulus field (ne,)."""
    ke_all = moduli[:, None, None] * elem.k0[None, :, :]
    edofs = mesh.edofs if reduced else mesh.edofs_full
    ndof = mesh.ndof if reduced else mesh.ndof_full
    return assemble(edofs, ndof, ke_all)


def assemble_loads(mesh, elem, moduli):
    """Consistent unit-macro-strain load vectors, (ndof, 3)."""
    return scatter_vec(mesh, moduli[:, None, None] * elem.f_unit[None, :, :])


def scatter_vec(mesh, fe):
    """Accumulate per-element values fe (ne, 8, ...), one per element dof,
    into a global reduced array (ndof, ...)."""
    out = np.zeros((mesh.ndof,) + fe.shape[2:], dtype=fe.dtype)
    for j in range(8):
        np.add.at(out, mesh.edofs[:, j], fe[:, j])
    return out


def symmetric_lu(a):
    """splu of a Hermitian matrix with its pivots kept on the diagonal, in
    a's own order.

    Every sparse factor of the package is made here: the periodic
    stiffness, the density filter, each Bloch pencil's K0(k) but those of
    the zone center of a cell mirror-symmetric about both axes, which are
    solved on the periodic stiffness's factors, and the cut screen of
    bloch, its one inertia test: one factor of the full-node operator,
    or, for a two-mirror cell, one of each of its four class blocks.
    Each caller hands a already in a nested-dissection order of the grid
    (cellmat.mesh).  The periodic stiffness and the Bloch pencils come
    through a basis whose columns carry the order: the torus permutation,
    or the class basis, class by class in the dissection order of the
    quarter grid, which hands over a block-diagonal matrix.  The filter numbers its nodes in the torus
    order, and the screen its interior by dissection and the cell
    boundary last.  A class block of the screen comes through the class
    basis of the full node set (mesh.cell_basis), split off by
    mesh.diagonal_blocks: the interior of the quarter grid by dissection,
    then its cut, the last 2n columns of its class.  So SuperLU orders
    nothing (NATURAL) and runs in its symmetric mode, with the small
    diagonal pivot threshold that mode asks for.
    Diagonal pivots are stable for a Hermitian positive definite matrix;
    the cut screen, whose matrices may be indefinite, checks the pivots it
    gets.  On the 64x64 blueprints the grid order factors the periodic
    stiffness and the Bloch pencils in about half the time of SuperLU's
    own symmetric minimum-degree order, with fewer nonzeros: 1.13M
    against 1.37M in L+U for the stiffness of c2, and 0.60M in the class
    basis.
    """
    return spla.splu(a, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                     options={"SymmetricMode": True})


class PinnedSolver:
    """LU-factorized periodic stiffness with the two dofs of reduced node 0
    pinned to remove the translation null space.

    Pinning is exact for every right-hand side that is orthogonal to the
    translations (all loads here are: they are internal-force resultants of
    periodic strain states), because the reaction at the pinned dofs then
    vanishes identically.

    The stiffness is factored in a basis Q that the mesh owns
    (cellmat.mesh), with orthonormal columns and none for the pins
    (mesh.PINS), so P = Q^T K Q is the pinned stiffness, nonsingular.  It
    comes as its diagonal blocks in the order of Q's columns, which are
    factored as handed over; P has no entry outside them.  Q is the
    torus order less the pins (Mesh.torus_basis), with one block, or the
    class basis at k = 0 (Mesh.classes) of a cell mirror-symmetric about
    both axes, with the corrector pair of classes and then the
    translation pair.  blocks[0] is factored here, as lu; a later block is
    factored on the first solve whose right-hand side, in the basis, has
    a nonzero entry in it.  The corrector loads are exactly zero in the
    translation pair, so a stiffness-only design iteration never factors
    it, while the zone center of a band sweep and the adjoint loads of
    the stress and stability gradients factor it once per analysis.

    P is also the K0 of the pinned Bloch pencil of a two-mirror cell, and
    the leading block of the K0 of each of its zone-center limits
    (cellmat.bloch), so the sweep solves them on these factors:
    solve_blocks for the pinned pencil, bordered for a limit.

    solve takes and returns vectors in the reduced numbering and maps them
    through Q, which drops a load's entries at the pins and returns zero
    there; solve_basis takes and returns them in the basis, and checks
    the residual of each solve.
    """

    def __init__(self, blocks, basis):
        self.basis = basis
        self._bounds = np.cumsum([0] + [b.shape[0] for b in blocks])
        self._blocks = blocks
        self._lus = [None] * len(blocks)
        self.lu = self._factor(0)

    def _factor(self, i):
        """Factor block i."""
        try:
            self._lus[i] = symmetric_lu(self._blocks[i])
        except RuntimeError as err:
            raise SolverError(f"stiffness factorization failed: {err}") from err
        return self._lus[i]

    def solve(self, f):
        """The pinned solution for a load f, both in the reduced
        numbering."""
        return self.basis @ self.solve_basis(
            self.basis.T @ np.asarray(f, dtype=float))

    def solve_blocks(self, b):
        """P^-1 b for b in the basis, (size,) or (size, r), block by block
        on the factors and with no residual check."""
        y = np.zeros_like(b)
        for i, lu in enumerate(self._lus):
            block = slice(*self._bounds[i:i + 2])
            if i and not b[block].any():
                continue
            if lu is None:
                lu = self._factor(i)
            y[block] = lu.solve(b[block])
        return y

    def solve_basis(self, b):
        """The pinned solution for a load b, both in the basis."""
        y = self.solve_blocks(b)
        # the residual of the blocks solved: every other one is zero
        r = np.linalg.norm(np.concatenate([
            a @ y[lo:hi] - b[lo:hi] for a, lo, hi in
            zip(self._blocks, self._bounds[:-1], self._bounds[1:])
            if lo == 0 or b[lo:hi].any()]))
        scale = max(np.linalg.norm(b), 1.0)
        if r > RESIDUAL_TOL * scale:
            raise SolverError(
                f"periodic solve residual {r / scale:.3e} "
                f"exceeds {RESIDUAL_TOL:.1e}")
        return y

    def bordered(self, border, corner):
        """The solve x -> K^-1 x of the bordered K = [[P, border],
        [border^T, corner]], border (size, r) and corner (r, r) dense, by
        block elimination: W = P^-1 border once, and then per solve one
        solve_blocks and the r-square Schur complement corner - border^T W.
        """
        size = self._bounds[-1]
        w = self.solve_blocks(border)
        schur = corner - border.T @ w

        def solve(x):
            y = self.solve_blocks(x[:size])
            z = np.linalg.solve(schur, x[size:] - border.T @ y)
            return np.concatenate([y - w @ z, z])
        return solve
