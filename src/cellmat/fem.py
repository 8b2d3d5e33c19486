"""Sparse assembly, the sparse factor and the periodic linear solve.

The periodic solve factors the pinned stiffness in a basis of the mesh
(cellmat.mesh) and maps every right-hand side into that basis and every
solution back: the torus-order permutation, factored whole, or, for a
cell mirror-symmetric about both axes, the two-mirror class basis, in
which the stiffness is block diagonal and each of its two pairs of
classes has a factor of its own, the translation pair's made only when a
load reaches it (cellmat.homogenize picks the basis).
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import SolverError

RESIDUAL_TOL = 1e-9
PINS = [0, 1]        # the two dofs of reduced node 0


def _scatter_pattern(edofs, ndof):
    rows = np.repeat(edofs, edofs.shape[1], axis=1).ravel()
    cols = np.tile(edofs, (1, edofs.shape[1])).ravel()
    return rows, cols, (ndof, ndof)


def assemble(edofs, ndof, ke_all):
    """Assemble per-element dense blocks ke_all (ne, 8, 8) into CSC."""
    rows, cols, shape = _scatter_pattern(edofs, ndof)
    k = sp.coo_matrix((ke_all.ravel(), (rows, cols)), shape=shape)
    return k.tocsc()

def assemble_k0(mesh, elem, moduli, reduced=True):
    """Elastic stiffness for an element modulus field (ne,)."""
    ke_all = moduli[:, None, None] * elem.k0[None, :, :]
    edofs = mesh.edofs if reduced else mesh.edofs_full
    ndof = mesh.ndof if reduced else mesh.ndof_full
    return assemble(edofs, ndof, ke_all)


def assemble_loads(mesh, elem, moduli):
    """Consistent unit-macro-strain load vectors, (ndof, 3)."""
    f = np.zeros((mesh.ndof, 3))
    fe = moduli[:, None, None] * elem.f_unit[None, :, :]
    for j in range(8):
        np.add.at(f, mesh.edofs[:, j], fe[:, j, :])
    return f


def scatter_vec(mesh, fe):
    """Accumulate per-element 8-vectors into a global reduced vector."""
    out = np.zeros(mesh.ndof, dtype=fe.dtype)
    for j in range(8):
        np.add.at(out, mesh.edofs[:, j], fe[:, j])
    return out


def symmetric_lu(a):
    """splu of a Hermitian matrix with its pivots kept on the diagonal, in
    a's own order.

    Every sparse factor of the package is made here: the periodic
    stiffness, the density filter, each Bloch pencil's K0(k) and the cut
    screen of bloch, its one inertia test.  Each caller hands a already in
    one of the nested-dissection orders of the mesh (cellmat.mesh), or,
    for the periodic stiffness of a two-mirror-symmetric cell, in its
    class basis, class by class in the dissection order of the quarter
    grid.  So SuperLU orders nothing (NATURAL) and runs in its symmetric
    mode, with the small diagonal pivot threshold that mode asks for.
    Diagonal pivots are stable for a Hermitian positive definite matrix;
    the cut screen, whose matrices may be indefinite, checks the pivots it
    gets.  On the 64x64 blueprints the grid order factors the periodic
    stiffness and the Bloch pencils in about half the time of SuperLU's
    own symmetric minimum-degree order, with fewer nonzeros: 1.13M
    against 1.37M in L+U for the stiffness of c2, and 0.60M in the class
    basis.
    """
    return splu(a, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True})


def pin(a, value, dofs=PINS):
    """a with the rows and columns of dofs zeroed and value on their
    diagonal: 1 pins a stiffness K0, 0 a geometric stiffness K_sigma.
    dofs are the two of reduced node 0 (PINS), or where an ordered matrix
    keeps them.  The entries of a are kept through a row and a column
    mask, and the diagonal entries are put into the emptied columns: the
    result is CSC in canonical form and stores no zeros."""
    a = sp.csc_matrix(a)
    if not a.has_canonical_format:
        a = a.copy()
        a.sum_duplicates()
    size = a.shape[1]
    free = np.ones(size, dtype=bool)
    free[dofs] = False
    keep = free[a.indices] & np.repeat(free, np.diff(a.indptr)) \
        & (a.data != 0)
    indptr = np.concatenate([[0], np.cumsum(keep)])[a.indptr]
    data, indices = a.data[keep], a.indices[keep]
    if value != 0:
        dofs = np.unique(dofs)
        data = np.insert(data, indptr[dofs], value)
        indices = np.insert(indices, indptr[dofs], dofs)
        indptr = indptr + np.searchsorted(dofs, np.arange(size + 1))
    return sp.csc_matrix((data, indices, indptr), shape=a.shape)


def _diagonal_blocks(k, split):
    """The two diagonal blocks of the CSC matrix k, split after its first
    split rows and columns, as CSC matrices that share k's arrays.  k must
    have no entry outside them."""
    p = k.indptr[split]
    if np.any(k.indices[:p] >= split) or np.any(k.indices[p:] < split):
        raise SolverError("the stiffness couples the two class pairs")
    rest = k.shape[0] - split
    return (sp.csc_matrix((k.data[:p], k.indices[:p], k.indptr[:split + 1]),
                          shape=(split, split)),
            sp.csc_matrix((k.data[p:], k.indices[p:] - split,
                           k.indptr[split:] - p), shape=(rest, rest)))


class PinnedSolver:
    """LU-factorized periodic stiffness with the two dofs of reduced node 0
    pinned to remove the translation null space.

    Pinning is exact for every right-hand side that is orthogonal to the
    translations (all loads here are: they are internal-force resultants of
    periodic strain states), because the reaction at the pinned dofs then
    vanishes identically.

    The stiffness is factored in an orthogonal basis Q that the mesh owns
    (cellmat.mesh): k is Q^T K Q, and Q keeps the unit vectors of PINS as
    two of its columns, so pinning them in the basis is the pin of K.  Q
    is the torus-order permutation (Mesh.torus_basis), factored whole, or,
    for a cell mirror-symmetric about both axes, the two-mirror class
    basis (Mesh.classes).  There k is block diagonal, and the caller
    passes split, the number of columns of the corrector pair of classes:
    each pair is factored on its own.  The corrector pair holds no pin and
    is factored here.  The translation pair holds both pins and is
    factored on the first solve whose right-hand side, in the basis, has a
    nonzero entry there: the corrector loads, which homogenize assembles
    in the class basis, are exactly zero there, so a stiffness-only design
    iteration never factors it, while the adjoint loads of the stress and
    stability gradients factor it once per analysis.  lu is the factor
    made here: of the whole stiffness, or of the corrector pair.

    solve takes and returns vectors in the reduced numbering and maps them
    through Q; solve_basis takes and returns them in the basis.
    """

    def __init__(self, k, basis, split=None):
        self.basis = basis
        self._pins = basis[PINS].indices
        k = sp.csc_matrix(k)
        size = k.shape[0]
        if split is None:
            bounds, blocks = [0, size], [k]
        else:
            bounds, blocks = [0, split, size], _diagonal_blocks(k, split)
        self._bounds = bounds
        self._blocks = list(blocks)            # each pinned when factored
        self._lus = [None] * len(blocks)
        self.lu = self._factor(0)

    def _factor(self, i):
        """Pin block i where it holds pins, and factor it."""
        start, stop = self._bounds[i:i + 2]
        local = self._pins[(self._pins >= start) & (self._pins < stop)]
        if local.size:
            self._blocks[i] = pin(self._blocks[i], 1.0, local - start)
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

    def solve_basis(self, b):
        """The pinned solution for a load b, both in the basis; the entries
        of b at the pins are dropped."""
        b = np.array(b, dtype=float, copy=True)
        b[self._pins] = 0.0
        y = np.zeros_like(b)
        r = np.zeros_like(b)
        for i, lu in enumerate(self._lus):
            block = slice(*self._bounds[i:i + 2])
            if i and not b[block].any():
                continue
            if lu is None:
                lu = self._factor(i)
            y[block] = lu.solve(b[block])
            r[block] = self._blocks[i] @ y[block] - b[block]
        scale = max(np.linalg.norm(b), 1.0)
        if np.linalg.norm(r) > RESIDUAL_TOL * scale:
            raise SolverError(
                f"periodic solve residual {np.linalg.norm(r) / scale:.3e} "
                f"exceeds {RESIDUAL_TOL:.1e}")
        return y
