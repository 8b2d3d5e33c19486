"""Sparse assembly, the sparse factor and the periodic linear solve.

The periodic solve factors the pinned stiffness once in a basis of the
mesh (cellmat.mesh) and maps every right-hand side into that basis and
every solution back: the torus-order permutation, or, for a cell
mirror-symmetric about both axes, the two-mirror class basis, in which
the stiffness is block diagonal (cellmat.homogenize picks the basis).
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
    stiffness, the density filter, each Bloch pencil's K0(k), the inertia
    tests of bloch and its cut screen.  Each caller hands a already in
    one of the nested-dissection orders of the mesh (cellmat.mesh), or,
    for the periodic stiffness of a two-mirror-symmetric cell, in its
    class basis, class by class in the dissection order of the quarter
    grid.  So SuperLU orders nothing (NATURAL) and runs in its symmetric
    mode, with the small diagonal pivot threshold that mode asks for.
    Diagonal pivots are stable for a Hermitian positive definite matrix;
    the inertia tests, whose matrices may be indefinite, check the pivots
    they get.  On the 64x64 blueprints the grid order factors the periodic
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
    keeps them."""
    mask = np.ones(a.shape[0], dtype=bool)
    mask[dofs] = False
    d = sp.diags(mask.astype(float)).tocsc()
    return (d @ a @ d + value * sp.diags((~mask).astype(float))).tocsc()


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
    is the torus-order permutation (Mesh.torus_basis), or, for a cell
    mirror-symmetric about both axes, the two-mirror class basis
    (Mesh.classes), in which k is block diagonal.  solve takes and returns
    vectors in the reduced numbering and maps them through Q.
    """

    def __init__(self, k, basis):
        self.basis = basis
        self.k_pinned = pin(k, 1.0, basis[PINS].indices)
        try:
            self.lu = symmetric_lu(self.k_pinned)
        except RuntimeError as err:
            raise SolverError(f"stiffness factorization failed: {err}") from err

    def solve(self, f):
        b = np.array(f, dtype=float, copy=True)
        b[PINS] = 0.0
        b = self.basis.T @ b
        y = self.lu.solve(b)
        r = self.k_pinned @ y - b
        scale = max(np.linalg.norm(b), 1.0)
        if np.linalg.norm(r) > RESIDUAL_TOL * scale:
            raise SolverError(
                f"periodic solve residual {np.linalg.norm(r) / scale:.3e} "
                f"exceeds {RESIDUAL_TOL:.1e}")
        return self.basis @ y
