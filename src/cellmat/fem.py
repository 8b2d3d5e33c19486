"""Sparse assembly and the periodic linear solve."""

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


def symmetric_lu(a, permc_spec="MMD_AT_PLUS_A"):
    """splu of a Hermitian matrix with its pivots kept on the diagonal.

    Every sparse factor of the package is made here: the periodic
    stiffness, the density filter, each Bloch pencil's K0(k) and the
    inertia tests of bloch.  The factor is ordered by the symmetric
    minimum-degree ordering MMD_AT_PLUS_A in SuperLU's symmetric mode,
    with the small diagonal pivot threshold that mode asks for.  Diagonal
    pivots are stable for a Hermitian positive definite matrix; the
    inertia tests, whose matrices may be indefinite, check the pivots they
    get.  On a 64x64 blueprint's Bloch pencil this cuts nnz(L+U) from
    about 2.4M with splu's default column ordering to 1.3-1.6M.  Without
    the symmetric mode, a design whose stiffness matrix has no exactly
    cancelling entries (any gray density) factors 2.5-3x slower, and
    solves slower, than with the default ordering.  permc_spec="NATURAL"
    keeps a's own order instead, for a caller that has ordered a itself.
    """
    return splu(a, permc_spec=permc_spec, diag_pivot_thresh=0.0,
                options={"SymmetricMode": True})


def pin(a, value):
    """a with the PINS rows and columns zeroed and value on their diagonal:
    1 pins a stiffness K0, 0 a geometric stiffness K_sigma."""
    mask = np.ones(a.shape[0], dtype=bool)
    mask[PINS] = False
    d = sp.diags(mask.astype(float)).tocsc()
    return (d @ a @ d + value * sp.diags((~mask).astype(float))).tocsc()


class PinnedSolver:
    """LU-factorized periodic stiffness with the two dofs of reduced node 0
    pinned to remove the translation null space.

    Pinning is exact for every right-hand side that is orthogonal to the
    translations (all loads here are: they are internal-force resultants of
    periodic strain states), because the reaction at the pinned dofs then
    vanishes identically.
    """

    def __init__(self, k_reduced):
        self.k_pinned = pin(k_reduced, 1.0)
        try:
            self.lu = symmetric_lu(self.k_pinned)
        except RuntimeError as err:
            raise SolverError(f"stiffness factorization failed: {err}") from err

    def solve(self, f):
        b = np.array(f, dtype=float, copy=True)
        b[PINS] = 0.0
        u = self.lu.solve(b)
        r = self.k_pinned @ u - b
        scale = max(np.linalg.norm(b), 1.0)
        if np.linalg.norm(r) > RESIDUAL_TOL * scale:
            raise SolverError(
                f"periodic solve residual {np.linalg.norm(r) / scale:.3e} "
                f"exceeds {RESIDUAL_TOL:.1e}")
        return u
