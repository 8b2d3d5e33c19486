"""Periodic homogenization of the unit cell in the energy form.

The three unit macro strains are applied as consistent load vectors, the
periodic corrector fields are solved for, and the effective elasticity
tensor is accumulated from per-element energy tensors

    Q_e[a, b] = integral over element e of
                (eps_a - B chi_a)' D0 (eps_b - B chi_b)

at unit modulus.  Dbar = sum_e E_e Q_e with cell area 1.  Keeping the Q_e
around pays off twice: the density gradient of Dbar is exactly E'_e Q_e
(the corrector terms are stationary), and consistency of the assembled
Dbar can be cross-checked against the global energy identity.

The periodic stiffness is factored per call (fem.PinnedSolver) and kept
for the zone center of the band sweep (cellmat.bloch) and the adjoint
solves of the gradients.  A cell whose modulus field is
mirror-symmetric about both axes (mesh.mirror_axes) has it factored in
the two-mirror class basis of the mesh (cellmat.mesh), where it splits
into four blocks on the quarter grid with about half the fill of the
torus order.  class_stiffness and class_loads assemble the stiffness, as
its two diagonal blocks, and the loads there directly from the quarter
cell (mesh.quarter_cell), from the moduli summed over each element's
orbit: the stiffness is the class assembly of cellmat.mesh at k = 0,
the K0 that the pinned Bloch pencil takes too (bloch.band_pencil), and
the sweep solves its zone center on these factors.  The loads lie in the
corrector pair of classes, exactly, so the correctors never make the
solver factor the translation pair; only the zone center of a band
sweep or an adjoint load does.  Any other cell is factored whole in the torus order less the
pins (Mesh.torus_basis), its stiffness assembled on the reduced dofs and
permuted into that order.
"""

from dataclasses import dataclass

import numpy as np

from .fem import PinnedSolver, assemble_k0, assemble_loads
from .mesh import CLASSES, diagonal_blocks, mirror_axes, orbit_sum, \
    quarter_cell

# the class of the load of each unit macro strain (module doc of
# cellmat.mesh): the normal strains are even under both mirrors, the
# shear strain is odd under each
LOAD_CLASSES = tuple(CLASSES.index(c) for c in ((1, 1), (1, 1), (-1, -1)))


@dataclass
class HomogResult:
    chi: np.ndarray        # (ndof, 3) periodic correctors
    dbar: np.ndarray       # (3, 3) effective elasticity
    cbar: np.ndarray       # (3, 3) effective compliance
    ebar: float            # effective Young's modulus along x
    q_tensors: np.ndarray  # (ne, 3, 3) unit-modulus element energy tensors
    solver: PinnedSolver   # factorized stiffness, reused by the zone
                           # center of the band sweep and adjoint solves


def class_stiffness(mesh, elem, moduli):
    """Q^T K Q for the class basis Q = mesh.classes.q of a field that is
    mirror-symmetric about both axes, assembled without K, as its two
    diagonal blocks in CSC: the corrector pair of classes and then the
    translation pair (mesh.classes.split).  It has no entry outside them.
    Q has no column for the pins (cellmat.mesh), so it is the pinned
    stiffness.

    It is the pinned class pencil's K0 (cellmat.bloch.band_pencil), split:
    one assembly from the quarter-cell stiffness K_q
    (mesh.quarter_cell) of the moduli summed over the orbit of each
    quarter-cell element (mesh.orbit_sum, ClassBasis.assemble).  A sparse
    Q^T K Q costs several times as much.
    """
    n = mesh.n
    [k] = mesh.classes.assemble(quarter_cell(n).matrix(
        np.multiply.outer(orbit_sum(n, moduli), elem.k0)))
    return diagonal_blocks(k, (0, mesh.classes.split, k.shape[0]))


def class_loads(mesh, elem, moduli):
    """Q^T times the unit-macro-strain loads (fem.assemble_loads), (ndof -
    2, 3), for the class basis Q = mesh.classes.q of a field that is
    mirror-symmetric about both axes, assembled from the quarter cell as
    class_stiffness is: the load of a quarter dof, summed over the
    quarter-cell elements with their orbit moduli, times the coefficient
    of its class column.  The load of a normal strain lies in class
    (+, +), that of the shear strain in (-, -) (LOAD_CLASSES); every other
    entry is exactly zero, so the loads never reach the translation
    pair."""
    quarter, basis = quarter_cell(mesh.n), mesh.classes
    fe = np.multiply.outer(orbit_sum(mesh.n, moduli), elem.f_unit)
    out = np.zeros((basis.q.shape[1], 3))
    for a, cls in enumerate(LOAD_CLASSES):
        f = np.bincount(quarter.edofs.ravel(), weights=fe[..., a].ravel(),
                        minlength=quarter.dofs.size)
        col = basis.col[cls, quarter.dofs]
        live = col >= 0
        out[col[live], a] = basis.coef[cls, quarter.dofs[live]] * f[live]
    return out


def homogenize(mesh, elem, moduli):
    """Effective properties for an element modulus field (ne,)."""
    if mirror_axes(mesh, moduli) == (0, 1):
        basis = mesh.classes.q
        solver = PinnedSolver(class_stiffness(mesh, elem, moduli), basis)
        f = class_loads(mesh, elem, moduli)
    else:
        basis = mesh.torus_basis
        solver = PinnedSolver([basis.T @ assemble_k0(mesh, elem, moduli)
                               @ basis], basis)
        f = basis.T @ assemble_loads(mesh, elem, moduli)
    chi = basis @ np.column_stack([solver.solve_basis(f[:, a])
                                   for a in range(3)])

    u = chi[mesh.edofs]                                        # (ne, 8, 3)
    cross = np.einsum("ja,ejb->eab", elem.f_unit, u)
    # per-element u_e' k0 u_e as batched products: far faster than the
    # three-operand einsum
    strain_energy = np.matmul(u.transpose(0, 2, 1), np.matmul(elem.k0, u))
    q = (elem.volume * elem.d0)[None, :, :] - cross - cross.transpose(0, 2, 1) \
        + strain_energy

    dbar = np.einsum("e,eab->ab", moduli, q)
    dbar = 0.5 * (dbar + dbar.T)
    cbar = np.linalg.inv(dbar)
    ebar = 1.0 / cbar[0, 0]
    return HomogResult(chi=chi, dbar=dbar, cbar=cbar, ebar=ebar,
                       q_tensors=q, solver=solver)
