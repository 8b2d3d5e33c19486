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

The periodic stiffness is factored once per call (fem.PinnedSolver) and
kept for the adjoint solves of the gradients.  A cell whose modulus
field is mirror-symmetric about both axes, within MIRROR_TOL, has it
factored in the two-mirror class basis of the mesh (cellmat.mesh), where
it splits into four blocks on the quarter grid with about half the fill
of the torus order; class_stiffness assembles it there directly.  Any
other cell is factored in the torus order.
"""

from dataclasses import dataclass

import numpy as np

from .fem import PinnedSolver, assemble, assemble_k0, assemble_loads
from .mesh import MIRROR_TOL


@dataclass
class HomogResult:
    chi: np.ndarray        # (ndof, 3) periodic correctors
    dbar: np.ndarray       # (3, 3) effective elasticity
    cbar: np.ndarray       # (3, 3) effective compliance
    ebar: float            # effective Young's modulus along x
    q_tensors: np.ndarray  # (ne, 3, 3) unit-modulus element energy tensors
    solver: PinnedSolver   # factorized stiffness, reused by adjoint solves


def two_mirror_symmetric(mesh, moduli):
    """True when the element field (ne,) maps to itself under both axis
    mirrors within MIRROR_TOL, relative in the 2-norm."""
    e = moduli.reshape(mesh.n, mesh.n)                    # [row, column]
    tol = MIRROR_TOL * np.linalg.norm(e)
    return all(np.linalg.norm(m - e) <= tol for m in (e[:, ::-1], e[::-1]))


def class_stiffness(mesh, elem, moduli):
    """Q^T K Q for the class basis Q = mesh.classes.q of a field that is
    mirror-symmetric about both axes, assembled without K.

    For even n no element lies on a mirror line, so every element orbit
    has four members, and a class column, a unit class vector, takes the
    same share of the energy from each.  So each class block sums, over
    the elements of the quarter cell 0 <= x, y < 1/2, the modulus summed
    over the element's orbit times its k0, scaled on both sides by the
    coefficients of its dofs (all of them orbit representatives) and
    scattered to their class columns.  The orbit sum is four times the
    modulus of a symmetric field and drops the roundoff asymmetry of a
    filtered one.  A dof without a column in a class has coefficient 0
    there; its entries are dropped with the other zeros.  A sparse
    Q^T K Q costs several times as much.
    """
    n, h = mesh.n, mesh.n // 2
    e = moduli.reshape(n, n)
    orbit = (e + e[:, ::-1] + e[::-1] + e[::-1, ::-1])[:h, :h].ravel()
    dofs = mesh.edofs[(np.arange(h)[:, None] * n + np.arange(h)).ravel()]
    col = np.maximum(mesh.classes.col[:, dofs], 0)        # (4, ne/4, 8)
    coef = mesh.classes.coef[:, dofs]
    ke = (orbit[:, None, None] * coef[..., :, None] * coef[..., None, :]
          * elem.k0)
    k = assemble(col.reshape(-1, 8), mesh.ndof, ke.reshape(-1, 8, 8))
    k.eliminate_zeros()
    return k


def homogenize(mesh, elem, moduli):
    """Effective properties for an element modulus field (ne,)."""
    f = assemble_loads(mesh, elem, moduli)
    if two_mirror_symmetric(mesh, moduli):
        k, basis = class_stiffness(mesh, elem, moduli), mesh.classes.q
    else:
        o = mesh.order
        k, basis = assemble_k0(mesh, elem, moduli)[o][:, o], mesh.torus_basis
    solver = PinnedSolver(k, basis)
    chi = np.column_stack([solver.solve(f[:, a]) for a in range(3)])

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
