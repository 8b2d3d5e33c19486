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
"""

from dataclasses import dataclass

import numpy as np

from .fem import PinnedSolver, assemble_k0, assemble_loads


@dataclass
class HomogResult:
    chi: np.ndarray        # (ndof, 3) periodic correctors
    dbar: np.ndarray       # (3, 3) effective elasticity
    cbar: np.ndarray       # (3, 3) effective compliance
    ebar: float            # effective Young's modulus along x
    q_tensors: np.ndarray  # (ne, 3, 3) unit-modulus element energy tensors
    solver: PinnedSolver   # factorized stiffness, reused by adjoint solves


def homogenize(mesh, elem, moduli):
    """Effective properties for an element modulus field (ne,)."""
    k = assemble_k0(mesh, elem, moduli)
    f = assemble_loads(mesh, elem, moduli)
    solver = PinnedSolver(k, mesh.order)
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
