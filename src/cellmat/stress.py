"""Center stress recovery and the yield strength of the cell."""

from dataclasses import dataclass

import numpy as np

from .design import interpolate

# deviatoric quadratic form for plane stress von Mises
M_VM = np.array([
    [1.0, -0.5, 0.0],
    [-0.5, 1.0, 0.0],
    [0.0, 0.0, 3.0],
])

SIGMA0 = np.array([-1.0, 0.0, 0.0])  # unit compressive macro stress


def macro_strain(cbar):
    """Macro strain conjugate to the applied unit macro stress."""
    return cbar @ SIGMA0


def von_mises(s):
    """Equivalent stress of rows of s (..., 3)."""
    q = np.einsum("...i,ij,...j->...", s, M_VM, s)
    return np.sqrt(np.maximum(q, 0.0))


@dataclass
class StressState:
    s_unit: np.ndarray     # (ne, 3) unit-modulus element center stresses
    sigma: np.ndarray      # (ne, 3) relaxed physical stresses
    vm: np.ndarray         # (ne,) von Mises of sigma
    max_vm: float
    moduli_vm: np.ndarray  # (ne,) eps-relaxed stress moduli
    moduli_vm_deriv: np.ndarray


def element_stresses(mesh, elem, chi, rho_bar, eps0):
    """Per-element center stresses under the macro strain eps0.

    The unit-modulus stress s_unit = D0 (eps0 - B u_e) is shared by the
    stress stiffness; only the modulus branch applied on top differs
    between the strength measure (eps-relaxed) and the geometric terms.
    """
    u = chi[mesh.edofs] @ eps0                  # (ne, 8)
    strain = eps0[None, :] - u @ elem.b_center.T
    s_unit = strain @ elem.d0.T
    e_s, de_s = interpolate(rho_bar, "stress")
    sigma = e_s[:, None] * s_unit
    vm = von_mises(sigma)
    return StressState(s_unit=s_unit, sigma=sigma, vm=vm, max_vm=float(vm.max()),
                       moduli_vm=e_s, moduli_vm_deriv=de_s)


def yield_strength(max_vm, sigma1):
    """Macro stress magnitude at first yield, per unit of applied stress.

    sigma1 is the base material yield stress in units of its modulus; the
    returned strength shares those units.
    """
    return sigma1 / max_vm
