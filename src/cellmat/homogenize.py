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
for the adjoint solves of the gradients.  A cell whose modulus field is
mirror-symmetric about both axes (mesh.mirror_axes) has it factored in
the two-mirror class basis of the mesh (cellmat.mesh), where it splits
into four blocks on the quarter grid with about half the fill of the
torus order.  class_stiffness and class_loads assemble the stiffness, as
its two diagonal blocks, and the loads there directly from the quarter
cell, each as one product with a sparse map built once per n
(class_maps).  The loads lie in the corrector pair of classes, exactly,
so the correctors never make the solver factor the translation pair;
only an adjoint load does.  Any other cell is factored whole in the
torus order, its stiffness assembled on the reduced dofs and permuted
into that order.
"""

from dataclasses import dataclass
from functools import cache

import numpy as np
import scipy.sparse as sp

from .fem import PinnedSolver, assemble_k0, assemble_loads
from .mesh import CLASSES, class_basis, mirror_axes, node_dofs

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
    solver: PinnedSolver   # factorized stiffness, reused by adjoint solves


@dataclass(frozen=True)
class ClassMaps:
    """The class assembly of an n x n cell (class_maps): two linear maps
    from the orbit moduli of the quarter-cell elements times an element
    matrix.  Read-only arrays."""
    stiffness: sp.csr_matrix  # outer(orbit moduli, k0).ravel() -> the data
                              # of the class stiffness
    loads: sp.csr_matrix      # outer(orbit moduli, f_unit).ravel() -> the
                              # (ndof, 3) loads, raveled
    indices: np.ndarray       # the CSC pattern of the class stiffness:
                              # the entries with a term and no other
    indptr: np.ndarray


@cache
def class_maps(n):
    """The ClassMaps of the n x n cell, built once per n.  A stiffness term
    of an element's dofs i and j in a class, with class coefficients c_i
    and c_j, sums c_i c_j times the orbit modulus times k0[i, j] into the
    entry of their class columns.  A term of load a sums c_j times the
    orbit modulus times f_unit[j, a] into row (class column of j, a), for
    each dof j with a column in the class of that load (LOAD_CLASSES)."""
    h, ndof = n // 2, 2 * n * n
    basis = class_basis(n)
    ey, ex = np.divmod(np.arange(h * h), h)
    bl = ey * n + ex                    # quarter-cell elements need no wrap
    dofs = node_dofs(np.stack([bl, bl + 1, bl + n + 1, bl + n], axis=1))
    col = basis.col[:, dofs].transpose(1, 0, 2)           # (h*h, 4, 8)
    coef = basis.coef[:, dofs].transpose(1, 0, 2)

    # the stiffness terms [element, class, i, j]
    shape = col.shape + (8,)
    rows = np.broadcast_to(col[..., :, None], shape)
    cols = np.broadcast_to(col[..., None, :], shape)
    live = (rows >= 0) & (cols >= 0)
    pattern, slot = np.unique(cols[live].astype(np.int64) * ndof + rows[live],
                              return_inverse=True)
    source = np.arange(64 * h * h).reshape(h * h, 1, 8, 8)
    stiffness = sp.csr_matrix(
        ((coef[..., :, None] * coef[..., None, :])[live],
         (slot, np.broadcast_to(source, shape)[live])),
        shape=(pattern.size, source.size))

    # the load terms [element, load, j]
    col, coef = col[:, LOAD_CLASSES], coef[:, LOAD_CLASSES]  # (h*h, 3, 8)
    live = col >= 0
    rows = 3 * col + np.arange(3)[:, None]
    source = np.arange(24 * h * h).reshape(h * h, 8, 3).transpose(0, 2, 1)
    loads = sp.csr_matrix((coef[live], (rows[live], source[live])),
                          shape=(3 * ndof, source.size))

    out = ClassMaps(stiffness=stiffness, loads=loads,
                    indices=(pattern % ndof).astype(np.int32),
                    indptr=np.searchsorted(pattern, np.arange(ndof + 1)
                                           * ndof).astype(np.int32))
    for a in (stiffness.data, stiffness.indices, stiffness.indptr, loads.data,
              loads.indices, loads.indptr, out.indices, out.indptr):
        a.flags.writeable = False
    return out


def _orbit_moduli(mesh, moduli):
    """The modulus summed over the orbit of each quarter-cell element
    under the two axis mirrors, (ne/4,).  It is four times the modulus of
    a symmetric field and drops the roundoff asymmetry of a filtered one."""
    n, h = mesh.n, mesh.n // 2
    e = moduli.reshape(n, n)
    return (e + e[:, ::-1] + e[::-1] + e[::-1, ::-1])[:h, :h].ravel()


def class_stiffness(mesh, elem, moduli):
    """Q^T K Q for the class basis Q = mesh.classes.q of a field that is
    mirror-symmetric about both axes, assembled without K, as its two
    diagonal blocks in CSC: the corrector pair of classes and then the
    translation pair (mesh.classes.split).  It has no entry outside them.

    For even n no element lies on a mirror line, so every element orbit
    has four members, and a class column, a unit class vector, takes the
    same share of the energy from each.  So each class block sums, over
    the elements of the quarter cell 0 <= x, y < 1/2, the modulus summed
    over the element's orbit times its k0, scaled on both sides by the
    coefficients of its dofs (all of them orbit representatives) and
    placed at their class columns (class_maps).  A sparse Q^T K Q costs
    several times as much.
    """
    maps = class_maps(mesh.n)
    data = maps.stiffness @ np.multiply.outer(_orbit_moduli(mesh, moduli),
                                              elem.k0).ravel()
    blocks = []
    for start, stop in ((0, mesh.classes.split), (mesh.classes.split,
                                                  mesh.ndof)):
        a, b = maps.indptr[start], maps.indptr[stop]
        blocks.append(sp.csc_matrix(
            (data[a:b], maps.indices[a:b] - start,
             maps.indptr[start:stop + 1] - a), shape=(stop - start,) * 2))
    return blocks


def class_loads(mesh, elem, moduli):
    """Q^T times the unit-macro-strain loads (fem.assemble_loads), (ndof,
    3), for the class basis Q = mesh.classes.q of a field that is
    mirror-symmetric about both axes, assembled from the quarter cell as
    class_stiffness is.  The load of a normal strain lies in class (+, +),
    that of the shear strain in (-, -) (LOAD_CLASSES); every other entry
    is exactly zero, so the loads never reach the translation pair."""
    x = np.multiply.outer(_orbit_moduli(mesh, moduli), elem.f_unit).ravel()
    return (class_maps(mesh.n).loads @ x).reshape(mesh.ndof, 3)


def homogenize(mesh, elem, moduli):
    """Effective properties for an element modulus field (ne,)."""
    if mirror_axes(mesh, moduli) == (0, 1):
        basis = mesh.classes.q
        solver = PinnedSolver(class_stiffness(mesh, elem, moduli), basis)
        f = class_loads(mesh, elem, moduli)
    else:
        basis, o = mesh.torus_basis, mesh.order
        solver = PinnedSolver([assemble_k0(mesh, elem, moduli)[o][:, o]],
                              basis)
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
