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
torus order.  class_stiffness and class_loads assemble the stiffness and
the loads there directly from the quarter cell, through a scatter built
once per n (class_scatter).  The loads lie in the corrector pair of
classes, exactly, so the correctors never make the solver factor the
translation pair; only an adjoint load does.  Any other cell is factored
whole in the torus order, its stiffness assembled as always and moved
into that order by a gather built once per n (torus_gather).
"""

from dataclasses import dataclass
from functools import cache

import numpy as np
import scipy.sparse as sp

from .fem import PinnedSolver, assemble, assemble_k0, assemble_loads
from .mesh import CLASSES, build_mesh, class_basis, mirror_axes, node_dofs

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
class Scatter:
    """Where the terms of a class assembly go.  A term is the modulus of a
    quarter-cell element's orbit times a factor, a product of class
    coefficients and an entry of an element matrix, looked up in a table
    of every such product; it is summed into its slot of the output.
    Read-only arrays."""
    counts: np.ndarray       # (ne/4,) terms of each element; they come
                             # element by element
    factor: np.ndarray       # (terms,) index of each term's factor
    slot: np.ndarray         # (terms,) where it is summed

    def sum(self, orbit, table, size):
        terms = np.repeat(orbit, self.counts) * np.take(table, self.factor)
        return np.bincount(self.slot, weights=terms, minlength=size)


@dataclass(frozen=True)
class ClassScatter:
    """The class assembly of an n x n cell (class_scatter).  A stiffness
    term takes the class coefficients of an element's dofs i and j in a
    class and k0[i, j], and it is summed into the data of a fixed CSC
    pattern, which holds every entry with a term and no other.  A load
    term takes the class coefficient of dof j in the class of load a and
    f_unit[j, a], and it is summed into row (class column, a) of the
    (ndof, 3) loads."""
    coefs: np.ndarray        # the distinct class coefficients
    stiffness: Scatter       # factor (c_i * len(coefs) + c_j) * 64 + 8i + j
    loads: Scatter           # factor c_j * 24 + 3j + a
    indices: np.ndarray      # the CSC pattern of the class stiffness
    indptr: np.ndarray


@cache
def class_scatter(n):
    """The ClassScatter of the n x n cell, built once per n."""
    h, ndof = n // 2, 2 * n * n
    basis = class_basis(n)
    ey, ex = np.divmod(np.arange(h * h), h)
    bl = ey * n + ex                    # quarter-cell elements need no wrap
    dofs = node_dofs(np.stack([bl, bl + 1, bl + n + 1, bl + n], axis=1))
    col = basis.col[:, dofs].transpose(1, 0, 2)           # (h*h, 4, 8)
    coefs, code = np.unique(basis.coef[:, dofs].transpose(1, 0, 2),
                            return_inverse=True)
    code = code.reshape(col.shape)

    # every term, element by element, class by class, in k0's order
    shape = col.shape + (8,)
    rows = np.broadcast_to(col[..., :, None], shape)
    cols = np.broadcast_to(col[..., None, :], shape)
    live = (rows >= 0) & (cols >= 0)
    key = cols[live].astype(np.int64) * ndof + rows[live]
    # the pattern in CSC order and each term's slot in it, from one sort
    # of the keys with the term numbers in their low bits
    bits = key.size.bit_length()
    ranked = np.sort((key << bits) | np.arange(key.size))
    pattern = ranked >> bits
    first = np.concatenate([[True], pattern[1:] != pattern[:-1]])
    slot = np.empty(key.size, dtype=np.int32)
    slot[ranked & ((1 << bits) - 1)] = np.cumsum(first) - 1
    pattern = pattern[first]
    factor = (code[..., :, None] * coefs.size + code[..., None, :]) * 64 \
        + np.arange(64).reshape(8, 8)
    stiffness = Scatter(counts=live.sum(axis=(1, 2, 3)),
                        factor=factor[live].astype(np.uint16), slot=slot)

    # the load terms, element by element, load by load, dof by dof
    col, code = col[:, LOAD_CLASSES], code[:, LOAD_CLASSES]  # (h*h, 3, 8)
    live = col >= 0
    load = np.arange(3)[:, None]
    loads = Scatter(
        counts=live.sum(axis=(1, 2)),
        factor=(code * 24 + 3 * np.arange(8) + load)[live].astype(np.uint16),
        slot=(3 * col + load)[live].astype(np.int32))

    out = ClassScatter(
        coefs=coefs, stiffness=stiffness, loads=loads,
        indices=(pattern % ndof).astype(np.int32),
        indptr=np.searchsorted(pattern, np.arange(ndof + 1)
                               * ndof).astype(np.int32))
    for arr in (coefs, out.indices, out.indptr, *vars(stiffness).values(),
                *vars(loads).values()):
        arr.flags.writeable = False
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
    mirror-symmetric about both axes, assembled without K.

    For even n no element lies on a mirror line, so every element orbit
    has four members, and a class column, a unit class vector, takes the
    same share of the energy from each.  So each class block sums, over
    the elements of the quarter cell 0 <= x, y < 1/2, the modulus summed
    over the element's orbit times its k0, scaled on both sides by the
    coefficients of its dofs (all of them orbit representatives) and
    scattered to their class columns (class_scatter).  A dof without a
    column in a class has no term there.  The result is block diagonal
    with the corrector pair and the translation pair of classes as its
    blocks.  A sparse Q^T K Q costs several times as much.
    """
    sc = class_scatter(mesh.n)
    table = np.multiply.outer(np.multiply.outer(sc.coefs, sc.coefs),
                              elem.k0).ravel()
    data = sc.stiffness.sum(_orbit_moduli(mesh, moduli), table,
                            sc.indices.size)
    return sp.csc_matrix((data, sc.indices, sc.indptr),
                         shape=(mesh.ndof, mesh.ndof))


def class_loads(mesh, elem, moduli):
    """Q^T times the unit-macro-strain loads (fem.assemble_loads), (ndof,
    3), for the class basis Q = mesh.classes.q of a field that is
    mirror-symmetric about both axes, assembled from the quarter cell as
    class_stiffness is.  The load of a normal strain lies in class (+, +),
    that of the shear strain in (-, -) (LOAD_CLASSES); every other entry
    is exactly zero, so the loads never reach the translation pair."""
    sc = class_scatter(mesh.n)
    table = np.multiply.outer(sc.coefs, elem.f_unit).ravel()
    return sc.loads.sum(_orbit_moduli(mesh, moduli), table,
                        3 * mesh.ndof).reshape(mesh.ndof, 3)


@cache
def torus_gather(n):
    """(take, indices, indptr) for the n x n cell: a stiffness A assembled
    on the reduced dofs (fem.assemble_k0) has the CSC pattern indices,
    indptr and the data A.data[take] in the torus order, A[order][:, order].
    The pattern of A is fixed, since assembly keeps every entry it sums.
    Read-only arrays."""
    mesh = build_mesh(n)
    pattern = assemble(mesh.edofs, mesh.ndof, np.ones((mesh.ne, 8, 8)))
    place = np.empty(mesh.ndof, dtype=np.int64)
    place[mesh.order] = np.arange(mesh.ndof)
    cols = np.repeat(place, np.diff(pattern.indptr))
    key = cols * mesh.ndof + place[pattern.indices]
    take = np.argsort(key)
    indptr = np.searchsorted(key[take], np.arange(mesh.ndof + 1) * mesh.ndof)
    out = (take, (key[take] % mesh.ndof).astype(np.int32),
           indptr.astype(np.int32))
    for arr in out:
        arr.flags.writeable = False
    return out


def homogenize(mesh, elem, moduli):
    """Effective properties for an element modulus field (ne,)."""
    if mirror_axes(mesh, moduli) == (0, 1):
        basis = mesh.classes.q
        solver = PinnedSolver(class_stiffness(mesh, elem, moduli), basis,
                              mesh.classes.split)
        f = class_loads(mesh, elem, moduli)
    else:
        basis = mesh.torus_basis
        take, indices, indptr = torus_gather(mesh.n)
        k = sp.csc_matrix((assemble_k0(mesh, elem, moduli).data[take],
                           indices, indptr), shape=(mesh.ndof, mesh.ndof))
        solver = PinnedSolver(k, basis)
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
