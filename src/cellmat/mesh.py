"""Uniform n-by-n grid on the unit cell with periodic dof bookkeeping.

The mesh also owns the orders in which every sparse factor of the package
eliminates the reduced dofs (fem.symmetric_lu factors in the order it is
given).  They are geometric nested-dissection orders (George 1973, SIAM
J. Numer. Anal. 10:345): each eliminates the blocks of the grid first and
the lines that separate them last.  The periodic stiffness and every
Bloch pencil enter their factor through one basis of the reduced dofs,
whose columns carry the order: the torus permutation (Mesh.order, or
Mesh.torus_basis at k = 0) or the class basis (class_basis,
Mesh.classes).  On the periodic n x n grid, a torus, the order cuts
columns 0 and n/2, which leaves two strips, cuts rows 0 and n/2 of each
strip, which leaves four blocks, and orders each block by dissection.

Whether a cell is mirror-symmetric is asked of its element fields, in
one place (mirror_axes): the moduli, and the stress weights of a loaded
cell, must map to themselves under the mirror.  The operators of a cell
mirror-symmetric about both axes, as every design of the optimizer is,
commute with the two mirrors of the node set (mirror_map: coordinate
c -> (n - c) mod n along the axis, that displacement component negated),
and the class basis Q(k) splits them by both: the symmetry reduction of
Healey 1988 (CMAME 67:257), the one symmetry basis of the package.

At k = 0, for the periodic stiffness and the pinned Bloch pencil, Q is
real with orthonormal columns.  The stiffness block-diagonalizes into
the four parity classes (sx, sy) of the mirrors Mx and My, Mx v = sx v
and My v = sy v: the orbit of a dof under {1, Mx, My, MxMy} gives one unit
column to each class its stabilizer allows, so every class lives on the
(n/2 + 1)^2 quarter grid of orbit representatives.  That grid is planar,
so each class is ordered by plain dissection, without the wrap
separators of the torus order.  The two dofs of reduced node 0, PINS,
are an orbit of their own, x in class (-, +) with the x translation, y
in (+, -) with the y translation, and Q has no column for them: it is
ndof x (ndof - 2), empty in their rows, so Q^T K Q is the stiffness
pinned at node 0, which removes the two translations, nonsingular with
no row of its own for a pin.  So is the torus basis at k = 0
(Mesh.torus_basis).  The correctors of the normal macro strains lie in
(+, +), that of the shear strain in (-, -).  So the columns come in two
pairs of classes: first the corrector pair (+, +) and (-, -), then the
translation pair (+, -) and (-, +), which the pins would take.

A Bloch pencil at k (cellmat.bloch) sees the mirror about axis a through
its reduced image R_k, which maps the line c = 0 to itself with the
phase exp(i k[a]).  The mirror is linear, M T(k) = T(k) R_k, when k[a] is
0 or +-pi, a phase of +-1: it splits the columns into its parity
classes as at k = 0, the phase entering the test of the dofs that are
their own image.  It is antiunitary, M T(k) = conj(T(k)) R_k, when the
other component is 0 or +-pi: conj o R_k commutes with the pencil, and
Q(k) takes the class vectors a and a' of a quarter-grid dof and of its
image, R_k a = f a', to the two columns (a + conj(f) a') / sqrt(2) and
i (a - conj(f) a') / sqrt(2), side by side, which it fixes; a dof that
is its own image gets exp(i arg(conj f) / 2) a.  So the pencil in Q(k)
is real and block diagonal by the classes of the linear mirrors: four at
the corners (0, 0), (pi, 0), (pi, pi) and (0, pi) of the quarter zone,
where both mirrors are linear, and two on its edges.

Those blocks are assembled from the quarter cell, without the operator
and without T(k) (ClassBasis.assemble).  For even n no element lies on a
mirror line, so every element orbit has four members; the image of an
element under a linear mirror gives a class column the same share of
the energy as the element, under an antiunitary one its complex
conjugate.  So the entry of Q(k)^H K(k) Q(k) at the class columns
(a, i) and (b, j), i and j dofs of the quarter grid, is

    K_q[i, j] Re(conj(coef[a, i]) coef[b, j]),

where the quarter operator K_q (Quarter.matrix) sums the element
matrices of the quarter cell 0 <= x, y < 1/2, no wrap and so no phase,
each with its field summed over its orbit (orbit_sum: the moduli, or the
stress weights with the shear component odd), on the (n/2 + 1)^2 quarter
grid.  k enters only through the coefficients.  Each set of linear
phases builds its pattern once, with per entry the entry of K_q and the
class and quarter dof of its row (ClassAssembly), 0.6 MB in uint16 at
n = 64; k = 0, which homogenize assembles every design iteration, keeps
the row index and scale of each entry too (1.6 MB).  An assembly is
then a few gathers, 2.6 to 3.5 ms for both operators of a Bloch pencil
on the 64 x 64 c2, where the fold with T(k) Q(k) takes 42 to 53 ms.
Products that are exactly zero are left out: at a corner each class is
its own block; on an edge the two classes of the antiunitary mirror
share one, and a product between them is real only between a dof on that
mirror's line c = 0, where the phase of class_basis enters, and one off
it.  At k = 0 the assembly gives the pinned periodic stiffness of
homogenize.

The Bloch cut of cellmat.bloch condenses an operator of the full node
set, (n + 1)^2 nodes, onto the dofs of the cell boundary, the cut
(cell_cut, with the master of each).  Its mirrors map the full-node
coordinate c to n - c: only the line c = n/2 is fixed, and the edges
c = 0 and c = n, which the torus identifies, are one another's images.
The same parity and orbit rules (_parities) and the same column
numbering (_columns) give the class basis of the full node set
(cell_basis), a ClassBasis, square and orthogonal, its representatives
again on the quarter grid.  Each class takes its interior dofs first, in
the dissection order of the interior of the quarter grid, and its 2n
dofs on the cut, its last 2n columns, so that each class block is
factored with its cut last.  Both mirrors are linear and there is no
phase, so the class assembly of an operator from its quarter operator
(ClassBasis.assemble), its pattern kept whole as at k = 0, has one block
per class, which diagonal_blocks splits apart (3.2 MB of basis and
structure at n = 64).  The cut map of a wavevector (cut_map) takes the
class basis of the reduced cut, the cut rows of class_basis(n, k), to
the cut columns of cell_basis through T(k).  Each of its columns meets
one column of each class of its block, with a coefficient in which k
enters only through the Bloch phases, so its structure is built once
per n and set of linear phases (CutMap, 0.4 MB for the eight sets of the
path at n = 64).
"""

from dataclasses import dataclass, replace
from functools import cache, cached_property

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError

# relative bound, in the 2-norm, on |M a - a| for an element field a and
# its image M a under an axis mirror, under which a counts as
# mirror-symmetric (mirror_axes).  A path that relies on the symmetry,
# the class basis of homogenize and of the band pencils of bloch, drops
# the asymmetric part, a perturbation of that relative size: three
# orders below the ARPACK tolerance of 1e-9.  A mirror-symmetric design
# misses exact symmetry only by roundoff: by 4e-16 for the moduli of an
# optimizer iterate at n = 64 (the density filter's), and on the
# committed designs by 0 for their moduli and 5.5e-15 to 1.0e-14 for
# their stress weights under the uniaxial load.
MIRROR_TOL = 1e-12
# the parity of the components xx, yy and xy of a stress field under an
# axis mirror: the normal ones are even, the shear one is odd
STRESS_PARITY = (1, 1, -1)
# the parity classes (sx, sy) of the two axis mirrors, in the order of
# the columns of the class basis at k = 0: the corrector pair, then the
# translation pair
CLASSES = ((1, 1), (-1, -1), (1, -1), (-1, 1))
# the two dofs of reduced node 0, which the bases at k = 0 leave out
PINS = [0, 1]


def mirror_axes(mesh, moduli, stresses=None):
    """The axes (0: x -> 1 - x, 1: y -> 1 - y) about which the element
    fields map to themselves within MIRROR_TOL: the moduli (ne,) and, when
    given, the stress weights (ne, 3), whose normal components are even
    under a mirror and whose shear component is odd.  Both operators of a
    loaded cell, its stiffness and its geometric stiffness, then commute
    with the mirror."""
    fields = [(moduli.reshape(mesh.n, mesh.n, 1), 1.0)]  # [row, column, :]
    if stresses is not None:
        fields.append((stresses.reshape(mesh.n, mesh.n, 3), STRESS_PARITY))
    return tuple(axis for axis in (0, 1) if all(
        np.linalg.norm(parity * np.flip(a, 1 - axis) - a)
        <= MIRROR_TOL * np.linalg.norm(a) for a, parity in fields))


def orbit_sum(n, a, parity=1):
    """The element field a, (ne,) or (ne, c), summed over the orbit of
    each quarter-cell element 0 <= x, y < 1/2 under the two axis mirrors,
    each image times parity once per mirror that makes it (STRESS_PARITY
    for a stress field): (ne / 4, ...), the quarter-cell elements row by
    row.  It is four times a mirror-symmetric field and drops the
    roundoff asymmetry of a filtered one."""
    h = n // 2
    e = a.reshape(n, n, -1)             # [row, column, :]
    p = np.asarray(parity)
    return (e + p * e[:, ::-1] + p * e[::-1] + e[::-1, ::-1])[:h, :h] \
        .reshape(h * h, *a.shape[1:])


def orbit_mean(n, a, parity=1):
    """The element field a, (ne,) or (ne, c), made mirror-symmetric about
    both axes: each element takes the mean over its orbit (orbit_sum / 4),
    times parity once per mirror that makes it from the quarter cell."""
    q = (orbit_sum(n, a, parity) / 4.0).reshape(n // 2, n // 2, -1)
    top = np.hstack([q, np.multiply(parity, q[:, ::-1])])   # rows are y
    return np.vstack([top, np.multiply(parity, top[::-1])]).reshape(a.shape)


def real_phase(k):
    """Per component of k: is it 0 or +-pi, where the Bloch phase is +-1?"""
    return (k == 0.0) | (np.abs(np.abs(k) - np.pi) < 1e-12)


@dataclass(frozen=True)
class Quarter:
    """The quarter cell 0 <= x, y <= 1/2 of the n x n grid: its (n/2)^2
    elements, which need no wrap, and its (n/2 + 1)^2 nodes, the orbit
    representatives of the class basis, in the dissection order of the
    grid they form.  A quarter operator K_q (matrix) sums the element
    matrices of the quarter cell on those nodes, as the data of one
    CSC pattern, row and col.  Read-only arrays."""
    dofs: np.ndarray         # (nq,) the reduced dof of each quarter dof
    edofs: np.ndarray        # (ne / 4, 8) quarter dofs of each element
    slot: np.ndarray         # (ne / 4, 64) the entry of K_q that each
                             # term [i, j] of an element matrix sums into
    row: np.ndarray          # (nnz,) the quarter dofs of the row and the
    col: np.ndarray          # column of each entry of K_q

    def matrix(self, ke):
        """The data of K_q for the element matrices ke (ne / 4, 8, 8) of
        the quarter-cell elements, row by row."""
        return np.bincount(self.slot.ravel(), weights=ke.ravel(),
                           minlength=self.row.size)


@dataclass(frozen=True)
class ClassAssembly:
    """Q^H K Q, real, from a quarter operator K_q (module doc) for every k
    of one set of linear phases, or for the full node set: its CSC
    pattern, and per entry the entry of K_q it takes and its row (a, i),
    class a and quarter dof i, as a * nq + i, each in the smallest
    unsigned type that holds it.  Read-only arrays."""
    quarter: Quarter
    dofs: np.ndarray         # (nq,) the dof of the node set of each quarter
                             # dof: Quarter.dofs for the reduced dofs
    indptr: np.ndarray       # (size + 1,) int32, size columns of Q
    take: np.ndarray         # (nnz,) into the data of K_q, uint16 to n = 84
    row: np.ndarray          # (nnz,) uint16 up to n = 178
    # (indices, scale) of ClassBasis.pattern, kept at k = 0, where
    # homogenize assembles the stiffness every design iteration, and for
    # the full node set, which the cut screen assembles at every floor
    fixed: tuple = None


@dataclass(frozen=True)
class ClassBasis:
    """The class basis Q of a node set (module doc), its orthonormal
    columns class by class and each class in the order of its
    representatives: Q(k) of the reduced dofs (class_basis), unitary, or
    at k = 0 real and less the columns of the pins, each class in the
    dissection order of the quarter grid; or the square, orthogonal basis
    of the full node set (cell_basis), each class its cut last.

    col, bounds and assembly are built once per n, and for the reduced
    dofs once per set of linear phases, and shared by every mesh of that
    n and every k of those phases: read-only.  So are q and coef where
    both mirrors are linear, and for the full node set.  Where a mirror
    is antiunitary, class_basis builds q and coef anew for each call,
    their rows on its line c = 0 times the phase of k: writeable."""
    q: sp.csr_matrix         # (ndof, size) orthonormal columns, <= 4
                             # entries a row; size is ndof - 2 at k = 0
    col: np.ndarray          # (4, ndof) the column of each dof's orbit in
                             # each of CLASSES, -1 where the orbit has none
                             # and at the pins at k = 0
    coef: np.ndarray         # (4, ndof) Q[dof, col], 0 where none
    bounds: tuple            # class c spans columns bounds[c]:bounds[c + 1]
    assembly: ClassAssembly  # shared by every k of its phases

    @property
    def split(self):
        """The columns of the corrector pair at k = 0, the first."""
        return self.bounds[2]

    def assemble(self, *data):
        """The real CSC Q^H K Q for the data of each quarter operator K_q
        (Quarter.matrix) of a cell mirror-symmetric about both axes: the
        entry of class columns (a, i) and (b, j), i and j quarter dofs, is
        K_q[i, j] Re(conj(coef[a, i]) coef[b, j]) (module doc)."""
        s, size = self.assembly, self.q.shape[1]
        indices, scale = s.fixed or self.pattern()
        return [sp.csc_matrix((d.take(s.take) * scale, indices, s.indptr),
                              shape=(size, size)) for d in data]

    def pattern(self):
        """The row index and Re(conj(coef[a, i]) coef[b, j]) of each entry
        of the assembly.  The row (a, i) of an entry is read from tables
        of the quarter dofs, the coefficient of a column is that of its
        own (b, j)."""
        s = self.assembly
        col, coef = self.col[:, s.dofs], self.coef[:, s.dofs]
        column = np.zeros(self.q.shape[1], dtype=coef.dtype)
        column[col[col >= 0]] = coef[col >= 0]
        scale = coef.take(s.row).conj() * np.repeat(column, np.diff(s.indptr))
        return col.take(s.row), scale.real


@dataclass(frozen=True)
class CutMap:
    """G(k) = Q_B^T T_B(k) Q(k) of the Bloch cut (module doc) for every k
    of one set of linear phases: Q_B the cut columns of cell_basis, T_B(k)
    the cut rows and columns of T(k), and Q(k) the columns and cut rows of
    class_basis(n, k) that live on the cut.  G(k) takes each column of Q
    to at most one column of each class of cell_basis, a slot, so that a
    block of Q^H S(k) Q is the sum over the classes c of its slots of
    Re(conj(g_i) g_j) H_c[rows_i, rows_j].  k enters only through the
    coefficients g of the slots (coefficients).  Read-only arrays."""
    blocks: tuple            # per block of Q(k): (c, start, stop) per class
                             # c it meets, the slots of its columns in c
    rows: np.ndarray         # (slots,) the cut row of H_c of each slot,
                             # 0 for one that no term reaches (g = 0)
    slot: np.ndarray         # (terms,) the slot each term adds to
    base: np.ndarray         # (terms,) its coefficient less the phase of
                             # the antiunitary mirror
    axis: int | None         # the antiunitary mirror's, None at a corner
    wrap: np.ndarray         # (terms,) that phase is exp(i k[axis] wrap)

    def coefficients(self, k):
        """g of every slot at k as the rows of its real part and, on an
        edge, its imaginary part: Re(conj(g_i) g_j) is the sum over the
        rows of g_i g_j."""
        if self.axis is None:
            return np.bincount(self.slot, self.base, self.rows.size)[None]
        w = self.base * np.exp(1j * k[self.axis] * self.wrap)
        return np.stack([np.bincount(self.slot, w.real, self.rows.size),
                         np.bincount(self.slot, w.imag, self.rows.size)])


@dataclass
class Mesh:
    n: int
    h: float                 # element side
    volume_e: float          # element area (cell area is 1)
    conn: np.ndarray         # (ne, 4) full node ids, corners BL, BR, TR, TL
    master: np.ndarray       # (nn_full,) full node id -> periodic master id
    edofs_full: np.ndarray   # (ne, 8) dof ids in the full numbering
    edofs: np.ndarray        # (ne, 8) dof ids in the reduced numbering
    node_order: np.ndarray   # (nn,) reduced nodes in the torus order
    order: np.ndarray        # (ndof,) reduced dofs in the torus order

    @cached_property
    def classes(self):
        """The class basis (ClassBasis) of n at k = 0, shared by every
        mesh of that n."""
        return class_basis(self.n)

    @cached_property
    def torus_basis(self):
        """The torus order less PINS, as a basis (order_basis): the basis
        at k = 0 of a cell off the class basis, built on first use."""
        return order_basis(self.order[~np.isin(self.order, PINS)], self.ndof)

    @property
    def ne(self):
        return self.n * self.n

    @property
    def nn_full(self):
        return (self.n + 1) ** 2

    @property
    def nn(self):
        return self.n * self.n

    @property
    def ndof_full(self):
        return 2 * self.nn_full

    @property
    def ndof(self):
        return 2 * self.nn


def dissection(ids):
    """The node ids of a grid block in nested-dissection order: the two
    halves on either side of the middle line across its longer side, each
    ordered so in turn, then that line."""
    if max(ids.shape) < 3:
        return ids.ravel()
    if ids.shape[1] < ids.shape[0]:
        ids = ids.T
    m = ids.shape[1] // 2
    return np.concatenate([dissection(ids[:, :m]),
                           dissection(ids[:, m + 1:]), ids[:, m]])


def node_dofs(nodes):
    """The two dofs of each node, node by node along the last axis: (nn,)
    node ids give (2 nn,) dofs, (ne, 4) element nodes (ne, 8) dofs."""
    return (2 * nodes[..., None] + np.arange(2)).reshape(
        *nodes.shape[:-1], -1)


@cache
def torus_order(n):
    """The reduced node ids of the periodic n x n grid in nested-dissection
    order: the four blocks left by cutting columns 0 and n/2 and then rows
    0 and n/2 of each strip between them, each by dissection, then the
    rows cut, then the columns.  Built once per n, read-only."""
    ids = np.arange(n * n).reshape(n, n)        # [row, column]
    h = n // 2
    strips = (ids[:, 1:h], ids[:, h + 1:])
    blocks = [b for s in strips for b in (s[1:h], s[h + 1:])]
    order = np.concatenate([dissection(b) for b in blocks]
                           + [s[[0, h]].ravel() for s in strips]
                           + [ids[:, [0, h]].ravel()])
    order.flags.writeable = False
    return order


def mirror_map(n, axis):
    """(image, c) for every node of the periodic n x n grid numbered row by
    row: c is its coordinate along axis and image the node the mirror about
    axis maps it to, coordinate (n - c) mod n."""
    node = np.arange(n * n)
    c = (node % n, node // n)[axis]
    stride = 1 if axis == 0 else n
    return node + ((n - c) % n - c) * stride, c


@cache
def quarter_cell(n):
    """The Quarter of the n x n grid, built once per n."""
    h = n // 2
    local = dissection(np.arange((h + 1) ** 2).reshape(h + 1, h + 1))
    bl = np.arange(h * (h + 1)).reshape(h, h + 1)[:, :h].ravel()
    edofs = node_dofs(np.argsort(local)[np.stack(
        [bl, bl + 1, bl + h + 2, bl + h + 1], axis=1)])
    # term [e, i, j] of an element matrix: row edofs[e, i], column
    # edofs[e, j]; CSC order sorts by column, then row
    size = 2 * local.size
    pattern, slot = np.unique(edofs[:, None, :] * size + edofs[:, :, None],
                              return_inverse=True)
    out = Quarter(dofs=node_dofs((local // (h + 1)) * n + local % (h + 1)),
                  edofs=edofs, slot=slot.reshape(h * h, 64).astype(np.int32),
                  row=(pattern % size).astype(np.int32),
                  col=(pattern // size).astype(np.int32))
    for a in (out.dofs, out.edofs, out.slot, out.row, out.col):
        a.flags.writeable = False
    return out


def order_basis(order, ndof):
    """The ndof x len(order) matrix P whose column j is the unit vector of
    dof order[j], so that P^T A P = A[order][:, order]."""
    size = len(order)
    return sp.csr_matrix((np.ones(size), (order, np.arange(size))),
                         shape=(ndof, size))


def diagonal_blocks(a, bounds):
    """The diagonal blocks a[lo:hi, lo:hi], CSC, of the CSC a between each
    two consecutive bounds, for an a with no entry outside them, as a
    class assembly (ClassBasis.assemble) has none outside its blocks."""
    out = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        x, y = a.indptr[lo], a.indptr[hi]
        out.append(sp.csc_matrix(
            (a.data[x:y], a.indices[x:y] - lo, a.indptr[lo:hi + 1] - x),
            shape=(hi - lo, hi - lo)))
    return out


def class_basis(n, k=(0.0, 0.0)):
    """The class basis Q(k) of the reduced dofs of the n x n grid at a
    wavevector k with a component 0 or +-pi (module doc).  Its structure
    is built once per n and set of linear phases (_class_basis).  Where
    the mirror about axis a is antiunitary, k enters only as the factor
    exp(-i k[a] / 2) of the rows on its line c = 0, which are their own
    image: exp(i arg(conj f) / 2) of the module doc, up to sign and the
    factor i that the structure carries."""
    k = np.asarray(k, dtype=float)
    real = real_phase(k)
    basis = _class_basis(n, *_linear_phases(k))
    if real.all():
        return basis
    axis = int(np.argmin(real))
    d = np.where(mirror_map(n, axis)[1].repeat(2) == 0,
                 np.exp(-0.5j * k[axis]), 1.0)
    return replace(basis, q=(sp.diags(d) @ basis.q).tocsr(),
                   coef=basis.coef * d)


def _linear_phases(k):
    """(px, py): the phase +-1 of each component of k that is 0 or +-pi,
    None for the other, or a ConfigError when neither is."""
    k = np.asarray(k, dtype=float)
    real = real_phase(k)
    if not real.any():
        raise ConfigError(f"no axis mirror acts linearly at k = {k}")
    return tuple(int(np.rint(np.cos(c))) if r else None
                 for c, r in zip(k, real))


def _parities(fixed, moved, phase=(1, 1), free=True, anti=None):
    """(live, coef), each (4, ndof), of the dofs of a node set in each of
    CLASSES, from three per-node facts along each axis: is the node fixed
    by the mirror about it (fixed), does that mirror take it towards its
    orbit's representative in the quarter grid (moved), and the phase of
    the mirror there (phase, +-1).  free drops dofs from every class;
    anti names the antiunitary mirror, None for none.

    In class (sx, sy) a mirror acts on a dof by the factor t: the class
    sign of that mirror, negated when the mirror flips the dof's
    component.  A dof has a column in the class (live) when t times the
    phase is +1 for every mirror that fixes its node.  Its entry in that
    column (coef) is the product of the t of the mirrors that move it
    over sqrt(orbit size), times i in a class of sign -1 under the
    antiunitary mirror."""
    fx, fy = (np.repeat(f, 2) for f in fixed)
    gx, gy = (np.repeat(g, 2) for g in moved)
    phx, phy = (np.repeat(p, 2) if np.ndim(p) else p for p in phase)
    size = np.where(fx, 1, 2) * np.where(fy, 1, 2)
    comp = np.arange(fx.size) % 2
    live = np.empty((4, fx.size), dtype=bool)
    coef = np.zeros((4, fx.size), dtype=float if anti is None else complex)
    for i, (sx, sy) in enumerate(CLASSES):
        tx = np.where(comp == 0, -sx, sx)
        ty = np.where(comp == 1, -sy, sy)
        live[i] = free & (~fx | (tx * phx == 1)) & (~fy | (ty * phy == 1))
        sign = np.where(gx, tx, 1) * np.where(gy, ty, 1)
        unit = 1j if anti is not None and (sx, sy)[anti] == -1 else 1
        coef[i] = np.where(live[i], sign / np.sqrt(size), 0.0) * unit
    return live, coef


def _antiunitary(px, py):
    """The axis of the antiunitary mirror at the phases px and py, None
    where both are linear."""
    return (px, py).index(None) if None in (px, py) else None


def _groups(anti):
    """The block of each of CLASSES: itself where both mirrors are linear,
    else its sign under the linear mirror, 0 for +1 and 1 for -1."""
    return np.array([i if anti is None else (1 - c[1 - anti]) // 2
                     for i, c in enumerate(CLASSES)])


def _columns(live, coef, reps, rep_dof, group):
    """(col, coef, bounds) of ClassBasis, read-only, for the classes live
    and coefficients coef (4, ndof) of the dofs of a node set
    (_parities), the dofs reps of its representatives, in their order,
    the representative's dof rep_dof of every dof, and the block group of
    each of CLASSES (_groups).  The columns are numbered by (block,
    position in reps, class), so each representative takes its own
    column, and a dof lives where its representative does."""
    cls, pos = np.nonzero(live[:, reps])
    order = np.lexsort((cls, pos, group[cls]))
    ids = np.full(live.shape, -1, dtype=np.int32)
    ids[cls[order], reps[pos[order]]] = np.arange(cls.size)
    col = ids[:, rep_dof]
    for x in (col, coef):
        x.flags.writeable = False
    return col, coef, (0, *np.cumsum(np.bincount(group[cls])).tolist())


@cache
def _class_columns(n, px, py):
    """(col, coef, bounds) of class_basis at the phases px and py, +-1, of
    the linear mirrors about x and y, None for the antiunitary one, at
    phase 1 on its line c = 0.

    The classes follow the parity rules of _parities: a node is fixed by
    a mirror at coordinate 0 or n/2 along its axis, and the phase is 1
    except on the line c = 0.  Each class of the linear mirrors takes its
    columns in the order of the quarter grid, the two of a quarter-grid
    dof under the antiunitary mirror side by side."""
    h, ndof = n // 2, 2 * n * n
    image_x, cx = mirror_map(n, 0)
    image_y, cy = mirror_map(n, 1)
    rep = np.where(cx > h, image_x, np.arange(n * n))
    rep = np.where(cy > h, image_y[rep], rep)
    anti = _antiunitary(px, py)
    # at k = 0 the two dofs of reduced node 0 get no column: the basis
    # carries the pin
    free = np.ones(ndof, dtype=bool)
    free[PINS] = (px, py) != (1, 1)
    live, coef = _parities((cx % h == 0, cy % h == 0), (cx > h, cy > h),
                           (np.where(cx == 0, px or 1, 1),
                            np.where(cy == 0, py or 1, 1)), free, anti)
    return _columns(live, coef, quarter_cell(n).dofs, node_dofs(rep),
                    _groups(anti))


@cache
def _class_basis(n, px, py):
    """class_basis at the phases of _class_columns."""
    return _assembled(n, _class_columns(n, px, py), quarter_cell(n).dofs,
                      _antiunitary(px, py), (px, py) == (1, 1))


def _assembled(n, columns, dofs, anti, fixed):
    """The read-only ClassBasis of the columns (col, coef, bounds) of a
    node set of the n x n cell (_columns), with the class assembly from
    its quarter operators, quarter dof i being dof dofs[i] of the node
    set.  anti names the antiunitary mirror, None for none; fixed keeps
    the pattern (ClassAssembly.fixed)."""
    col, coef, bounds = columns
    live, size = col >= 0, bounds[-1]
    q = sp.csr_matrix((coef[live], (np.nonzero(live)[1], col[live])),
                      shape=(col.shape[1], size))
    group = _groups(anti)
    quarter = quarter_cell(n)

    # each entry of K_q whose dofs i and j have columns in two classes a
    # and b of one block gives an entry, unless conj(coef[a, i])
    # coef[b, j] is imaginary, one of the two holding the factor i, and
    # stays so under the phase of class_basis: unless exactly one of i and
    # j lies on the line c = 0 of the antiunitary mirror
    line = np.zeros(col.shape[1], dtype=bool)
    if anti is not None:
        line = (mirror_map(n, anti)[1] == 0).repeat(2)
    a, b = (x[:, None] for x in np.nonzero(group[:, None] == group))
    i, j = dofs[quarter.row], dofs[quarter.col]
    rows, cols = col[a, i], col[b, j]           # [class pair, entry]
    keep = (rows >= 0) & (cols >= 0) & (
        ((coef[a, i].conj() * coef[b, j]).real != 0) | (line[i] != line[j]))
    order = np.lexsort((rows[keep], cols[keep]))    # CSC: column, then row
    assembly = ClassAssembly(
        quarter=quarter, dofs=dofs,
        indptr=np.concatenate([[0], np.cumsum(np.bincount(
            cols[keep], minlength=size))]).astype(np.int32),
        take=(np.flatnonzero(keep) % i.size)[order].astype(
            np.min_scalar_type(i.size)),
        row=(a * dofs.size + quarter.row)[keep][order].astype(
            np.min_scalar_type(4 * dofs.size)))
    basis = ClassBasis(q=q, col=col, coef=coef, bounds=bounds,
                       assembly=assembly)
    if fixed:
        basis = replace(basis, assembly=replace(assembly,
                                                fixed=basis.pattern()))
    for x in (q.data, q.indices, q.indptr, dofs, assembly.indptr,
              assembly.take, assembly.row, *(basis.assembly.fixed or ())):
        x.flags.writeable = False
    return basis


@cache
def cell_basis(n):
    """The ClassBasis of the full node set of the n x n cell, built once
    per n: square and orthogonal, class by class in the order of CLASSES,
    each class its interior dofs first and its 2n dofs on the cell
    boundary, the cut, last.

    The mirror about an axis maps the full-node coordinate c to n - c, so
    only the line c = n/2 is fixed, at phase 1, and the cell's edges
    c = 0 and c = n are one another's images (_parities).  The
    representatives are the nodes of the quarter grid 0 <= c <= n/2, as
    in class_basis; each class takes those off the cell boundary, the
    interior of the quarter grid, in the dissection order of that
    (n/2) x (n/2) grid, and then those on it, row 0 and column 0.  Both
    mirrors are linear, so each class is a block of its own."""
    h, side = n // 2, n + 1
    node = np.arange(side * side)
    cx, cy = node % side, node // side
    rep = np.where(cx > h, node + n - 2 * cx, node)
    rep = np.where(cy > h, rep + (n - 2 * cy) * side, rep)
    live, coef = _parities((cx == h, cy == h), (cx > h, cy > h))
    grid = np.arange(h + 1)[:, None] * side + np.arange(h + 1)
    reps = node_dofs(np.concatenate([dissection(grid[1:, 1:]), grid[0],
                                     grid[1:, 0]]))
    reduced = quarter_cell(n).dofs
    dofs = 2 * (reduced // 2 // n * side + reduced // 2 % n) + reduced % 2
    return _assembled(n, _columns(live, coef, reps, node_dofs(rep),
                                  _groups(None)), dofs, None, True)


@cache
def cell_cut(n):
    """(cut, master) of the full node set of the n x n cell: its 8n dofs
    on the cell boundary, the Bloch cut, ascending, and the reduced dof,
    the master, of each.  Built once per n, read-only."""
    side = n + 1
    node = np.arange(side * side)
    cut = np.flatnonzero(np.repeat((node % side % n == 0)
                                   | (node // side % n == 0), 2))
    at = cut // 2
    master = 2 * ((at // side % n) * n + at % side % n) + cut % 2
    for x in (cut, master):
        x.flags.writeable = False
    return cut, master


def cut_map(n, k):
    """The CutMap of the n x n cell at a wavevector k with a component 0 or
    +-pi, built once per n and set of linear phases."""
    return _cut_map(n, *_linear_phases(k))


@cache
def _cut_map(n, px, py):
    """cut_map at the phases of _class_basis.  A term of a slot is a full
    cut dof f (cell_cut) of the cell_basis column of that slot, with
    master r in the class_basis column: coef[c, f] of cell_basis times
    coef[a, r] of class_basis times the phase of f in T(k), exp(i k.w)
    over the wraps w of its node, and, where the mirror about axis a is
    antiunitary and r lies on its line c = 0, the factor exp(-i k[a] / 2)
    of class_basis.  The phases of the linear mirrors are +-1 and go into
    base."""
    (col, coef, bounds), cell = _class_columns(n, px, py), cell_basis(n)
    anti = _antiunitary(px, py)
    group = _groups(anti)
    f, r = cell_cut(n)
    cx, cy = f // 2 % (n + 1), f // 2 // (n + 1)    # the coordinates of f
    phase = np.where(cx == n, px or 1, 1) * np.where(cy == n, py or 1, 1)
    wrap = np.zeros(f.size)
    if anti is not None:
        c = (cx, cy)[anti]
        wrap = (c == n) - 0.5 * (c % n == 0)

    blocks, rows, terms = [], [], []
    for g in range(len(bounds) - 1):
        mine = np.flatnonzero(group == g)
        cols = col[mine][:, r]
        cols = np.unique(cols[cols >= 0])     # the block's cut columns
        block = []
        for c in mine:
            start = sum(x.size for x in rows)
            row = np.zeros(cols.size, dtype=np.intp)
            for a in mine:
                alpha, p = col[a, r], cell.col[c, f]
                keep = (alpha >= 0) & (p >= 0)
                slot = np.searchsorted(cols, alpha[keep])
                row[slot] = p[keep] - (cell.bounds[c + 1] - 2 * n)
                terms.append((start + slot, cell.coef[c, f[keep]]
                              * coef[a, r[keep]] * phase[keep],
                              wrap[keep]))
            block.append((int(c), start, start + cols.size))
            rows.append(row)
        blocks.append(tuple(block))
    slot, base, wraps = (np.concatenate(x) for x in zip(*terms))
    out = CutMap(blocks=tuple(blocks), rows=np.concatenate(rows), slot=slot,
                 base=base, axis=anti, wrap=wraps)
    for x in (out.rows, out.slot, out.base, out.wrap):
        x.flags.writeable = False
    return out


def build_mesh(n):
    """Square n-by-n mesh of the unit cell.

    n must be an even integer of at least 4 so that the quarter-symmetry
    maps and the periodic identification are well posed on
    element-centered fields; a float or a bool is no mesh size.
    """
    if (isinstance(n, bool) or not isinstance(n, (int, np.integer))
            or n < 4 or n % 2 != 0):
        raise ConfigError("invalid mesh: n must be an even integer >= 4, "
                          f"got n={n!r}")
    h = 1.0 / n
    ex, ey = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    ex = ex.ravel()
    ey = ey.ravel()
    bl = ey * (n + 1) + ex
    conn = np.column_stack([bl, bl + 1, bl + n + 2, bl + n + 1])

    # right and top boundary nodes fold onto their left/bottom masters
    gx, gy = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="xy")
    master = (gy.ravel() % n) * n + (gx.ravel() % n)

    edofs_full = node_dofs(conn)
    edofs = node_dofs(master[conn])
    node_order = torus_order(n)
    return Mesh(
        n=n, h=h, volume_e=h * h, conn=conn, master=master,
        edofs_full=edofs_full, edofs=edofs, node_order=node_order,
        order=node_dofs(node_order),
    )
