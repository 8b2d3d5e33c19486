"""Uniform n-by-n grid on the unit cell with periodic dof bookkeeping.

The mesh also owns the orders in which every sparse factor of the package
eliminates the reduced dofs (fem.symmetric_lu factors in the order it is
given).  They are geometric nested-dissection orders (George 1973, SIAM
J. Numer. Anal. 10:345): each eliminates the blocks of the grid first and
the lines that separate them last.  On the periodic n x n grid, a torus,
the order cuts columns 0 and n/2, which leaves two strips, cuts rows 0
and n/2 of each strip, which leaves four blocks, and orders each block by
dissection.  The real pencils of a mirror line (bloch.mirror_basis)
couple a node with its mirror image, so for each mirror axis the mesh
also holds the order of the mirror quotient, half the torus: a grid of
n/2 + 1 lines along the axis, periodic across it, cut at rows 0 and n/2
across it, with every node next to its mirror image.

Whether a cell is mirror-symmetric is asked of its element fields, in
one place (mirror_axes): the moduli, and the stress weights of a loaded
cell, must map to themselves under the mirror.  A cell whose moduli are
mirror-symmetric about both axes, as every design of the optimizer is,
has a periodic stiffness that commutes with the two mirrors Mx and My of
the reduced dofs (mirror_map: coordinate c -> (n - c) mod n along the
axis, that displacement component negated).
The stiffness then block-diagonalizes into the four parity classes
(sx, sy) of the two mirrors, Mx v = sx v and My v = sy v (the symmetry
reduction of Healey 1988, CMAME 67:257).  Mesh.classes holds the
orthogonal basis Q of that split (ClassBasis): the orbit of a dof under
{1, Mx, My, MxMy} gives one unit column to each class its stabilizer
allows, so every class lives on the (n/2 + 1)^2 quarter grid of orbit
representatives.  That grid is planar, so each class is ordered by plain
dissection, without the wrap separators of the torus order.  The
columns of reduced node 0, fem.PINS, are those two dofs themselves: x in
class (-, +) with the x translation, y in (+, -) with the y translation.
The correctors of the normal macro strains lie in (+, +), that of the
shear strain in (-, -).  So the columns come in two pairs of classes:
first the corrector pair (+, +) and (-, -), then the translation pair
(+, -) and (-, +), which holds the pins.  The basis depends on n alone
and is built once per n.
"""

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError

# relative bound, in the 2-norm, on |M a - a| for an element field a and
# its image M a under an axis mirror, under which a counts as
# mirror-symmetric (mirror_axes).  A path that relies on the symmetry,
# the class basis of homogenize or a real mirror-line pencil of bloch,
# drops the asymmetric part, a perturbation of that relative size: three
# orders below the ARPACK tolerance of 1e-9.  A mirror-symmetric design
# misses exact symmetry only by roundoff: by 4e-16 for the moduli of an
# optimizer iterate at n = 64 (the density filter's), and on the
# committed designs by 0 for their moduli and 5.5e-15 to 1.0e-14 for
# their stress weights under the uniaxial load.
MIRROR_TOL = 1e-12
# the parity classes (sx, sy) of the two axis mirrors, in the order of
# ClassBasis's columns: the corrector pair, then the translation pair
CLASSES = ((1, 1), (-1, -1), (1, -1), (-1, 1))


def mirror_axes(mesh, moduli, stresses=None):
    """The axes (0: x -> 1 - x, 1: y -> 1 - y) about which the element
    fields map to themselves within MIRROR_TOL: the moduli (ne,) and, when
    given, the stress weights (ne, 3), whose normal components are even
    under a mirror and whose shear component is odd.  Both operators of a
    loaded cell, its stiffness and its geometric stiffness, then commute
    with the mirror."""
    fields = [(moduli.reshape(mesh.n, mesh.n, 1), 1.0)]  # [row, column, :]
    if stresses is not None:            # xx and yy even, xy odd
        fields.append((stresses.reshape(mesh.n, mesh.n, 3), (1, 1, -1)))
    return tuple(axis for axis in (0, 1) if all(
        np.linalg.norm(parity * np.flip(a, 1 - axis) - a)
        <= MIRROR_TOL * np.linalg.norm(a) for a, parity in fields))


@dataclass(frozen=True)
class ClassBasis:
    """The orthogonal basis Q of the two-mirror classes of the reduced
    dofs (module doc), its columns class by class in CLASSES order and
    each class in the dissection order of the quarter grid.  Shared by
    every mesh of its n: its arrays are read-only."""
    q: sp.csr_matrix         # (ndof, ndof) orthogonal, <= 4 entries a row
    col: np.ndarray          # (4, ndof) the column of each dof's orbit in
                             # each class, -1 where the orbit has none
    coef: np.ndarray         # (4, ndof) Q[dof, col], 0 where none
    split: int               # columns of the corrector pair, the first


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
    mirror_orders: tuple     # per mirror axis, (ndof,) reduced dofs in the
                             # order of its mirror quotient

    @cached_property
    def classes(self):
        """The two-mirror class basis (ClassBasis) of n, shared by every
        mesh of that n."""
        return class_basis(self.n)

    @cached_property
    def torus_basis(self):
        """The permutation that puts the reduced dofs in the torus order,
        as a basis (order_basis), built on first use."""
        return order_basis(self.order)

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


@cache
def mirror_order(n, axis):
    """The reduced node ids of the periodic n x n grid in the
    nested-dissection order of its quotient by the mirror about axis
    (coordinate c -> (n - c) mod n along it), each node followed by its
    image.  The quotient keeps the lines c = 0 ... n/2 along the axis and
    is periodic across it, so it is cut at rows 0 and n/2 across it.
    Built once per n and axis, read-only."""
    ids = np.arange(n * n).reshape(n, n)
    if axis == 1:
        ids = ids.T                             # [other coordinate, c]
    h = n // 2
    c = np.arange(h + 1)
    pairs = np.stack([ids[:, c], ids[:, (n - c) % n]], axis=-1)
    q = np.arange(n * (h + 1)).reshape(n, h + 1)
    order = np.concatenate([dissection(q[1:h]), dissection(q[h + 1:]),
                            q[[0, h]].ravel()])
    seq = pairs.reshape(-1, 2)[order]
    keep = np.ones(seq.shape, dtype=bool)
    keep[:, 1] = seq[:, 1] != seq[:, 0]         # c = 0, n/2: its own image
    nodes = seq[keep]
    nodes.flags.writeable = False
    return nodes


def mirror_map(n, axis):
    """(image, c) for every node of the periodic n x n grid numbered row by
    row: c is its coordinate along axis and image the node the mirror about
    axis maps it to, coordinate (n - c) mod n."""
    node = np.arange(n * n)
    c = (node % n, node // n)[axis]
    stride = 1 if axis == 0 else n
    return node + ((n - c) % n - c) * stride, c


def order_basis(order):
    """The permutation matrix P whose column j is the unit vector of dof
    order[j], so that P^T A P = A[order][:, order]."""
    size = len(order)
    return sp.csr_matrix((np.ones(size), (order, np.arange(size))),
                         shape=(size, size))


@cache
def class_basis(n):
    """The two-mirror class basis of the reduced dofs of the n x n grid
    (module doc), built once per n.

    In class (sx, sy) a mirror acts on a dof by the factor t: the class
    sign of that mirror, negated when the mirror flips the dof's
    component.  A dof has a column in the class when t = +1 for every
    mirror that fixes its node (coordinate 0 or n/2 along the axis).
    Each dof reaches its orbit's representative in the quarter grid by
    the mirrors g; its entry in that column is the product of the t of
    the mirrors in g over sqrt(orbit size)."""
    h, ndof = n // 2, 2 * n * n
    image_x, cx = mirror_map(n, 0)
    image_y, cy = mirror_map(n, 1)
    rep = np.where(cx > h, image_x, np.arange(n * n))
    rep = np.where(cy > h, image_y[rep], rep)
    rep_dof = node_dofs(rep)
    gx, gy = (cx > h).repeat(2), (cy > h).repeat(2)
    fx, fy = (cx % h == 0).repeat(2), (cy % h == 0).repeat(2)
    size = np.where(fx, 1, 2) * np.where(fy, 1, 2)
    comp = np.arange(ndof) % 2

    quarter = dissection(np.arange((h + 1) ** 2).reshape(h + 1, h + 1))
    quarter_dofs = node_dofs((quarter // (h + 1)) * n + quarter % (h + 1))
    col = np.full((4, ndof), -1, dtype=np.int32)
    coef = np.zeros((4, ndof))
    start = 0
    for i, (sx, sy) in enumerate(CLASSES):
        tx = np.where(comp == 0, -sx, sx)
        ty = np.where(comp == 1, -sy, sy)
        live = (~fx | (tx == 1)) & (~fy | (ty == 1))
        cols = quarter_dofs[live[quarter_dofs]]
        ids = np.full(ndof, -1)
        ids[cols] = start + np.arange(cols.size)
        start += cols.size
        col[i] = np.where(live, ids[rep_dof], -1)
        sign = np.where(gx, tx, 1) * np.where(gy, ty, 1)
        coef[i] = np.where(live, sign / np.sqrt(size), 0.0)
    live = col >= 0
    q = sp.csr_matrix((coef[live], (np.nonzero(live)[1], col[live])),
                      shape=(ndof, ndof))
    for a in (q.data, q.indices, q.indptr, col, coef):
        a.flags.writeable = False
    return ClassBasis(q=q, col=col, coef=coef, split=int(col[1].max()) + 1)


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
        mirror_orders=tuple(node_dofs(mirror_order(n, a)) for a in (0, 1)),
    )
