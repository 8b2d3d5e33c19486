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
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


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


def torus_order(n):
    """The reduced node ids of the periodic n x n grid in nested-dissection
    order: the four blocks left by cutting columns 0 and n/2 and then rows
    0 and n/2 of each strip between them, each by dissection, then the
    rows cut, then the columns."""
    ids = np.arange(n * n).reshape(n, n)        # [row, column]
    h = n // 2
    strips = (ids[:, 1:h], ids[:, h + 1:])
    blocks = [b for s in strips for b in (s[1:h], s[h + 1:])]
    return np.concatenate([dissection(b) for b in blocks]
                          + [s[[0, h]].ravel() for s in strips]
                          + [ids[:, [0, h]].ravel()])


def mirror_order(n, axis):
    """The reduced node ids of the periodic n x n grid in the
    nested-dissection order of its quotient by the mirror about axis
    (coordinate c -> (n - c) mod n along it), each node followed by its
    image.  The quotient keeps the lines c = 0 ... n/2 along the axis and
    is periodic across it, so it is cut at rows 0 and n/2 across it."""
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
    return seq[keep]


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
