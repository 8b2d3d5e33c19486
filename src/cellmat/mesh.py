"""Uniform n-by-n grid on the unit cell with periodic dof bookkeeping."""

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


def _dofs_from_nodes(node_ids):
    out = np.empty(node_ids.shape[:-1] + (8,), dtype=np.int64)
    out[..., 0::2] = 2 * node_ids
    out[..., 1::2] = 2 * node_ids + 1
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

    edofs_full = _dofs_from_nodes(conn)
    edofs = _dofs_from_nodes(master[conn])
    return Mesh(
        n=n, h=h, volume_e=h * h, conn=conn, master=master,
        edofs_full=edofs_full, edofs=edofs,
    )
