import os

# one BLAS thread unless the caller says otherwise: on a busy host a
# multi-threaded BLAS makes the suite several times slower.  cellmat
# copies the setting into the BLAS variables when it is imported, which
# must happen before numpy loads.
os.environ.setdefault("CELLMAT_THREADS", "1")

import cellmat  # noqa: E402,F401
import numpy as np  # noqa: E402
import pytest  # noqa: E402

from cellmat.element import element_matrices  # noqa: E402
from cellmat.mesh import build_mesh  # noqa: E402


@pytest.fixture(scope="session")
def mesh8():
    return build_mesh(8)


@pytest.fixture(scope="session")
def elem8():
    return element_matrices(1.0 / 3.0, 1.0 / 8)


@pytest.fixture
def rng():
    return np.random.default_rng(20260818)


def fd_gradient(func, x, h=1e-6):
    """Dense central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros(x.size)
    for i in range(x.size):
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        g[i] = (func(xp) - func(xm)) / (2.0 * h)
    return g


def cross_density(n, f):
    """Orthogonal-bar cross with solid fraction f, element-centered (ne,)."""
    w = 1.0 - np.sqrt(1.0 - f)
    c = (np.arange(n) + 0.5) / n
    on_x = np.abs(c - 0.5) < w / 2.0
    rho = np.zeros((n, n))
    rho[on_x, :] = 1.0
    rho[:, on_x] = 1.0
    return rho.ravel()


def exact_d4_field(n, rng, low=0.0, high=1.0):
    """A field (n*n,) that every dihedral map of the grid fixes bit for
    bit: its value depends only on the sorted pair of folded coordinates."""
    i, j = np.indices((n, n))
    a, b = np.minimum(i, n - 1 - i), np.minimum(j, n - 1 - j)
    table = rng.uniform(low, high, (n, n))
    return table[np.minimum(a, b), np.maximum(a, b)].ravel()
