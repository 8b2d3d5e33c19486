"""Design-field parameterization: symmetry, filtering, projection, moduli.

The raw design vector rho lives on element centers.  The physical field is
produced by the fixed chain

    rho -> enforce_symmetry -> pde_filter -> project(beta, eta)

and every consumer of gradients walks the same chain backwards.  Square
symmetry is enforced by averaging the full orbit of the 8 dihedral maps,
which is an orthogonal projection, so its adjoint is itself.  A symmetric
field is fixed by its values on one element of each orbit (d4_orbits):
the optimizer's variables are those values.
"""

from dataclasses import dataclass
from functools import cache

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError
from .fem import assemble, symmetric_lu

_D4_MAPS = (
    lambda a: a,
    lambda a: np.rot90(a, 1),
    lambda a: np.rot90(a, 2),
    lambda a: np.rot90(a, 3),
    lambda a: a.T,
    lambda a: np.flipud(a),
    lambda a: np.fliplr(a),
    lambda a: np.rot90(a, 2).T,
)


def enforce_symmetry(rho, n):
    """Average the dihedral orbit of a flat element field on an n-by-n grid."""
    a = np.asarray(rho, dtype=float)
    if a.size != n * n:
        raise ConfigError(
            f"symmetry needs a square n*n field, got {a.size} values for n={n}")
    grid = a.reshape(n, n)
    out = np.zeros_like(grid)
    for m in _D4_MAPS:
        out += m(grid)
    return (out / 8.0).ravel()


@dataclass(frozen=True)
class Orbits:
    """The orbits of the elements of an n-by-n grid under the 8 dihedral
    maps.  rho[reps] holds every value of a symmetric field rho, and
    x[index] expands orbit values x back to the field.  Read-only."""
    reps: np.ndarray         # (orbits,) smallest element id of each orbit
    index: np.ndarray        # (n*n,) each element's orbit
    sizes: np.ndarray        # (orbits,) members: 4 on a diagonal, else 8
                             # (for even n)


@cache
def d4_orbits(n):
    """The Orbits of the n-by-n grid, built once per n."""
    ids = np.arange(n * n).reshape(n, n)
    least = np.min([m(ids) for m in _D4_MAPS], axis=0).ravel()
    reps, index, sizes = np.unique(least, return_inverse=True,
                                   return_counts=True)
    for a in (reps, index, sizes):
        a.flags.writeable = False
    return Orbits(reps=reps, index=index, sizes=sizes)


class PDEFilter:
    """Periodic Helmholtz density filter with a fixed physical radius.

    Solves (-l^2 lap + 1) rho_tilde = rho weakly on the periodic cell with
    bilinear elements, l = r / (2 sqrt(3)).  The map element->element is
    T' A^-1 T scaled by element volumes; it preserves the field mean exactly
    and is symmetric up to the uniform volume weights, which makes the
    adjoint a second application with the volume scaling on the other side.
    The nodes of A and T are numbered in the mesh's torus order, the order
    A is factored in.
    """

    def __init__(self, mesh, elem, radius):
        if radius <= mesh.h:
            raise ConfigError(
                f"filter radius {radius} must exceed the element size {mesh.h}")
        self.radius = radius
        self.volume_e = mesh.volume_e
        length = radius / (2.0 * np.sqrt(3.0))

        # element nodes by their place in the torus order
        conn_red = np.argsort(mesh.node_order)[mesh.master[mesh.conn]]
        ae = length ** 2 * elem.k_filter + elem.m_filter
        a = assemble(conn_red, mesh.nn, np.broadcast_to(ae, (mesh.ne, 4, 4)))

        t_rows = conn_red.ravel()
        t_cols = np.repeat(np.arange(mesh.ne), 4)
        t_vals = np.tile(elem.t_filter, mesh.ne)
        self.t_map = sp.coo_matrix(
            (t_vals, (t_rows, t_cols)), shape=(mesh.nn, mesh.ne)).tocsc()
        self.lu = symmetric_lu(a)

    def apply(self, rho):
        nodal = self.lu.solve(self.t_map @ rho)
        return (self.t_map.T @ nodal) / self.volume_e

    def adjoint(self, g):
        nodal = self.lu.solve(self.t_map @ (g / self.volume_e))
        return self.t_map.T @ nodal


def project(rho_t, beta, eta):
    """Smoothed Heaviside threshold of the filtered field."""
    _check_projection(beta, eta)
    den = np.tanh(beta * eta) + np.tanh(beta * (1.0 - eta))
    return (np.tanh(beta * eta) + np.tanh(beta * (rho_t - eta))) / den


def project_deriv(rho_t, beta, eta):
    _check_projection(beta, eta)
    den = np.tanh(beta * eta) + np.tanh(beta * (1.0 - eta))
    t = np.tanh(beta * (rho_t - eta))
    return beta * (1.0 - t * t) / den


def _check_projection(beta, eta):
    if not 0.0 < eta < 1.0:
        raise ConfigError(f"projection threshold must be in (0,1), got {eta}")
    if beta <= 0.0:
        raise ConfigError(f"projection sharpness must be positive, got {beta}")


# penalization constants shared by the three modulus branches: SIMP
# exponent, stiffness floor, stress relaxation and the solid modulus
P_SIMP = 3.0
E_MIN = 1e-5
EPS_RELAX = 0.002
E_SOLID = 1.0


def interpolate(rho_bar, branch):
    """Modulus and its density derivative for one interpolation branch.

    'stiffness'  penalized with a floor: used by the elastic operator.
    'geometric'  penalized without a floor: scales the stress stiffness so
                 void regions shed their geometric terms entirely.
    'stress'     eps-relaxed rational form for the recovered stress.
    """
    r = np.asarray(rho_bar, dtype=float)
    p, e0, eps, e1 = P_SIMP, E_MIN, EPS_RELAX, E_SOLID
    if branch == "stiffness":
        e = e0 + r ** p * (e1 - e0)
        de = p * r ** (p - 1.0) * (e1 - e0)
    elif branch == "geometric":
        e = r ** p * e1
        de = p * r ** (p - 1.0) * e1
    elif branch == "stress":
        den = eps * (1.0 - r) + r
        e = r / den * e1
        de = eps / den ** 2 * e1
    else:
        raise ConfigError(f"unknown interpolation branch: {branch!r}")
    return e, de
