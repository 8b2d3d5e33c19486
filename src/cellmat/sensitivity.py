"""Adjoint design gradients of the cell responses.

Everything here differentiates with respect to the physical (projected)
element densities; chain_to_design pulls a result back through the
projection, the filter and the symmetry average.  A response depends on
the densities along three routes: explicitly through its modulus branch,
through the macro strain eps0 = Cbar sigma0, and through the corrector
fields.  The eps0 route is algebraic because d Dbar / d rho_e = a'_e Q_e
exactly (the correctors are energy-stationary); the corrector route costs
one extra solve with the already factorized stiffness per aggregate.
"""

import numpy as np

from .fem import gather, scatter_vec
from .design import enforce_symmetry, project_deriv
from .stress import M_VM, macro_strain


def _q_form(q_tensors, x, y):
    # per-element x' Q_e y
    return np.einsum("a,eab,b->e", x, q_tensors, y)


def _corrector_route(mesh, elem, adj, x, eps0, a_deriv):
    """a'_e adj_e' (f_unit eps0 - k0 x_e) for an adjoint field adj.

    x is the corrector response chi @ eps0; the bracket is the derivative
    of the equilibrium residual with respect to one element modulus.
    """
    adj_e = gather(mesh.edofs, adj)
    x_e = gather(mesh.edofs, x)
    fe = elem.f_unit @ eps0
    return a_deriv * (adj_e @ fe - np.einsum("ei,ij,ej->e", adj_e, elem.k0, x_e))


def grad_ebar(homog, a_deriv):
    """d Ebar / d rho_bar, (ne,).

    Ebar = 1 / Cbar[0,0] and dCbar = -Cbar dDbar Cbar, so the gradient is
    a quadratic form of the first compliance column with the element
    energy tensors.
    """
    c1 = homog.cbar[:, 0]
    return homog.ebar ** 2 * a_deriv * _q_form(homog.q_tensors, c1, c1)


def stress_grad(mesh, elem, homog, stresses, weights, a_deriv):
    """Gradient of sum_e weights_e * vm_e, (ne,).

    vm_e is the relaxed von Mises stress under the unit macro load;
    weights must already carry aggregation weights and any scale factor.
    """
    eps0 = macro_strain(homog.cbar)
    g = np.maximum(np.sqrt(np.einsum("ei,ij,ej->e",
                                     stresses.s_unit, M_VM, stresses.s_unit)),
                   1e-30)
    y = (stresses.s_unit @ M_VM) / g[:, None]     # d vm / d s_unit
    z = y @ elem.d0
    t8 = z @ elem.b_center                        # B' D0 y per element
    c = weights * stresses.moduli_vm

    grad = weights * stresses.moduli_vm_deriv * g

    # macro strain route: d eps0 = -a'_e Cbar Q_e eps0
    u = gather(mesh.edofs, homog.chi)
    r_eps = np.einsum("e,ea->a", c, z) - np.einsum("e,eja,ej->a", c, u, t8)
    grad -= a_deriv * _q_form(homog.q_tensors, homog.cbar @ r_eps, eps0)

    # corrector route, one adjoint solve against the assembled loads
    phi = homog.solver.solve(scatter_vec(mesh, c[:, None] * t8))
    x = homog.chi @ eps0
    grad -= _corrector_route(mesh, elem, phi, x, eps0, a_deriv)
    return grad


def stability_grad(mesh, elem, homog, stresses, band, weights,
                   eg_vals, eg_deriv, a_deriv):
    """Gradient of the weighted sum of inverse load factors, (ne,).

    band must come from buckling_strength(..., store_modes=True); weights
    is a list of per-band weight arrays parallel to band.samples.  Each
    tau contributes through the pencil operators (Hellmann-Feynman, the
    modes are K0-normalized) and through the stress weights feeding the
    geometric stiffness, which reopens the macro strain and corrector
    routes of the unit stresses.
    """
    eps0 = macro_strain(homog.cbar)
    grad = np.zeros(mesh.ne)
    u_eps = np.zeros(3)
    w_vec = np.zeros(mesh.ndof)
    u = gather(mesh.edofs, homog.chi)

    for smp, w_s in zip(band.samples, weights):
        w_s = np.asarray(w_s, dtype=float)
        act = np.flatnonzero(w_s)
        if act.size == 0:
            continue
        if smp.modes is None or smp.transform is None:
            raise ValueError("band sweep was run without store_modes")
        pe = gather(mesh.edofs_full, smp.transform @ smp.modes[:, act])
        e0 = np.einsum("ejm,jk,ekm->em", pe.conj(), elem.k0, pe).real
        qc = np.einsum("ejm,cjk,ekm->ecm", pe.conj(), elem.g_stress, pe).real
        wa = w_s[act]

        grad -= a_deriv * (e0 * (wa * smp.tau[act])).sum(axis=1)
        sq = np.einsum("ec,ecm->em", stresses.s_unit, qc)
        grad -= eg_deriv * (sq * wa).sum(axis=1)

        # fold band weights before the shared strain/corrector routes
        zq = (qc * wa).sum(axis=2) @ elem.d0
        t8 = zq @ elem.b_center
        u_eps += np.einsum("e,ea->a", eg_vals, zq) \
            - np.einsum("e,eja,ej->a", eg_vals, u, t8)
        w_vec += scatter_vec(mesh, eg_vals[:, None] * t8)

    grad += a_deriv * _q_form(homog.q_tensors, homog.cbar @ u_eps, eps0)
    psi = homog.solver.solve(w_vec)
    x = homog.chi @ eps0
    grad += _corrector_route(mesh, elem, psi, x, eps0, a_deriv)
    return grad


def chain_to_design(grad_phys, filt, rho_tilde, beta, eta, n):
    """Pull a gradient in the physical densities back to the raw design."""
    g = grad_phys * project_deriv(rho_tilde, beta, eta)
    g = filt.adjoint(g)
    return enforce_symmetry(g, n)
