"""Adjoint design gradients of the cell responses.

Every gradient takes the CellAnalysis of the physical (projected) element
densities and differentiates with respect to them; chain_to_design pulls
a result back through the projection, the filter and the symmetry
average.  A response depends on the densities explicitly through its
modulus branches and, when it reads the unit stresses s_unit, along two
more routes: through the macro strain eps0 = Cbar sigma0 and through the
corrector fields.  _unit_stress_routes pulls both back for any response
given its derivative with respect to s_unit.  The eps0 route is algebraic
because d Dbar / d rho_e = a'_e Q_e exactly (the correctors are
energy-stationary); the corrector route costs one extra solve with the
already factorized stiffness per response.
"""

import numpy as np

from .fem import scatter_vec
from .design import enforce_symmetry, project_deriv
from .stress import M_VM


def _q_form(q_tensors, x, y):
    # per-element x' Q_e y
    return np.einsum("a,eab,b->e", x, q_tensors, y)


def _unit_stress_routes(mesh, elem, cell, c, ys, grad):
    """Subtract the macro-strain and corrector routes of a response from grad.

    The response R reads the unit stresses with d R / d s_unit_e =
    c_e * sum_i ys[i]_e; each ys[i] is an (ne, 3) array.  Its strain
    weights and corrector loads are summed over ys before the single
    adjoint solve.
    """
    homog, eps0, a_deriv = cell.homog, cell.eps0, cell.de_k
    u = homog.chi[mesh.edofs]
    r_eps = np.zeros(3)
    load = np.zeros(mesh.ndof)
    for y in ys:
        z = y @ elem.d0
        t8 = z @ elem.b_center                    # B' D0 y per element
        r_eps += np.einsum("e,ea->a", c, z) \
            - np.einsum("e,eja,ej->a", c, u, t8)
        load += scatter_vec(mesh, c[:, None] * t8)

    # macro strain route: d eps0 = -a'_e Cbar Q_e eps0
    grad -= a_deriv * _q_form(homog.q_tensors, homog.cbar @ r_eps, eps0)

    # corrector route: a'_e adj_e' (f_unit eps0 - k0 x_e), the derivative
    # of the equilibrium residual with respect to one element modulus
    adj_e = homog.solver.solve(load)[mesh.edofs]
    x_e = (homog.chi @ eps0)[mesh.edofs]
    fe = elem.f_unit @ eps0
    grad -= a_deriv * (adj_e @ fe
                       - np.einsum("ei,ij,ej->e", adj_e, elem.k0, x_e))
    return grad


def grad_ebar(cell):
    """d Ebar / d rho_bar, (ne,).

    Ebar = 1 / Cbar[0,0] and dCbar = -Cbar dDbar Cbar, so the gradient is
    a quadratic form of the first compliance column with the element
    energy tensors.
    """
    homog = cell.homog
    c1 = homog.cbar[:, 0]
    return homog.ebar ** 2 * cell.de_k * _q_form(homog.q_tensors, c1, c1)


def stress_grad(mesh, elem, cell, weights):
    """Gradient of sum_e weights_e * vm_e, (ne,).

    vm_e is the relaxed von Mises stress under the unit macro load;
    weights must already carry aggregation weights and any scale factor.
    """
    st = cell.stresses
    g = np.maximum(np.sqrt(np.einsum("ei,ij,ej->e",
                                     st.s_unit, M_VM, st.s_unit)),
                   1e-30)
    y = (st.s_unit @ M_VM) / g[:, None]           # d vm / d s_unit
    grad = weights * st.moduli_vm_deriv * g
    return _unit_stress_routes(mesh, elem, cell, weights * st.moduli_vm,
                               [y], grad)


def stability_grad(mesh, elem, cell, band, weights):
    """Gradient of the weighted sum of inverse load factors, (ne,).

    band must come from buckling_strength(..., store_modes=True); weights
    is a list of per-band weight arrays parallel to band.samples.  Each
    tau contributes through the pencil operators (Hellmann-Feynman, the
    modes are K0-normalized) and through the stress weights feeding the
    geometric stiffness, d tau / d s_unit_e = -e_g phi_e' G_e phi_e,
    which reopens the macro strain and corrector routes.
    """
    grad = np.zeros(mesh.ne)
    ys = []
    for smp, w_s in zip(band.samples, weights):
        w_s = np.asarray(w_s, dtype=float)
        act = np.flatnonzero(w_s)
        if act.size == 0:
            continue
        if smp.modes is None or smp.transform is None:
            raise ValueError("band sweep was run without store_modes")
        pe = (smp.transform @ smp.modes[:, act])[mesh.edofs_full]
        pc = pe.conj()
        # per-element quadratic forms phi_e^H K phi_e, (ne, m) and
        # (ne, 3, m), as batched products: far faster than 3-operand
        # einsums, and one stress component at a time keeps the
        # temporaries at the size of pe
        e0 = (pc * np.matmul(elem.k0, pe)).sum(axis=1).real
        qc = np.stack([(pc * np.matmul(g, pe)).sum(axis=1).real
                       for g in elem.g_stress], axis=1)
        wa = w_s[act]

        grad -= cell.de_k * (e0 * (wa * smp.tau[act])).sum(axis=1)
        sq = np.einsum("ec,ecm->em", cell.stresses.s_unit, qc)
        grad -= cell.de_g * (sq * wa).sum(axis=1)
        # band weights folded per sample before the shared routes
        ys.append((qc * wa).sum(axis=2))
    return _unit_stress_routes(mesh, elem, cell, -cell.e_g, ys, grad)


def chain_to_design(grad_phys, filt, rho_tilde, beta, eta, n):
    """Pull a gradient in the physical densities back to the raw design."""
    g = grad_phys * project_deriv(rho_tilde, beta, eta)
    g = filt.adjoint(g)
    return enforce_symmetry(g, n)
