"""Finite-difference verification of the adjoint design gradients.

Every check recomputes the full analysis chain at the perturbed points,
so the macro-strain and corrector routes are exercised together with the
explicit modulus terms, and any sign error anywhere shows up immediately.
"""

import numpy as np
import pytest
from conftest import fd_gradient
from numpy.testing import assert_allclose, assert_array_equal

from cellmat.bloch import buckling_strength, limit_transform
from cellmat.design import PDEFilter, enforce_symmetry, project
from cellmat.element import element_matrices
from cellmat.mesh import PINS, build_mesh
from cellmat.pipeline import analyze_cell
from cellmat.sensitivity import (
    chain_to_design,
    grad_ebar,
    stability_grad,
    stress_grad,
)

NU = 1.0 / 3.0


@pytest.fixture(scope="module")
def mesh4():
    return build_mesh(4)


@pytest.fixture(scope="module")
def elem4():
    return element_matrices(NU, 1.0 / 4)


@pytest.fixture(scope="module")
def rho4():
    rng = np.random.default_rng(42)
    return rng.uniform(0.3, 0.8, 16)


def band_sweep(mesh, elem, cell, k_points, m):
    return buckling_strength(mesh, elem, cell.e_k, cell.stress_weights,
                             m=m, k_points=k_points, store_modes=True)


def test_grad_ebar_fd(mesh4, elem4, rho4):
    grad = grad_ebar(analyze_cell(mesh4, elem4, rho4))

    fd = fd_gradient(lambda r: analyze_cell(mesh4, elem4, r).homog.ebar,
                     rho4)
    assert_allclose(grad, fd, rtol=1e-6, atol=1e-10)


def test_stress_grad_fd(mesh4, elem4, rho4):
    rng = np.random.default_rng(7)
    w = rng.uniform(0.1, 1.0, mesh4.ne)
    grad = stress_grad(mesh4, elem4, analyze_cell(mesh4, elem4, rho4), w)

    def f(r):
        return float(w @ analyze_cell(mesh4, elem4, r).stresses.vm)

    assert_allclose(grad, fd_gradient(f, rho4), rtol=2e-6, atol=1e-10)


class TestStabilityGrad:
    def check(self, mesh, elem, rho_bar, k_points, m, weights, idx):
        """FD against the weighted tau sum of sample idx."""
        cell = analyze_cell(mesh, elem, rho_bar)
        band = band_sweep(mesh, elem, cell, k_points, m)
        wlist = [np.zeros(s.tau.size) for s in band.samples]
        wlist[idx] = weights
        grad = stability_grad(mesh, elem, cell, band, wlist)

        def f(r):
            b = band_sweep(mesh, elem, analyze_cell(mesh, elem, r),
                           k_points, m)
            return float(weights @ b.samples[idx].tau)

        assert_allclose(grad, fd_gradient(f, rho_bar), rtol=5e-6, atol=1e-9)
        return band

    def test_generic_wavevector(self, mesh4, elem4, rho4):
        k_points = (np.array([[1.1, 0.7]]), np.array([0.0]))
        w = np.array([0.5, 0.3, 0.2, 0.0])
        band = self.check(mesh4, elem4, rho4, k_points, 4, w, 0)
        # simple eigenvalues, otherwise the FD tracking is meaningless
        tau = band.samples[0].tau
        assert np.all(np.diff(tau) < -1e-4)

    def test_pinned_zone_center(self, mesh4, elem4, rho4):
        k_points = (np.array([[0.0, 0.0]]), np.array([0.0]))
        w = np.array([0.6, 0.4, 0.0, 0.0])
        band = self.check(mesh4, elem4, rho4, k_points, 4, w, 2)
        assert band.samples[2].pinned
        tau = band.samples[2].tau
        assert np.all(np.diff(tau[:3]) < -1e-4)

    def test_degenerate_bands_on_symmetric_design(self, mesh4, elem4):
        rng = np.random.default_rng(3)
        rho = enforce_symmetry(rng.uniform(0.4, 0.9, 16), 4)
        k_points = (np.array([[np.pi, np.pi]]), np.array([0.0]))
        # equal weights over every retained band: any degenerate cluster
        # inside the window contributes through its invariant trace
        w = np.full(4, 0.25)
        band = self.check(mesh4, elem4, rho, k_points, 5, np.r_[w, 0.0], 0)
        tau = band.samples[0].tau
        assert tau[3] - tau[4] > 1e-4

    def test_requires_stored_modes(self, mesh4, elem4, rho4):
        cell = analyze_cell(mesh4, elem4, rho4)
        band = buckling_strength(mesh4, elem4, cell.e_k, cell.stress_weights,
                                 m=3, k_points=(np.array([[1.0, 0.5]]),
                                                np.array([0.0])))
        with pytest.raises(ValueError, match="store_modes"):
            stability_grad(mesh4, elem4, cell, band, [np.ones(3)])


@pytest.mark.parametrize("weights", [[1.0, 0.0, 0.0, 0.0],
                                     [0.5, 0.3, 0.2, 0.0]],
                         ids=["top", "three-band"])
def test_stability_grad_at_the_zone_center_limit(weights):
    # the limit along x carries the long-wavelength branch, which governs
    # the committed designs.  Its pencil is as well conditioned as any, so
    # the step is the default 1e-6; at the old zone-center offset
    # k = (0.01, 0) its roundoff had needed 1e-4
    n = 16
    mesh = build_mesh(n)
    elem = element_matrices(NU, mesh.h)
    rng = np.random.default_rng(16)
    rho = rng.uniform(0.35, 0.85, mesh.ne)
    idx = rng.choice(mesh.ne, size=8, replace=False)
    w = np.asarray(weights)
    # the zone center expands into the limits along x and y and the pinned
    # k = 0; the weights reach the first, the limit along x
    k_points = (np.zeros((1, 2)), np.zeros(1))

    def sweep(r):
        cell = analyze_cell(mesh, elem, r)
        return cell, band_sweep(mesh, elem, cell, k_points, w.size)

    def f(x):       # the weighted taus as a function of rho[idx]
        r = rho.copy()
        r[idx] = x
        return float(w @ sweep(r)[1].samples[0].tau)

    cell, band = sweep(rho)
    assert_array_equal(band.samples[0].direction, [1.0, 0.0])
    grad = stability_grad(mesh, elem, cell, band, [w])[idx]
    fd = fd_gradient(f, rho[idx])
    # 3e-8 and 5e-8 measured
    assert np.abs(grad - fd).max() <= 5e-7 * np.abs(fd).max()


@pytest.mark.parametrize("response", ["ebar", "stress", "stability"])
def test_gradients_through_the_class_basis(response):
    # a D4-symmetric cell is factored in the two-mirror class basis, and
    # every adjoint solve goes through that factor; the perturbed fields
    # of the difference quotients are asymmetric and take the torus order
    n = 16
    mesh = build_mesh(n)
    elem = element_matrices(NU, mesh.h)
    rng = np.random.default_rng(18)
    rho = enforce_symmetry(rng.uniform(0.35, 0.85, mesh.ne), n)
    idx = rng.choice(mesh.ne, size=8, replace=False)
    w = rng.uniform(0.1, 1.0, mesh.ne)
    k_points = (np.zeros((1, 2)), np.zeros(1))
    top = np.array([1.0, 0.0])

    def value(r):
        cell = analyze_cell(mesh, elem, r)
        if response == "ebar":
            return cell, cell.homog.ebar
        if response == "stress":
            return cell, float(w @ cell.stresses.vm)
        band = band_sweep(mesh, elem, cell, k_points, top.size)
        return (cell, band), float(top @ band.samples[0].tau)

    def f(x):
        r = rho.copy()
        r[idx] = x
        return value(r)[1]

    state, _ = value(rho)
    if response == "ebar":
        cell, grad = state, grad_ebar(state)
    elif response == "stress":
        cell, grad = state, stress_grad(mesh, elem, state, w)
    else:
        cell, band = state
        grad = stability_grad(mesh, elem, cell, band, [top])
    assert cell.homog.solver.basis is mesh.classes.q
    fd = fd_gradient(f, rho[idx])
    # 2.4e-8 (ebar), 2.2e-8 (stress) and 7.4e-8 (stability) measured
    assert np.abs(grad[idx] - fd).max() <= 5e-7 * np.abs(fd).max()


@pytest.mark.parametrize("direction", [0, 1], ids=["x", "y"])
def test_stability_grad_on_the_bordered_limit(direction):
    # a limit of a D4 cell is solved in the basis [T(0) Q0, r] on the
    # analysis's factors, and its modes come back through that basis; the
    # perturbed fields of the difference quotients are asymmetric and
    # take the torus fold with T_d
    n = 8
    mesh = build_mesh(n)
    elem = element_matrices(NU, mesh.h)
    rng = np.random.default_rng(8)
    rho = enforce_symmetry(rng.uniform(0.35, 0.85, mesh.ne), n)
    idx = rng.choice(mesh.ne, size=8, replace=False)
    w = np.array([1.0, 0.0])
    k_points = (np.zeros((1, 2)), np.zeros(1))

    def sweep(r):
        cell = analyze_cell(mesh, elem, r)
        return cell, buckling_strength(
            mesh, elem, cell.e_k, cell.stress_weights, m=w.size,
            k_points=k_points, store_modes=True, solver=cell.homog.solver)

    def f(x):
        r = rho.copy()
        r[idx] = x
        return float(w @ sweep(r)[1].samples[direction].tau)

    cell, band = sweep(rho)
    smp = band.samples[direction]
    assert smp.direction[direction] == 1.0
    ramps = limit_transform(mesh, smp.direction)[:, PINS]
    assert smp.transform.shape == (mesh.ndof_full, mesh.ndof)
    assert_array_equal(smp.transform[:, -2:].toarray(), ramps.toarray())
    wlist = [np.zeros(s.tau.size) for s in band.samples]
    wlist[direction] = w
    grad = stability_grad(mesh, elem, cell, band, wlist)[idx]
    # the quotients' roundoff, not the gradient, sets the error: 3.1e-7
    # at the step 1e-6 and 1.9e-8 at 1e-5 (x), where the gradient itself
    # matches the torus fold's to 8e-14
    fd = fd_gradient(f, rho[idx], h=1e-5)
    assert np.abs(grad - fd).max() <= 5e-7 * np.abs(fd).max()


def test_chain_to_design_fd():
    n = 8
    mesh = build_mesh(n)
    elem = element_matrices(NU, mesh.h)
    filt = PDEFilter(mesh, elem, 0.3)
    beta, eta = 2.0, 0.5
    rng = np.random.default_rng(11)
    rho = rng.uniform(0.2, 0.8, mesh.ne)
    v = np.sin(3.0 * np.arange(mesh.ne))

    def f(r):
        rb = project(filt.apply(enforce_symmetry(r, n)), beta, eta)
        return float(v @ rb)

    rho_t = filt.apply(enforce_symmetry(rho, n))
    grad = chain_to_design(v, filt, rho_t, beta, eta, n)
    assert_allclose(grad, fd_gradient(f, rho), rtol=1e-4, atol=1e-9)


def test_fd_gradient_quadratic():
    a = np.array([2.0, -1.0, 0.5])
    g = fd_gradient(lambda x: float(x @ (a * x)), np.array([1.0, 2.0, 3.0]))
    assert_allclose(g, 2.0 * a * np.array([1.0, 2.0, 3.0]), rtol=1e-8)
