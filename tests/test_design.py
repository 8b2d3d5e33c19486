"""Symmetry, filter, projection and interpolation checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from cellmat.design import (
    PDEFilter,
    d4_orbits,
    enforce_symmetry,
    interpolate,
    project,
    project_deriv,
)
from cellmat.errors import ConfigError

# ==========================================================================
# dihedral symmetry
# ==========================================================================


class TestSymmetry:
    def test_invariant_under_every_map(self, rng):
        n = 8
        s = enforce_symmetry(rng.uniform(size=n * n), n).reshape(n, n)
        for mapped in (np.rot90(s), np.rot90(s, 2), np.rot90(s, 3), s.T,
                       np.flipud(s), np.fliplr(s), np.rot90(s, 2).T):
            assert_allclose(mapped, s, atol=1e-15)

    def test_idempotent_and_self_adjoint(self, rng):
        n = 6
        x = rng.uniform(size=n * n)
        y = rng.uniform(size=n * n)
        sx = enforce_symmetry(x, n)
        assert_allclose(enforce_symmetry(sx, n), sx, atol=1e-15)
        assert_allclose(np.dot(sx, y), np.dot(x, enforce_symmetry(y, n)),
                        rtol=1e-13)

    def test_mean_preserved(self, rng):
        n = 8
        x = rng.uniform(size=n * n)
        assert_allclose(enforce_symmetry(x, n).mean(), x.mean(), rtol=1e-14)

    @pytest.mark.parametrize("n", [4, 5, 8, 64])
    def test_orbits_cover_the_grid(self, n, rng):
        from conftest import exact_d4_field

        orbits = d4_orbits(n)
        assert orbits.sizes.sum() == n * n
        assert_array_equal(np.bincount(orbits.index), orbits.sizes)
        assert_array_equal(orbits.index[orbits.reps],
                           np.arange(orbits.reps.size))
        # every dihedral image of an element lies in its orbit
        g = orbits.index.reshape(n, n)
        for mapped in (np.rot90(g), np.rot90(g, 2), np.rot90(g, 3), g.T,
                       np.flipud(g), np.fliplr(g), np.rot90(g, 2).T):
            assert_array_equal(mapped, g)
        if n % 2 == 0:
            i, j = np.divmod(orbits.reps, n)
            on_diagonal = (i == j) | (i + j == n - 1)
            assert_array_equal(orbits.sizes, np.where(on_diagonal, 4, 8))
        rho = exact_d4_field(n, rng)
        assert_array_equal(rho[orbits.reps][orbits.index], rho)

    def test_rejects_non_square(self):
        with pytest.raises(ConfigError):
            enforce_symmetry(np.ones(12), 4)


# ==========================================================================
# periodic density filter
# ==========================================================================


@pytest.fixture(scope="module")
def filt():
    from cellmat.element import element_matrices
    from cellmat.mesh import build_mesh
    mesh = build_mesh(8)
    elem = element_matrices(1.0 / 3.0, mesh.h)
    return mesh, PDEFilter(mesh, elem, radius=0.3)


class TestPDEFilter:
    def test_constant_is_fixed_point(self, filt):
        mesh, f = filt
        assert_allclose(f.apply(np.full(mesh.ne, 0.37)), 0.37, rtol=1e-12)

    def test_mean_preserved(self, filt, rng):
        mesh, f = filt
        x = rng.uniform(size=mesh.ne)
        assert_allclose(f.apply(x).mean(), x.mean(), rtol=1e-12)

    def test_linearity(self, filt, rng):
        mesh, f = filt
        x = rng.uniform(size=mesh.ne)
        y = rng.uniform(size=mesh.ne)
        assert_allclose(f.apply(2.0 * x - 0.5 * y),
                        2.0 * f.apply(x) - 0.5 * f.apply(y), atol=1e-13)

    def test_adjoint_identity(self, filt, rng):
        mesh, f = filt
        x = rng.uniform(size=mesh.ne)
        g = rng.uniform(size=mesh.ne)
        assert_allclose(np.dot(f.apply(x), g), np.dot(x, f.adjoint(g)),
                        rtol=1e-12)

    def test_impulse_response_is_periodic_and_localized(self, filt):
        mesh, f = filt
        x = np.zeros(mesh.ne)
        x[0] = 1.0
        r = f.apply(x).reshape(mesh.n, mesh.n)
        # spreading is symmetric across the periodic wrap
        assert_allclose(r[1, 0], r[mesh.n - 1, 0], rtol=1e-12)
        assert_allclose(r[0, 1], r[0, mesh.n - 1], rtol=1e-12)
        assert r[0, 0] > r[0, 1] > r[0, 2] > 0.0
        # far field is small relative to the peak
        assert r[mesh.n // 2, mesh.n // 2] < 0.05 * r[0, 0]

    def test_dense_reference(self, filt, rng):
        # loop-assembled dense Helmholtz operator, solved with LAPACK
        from cellmat.element import element_matrices
        mesh, f = filt
        elem = element_matrices(1.0 / 3.0, mesh.h)
        x = rng.uniform(size=mesh.ne)
        length = f.radius / (2.0 * np.sqrt(3.0))
        ae = length ** 2 * elem.k_filter + elem.m_filter
        a = np.zeros((mesh.nn, mesh.nn))
        t = np.zeros((mesh.nn, mesh.ne))
        for e in range(mesh.ne):
            ids = mesh.master[mesh.conn[e]]
            a[np.ix_(ids, ids)] += ae
            t[ids, e] += elem.t_filter
        ref = t.T @ np.linalg.solve(a, t @ x) / mesh.volume_e
        assert_allclose(f.apply(x), ref, atol=1e-12)

    def test_radius_must_exceed_element(self):
        from cellmat.element import element_matrices
        from cellmat.mesh import build_mesh
        mesh = build_mesh(8)
        elem = element_matrices(1.0 / 3.0, mesh.h)
        with pytest.raises(ConfigError):
            PDEFilter(mesh, elem, radius=mesh.h)


# ==========================================================================
# projection
# ==========================================================================


class TestProjection:
    def test_endpoints_exact(self):
        for beta in (1.0, 4.0, 8.0):
            for eta in (0.45, 0.5, 0.55):
                assert project(np.array([0.0]), beta, eta)[0] == pytest.approx(0.0, abs=1e-15)
                assert project(np.array([1.0]), beta, eta)[0] == pytest.approx(1.0, abs=1e-15)

    def test_monotone_and_sharpening(self):
        x = np.linspace(0.0, 1.0, 101)
        y1 = project(x, 1.0, 0.5)
        y8 = project(x, 8.0, 0.5)
        assert np.all(np.diff(y1) > 0.0)
        assert np.all(np.diff(y8) > 0.0)
        # larger beta pushes values toward 0/1
        assert y8[20] < y1[20] and y8[80] > y1[80]

    def test_large_beta_approaches_threshold(self):
        x = np.array([0.3, 0.49, 0.51, 0.7])
        y = project(x, 500.0, 0.5)
        assert_allclose(y, [0.0, 0.0, 1.0, 1.0], atol=1e-4)

    def test_derivative_matches_fd(self):
        x = np.linspace(0.05, 0.95, 19)
        h = 1e-7
        fd = (project(x + h, 4.0, 0.45) - project(x - h, 4.0, 0.45)) / (2 * h)
        assert_allclose(project_deriv(x, 4.0, 0.45), fd, rtol=1e-6)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigError):
            project(np.array([0.5]), 0.0, 0.5)
        with pytest.raises(ConfigError):
            project(np.array([0.5]), 1.0, 1.0)


# ==========================================================================
# modulus interpolation
# ==========================================================================


class TestInterpolation:
    def test_branch_values(self):
        e, _ = interpolate(np.array([0.0, 0.5, 1.0]), "stiffness")
        assert_allclose(e, [1e-5, 1e-5 + 0.125 * (1 - 1e-5), 1.0], rtol=1e-12)
        e, _ = interpolate(np.array([0.0, 0.5, 1.0]), "geometric")
        assert_allclose(e, [0.0, 0.125, 1.0], rtol=1e-12)
        e, _ = interpolate(np.array([0.0, 0.5, 1.0]), "stress")
        assert_allclose(e, [0.0, 0.5 / 0.501, 1.0], rtol=1e-12)

    def test_stress_branch_stays_near_one_for_solids(self):
        e, _ = interpolate(np.array([0.9]), "stress")
        assert e[0] > 0.999

    @pytest.mark.parametrize("branch", ["stiffness", "geometric", "stress"])
    def test_derivatives_match_fd(self, branch):
        x = np.linspace(0.05, 0.95, 10)
        h = 1e-7
        ep, _ = interpolate(x + h, branch)
        em, _ = interpolate(x - h, branch)
        _, de = interpolate(x, branch)
        assert_allclose(de, (ep - em) / (2 * h), rtol=1e-5)

    def test_unknown_branch(self):
        with pytest.raises(ConfigError):
            interpolate(np.array([0.5]), "plastic")

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_branch_ordering(self, r):
        # geometric <= stiffness-without-floor <= stress on [0, 1]
        eg, _ = interpolate(np.array([r]), "geometric")
        ek, _ = interpolate(np.array([r]), "stiffness")
        es, _ = interpolate(np.array([r]), "stress")
        assert eg[0] <= ek[0] + 1e-12
        assert eg[0] <= es[0] + 1e-12
