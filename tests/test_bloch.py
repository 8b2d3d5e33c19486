"""Bloch reduction, band solves and the buckling sweep.

The end-to-end oracle is a slender horizontal bar under uniaxial
compression: at wavevector (k, 0) its critical load must approach the
classical sinusoidal-column value P = E I k^2 with I = w^3 / 12.
"""

from contextlib import nullcontext
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from numpy.testing import assert_allclose, assert_array_equal
from scipy.sparse.linalg import (ArpackError, ArpackNoConvergence, eigsh,
                                 norm, splu)

from conftest import cross_density
from cellmat import bloch
from cellmat.bloch import (
    LIMIT_DIRECTIONS,
    TAU_TINY,
    _CutScreen,
    band_pencil,
    bloch_transform,
    buckling_strength,
    fold,
    ibz_path,
    limit_transform,
    mirror_axis,
    mirror_basis,
    solve_band,
    stress_stiffness,
)
from cellmat.design import interpolate
from cellmat.element import element_matrices
from cellmat.errors import AnalysisError, ConfigError
from cellmat.fem import assemble, assemble_k0, pin, symmetric_lu
from cellmat.homogenize import homogenize
from cellmat.mesh import MIRROR_TOL, build_mesh, mirror_axes
from cellmat.pipeline import analyze_cell
from cellmat.sensitivity import stability_grad
from cellmat.stress import element_stresses

NU = 1.0 / 3.0


def loaded_state(mesh, elem, rho, sigma0=(-1.0, 0.0, 0.0)):
    """Homogenize, recover stresses, return fields the sweep needs."""
    e_k, _ = interpolate(rho, "stiffness")
    res = homogenize(mesh, elem, e_k)
    eps0 = res.cbar @ np.asarray(sigma0, dtype=float)
    state = element_stresses(mesh, elem, res.chi, rho, eps0)
    e_g, _ = interpolate(rho, "geometric")
    weights = e_g[:, None] * state.s_unit
    return e_k, weights, res, state


@pytest.fixture(scope="module")
def bar32():
    """Horizontal solid bar of width 4/32 in a void matrix."""
    mesh = build_mesh(32)
    elem = element_matrices(NU, mesh.h)
    yc = (np.arange(mesh.n) + 0.5) * mesh.h
    rho = np.zeros((mesh.n, mesh.n))
    rho[np.abs(yc - 0.5) < 2.0 * mesh.h, :] = 1.0
    return mesh, elem, rho.ravel()


@pytest.fixture(scope="module")
def cross8(rng_module):
    mesh = build_mesh(8)
    elem = element_matrices(NU, mesh.h)
    rho = np.clip(rng_module.uniform(0.3, 1.0, mesh.ne), 0.0, 1.0)
    return mesh, elem, rho


@pytest.fixture(scope="module")
def rng_module():
    return np.random.default_rng(7)


def loaded_operators(mesh, elem, rho, sigma0):
    """Full-node-set (K0, K_sigma) of a cell loaded by sigma0."""
    e_k, weights, _, _ = loaded_state(mesh, elem, rho, sigma0)
    return (assemble_k0(mesh, elem, e_k, reduced=False),
            stress_stiffness(mesh, elem, weights))


def pencil(mesh, elem, e_k, weights, k):
    """The sweep's (K0(k), K_sigma(k)) of a loaded state."""
    _, k0k, ksk = band_pencil(mesh, assemble_k0(mesh, elem, e_k, reduced=False),
                              stress_stiffness(mesh, elem, weights),
                              np.asarray(k, dtype=float))
    return k0k, ksk


def cross8_pencil(cross8, k, sigma0=(-1.0, 0.0, 0.0)):
    """The sweep's (K0(k), K_sigma(k)) of the loaded cross8 cell."""
    mesh, elem, rho = cross8
    e_k, weights, _, _ = loaded_state(mesh, elem, rho, sigma0)
    return pencil(mesh, elem, e_k, weights, k)


def minimum_degree_lu(a):
    """fem.symmetric_lu with SuperLU's own minimum-degree order in place
    of the order a comes in."""
    return splu(a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True})


def plain_eigsh(k0k, ksk, m, tol):
    """The shifted pencil solved by eigsh with its own internal factor."""
    ndof = k0k.shape[0]
    v0 = np.full(ndof, 1.0 / np.sqrt(ndof), dtype=k0k.dtype)
    w, v = eigsh((k0k - ksk).tocsc(), k=m, M=k0k.tocsc(), which="LA",
                 v0=v0, tol=tol, maxiter=150)
    order = np.argsort(w)[::-1]
    return w[order] - 1.0, v[:, order]


# ==========================================================================
# transform structure
# ==========================================================================


class TestBlochTransform:
    def test_zero_wavevector_is_the_real_reduction(self, mesh8, elem8, rng):
        t = bloch_transform(mesh8, np.zeros(2))
        assert_allclose(t.toarray().imag, 0.0, atol=0)
        rho = rng.uniform(0.1, 1.0, mesh8.ne)
        k_red = assemble_k0(mesh8, elem8, rho, reduced=True)
        k_full = assemble_k0(mesh8, elem8, rho, reduced=False)
        assert_allclose(fold(k_full, t).toarray(), k_red.toarray(), atol=1e-12)

    def test_phases_on_boundary(self, mesh8):
        k = np.array([0.9, -1.3])
        t = bloch_transform(mesh8, k).tocsr()
        n = mesh8.n
        right = 1 * (n + 1) + n      # iy=1 right edge node
        top = n * (n + 1) + 2        # top edge node ix=2
        corner = (n + 1) ** 2 - 1
        assert t[2 * right].data[0] == pytest.approx(np.exp(1j * k[0]))
        assert t[2 * top].data[0] == pytest.approx(np.exp(1j * k[1]))
        assert t[2 * corner].data[0] == pytest.approx(np.exp(1j * (k[0] + k[1])))

    def test_every_full_dof_maps_once(self, mesh8):
        t = bloch_transform(mesh8, np.array([0.4, 0.7]))
        counts = np.asarray((t != 0).sum(axis=1)).ravel()
        assert np.all(counts == 1)
        mags = np.abs(t.toarray()[t.toarray() != 0.0])
        assert_allclose(mags, 1.0, atol=1e-14)

    @pytest.mark.parametrize("k", [(0.0, 0.0), (np.pi, 0.0),
                                   (np.pi, np.pi), (0.0, -np.pi)])
    def test_real_phase_wavevectors_give_a_real_transform(self, mesh8, elem8,
                                                          rng, k):
        t = bloch_transform(mesh8, np.array(k))
        assert t.dtype == np.float64
        assert set(np.unique(t.data)) <= {-1.0, 1.0}
        # the same transform with the phases exp(i angle) carry
        t_c = t.astype(complex)
        t_c.data = np.exp(1j * np.angle(t.data))
        k_full = assemble_k0(mesh8, elem8, rng.uniform(0.1, 1.0, mesh8.ne),
                             reduced=False)
        a, a_c = fold(k_full, t), fold(k_full, t_c)
        assert a.dtype == np.float64
        assert_allclose(a.toarray(), a_c.toarray(), rtol=0,
                        atol=1e-14 * abs(k_full).max())

    def test_rejects_out_of_zone(self, mesh8):
        with pytest.raises(ConfigError):
            bloch_transform(mesh8, np.array([3.5, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, mesh8, bad):
        with pytest.raises(ConfigError, match="outside the first zone"):
            bloch_transform(mesh8, np.array([bad, 0.0]))


# ==========================================================================
# folded pencil structure
# ==========================================================================


class TestFoldedOperators:
    def test_hermitian_and_definite(self, cross8):
        mesh, elem, rho = cross8
        e_k, weights, _, _ = loaded_state(mesh, elem, rho)
        k_full = assemble_k0(mesh, elem, e_k, reduced=False)
        for k in ([0.3, 0.0], [np.pi, np.pi], [1.1, -2.0]):
            a = fold(k_full, bloch_transform(mesh, np.array(k))).toarray()
            assert_allclose(a, a.conj().T, atol=1e-12)
            assert np.linalg.eigvalsh(a).min() > 0.0

    def test_stress_stiffness_linearity_and_translations(self, cross8, rng):
        mesh, elem, rho = cross8
        w = rng.normal(size=(mesh.ne, 3))
        ks1 = stress_stiffness(mesh, elem, w)
        ks2 = stress_stiffness(mesh, elem, 2.0 * w)
        assert_allclose((ks2 - 2.0 * ks1).toarray(), 0.0, atol=1e-13)
        tx = np.zeros(mesh.ndof_full)
        tx[0::2] = 1.0
        assert_allclose(np.abs(ks1 @ tx).max(), 0.0, atol=1e-12)

    def test_reciprocity(self, cross8):
        k = np.array([0.8, 2.1])
        taus = []
        for kk in (k, -k):
            tau, _ = solve_band(*cross8_pencil(cross8, kk), 4)
            taus.append(tau)
        assert_allclose(taus[0], taus[1], rtol=1e-9, atol=1e-12)

    def test_zero_stress_gives_zero_tau(self, cross8):
        mesh, elem, rho = cross8
        e_k, _, _, _ = loaded_state(mesh, elem, rho)
        k0k, ksk = pencil(mesh, elem, e_k, np.zeros((mesh.ne, 3)), (1.0, 0.5))
        tau, _ = solve_band(k0k, ksk, 3)
        assert_allclose(tau, 0.0, atol=1e-13)


# ==========================================================================
# band solve paths
# ==========================================================================


class TestSolveBand:
    def test_modes_are_k0_normalized(self, cross8):
        k0k, ksk = cross8_pencil(cross8, (0.6, 0.6))
        tau, phi = solve_band(k0k, ksk, 4)
        norms = np.real(np.einsum("im,ij,jm->m", phi.conj(), k0k.toarray(), phi))
        assert_allclose(norms, 1.0, rtol=1e-9)
        # residual check band by band
        for j in range(tau.size):
            r = -ksk @ phi[:, j] - tau[j] * (k0k @ phi[:, j])
            assert np.linalg.norm(r) < 1e-9 * max(1.0, abs(tau[j]))

    def test_sparse_matches_dense(self, bar32):
        mesh, elem, rho = bar32
        e_k, weights, _, _ = loaded_state(mesh, elem, rho)
        k0k, ksk = pencil(mesh, elem, e_k, weights, (np.pi / 2.0, 0.0))
        tau_s, _ = solve_band(k0k, ksk, 3)
        tau_d = sla.eigh(-ksk.toarray(), k0k.toarray(), eigvals_only=True)
        assert_allclose(tau_s, tau_d[::-1][:3], rtol=1e-8)

    def test_real_pencil_matches_complex_cast(self, cross8):
        k0k, ksk = cross8_pencil(cross8, (np.pi, 0.0))
        assert k0k.dtype == ksk.dtype == np.float64
        tau, phi = solve_band(k0k, ksk, 4)
        tau_c, _ = solve_band(k0k.astype(complex), ksk.astype(complex), 4)
        assert phi.dtype == np.float64
        assert_allclose(tau, tau_c, rtol=1e-10)

    def test_owned_factor_matches_eigsh_reference(self, cross8):
        k0k, ksk = cross8_pencil(cross8, (1.1, -2.0))
        tau, _ = solve_band(k0k, ksk, 4)
        tau_ref, _ = plain_eigsh(k0k, ksk, 4, tol=1e-9)
        assert_allclose(tau, tau_ref, rtol=1e-10)

    def test_eigenvalues_are_real(self, cross8):
        tau, _ = solve_band(*cross8_pencil(cross8, (2.5, 1.5)), 4)
        assert tau.dtype.kind == "f"


# ==========================================================================
# stability certificate and ARPACK non-convergence
# ==========================================================================


LOADS = {"tension": (1.0, 1.0, 0.0), "compression": (-1.0, 0.0, 0.0),
         "shear": (0.0, 0.0, 1.0)}


RESCALE_K = np.array([1.1, -2.0])


def rescaled_operators(cross8, top):
    """Full-node-set (K0, K_sigma) of the compressed cross8 cell, K_sigma
    scaled so that the top tau at RESCALE_K sits at top."""
    mesh, elem, rho = cross8
    k0_full, ks_full = loaded_operators(mesh, elem, rho,
                                        LOADS["compression"])
    _, k0k, ksk = band_pencil(mesh, k0_full, ks_full, RESCALE_K)
    w = sla.eigh(-ksk.toarray(), k0k.toarray(), eigvals_only=True)[-1]
    return k0_full, ks_full * (top / w)


class TestStabilityCertificate:
    """The cut's decision at TAU_TINY, the sweep's one stability
    certificate, against dense spectra of the sweep's pencils; at k = 0
    the pencil is the pinned one, decided through the pinned S(0)."""

    @pytest.mark.parametrize("load", sorted(LOADS))
    def test_certified_exactly_when_dense_top_is_tiny(self, cross8, load):
        mesh, elem, rho = cross8
        k0_full, ks_full = loaded_operators(mesh, elem, rho, LOADS[load])
        screen = _CutScreen(mesh, k0_full, ks_full)
        for k in ((0.0, 0.0), (np.pi, 0.0), (1.1, -2.0)):
            top = dense_bands(mesh, k0_full, ks_full, k)[0]
            assert screen.below(np.array(k), TAU_TINY) == (top <= TAU_TINY)

    def test_threshold_is_sharp(self, cross8):
        # the compressed pencil rescaled so its top band sits just above
        # and just below the threshold
        for ratio in (10.0, 0.1):
            screen = _CutScreen(cross8[0],
                                *rescaled_operators(cross8, ratio * TAU_TINY))
            assert screen.below(RESCALE_K, TAU_TINY) == (ratio < 1.0)

    @pytest.mark.parametrize("load", ["compression", "shear"])
    def test_pinned_center_matches_the_dense_pinned_pencil(self, cross8,
                                                           load):
        # S(0) itself is singular (A annihilates the translations); only
        # without reduced node 0 is it the pinned pencil's condensation
        mesh, elem, rho = cross8
        k0_full, ks_full = loaded_operators(mesh, elem, rho, LOADS[load])
        top = dense_bands(mesh, k0_full, ks_full, (0.0, 0.0))[0]
        assert top > TAU_TINY
        screen = _CutScreen(mesh, k0_full, ks_full)
        for ratio in (0.99, 1.01):
            assert screen.below(np.zeros(2), ratio * top) == (ratio > 1.0)


class TestNonConvergence:
    """ARPACK gives up at once, after converging the pairs given, or fails
    otherwise, converging none, on a one-sample sweep of the cross8 cell;
    buckling_strength settles the sample on the cut."""

    @pytest.fixture
    def arpack_gives_up(self, monkeypatch):
        def install(w, v):
            def give_up(*args, **kwargs):
                raise ArpackNoConvergence("no convergence", w, v)
            monkeypatch.setattr(bloch, "eigsh", give_up)
        return install

    @pytest.fixture
    def arpack_fails(self, monkeypatch):
        def fail(*args, **kwargs):
            raise ArpackError(3, {3: "No shifts could be applied"})
        monkeypatch.setattr(bloch, "eigsh", fail)

    @staticmethod
    def sample(cross8, load):
        """The only sample of a sweep of cross8 at RESCALE_K, m = 3."""
        mesh, elem, rho = cross8
        e_k, weights, _, _ = loaded_state(mesh, elem, rho, LOADS[load])
        out = buckling_strength(mesh, elem, e_k, weights, m=3,
                                store_modes=True,
                                k_points=(RESCALE_K[None], np.zeros(1)))
        assert len(out.samples) == 1
        return out.samples[0]

    @staticmethod
    def assert_weightless_zero_bands(smp, ndof):
        assert_array_equal(smp.tau, np.zeros(3))
        assert_array_equal(smp.modes, np.zeros((ndof, 3)))
        assert smp.transform.nnz == 0

    def test_certified_sample_returns_weightless_zero_bands(
            self, cross8, arpack_gives_up):
        ndof = cross8[0].ndof
        arpack_gives_up(np.empty(0), np.empty((ndof, 0)))
        with pytest.warns(RuntimeWarning, match="certified stable"):
            smp = self.sample(cross8, "tension")
        self.assert_weightless_zero_bands(smp, ndof)

    def test_no_band_on_a_destabilized_sample_raises(self, cross8,
                                                     arpack_gives_up):
        arpack_gives_up(np.empty(0), np.empty((cross8[0].ndof, 0)))
        with pytest.raises(AnalysisError, match="not certified stable"):
            self.sample(cross8, "compression")

    def test_other_failure_on_a_certified_sample_returns_zero_bands(
            self, cross8, arpack_fails):
        with pytest.warns(RuntimeWarning, match="certified stable"):
            smp = self.sample(cross8, "tension")
        self.assert_weightless_zero_bands(smp, cross8[0].ndof)

    def test_other_failure_on_a_destabilized_sample_raises(self, cross8,
                                                           arpack_fails):
        with pytest.raises(AnalysisError, match="not certified stable"):
            self.sample(cross8, "compression")

    def test_partial_convergence_keeps_the_converged_bands(
            self, cross8, arpack_gives_up):
        k0k, ksk = cross8_pencil(cross8, RESCALE_K)
        w, v = sla.eigh(-ksk.toarray(), k0k.toarray())
        # the solver works on the pencil shifted by +1 * K0
        arpack_gives_up(w[-1:] + 1.0, v[:, -1:])
        with pytest.warns(RuntimeWarning, match="converged only 1 of 3"):
            smp = self.sample(cross8, "compression")
        assert_allclose(smp.tau, w[-1:], rtol=1e-12)
        assert_array_equal(smp.modes, v[:, -1:])


# ==========================================================================
# the critical-only screen
# ==========================================================================


class TestScreen:
    """critical_only skips samples certified below the running tau_max."""

    @pytest.mark.parametrize("load", sorted(LOADS))
    def test_reports_the_full_sweep_result(self, cross8, load):
        mesh, elem, rho = cross8
        e_k, weights, _, _ = loaded_state(mesh, elem, rho, LOADS[load])
        full = buckling_strength(mesh, elem, e_k, weights, n_seg=2, m=3)
        out = buckling_strength(mesh, elem, e_k, weights, n_seg=2, m=3,
                                critical_only=True)
        for key in ("tau_max", "sigma_c", "critical_sample", "critical_band",
                    "buckled"):
            assert getattr(out, key) == getattr(full, key), key
        sizes = [s.tau.size for s in out.samples]
        if full.buckled:
            # the screen ran: some samples were skipped, none critical
            assert 0 in sizes
            assert sizes[out.critical_sample] == 3
        else:
            # nothing exceeds TAU_TINY, so nothing is screened
            assert sizes == [3] * len(full.samples)

    def test_pinned_center_keeps_its_bands(self, cross8, monkeypatch):
        # (pi, 0) tops every zone-center sample of the compressed cross and
        # comes first, so the two limits are screened like any sample
        mesh, elem, rho = cross8
        e_k, weights, _, _ = loaded_state(mesh, elem, rho)
        kpt = (np.array([[np.pi, 0.0], [0.0, 0.0]]), np.arange(2.0))
        full = buckling_strength(mesh, elem, e_k, weights, m=3, k_points=kpt)
        assert full.samples[0].tau[0] > max(s.tau[0] for s in full.samples[1:])

        def sizes():
            out = buckling_strength(mesh, elem, e_k, weights, m=3,
                                    k_points=kpt, critical_only=True)
            assert out.samples[3].pinned
            return [s.tau.size for s in out.samples]

        assert sizes() == [3, 0, 0, 3]
        # the cut test cannot prove the singular k = 0 pencil below a floor
        # anyway; with a screen that proves every sample, only the pinned
        # rule keeps it solved
        monkeypatch.setattr(_CutScreen, "below", lambda *args: True)
        assert sizes() == [3, 0, 0, 3]

    @pytest.mark.parametrize("ratio", [1.0 + 1e-4, 1.0 - 1e-3])
    def test_floor_is_sharp(self, cross8, ratio):
        floor = 10.0
        screen = _CutScreen(cross8[0], *rescaled_operators(cross8,
                                                           ratio * floor))
        assert screen.below(RESCALE_K, floor) == (ratio < 1.0)

    def test_indefinite_interior_block_keeps_the_full_sweep(self, cross8,
                                                             monkeypatch):
        # shear lifts (0.4, 2.7) above the zone center.  With the floor
        # between that sample's second band and the interior-clamped top
        # band, A_II and A(k) each have one negative eigenvalue, so S(k)
        # alone would screen the sample that the full sweep makes critical
        mesh, elem, rho = cross8
        k0_full, ks_full = loaded_operators(mesh, elem, rho, LOADS["shear"])
        kvec = np.array([0.4, 2.7])
        tau_k = dense_bands(mesh, k0_full, ks_full, kvec)
        clamped = clamped_bands(mesh, k0_full, ks_full)
        floor = 0.5 * (tau_k[1] + clamped[0])
        assert clamped[1] < tau_k[1] < floor < clamped[0] < tau_k[0]

        e_k, weights, _, _ = loaded_state(mesh, elem, rho, LOADS["shear"])
        pts = np.array([[0.0, 0.0], kvec])
        full = buckling_strength(mesh, elem, e_k, weights, m=3,
                                 k_points=(pts, np.arange(2.0)))
        assert full.critical_sample == 3
        zone_center = max(s.tau[0] for s in full.samples[:3])
        monkeypatch.setattr(bloch, "SCREEN_MARGIN",
                            1.0 - floor / zone_center)
        out = buckling_strength(mesh, elem, e_k, weights, m=3,
                                k_points=(pts, np.arange(2.0)),
                                critical_only=True)
        assert [s.tau.size for s in out.samples] == [3, 3, 3, 3]
        for key in ("tau_max", "critical_sample", "critical_band"):
            assert getattr(out, key) == getattr(full, key), key


# ==========================================================================
# the condensed test on the Bloch cut
# ==========================================================================


def gray_cell(n):
    """A random gray n x n cell with its mesh and element matrices."""
    mesh = build_mesh(n)
    rho = np.random.default_rng(n).uniform(0.3, 1.0, mesh.ne)
    return mesh, element_matrices(NU, mesh.h), rho


def dense_bands(mesh, k0_full, ks_full, k, axis=None, direction=None):
    """Every tau of the sweep's pencil at k, descending, from sla.eigh."""
    _, k0k, ksk = band_pencil(mesh, k0_full, ks_full, np.asarray(k, float),
                              axis, direction)
    return sla.eigh(-ksk.toarray(), k0k.toarray(), eigvals_only=True)[::-1]


def clamped_bands(mesh, k0_full, ks_full):
    """Every tau with the cell boundary clamped, descending."""
    inner = _CutScreen(mesh, k0_full, ks_full).inner
    ii = np.ix_(inner, inner)
    return sla.eigh(-ks_full.toarray()[ii], k0_full.toarray()[ii],
                    eigvals_only=True)[::-1]


CUT_KS = [(np.pi, 0.0), (np.pi, np.pi), (1.1, -2.0), (0.4, 2.7)]


class TestCutScreen:
    """below(k, floor) against dense spectra of the full pencil."""

    @pytest.mark.parametrize("load", sorted(LOADS))
    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_decision_matches_dense_spectrum(self, n, load):
        mesh, elem, rho = gray_cell(n)
        k0_full, ks_full = loaded_operators(mesh, elem, rho, LOADS[load])
        screen = _CutScreen(mesh, k0_full, ks_full)
        for k in CUT_KS:
            tau = dense_bands(mesh, k0_full, ks_full, k)
            # just above and just below the top band, and between the
            # second and third, where A(k) has two negative eigenvalues
            for floor in (tau[0] + 1e-5 * abs(tau[0]),
                          tau[0] - 1e-5 * abs(tau[0]),
                          0.5 * (tau[1] + tau[2])):
                proven = screen.below(np.array(k), floor)
                assert proven == (floor > tau[0]), (k, floor, tau[:3])

    @pytest.mark.parametrize(
        "k, direction", [(k, None) for k in CUT_KS]
        + [((0.0, 0.0), d) for d in LIMIT_DIRECTIONS + ((0.6, -0.8),)],
        ids=["X", "M", "c1", "c2", "Lx", "Ly", "Ld"])
    def test_cut_matrix_is_the_hermitian_schur_complement(self, k, direction):
        mesh, elem, rho = gray_cell(12)
        k0_full, ks_full = loaded_operators(mesh, elem, rho, LOADS["shear"])
        screen = _CutScreen(mesh, k0_full, ks_full)
        floor = 20.0
        h = screen.condense(floor)
        s = screen.schur(np.array(k), h, screen.expand(h), direction)
        assert_array_equal(s, s.conj().T)
        # the same Schur complement of the folded A(k), or of the limit
        # pencil, on the reduced dofs in their own numbering
        t = (bloch_transform(mesh, np.array(k)) if direction is None
             else limit_transform(mesh, direction))
        a = (floor * fold(k0_full, t) + fold(ks_full, t)).toarray()
        b = screen.cut_red
        i = np.setdiff1d(np.arange(mesh.ndof), b)
        ref = a[np.ix_(b, b)] - a[np.ix_(b, i)] @ np.linalg.solve(
            a[np.ix_(i, i)], a[np.ix_(i, b)])
        assert_allclose(s, ref, rtol=0, atol=1e-9 * np.abs(ref).max())

    def test_indefinite_interior_block_declines(self, cross8):
        # at (0.4, 2.7) under shear only the top band of A(k) lies above
        # this floor, as does only the top interior-clamped band: S(k) is
        # positive definite, A(k) is not, and only the A_II check says so
        mesh, elem, rho = cross8
        k0_full, ks_full = loaded_operators(mesh, elem, rho, LOADS["shear"])
        kvec = np.array([0.4, 2.7])
        tau_k = dense_bands(mesh, k0_full, ks_full, kvec)
        clamped = clamped_bands(mesh, k0_full, ks_full)
        floor = 0.5 * (tau_k[1] + clamped[0])
        assert clamped[1] < tau_k[1] < floor < clamped[0] < tau_k[0]
        screen = _CutScreen(mesh, k0_full, ks_full)
        assert screen.condense(floor) is None
        assert not screen.below(kvec, floor)
        # just above the clamped top band A_II is definite again, and S(k)
        # carries the sample's top band
        above = clamped[0] * (1.0 + 1e-6)
        assert screen.condense(above) is not None
        assert not screen.below(kvec, above)

    @pytest.mark.parametrize("load", sorted(LOADS))
    @pytest.mark.parametrize("n", [8, 10, 12])
    def test_cut_matrix_is_the_dense_schur_complement(self, n, load):
        # above the interior-clamped top band, so A_II is definite.  n = 10
        # splits the interior unevenly, and at n = 12 under tension one of
        # the two translation pivots would be exactly zero without the
        # spring on the last cut node
        mesh, elem, rho = gray_cell(n)
        k0_full, ks_full = loaded_operators(mesh, elem, rho, LOADS[load])
        floor = 1.5 * max(clamped_bands(mesh, k0_full, ks_full)[0], 1.0)
        screen = _CutScreen(mesh, k0_full, ks_full)
        h = screen.condense(floor)
        a = (floor * k0_full + ks_full).toarray()
        b, i = screen.cut, screen.inner
        ref = a[np.ix_(b, b)] - a[np.ix_(b, i)] @ np.linalg.solve(
            a[np.ix_(i, i)], a[np.ix_(i, b)])
        assert_array_equal(h, h.T)
        assert_allclose(h, ref, rtol=0, atol=1e-12 * np.abs(ref).max())

    @pytest.mark.parametrize("n", [4, 6, 10, 64, 96])
    def test_interior_order_is_a_permutation(self, n):
        mesh = build_mesh(n)
        inner = _CutScreen(mesh, None, None).inner
        row, col = np.divmod(np.arange(mesh.nn_full), n + 1)
        interior = (row > 0) & (row < n) & (col > 0) & (col < n)
        assert_array_equal(np.sort(inner),
                           np.flatnonzero(np.repeat(interior, 2)))

    @pytest.mark.parametrize("disorder", ["minimum_degree", "cut", "rows"])
    def test_disordered_factor_screens_nothing(self, cross8, monkeypatch,
                                               disorder):
        # the cut-last factor as SuperLU might hand it back: ordered by
        # minimum degree after all, with the last two cut columns swapped,
        # or with off-diagonal row pivots
        mesh, elem, rho = cross8
        e_k, weights, _, _ = loaded_state(mesh, elem, rho)
        full = buckling_strength(mesh, elem, e_k, weights, n_seg=2, m=3)
        k0_full, ks_full = loaded_operators(mesh, elem, rho,
                                            LOADS["compression"])
        floor = 2.0 * full.tau_max
        assert _CutScreen(mesh, k0_full, ks_full).below(RESCALE_K, floor)

        def disordered_lu(a):
            if a.shape[0] != mesh.ndof_full:     # not the cut-last factor
                return symmetric_lu(a)
            if disorder == "minimum_degree":
                return minimum_degree_lu(a)
            lu = symmetric_lu(a)
            perm_c = lu.perm_c.copy()
            if disorder == "cut":
                perm_c[-2:] = perm_c[[-1, -2]]
            perm_r = perm_c if disorder == "cut" else np.roll(perm_c, 1)
            return SimpleNamespace(perm_r=perm_r, perm_c=perm_c,
                                   L=lu.L, U=lu.U)

        monkeypatch.setattr(bloch, "symmetric_lu", disordered_lu)
        screen = _CutScreen(mesh, k0_full, ks_full)
        assert screen.condense(floor) is None
        assert not screen.below(RESCALE_K, floor)
        out = buckling_strength(mesh, elem, e_k, weights, n_seg=2, m=3,
                                critical_only=True)
        assert [s.tau.size for s in out.samples] == [3] * len(full.samples)
        for key in ("tau_max", "critical_sample", "critical_band"):
            assert getattr(out, key) == getattr(full, key), key


# ==========================================================================
# the real basis on the mirror lines
# ==========================================================================


def mirrored_cell(n, axes):
    """A random gray n x n cell made mirror-symmetric about each of axes
    (0: x -> 1 - x, 1: y -> 1 - y), with its mesh and element matrices.
    Both axes, with the transpose, give a D4-symmetric cell."""
    mesh = build_mesh(n)
    rho = np.random.default_rng(n + 10).uniform(0.3, 1.0, (n, n))
    if axes == (0, 1):
        rho = 0.5 * (rho + rho.T)
    for axis in axes:       # rows are y, columns x
        rho = 0.5 * (rho + np.flip(rho, axis=1 - axis))
    return mesh, element_matrices(NU, mesh.h), rho.ravel()


def cell_axes(cell, sigma0=LOADS["compression"]):
    """mirror_axes of the element fields of a cell loaded by sigma0."""
    mesh, elem, rho = cell
    e_k, weights, _, _ = loaded_state(mesh, elem, rho, sigma0)
    return mirror_axes(mesh, e_k, weights)


def mirror_symmetric(mesh, ops, axis):
    """The operator-level reference of mirror_axes: True when every
    full-node operator A in ops has |M A M - A|_F <= MIRROR_TOL |A|_F for
    the mirror M about axis: node coordinate c -> n - c, the axis component
    of each displacement negated."""
    n = mesh.n
    image = np.flip(np.arange(mesh.nn_full).reshape(n + 1, n + 1),
                    1 - axis).ravel()           # [row, column], rows are y
    dof = np.arange(mesh.ndof_full)
    m = sp.csr_matrix((np.where(dof % 2 == axis, -1.0, 1.0),
                       (dof, 2 * image.repeat(2) + dof % 2)),
                      shape=(mesh.ndof_full, mesh.ndof_full))
    return all(norm(m @ a @ m - a) <= MIRROR_TOL * norm(a) for a in ops)


def symmetry_cell(n, kind):
    """The cells of the symmetry test: asymmetric, one mirror (x or y),
    D4, D4 with one element off by 1e-10 and D4 with roundoff noise."""
    if kind == "asymmetric":
        return gray_cell(n)
    axes = {"x": (0,), "y": (1,)}.get(kind, (0, 1))
    mesh, elem, rho = mirrored_cell(n, axes)
    if kind == "d4_perturbed":
        rho[9] *= 1.0 + 1e-10
    elif kind == "d4_roundoff":
        noise = np.random.default_rng(n).standard_normal(rho.size)
        rho = rho * (1.0 + 1e-15 * noise)
    return mesh, elem, rho


# the axes of each cell under a load that keeps both mirrors
SYMMETRY_CELLS = {"asymmetric": (), "x": (0,), "y": (1,), "d4": (0, 1),
                  "d4_perturbed": (), "d4_roundoff": (0, 1)}
SYMMETRY_LOADS = {"compression": LOADS["compression"],
                  "biaxial": (-1.0, -1.0, 0.0), "shear": LOADS["shear"],
                  "mixed": (-1.0, -0.5, 0.25)}


@pytest.mark.parametrize("load", SYMMETRY_LOADS)
@pytest.mark.parametrize("kind", SYMMETRY_CELLS)
@pytest.mark.parametrize("n", [8, 16])
def test_mirror_axes_match_the_operators(n, kind, load):
    # the element-field test and the full-node operators agree, whatever
    # the load; under pure shear the normal stresses and the shear stress
    # of a D4 cell have the wrong parity, and both say so
    mesh, elem, rho = symmetry_cell(n, kind)
    e_k, weights, _, _ = loaded_state(mesh, elem, rho, SYMMETRY_LOADS[load])
    axes = mirror_axes(mesh, e_k, weights)
    ops = (assemble_k0(mesh, elem, e_k, reduced=False),
           stress_stiffness(mesh, elem, weights))
    assert axes == tuple(a for a in (0, 1) if mirror_symmetric(mesh, ops, a))
    if load in ("compression", "biaxial"):
        assert axes == SYMMETRY_CELLS[kind]
    elif load == "shear" and kind.startswith("d4"):
        assert axes == ()


def sweep(cell, pts, sigma0=LOADS["compression"], m=4):
    """The full band sweep over pts of a cell loaded by sigma0, modes kept."""
    mesh, elem, rho = cell
    e_k, weights, _, _ = loaded_state(mesh, elem, rho, sigma0)
    pts = np.asarray(pts, dtype=float)
    return buckling_strength(mesh, elem, e_k, weights, m=m, store_modes=True,
                             k_points=(pts, np.zeros(len(pts))))


def complex_sweep(monkeypatch, cell, pts):
    """sweep with every sample kept in the complex basis."""
    with monkeypatch.context() as mp:
        mp.setattr(bloch, "mirror_axes", lambda *args: ())
        return sweep(cell, pts)


MIRROR_EDGES = [(np.pi / 2, 0.0), (np.pi, np.pi / 2), (np.pi / 2, np.pi),
                (0.0, np.pi / 2)]


def richardson(taus):
    """The eps -> 0 limit of bands sampled at eps = 0.04, 0.02, 0.01 and
    0.005: they are even in eps (reciprocity), so three levels of
    Richardson extrapolation in eps^2 leave an O(eps^8) error."""
    t = np.asarray(taus)
    for level in range(1, len(t)):
        f = 4.0 ** level
        t = (f * t[1:] - t[:-1]) / (f - 1.0)
    return t[0]


RICHARDSON_EPS = (0.04, 0.02, 0.01, 0.005)


class TestMirrorBasis:
    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize(
        "k, direction", [(k, None) for k in MIRROR_EDGES]
        + [((0.0, 0.0), d) for d in LIMIT_DIRECTIONS],
        ids=["GX", "XM", "MY", "YG", "X0", "Y0"])
    def test_mirror_line_pencil_is_real(self, n, k, direction):
        cell = mirrored_cell(n, (0, 1))
        mesh, elem, rho = cell
        k0_full, ks_full = loaded_operators(mesh, elem, rho,
                                            LOADS["compression"])
        if direction is not None:
            # the zone-center limit ends the GX (YG) mirror line: its real
            # pencil's bands are the limits of the line's real-basis bands
            axis = mirror_axis(direction)
            out = sweep(cell, [k])
            smp = out.samples[axis]
            assert_array_equal(smp.direction, direction)
            assert smp.modes.dtype == np.float64
            taus = [dense_bands(mesh, k0_full, ks_full, eps * direction,
                                axis)[:4] for eps in RICHARDSON_EPS]
            assert_allclose(smp.tau, richardson(taus), rtol=1e-8)
            return
        axis = mirror_axis(k)
        assert axis in cell_axes(cell)
        _, k0k, ksk = band_pencil(mesh, k0_full, ks_full, np.array(k), axis)
        assert k0k.dtype == ksk.dtype == np.float64
        # U is unitary and takes the complex pencil to a real one
        t = bloch_transform(mesh, np.array(k))
        k0c, ksc = fold(k0_full, t), fold(ks_full, t)
        u = mirror_basis(mesh, np.array(k), axis).toarray()
        assert_allclose(u.conj().T @ u, np.eye(mesh.ndof), atol=1e-14)
        for a in (k0c, ksc):
            b = u.conj().T @ a.toarray() @ u
            assert np.abs(b.imag).max() <= 1e-13 * np.abs(b).max()
        tau_c, _ = solve_band(k0c, ksc, 4)
        out = sweep(cell, [k])
        assert out.samples[0].modes.dtype == np.float64
        assert_allclose(out.samples[0].tau, tau_c, rtol=1e-10)

    def test_one_mirror_realifies_only_its_edges(self, monkeypatch):
        cell = mirrored_cell(8, (0,))
        assert cell_axes(cell) == (0,)
        pts, _ = ibz_path(4)
        ref = complex_sweep(monkeypatch, cell, pts)
        out = sweep(cell, pts)
        for s, r in zip(out.samples, ref.samples):
            kx, ky = np.abs(s.k)
            on_x_mirror = ky in (0.0, np.pi) and kx > 0.0
            real = kx in (0.0, np.pi) and ky in (0.0, np.pi)
            assert (s.modes.dtype == np.float64) == (real or on_x_mirror), s.k
            if on_x_mirror and not real:
                assert_allclose(s.tau, r.tau, rtol=1e-10)
            else:
                assert_array_equal(s.tau, r.tau)

    def test_asymmetric_cell_keeps_the_complex_pencils(self):
        mesh, elem, rho = cell = gray_cell(8)
        k0_full, ks_full = loaded_operators(mesh, elem, rho,
                                            LOADS["compression"])
        assert cell_axes(cell) == ()
        out = sweep(cell, MIRROR_EDGES)
        for s in out.samples:
            assert s.modes.dtype == np.complex128
            tau, phi = solve_band(*band_pencil(mesh, k0_full, ks_full, s.k)[1:],
                                  4)
            assert_array_equal(s.tau, tau)
            assert_array_equal(s.modes, phi)

    def test_stability_gradient_matches_the_complex_basis(self, monkeypatch):
        mesh, elem, rho = mirrored_cell(8, (0, 1))
        cell = analyze_cell(mesh, elem, rho)
        kpt = (np.array([[np.pi / 2, 0.0]]), np.zeros(1))
        w_tau = [np.array([0.5, 0.3, 0.2, 0.0])]

        def grad():
            band = buckling_strength(mesh, elem, cell.e_k,
                                     cell.stress_weights, m=4, k_points=kpt,
                                     store_modes=True)
            return band, stability_grad(mesh, elem, cell, band, w_tau)

        band, g = grad()
        # the weighted bands are simple, so their gradients are defined
        assert np.all(-np.diff(band.samples[0].tau) > 1e-6
                      * band.samples[0].tau[0])
        assert band.samples[0].modes.dtype == np.float64
        monkeypatch.setattr(bloch, "mirror_axes", lambda *args: ())
        band_c, g_c = grad()
        assert band_c.samples[0].modes.dtype == np.complex128
        assert_allclose(g, g_c, rtol=0, atol=1e-8 * np.abs(g_c).max())


# ==========================================================================
# the column oracle
# ==========================================================================


def test_euler_column_critical_load(bar32):
    mesh, elem, rho = bar32
    e_k, weights, res, state = loaded_state(mesh, elem, rho)
    w = 4.0 * mesh.h
    # bar carries the entire unit force as uniform compression
    bar = rho > 0.5
    assert_allclose(state.s_unit[bar, 0], -1.0 / w, rtol=2e-2)

    k1 = np.pi / 2.0
    tau, _ = solve_band(*pencil(mesh, elem, e_k, weights, (k1, 0.0)), 2)
    lam = 1.0 / tau[0]
    p_euler = w ** 3 / 12.0 * k1 ** 2
    assert lam == pytest.approx(p_euler, rel=0.12), \
        f"column buckling load {lam:.4e} vs Euler {p_euler:.4e}"


# ==========================================================================
# path and sweep
# ==========================================================================


class TestIbzPath:
    def test_counts_and_endpoints(self):
        pts, arc = ibz_path(2)
        assert pts.shape == (8, 2)
        pts10, arc10 = ibz_path(10)
        assert pts10.shape == (40, 2)
        # unique samples on a closed loop
        assert len({tuple(np.round(p, 12)) for p in pts10}) == 40
        assert arc10[0] == 0.0
        assert np.all(np.diff(arc10) > 0.0)
        assert arc10[-1] < 4.0 * np.pi
        assert_allclose(pts10[0], [0.0, 0.0])
        assert_allclose(pts10[10], [np.pi, 0.0])
        assert_allclose(pts10[20], [np.pi, np.pi])
        assert_allclose(pts10[30], [0.0, np.pi])

    def test_rejects_short_path(self):
        with pytest.raises(ConfigError):
            ibz_path(1)


class TestBucklingStrength:
    def test_compressed_cross_buckles(self, cross8):
        mesh, elem, rho = cross8
        e_k, weights, _, _ = loaded_state(mesh, elem, rho)
        out = buckling_strength(mesh, elem, e_k, weights, n_seg=2, m=3)
        assert out.buckled
        assert out.sigma_c > 0.0
        assert out.sigma_c == pytest.approx(1.0 / out.tau_max)
        # zone center contributes three samples: 8 path points + 2 extras
        assert len(out.samples) == 10

    def test_tension_reports_no_buckling(self, bar32):
        # a bar in pure tension sheds no stability anywhere in the zone
        mesh, elem, rho = bar32
        e_k, weights, _, _ = loaded_state(mesh, elem, rho,
                                          sigma0=(1.0, 0.0, 0.0))
        with pytest.warns(RuntimeWarning, match="certified stable") as rec:
            out = buckling_strength(mesh, elem, e_k, weights, n_seg=2, m=2)
        assert not out.buckled
        assert out.sigma_c == np.inf
        # every sample is either solved or certified: none, the zone-center
        # limits included, leaves a band unconverged
        assert not [w for w in rec if "converged only" in str(w.message)]

    @pytest.mark.parametrize("critical_only", [False, True])
    def test_stable_sweep_certifies_first(self, bar32, monkeypatch,
                                          critical_only):
        # ARPACK fails on the first sample, the cut proves it stable, and
        # every later sample, the pinned k = 0 among them, is proven on
        # the cut without a solve
        mesh, elem, rho = bar32
        e_k, weights, _, _ = loaded_state(mesh, elem, rho,
                                          sigma0=(1.0, 0.0, 0.0))
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(bloch, "eigsh", counted)
        with pytest.warns(RuntimeWarning, match="certified stable"):
            out = buckling_strength(mesh, elem, e_k, weights, n_seg=2, m=2,
                                    critical_only=critical_only)
        assert len(calls) == 1
        assert not out.buckled
        assert all(s.tau.size == 2 and not s.tau.any() for s in out.samples)

    def test_converging_sweep_builds_no_cut_screen(self, cross8, monkeypatch):
        def refuse(*args):
            raise AssertionError("a cut screen was built")

        monkeypatch.setattr(_CutScreen, "__init__", refuse)
        mesh, elem, rho = cross8
        e_k, weights, _, _ = loaded_state(mesh, elem, rho)
        out = buckling_strength(mesh, elem, e_k, weights, n_seg=2, m=3)
        assert out.buckled
        assert all(s.tau.size == 3 for s in out.samples)

    @pytest.mark.parametrize("n, rho, sigma0, m, certified", [
        # the dense pinned k = 0 pencil tops out at a few 1e-9 here, which
        # is roundoff of the zero cluster, not a critical load of ~3e8;
        # ARPACK cannot converge there and the cut proves the sample
        (12, cross_density(12, 0.5), (1.0, 1.0, 0.0), 2, True),
        # every tau of a solid cell in tension is <= 0, the zone-center
        # limits' too; near k = 0 (offsets of 1e-4) roundoff had lifted the
        # top one above TAU_TINY
        (8, np.ones(64), (1.0, 0.0, 0.0), 6, False),
    ], ids=["cross12-biaxial", "solid8-uniaxial"])
    def test_tension_roundoff_is_not_buckling(self, n, rho, sigma0, m,
                                              certified):
        mesh = build_mesh(n)
        elem = element_matrices(NU, mesh.h)
        e_k, weights, _, _ = loaded_state(mesh, elem, rho, sigma0=sigma0)
        with (pytest.warns(RuntimeWarning, match="certified stable")
              if certified else nullcontext()):
            out = buckling_strength(mesh, elem, e_k, weights, n_seg=2, m=m)
        assert not out.buckled
        assert out.sigma_c == np.inf
        limits = [s for s in out.samples if s.direction is not None]
        assert len(limits) == 2
        assert all(s.tau.max() <= TAU_TINY for s in limits)

    def test_pinned_center_matches_real_reduced_pencil(self, cross8):
        mesh, elem, rho = cross8
        e_k, weights, _, _ = loaded_state(mesh, elem, rho)
        out = buckling_strength(mesh, elem, e_k, weights, n_seg=2, m=4)
        pinned = [s for s in out.samples if s.pinned]
        assert len(pinned) == 1
        # direct real assembly on the reduced dofs, same pinning
        k_red = assemble_k0(mesh, elem, e_k, reduced=True)
        ks_red = assemble(mesh.edofs, mesh.ndof, np.einsum(
            "ec,cij->eij", weights, elem.g_stress))
        tau_ref, _ = solve_band(pin(k_red.astype(complex), 1.0),
                                pin(ks_red.astype(complex), 0.0), 4)
        assert_allclose(pinned[0].tau, tau_ref, rtol=1e-10, atol=1e-12)


# ==========================================================================
# the zone-center limit
# ==========================================================================


class TestZoneCenterLimit:
    @pytest.mark.parametrize("direction", [(1.0, 0.0), (0.0, 1.0),
                                           (0.6, 0.8)],
                             ids=["x", "y", "oblique"])
    def test_limit_is_the_extrapolated_offsets(self, cross8, direction):
        # dense solves of the limit pencil and of the Bloch pencils at
        # k = eps d, eps = 0.04 ... 0.005, extrapolated to eps = 0
        mesh, elem, rho = cross8
        k0_full, ks_full = loaded_operators(mesh, elem, rho,
                                            LOADS["compression"])
        d = np.array(direction)
        limit = dense_bands(mesh, k0_full, ks_full, np.zeros(2),
                            direction=d)[:3]
        taus = [dense_bands(mesh, k0_full, ks_full, eps * d)[:3]
                for eps in RICHARDSON_EPS]
        assert_allclose(limit, richardson(taus), rtol=1e-9)

    def test_transform_drops_node0_and_carries_the_ramps(self, mesh8):
        n = mesh8.n
        t = limit_transform(mesh8, np.array([0.6, 0.8])).toarray()
        t0 = bloch_transform(mesh8, np.zeros(2)).toarray()
        # every column off reduced node 0 is T(0)'s
        assert_array_equal(t[:, 2:], t0[:, 2:])
        node = np.arange(mesh8.nn_full)
        ramp = 0.6 * (node % (n + 1) == n) + 0.8 * (node // (n + 1) == n)
        for c in range(2):
            assert_array_equal(t[c::2, c], ramp)
            assert_array_equal(t[1 - c::2, c], 0.0)
        # the corner at the origin is fixed: the limit's gauge
        assert_array_equal(t[:2], 0.0)

    def test_k0_part_is_positive_definite(self, cross8):
        mesh, elem, rho = cross8
        k0_full, ks_full = loaded_operators(mesh, elem, rho,
                                            LOADS["compression"])
        for d in LIMIT_DIRECTIONS:
            _, k0k, ksk = band_pencil(mesh, k0_full, ks_full, np.zeros(2),
                                      direction=d)
            assert k0k.dtype == ksk.dtype == np.float64
            assert np.linalg.eigvalsh(k0k.toarray()).min() > 0.0

    def test_rejects_a_zero_direction(self, mesh8):
        for bad in ((0.0, 0.0), (np.nan, 1.0), (1.0,)):
            with pytest.raises(ConfigError, match="direction"):
                limit_transform(mesh8, np.array(bad))

    def test_every_tau_is_independent_of_the_factor_order(self,
                                                          monkeypatch):
        # the grid order and SuperLU's minimum-degree order factor every
        # pencil of the sweep differently; no sample, the zone-center
        # limits included, may feel it beyond the solver tolerance.  The
        # old offsets k = (0.01, 0) moved by 2.9e-9 relative here
        mesh = build_mesh(8)
        elem = element_matrices(NU, mesh.h)
        e_k, weights, _, _ = loaded_state(mesh, elem, cross_density(8, 0.35))
        grid = buckling_strength(mesh, elem, e_k, weights, n_seg=2, m=4)
        monkeypatch.setattr(bloch, "symmetric_lu", minimum_degree_lu)
        mmd = buckling_strength(mesh, elem, e_k, weights, n_seg=2, m=4)
        assert grid.buckled
        for s, r in zip(grid.samples, mmd.samples):
            assert_allclose(s.tau, r.tau, rtol=0,
                            atol=1e-10 * np.abs(r.tau).max())
