"""Bloch reduction, band solves and the buckling sweep.

The end-to-end oracle is a slender horizontal bar under uniaxial
compression: at wavevector (k, 0) its critical load must approach the
classical sinusoidal-column value P = E I k^2 with I = w^3 / 12.
"""

import hashlib
import json
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from numpy.testing import assert_allclose, assert_array_equal
from scipy.sparse.linalg import (ArpackError, ArpackNoConvergence, eigsh,
                                 norm, splu)

from conftest import cross_density
from cellmat import bloch, cli, fem
from cellmat.bloch import (
    LIMIT_DIRECTIONS,
    TAU_TINY,
    SweepOperators,
    _CutScreen,
    band_pencil,
    bloch_transform,
    buckling_strength,
    fold,
    ibz_path,
    limit_transform,
    quarter_operators,
    solve_band,
    stress_stiffness,
)
from cellmat.design import interpolate
from cellmat.element import element_matrices
from cellmat.errors import AnalysisError, ConfigError
from cellmat.fem import RESIDUAL_TOL, assemble, assemble_k0, symmetric_lu
from cellmat.gridio import read_grid, write_grid
from cellmat.homogenize import class_stiffness, homogenize
from cellmat.materials import get_material
from cellmat.mesh import MIRROR_TOL, PINS, build_mesh, cell_basis, \
    class_basis, diagonal_blocks, mirror_axes, quarter_cell
from cellmat.pipeline import analyze_cell, evaluate_design
from cellmat.sensitivity import stability_grad
from cellmat.stress import element_stresses

NU = 1.0 / 3.0
RUNS = Path(__file__).resolve().parents[1] / "runs"


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


def loaded_quarter(mesh, elem, rho, sigma0):
    """The quarter_operators of a cell loaded by sigma0."""
    e_k, weights, _, _ = loaded_state(mesh, elem, rho, sigma0)
    return quarter_operators(mesh, elem, e_k, weights)


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


def sweep_operators(mesh, elem, e_k, weights):
    """(K0, K_sigma, quarter) of a sweep: its full-node operators and its
    quarter_operators, None off the two-mirror path."""
    ops = SweepOperators(mesh, elem, e_k, weights)
    return ops.k0_full, ops.ks_full, ops.quarter


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

    def test_pinned_center_is_screened(self, cross8, monkeypatch):
        # (pi, 0) tops every zone-center sample of the compressed cross and
        # comes first, so the two limits and the pinned k = 0, through S(0)
        # less reduced node 0, are screened like any sample
        mesh, elem, rho = cross8
        e_k, weights, _, _ = loaded_state(mesh, elem, rho)
        kpt = (np.array([[np.pi, 0.0], [0.0, 0.0]]), np.arange(2.0))
        full = buckling_strength(mesh, elem, e_k, weights, m=3, k_points=kpt)
        assert full.samples[0].tau[0] > max(s.tau[0] for s in full.samples[1:])

        def sizes():
            out = buckling_strength(mesh, elem, e_k, weights, m=3,
                                    k_points=kpt, critical_only=True)
            assert out.samples[3].pinned
            for key in ("tau_max", "critical_sample", "critical_band"):
                assert getattr(out, key) == getattr(full, key), key
            return [s.tau.size for s in out.samples]

        assert sizes() == [3, 0, 0, 0]
        # a sample the cut does not prove below the floor is solved
        monkeypatch.setattr(_CutScreen, "below", lambda *args: False)
        assert sizes() == [3, 3, 3, 3]

    @pytest.mark.parametrize("name", ["c2_stiff_f020_n64",
                                      "b1_buckling_f020_n64",
                                      "c4_codesign_f020_n64"])
    def test_report_solves_one_sample(self, name, monkeypatch):
        # the x limit comes first and is critical on every committed
        # blueprint; the cut proves each of the other 41 samples below it
        out = RUNS / name
        committed = json.loads((out / "report.json").read_text())
        rho, n = read_grid(out / "design_int.grid")
        calls = []

        def counted(*args):
            calls.append(args)
            return solve_band(*args)

        monkeypatch.setattr(bloch, "solve_band", counted)
        report = evaluate_design(
            rho, n, get_material(committed["material"]).sigma1_rel)
        assert len(calls) == 1
        assert_allclose(report.tau_max, committed["tau_max"], rtol=1e-12)

    def test_split_cut_matches_the_unsplit_on_a_blueprint(self):
        # the class-by-class screen of the c2 report decides every sample
        # of its n_seg = 10 sweep and both limits as the unsplit cut does,
        # just below and above the committed tau_max and at TAU_TINY
        out = RUNS / "c2_stiff_f020_n64"
        tau = json.loads((out / "report.json").read_text())["tau_max"]
        rho, n = read_grid(out / "design_int.grid")
        mesh = build_mesh(n)
        elem = element_matrices(NU, mesh.h)
        cell = analyze_cell(mesh, elem, rho)
        k0_full, ks_full, quarter = sweep_operators(mesh, elem, cell.e_k,
                                                    cell.stress_weights)
        assert quarter is not None
        pts, _ = ibz_path(10)
        jobs = ([(np.zeros(2), d) for d in LIMIT_DIRECTIONS]
                + [(k, None) for k in pts])
        split = _CutScreen(mesh, k0_full, ks_full, quarter)
        unsplit = _CutScreen(mesh, k0_full, ks_full)
        for floor in (0.99 * tau, 1.01 * tau, TAU_TINY):
            got = [split.below(k, floor, d) for k, d in jobs]
            assert got == [unsplit.below(k, floor, d) for k, d in jobs], floor
            # 1.01 tau_max proves every sample, and a floor below it not
            # the critical x limit
            assert all(got) == got[0] == (floor > tau)

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


def dense_bands(mesh, k0_full, ks_full, k, quarter=None, direction=None):
    """Every tau of the sweep's pencil at k, descending, from sla.eigh."""
    _, k0k, ksk = band_pencil(mesh, k0_full, ks_full, np.asarray(k, float),
                              quarter, direction)
    return sla.eigh(-ksk.toarray(), k0k.toarray(), eigvals_only=True)[::-1]


def clamped_bands(mesh, k0_full, ks_full):
    """Every tau with the cell boundary clamped, descending."""
    inner = _CutScreen(mesh, k0_full, ks_full).inner
    ii = np.ix_(inner, inner)
    return sla.eigh(-ks_full.toarray()[ii], k0_full.toarray()[ii],
                    eigvals_only=True)[::-1]


CUT_KS = [(np.pi, 0.0), (np.pi, np.pi), (1.1, -2.0), (0.4, 2.7)]
MIRROR_EDGES = [(np.pi / 2, 0.0), (np.pi, np.pi / 2), (np.pi / 2, np.pi),
                (0.0, np.pi / 2)]
# the corners of the quarter zone, the pinned zone center first
CORNERS = [(0.0, 0.0), (np.pi, 0.0), (np.pi, np.pi), (0.0, np.pi)]
# the samples of a split screen: the corners, a point of each edge and
# two with negative components, and both zone-center limits
SPLIT_SAMPLES = ([(k, None) for k in CORNERS + MIRROR_EDGES
                  + [(-1.1, 0.0), (np.pi, -0.7)]]
                 + [((0.0, 0.0), d) for d in LIMIT_DIRECTIONS])


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

    @pytest.mark.parametrize("disorder", [
        "minimum_degree", "cut", "rows",
        "class_minimum_degree", "class_cut", "class_rows"])
    def test_disordered_factor_screens_nothing(self, cross8, monkeypatch,
                                               disorder):
        # the cut-last factor as SuperLU might hand it back: ordered by
        # minimum degree after all, with the last two cut columns swapped,
        # or with off-diagonal row pivots.  class_*: each class factor of
        # the split screen of a two-mirror cell, one at a time (the
        # classes after it are not factored), then all four
        split = disorder.startswith("class_")
        disorder = disorder.removeprefix("class_")
        mesh, elem, rho = mirrored_cell(8, (0, 1)) if split else cross8
        e_k, weights, _, _ = loaded_state(mesh, elem, rho)
        full = buckling_strength(mesh, elem, e_k, weights, n_seg=2, m=3)
        if split:
            k0_full, ks_full, quarter = sweep_operators(mesh, elem, e_k,
                                                        weights)
            sizes = set(np.diff(cell_basis(mesh.n).bounds).tolist())
        else:
            k0_full, ks_full = loaded_operators(mesh, elem, rho,
                                                LOADS["compression"])
            quarter, sizes = None, {mesh.ndof_full}
        floor = 2.0 * full.tau_max
        assert _CutScreen(mesh, k0_full, ks_full, quarter).below(RESCALE_K,
                                                                 floor)
        factored = []

        def disordered_lu(a, which=None):
            if a.shape[0] not in sizes:         # not a cut-last factor
                return symmetric_lu(a)
            factored.append(a.shape[0])
            if which is not None and len(factored) != which + 1:
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

        for which in range(4) if split else ():
            factored.clear()
            monkeypatch.setattr(bloch, "symmetric_lu",
                                lambda a, w=which: disordered_lu(a, w))
            screen = _CutScreen(mesh, k0_full, ks_full, quarter)
            assert screen.condense(floor) is None
            assert len(factored) == which + 1
        monkeypatch.setattr(bloch, "symmetric_lu", disordered_lu)
        screen = _CutScreen(mesh, k0_full, ks_full, quarter)
        assert screen.condense(floor) is None
        assert not screen.below(RESCALE_K, floor)
        factored.clear()
        out = buckling_strength(mesh, elem, e_k, weights, n_seg=2, m=3,
                                critical_only=True)
        assert factored
        assert [s.tau.size for s in out.samples] == [3] * len(full.samples)
        for key in ("tau_max", "critical_sample", "critical_band"):
            assert getattr(out, key) == getattr(full, key), key

    @pytest.mark.parametrize("load", sorted(LOADS))
    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_split_decision_matches_dense_spectrum(self, n, load):
        # the corners, the pinned k = 0, edge samples and both limits of a
        # two-mirror cell, proven class by class, and a k off the mirror
        # lines, proven on H merged from the H_c.  Shear breaks both
        # mirrors of the D4 cell (its normal stresses are odd), so its
        # screen is the unsplit one
        mesh, elem, rho = mirrored_cell(n, (0, 1))
        e_k, weights, _, _ = loaded_state(mesh, elem, rho, LOADS[load])
        k0_full, ks_full, quarter = sweep_operators(mesh, elem, e_k, weights)
        assert (quarter is None) == (load == "shear")
        screen = _CutScreen(mesh, k0_full, ks_full, quarter)
        for k, d in SPLIT_SAMPLES + [((0.4, 2.7), None)]:
            tau = dense_bands(mesh, k0_full, ks_full, k, direction=d)
            for floor in (tau[0] + 1e-5 * abs(tau[0]),
                          tau[0] - 1e-5 * abs(tau[0]),
                          0.5 * (tau[1] + tau[2])):
                proven = screen.below(np.array(k), floor, d)
                assert proven == (floor > tau[0]), (k, d, floor, tau[:3])

    @pytest.mark.parametrize("load", ["compression", "tension"])
    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_class_condensations_are_the_rotated_one(self, n, load):
        # each H_c is Q_B^T H Q_B of the unsplit condensation, Q_B the cut
        # columns of class c of the cell basis, 2n of them
        mesh, elem, rho = mirrored_cell(n, (0, 1))
        e_k, weights, _, _ = loaded_state(mesh, elem, rho, LOADS[load])
        k0_full, ks_full, quarter = sweep_operators(mesh, elem, e_k, weights)
        floor = 1.5 * max(clamped_bands(mesh, k0_full, ks_full)[0], 1.0)
        h = _CutScreen(mesh, k0_full, ks_full).condense(floor)
        split = _CutScreen(mesh, k0_full, ks_full, quarter)
        hs = split.condense(floor)
        assert [hc.shape for hc in hs] == [(2 * n, 2 * n)] * 4
        for q, hc in zip(split.cut_basis, hs):
            assert_array_equal(hc, hc.T)
            ref = (q.T @ (q.T @ h).T).T
            assert_allclose(hc, ref, rtol=0, atol=1e-13 * np.abs(h).max())

    def test_class_blocks_are_the_full_node_operator(self):
        # the four class blocks from the quarter operators are the diagonal
        # blocks of Q^T A Q for the full-node A, and Q^T A Q has no entry
        # outside them
        mesh, elem, rho = mirrored_cell(12, (0, 1))
        e_k, weights, _, _ = loaded_state(mesh, elem, rho)
        basis = cell_basis(12)
        q = basis.q.toarray()
        k0_full, ks_full, quarter = sweep_operators(mesh, elem, e_k, weights)
        for data, a in zip(quarter, (k0_full, ks_full)):
            ref = q.T @ a.toarray() @ q
            got = sp.block_diag(diagonal_blocks(basis.assemble(data)[0],
                                                basis.bounds)).toarray()
            assert_allclose(got, ref, rtol=0, atol=1e-15 * np.abs(ref).max())

    def test_the_cell_basis_and_its_blocks_are_unchanged(self, monkeypatch):
        # digests of the cell basis and of the four class blocks, with the
        # interior size and the springs, that the split screen factors for
        # a fixed random quarter operator, as at the split's introduction
        factored = []
        monkeypatch.setattr(bloch, "_condensed", lambda *args: (
            factored.append(args) or np.zeros((1, 1))))
        for n, digest in ((8, "eda7928c7ad21b1f"), (64, "b0a05fdf172aee8a")):
            basis = cell_basis(n)
            rng = np.random.default_rng(n)
            quarter = rng.standard_normal((2, quarter_cell(n).row.size))
            factored.clear()
            assert _CutScreen(build_mesh(n), None, None, quarter).condense(
                1.0) is not None
            h = hashlib.sha256()
            for a in (basis.q.data, basis.q.indices, basis.q.indptr,
                      basis.col, basis.coef, np.array(basis.bounds)):
                h.update(np.ascontiguousarray(a).tobytes())
            for a, ni, springs in factored:
                h.update(np.array([*a.shape, ni, *springs]).tobytes())
                for x in (a.data, a.indices, a.indptr):
                    h.update(np.ascontiguousarray(x).tobytes())
            assert (len(factored), h.hexdigest()[:16]) == (4, digest)

    @pytest.mark.parametrize("k", [k for k, d in SPLIT_SAMPLES if d is None])
    def test_cut_matrix_splits_by_class(self, k):
        # in the class basis of the reduced cut, the cut rows of
        # class_basis(n, k), S(k) is real and block diagonal, and its
        # blocks are those the split screen gathers from the H_c
        mesh, elem, rho = mirrored_cell(12, (0, 1))
        e_k, weights, _, _ = loaded_state(mesh, elem, rho)
        k0_full, ks_full, quarter = sweep_operators(mesh, elem, e_k, weights)
        floor = 20.0
        unsplit = _CutScreen(mesh, k0_full, ks_full)
        h = unsplit.condense(floor)
        k = np.array(k)
        s = unsplit.schur(k, h, unsplit.expand(h))
        q = class_basis(12, k).q[unsplit.cut_red]
        q = q[:, np.flatnonzero(abs(q).sum(axis=0))].toarray()
        ref = q.conj().T @ s @ q
        split = _CutScreen(mesh, k0_full, ks_full, quarter)
        got = sla.block_diag(*split.class_schur(k, split.condense(floor)))
        assert got.dtype == np.float64
        assert_allclose(got, ref, rtol=0, atol=1e-14 * np.abs(ref).max())

    def test_limit_rows_are_built_once(self, monkeypatch):
        # the cut rows of T_d come once per direction and screen; the
        # unsplit S_d is bitwise the one from T_d itself, the split one its
        # rotation
        calls = []
        monkeypatch.setattr(bloch, "limit_transform", lambda *args: (
            calls.append(args[1]) or limit_transform(*args)))
        mesh, elem, rho = mirrored_cell(12, (0, 1))
        e_k, weights, _, _ = loaded_state(mesh, elem, rho)
        k0_full, ks_full, quarter = sweep_operators(mesh, elem, e_k, weights)
        floor = 20.0
        screen = _CutScreen(mesh, k0_full, ks_full)
        split = _CutScreen(mesh, k0_full, ks_full, quarter)
        h, hs = screen.condense(floor), split.condense(floor)
        for d in LIMIT_DIRECTIONS:
            tb = limit_transform(mesh, d).tocsr()[screen.cut]
            tb = tb[:, screen.cut_red]
            ref = tb.T @ (tb.T @ h).T
            ref = 0.5 * (ref + ref.T)
            for _ in range(2):
                assert_array_equal(screen.schur(np.zeros(2), h, None, d), ref)
                [s] = split.class_schur(np.zeros(2), hs, d)
                assert_allclose(s, ref, rtol=0, atol=1e-13 * np.abs(ref).max())
        assert len(calls) == 4


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


def assert_two_stage_fold(n, k):
    """The class pencil at k of the loaded D4 cell of n, which comes with
    no transform, equals the real diagonal blocks of Q^H fold(T(k)) Q
    within 1e-15 of its largest entry."""
    mesh, elem, rho = cell = mirrored_cell(n, (0, 1))
    assert cell_axes(cell) == (0, 1)
    k0_full, ks_full = loaded_operators(mesh, elem, rho, LOADS["compression"])
    t, k0k, ksk = band_pencil(mesh, k0_full, ks_full, k,
                              loaded_quarter(mesh, elem, rho,
                                             LOADS["compression"]))
    assert t is None
    tk, basis = bloch_transform(mesh, k), class_basis(mesh.n, k)
    cls = np.repeat(np.arange(len(basis.bounds) - 1), np.diff(basis.bounds))
    for a, a_full in ((k0k, k0_full), (ksk, ks_full)):
        b = (basis.q.conj().T @ fold(a_full, tk) @ basis.q).real
        b = b.toarray() * (cls[:, None] == cls[None, :])
        ref = 0.5 * (b + b.T)
        assert np.abs(a.toarray() - ref).max() <= 1e-15 * np.abs(ref).max()


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
        "k, direction", [(k, None) for k in MIRROR_EDGES + CORNERS]
        + [((0.0, 0.0), d) for d in LIMIT_DIRECTIONS],
        ids=["GX", "XM", "MY", "YG", "G", "X", "M", "Y", "X0", "Y0"])
    def test_mirror_line_pencil_is_real(self, n, k, direction):
        cell = mirrored_cell(n, (0, 1))
        mesh, elem, rho = cell
        k0_full, ks_full = loaded_operators(mesh, elem, rho,
                                            LOADS["compression"])
        quarter = loaded_quarter(mesh, elem, rho, LOADS["compression"])
        if direction is not None:
            # the zone-center limit ends the GX (YG) mirror line: its
            # pencil's bands are the limits of the line's class-basis bands
            out = sweep(cell, [k])
            smp = out.samples[int(direction[1])]
            assert_array_equal(smp.direction, direction)
            assert smp.modes.dtype == np.float64
            taus = [dense_bands(mesh, k0_full, ks_full, eps * direction,
                                quarter)[:4] for eps in RICHARDSON_EPS]
            assert_allclose(smp.tau, richardson(taus), rtol=1e-8)
            return
        assert cell_axes(cell) == (0, 1)
        k = np.array(k)
        _, k0k, ksk = band_pencil(mesh, k0_full, ks_full, k, quarter)
        assert k0k.dtype == ksk.dtype == np.float64
        # Q(k) is unitary and takes the complex pencil to a real one,
        # block diagonal by class: band_pencil assembles the blocks alone
        basis = class_basis(n, k)
        q = basis.q.toarray()
        assert q.shape[1] == mesh.ndof - 2 * (not k.any())
        assert_allclose(q.conj().T @ q, np.eye(q.shape[1]), atol=1e-14)
        cls = np.repeat(np.arange(len(basis.bounds) - 1),
                        np.diff(basis.bounds))
        off = cls[:, None] != cls[None, :]
        t = bloch_transform(mesh, k)
        for a in (k0_full, ks_full):
            b = q.conj().T @ fold(a, t).toarray() @ q
            assert np.abs(b.imag).max() <= 1e-13 * np.abs(b).max()
            assert np.abs(b[off]).max() <= 1e-13 * np.abs(b).max()
        # the complex torus pencil, in the basis less the pins at k = 0
        ref = band_pencil(mesh, k0_full, ks_full, k)[1:]
        tau_c, _ = solve_band(*(a.astype(complex) for a in ref), 4)
        out = sweep(cell, [k])
        smp = out.samples[-1]
        assert smp.pinned == (not k.any())
        assert smp.modes.dtype == np.float64
        assert_allclose(smp.tau, tau_c, rtol=1e-10)

    @pytest.mark.parametrize("k", MIRROR_EDGES, ids=["GX", "XM", "MY", "YG"])
    def test_one_fold_matches_the_two_stage_fold(self, k):
        # the class pencil, assembled from the quarter cell, equals the
        # complex fold with T(k) followed by the real diagonal blocks of
        # Q^H . Q, up to the roundoff of the product order
        assert_two_stage_fold(16, np.array(k))

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("k, other", [
        ((1.1, 0.0), (2.9, 0.0)), ((np.pi, -0.7), (np.pi, 0.2)),
        ((-0.3, np.pi), (1.4, -np.pi)), ((0.0, -2.9), (0.0, 0.4))],
        ids=["GX", "XM", "MY", "YG"])
    def test_any_edge_k_matches_the_two_stage_fold(self, n, k, other):
        # the phase of k enters the quarter assembly per call; the
        # structure is shared along the edge
        assert_two_stage_fold(n, np.array(k))
        assert class_basis(n, other).assembly \
            is class_basis(n, k).assembly

    def test_pinned_pencil_is_the_class_stiffness(self):
        # one class assembly: the pinned k = 0 K0 of the sweep is the
        # stiffness homogenize factors, bitwise: the class basis at k = 0
        # has no columns for the pins
        mesh, elem, rho = mirrored_cell(16, (0, 1))
        e_k, weights, _, _ = loaded_state(mesh, elem, rho)
        _, k0k, _ = band_pencil(
            mesh, assemble_k0(mesh, elem, e_k, reduced=False),
            stress_stiffness(mesh, elem, weights), np.zeros(2),
            quarter_operators(mesh, elem, e_k, weights))
        ref = sp.block_diag(class_stiffness(mesh, elem, e_k), format="csc")
        for a in ("data", "indices", "indptr"):
            assert_array_equal(getattr(k0k, a), getattr(ref, a))

    def test_one_mirror_cell_keeps_the_complex_pencils(self, monkeypatch):
        # the class basis needs both mirrors: a cell with one keeps the
        # torus-order pencils, complex off the corners of the quarter zone
        cell = mirrored_cell(8, (0,))
        assert cell_axes(cell) == (0,)
        pts, _ = ibz_path(4)
        ref = complex_sweep(monkeypatch, cell, pts)
        out = sweep(cell, pts)
        for s, r in zip(out.samples, ref.samples):
            kx, ky = np.abs(s.k)
            real = kx in (0.0, np.pi) and ky in (0.0, np.pi)
            assert (s.modes.dtype == np.float64) == real, s.k
            assert_array_equal(s.tau, r.tau)

    @pytest.mark.parametrize("axes", [(0, 1), (0,), ()],
                             ids=["two", "one", "none"])
    def test_only_a_two_mirror_cell_splits_the_cut(self, monkeypatch, axes):
        # the report sweep's screen is split by class exactly when the
        # cell keeps both mirrors; a one-mirror and an asymmetric cell keep
        # the unsplit cut, and every sweep reports the full sweep's result
        cell = gray_cell(8) if axes == () else mirrored_cell(8, axes)
        assert cell_axes(cell) == axes
        built = []
        init = _CutScreen.__init__

        def recorded(screen, mesh, k0_full, ks_full, quarter=None):
            built.append(quarter is not None)
            init(screen, mesh, k0_full, ks_full, quarter)

        monkeypatch.setattr(_CutScreen, "__init__", recorded)
        mesh, elem, rho = cell
        e_k, weights, _, _ = loaded_state(mesh, elem, rho)
        full = buckling_strength(mesh, elem, e_k, weights, n_seg=2, m=3)
        out = buckling_strength(mesh, elem, e_k, weights, n_seg=2, m=3,
                                critical_only=True)
        assert built == [axes == (0, 1)]
        assert 0 in [s.tau.size for s in out.samples]
        for key in ("tau_max", "critical_sample", "critical_band"):
            assert getattr(out, key) == getattr(full, key), key

    def test_negative_wavevectors_through_the_cli(self, tmp_path, capsys,
                                                  monkeypatch):
        # cellmat band at k with negative components takes the class
        # basis and matches the torus-order pencil
        mesh, _, rho = mirrored_cell(8, (0, 1))
        grid = tmp_path / "d4.grid"
        write_grid(grid, rho, 8)
        built = []
        monkeypatch.setattr(bloch, "class_basis", lambda n, k: built.append(
            tuple(k)) or class_basis(n, k))

        def band(k):
            assert cli.main(["band", "--grid", str(grid), f"--k={k}",
                             "--m-bands", "4"]) == 0
            return json.loads(capsys.readouterr().out)["samples"][0]["tau"]

        for k, kvec in (("-1.1,0", (-1.1, 0.0)), ("0.7,-3.141592653589793",
                                                  (0.7, -np.pi)),
                        ("-3.141592653589793,-3.141592653589793",
                         (-np.pi, -np.pi))):
            tau = band(k)
            assert built.pop() == kvec
            with monkeypatch.context() as mp:
                mp.setattr(bloch, "mirror_axes", lambda *args: ())
                ref = band(k)
            assert built == []
            assert_allclose(tau, ref, rtol=1e-10)

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

    def test_each_sample_is_held_to_its_own_band_count(self):
        # asking for more bands than a 4 x 4 cell has: each pencil gives
        # the min(m, size - 2) that solve_band targets, the pinned one,
        # two dofs smaller, two fewer, and no sample is put to the cut
        mesh = build_mesh(4)
        elem = element_matrices(NU, mesh.h)
        e_k, weights, _, _ = loaded_state(mesh, elem, cross_density(4, 0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = buckling_strength(mesh, elem, e_k, weights, n_seg=2,
                                    m=mesh.ndof)
        assert [s.tau.size for s in out.samples] == \
            [mesh.ndof - 4 if s.pinned else mesh.ndof - 2
             for s in out.samples]

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

    @pytest.mark.parametrize("n, rho, sigma0, m", [
        # the dense pinned k = 0 pencil tops out at a few 1e-9 here, which
        # is roundoff of the zero cluster, not a critical load of ~3e8.
        # ARPACK could not converge on it in the torus order, and the cut
        # proved the sample stable; split by class, every pencil of this
        # D4 cell converges to its roundoff
        (12, cross_density(12, 0.5), (1.0, 1.0, 0.0), 2),
        # every tau of a solid cell in tension is <= 0, the zone-center
        # limits' too; near k = 0 (offsets of 1e-4) roundoff had lifted the
        # top one above TAU_TINY
        (8, np.ones(64), (1.0, 0.0, 0.0), 6),
    ], ids=["cross12-biaxial", "solid8-uniaxial"])
    def test_tension_roundoff_is_not_buckling(self, n, rho, sigma0, m):
        mesh = build_mesh(n)
        elem = element_matrices(NU, mesh.h)
        e_k, weights, _, _ = loaded_state(mesh, elem, rho, sigma0=sigma0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
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
        # direct real assembly on the reduced dofs, less the rows and
        # columns of the pins
        free = np.setdiff1d(np.arange(mesh.ndof), PINS)
        k_red = assemble_k0(mesh, elem, e_k, reduced=True)[free][:, free]
        ks_red = assemble(mesh.edofs, mesh.ndof, np.einsum(
            "ec,cij->eij", weights, elem.g_stress))[free][:, free]
        tau_ref, _ = solve_band(k_red.astype(complex),
                                ks_red.astype(complex), 4)
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

    @pytest.mark.parametrize("load", ["compression", "shear", "biaxial"])
    @pytest.mark.parametrize("cell", ["cross8", "d4"])
    def test_pinned_bands_interlace_the_limits(self, cross8, cell, load):
        # pinning deletes the PINS columns of T(0), the two that T_d
        # replaces by ramps, so the pinned pencil is each limit's
        # compressed to codimension 2 (Cauchy interlacing)
        mesh, elem, rho = cross8
        if cell == "d4":
            rho = cross_density(8, 0.35)
        sigma0 = {**LOADS, "biaxial": (-1.0, -1.0, 0.0)}[load]
        k0_full, ks_full = loaded_operators(mesh, elem, rho, sigma0)
        _, k0p, ksp = band_pencil(mesh, k0_full, ks_full, np.zeros(2))
        pinned = sla.eigh(-ksp.toarray(), k0p.toarray(),
                          eigvals_only=True)[::-1]
        t0 = np.delete(bloch_transform(mesh, np.zeros(2)).toarray(), PINS,
                       axis=1)
        for d in LIMIT_DIRECTIONS + (np.array([0.6, -0.8]),):
            t = limit_transform(mesh, d).toarray()
            assert_array_equal(np.delete(t, PINS, axis=1), t0)
            _, k0l, ksl = band_pencil(mesh, k0_full, ks_full, np.zeros(2),
                                      direction=d)
            k0l, ksl = k0l.toarray(), ksl.toarray()
            limit = sla.eigh(-ksl, k0l, eigvals_only=True)[::-1]
            # roundoff of the dense solve, eps ||K_sigma|| ||K0^-1||: the
            # voids of the d4 cell leave K0 ill conditioned
            tol = (np.finfo(float).eps * np.linalg.norm(ksl, 2)
                   / np.linalg.eigvalsh(k0l)[0])
            assert np.all(limit[:-2] >= pinned - tol)
            assert np.all(pinned >= limit[2:] - tol)

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

    @pytest.mark.parametrize("name", ["c2_stiff_f020_n64",
                                      "b1_buckling_f020_n64",
                                      "b2_buckling_f020_n96",
                                      "c4_codesign_f020_n64", "d4_n16"])
    def test_bordered_limits_match_the_torus_fold(self, name):
        # a two-mirror limit is solved in the basis [T(0) Q0, r] on the
        # analysis's factors; each of its bands lies within 1e-9 tau_max
        # of the same limit folded with T_d in the torus order
        if name == "d4_n16":
            rho, n = mirrored_cell(16, (0, 1))[2], 16
        else:
            rho, n = read_grid(RUNS / name / "design_int.grid")
        mesh = build_mesh(n)
        elem = element_matrices(NU, mesh.h)
        cell = analyze_cell(mesh, elem, rho)
        ops = SweepOperators(mesh, elem, cell.e_k, cell.stress_weights,
                             cell.homog.solver)
        assert ops.quarter is not None
        assert ops.solver is cell.homog.solver
        got, ref = [], []
        for d in LIMIT_DIRECTIONS:
            t, k0k, ksk, solve = ops.pencil(np.zeros(2), d)
            assert t is None and solve is not None
            assert k0k.shape == (mesh.ndof, mesh.ndof)
            got.append(solve_band(k0k, ksk, 6, solve)[0])
            ref.append(solve_band(*band_pencil(
                mesh, ops.k0_full, ops.ks_full, np.zeros(2),
                direction=d)[1:], 6)[0])
        tau_max = np.abs(ref).max()
        assert_allclose(got, ref, rtol=0, atol=1e-9 * tau_max)

    @pytest.mark.parametrize("n", [8, 64])
    def test_bordered_solve_residual(self, n):
        # the solve of a limit's K0 from the pinned factors and a 2 x 2
        # Schur complement is as accurate as the periodic solve
        mesh, elem, rho = mirrored_cell(n, (0, 1))
        cell = analyze_cell(mesh, elem, rho)
        ops = SweepOperators(mesh, elem, cell.e_k, cell.stress_weights,
                             cell.homog.solver)
        rng = np.random.default_rng(n)
        for d in LIMIT_DIRECTIONS:
            _, k0k, _, solve = ops.pencil(np.zeros(2), d)
            f = rng.standard_normal((k0k.shape[0], 3))
            for j in range(3):
                r = k0k @ solve(f[:, j]) - f[:, j]
                assert (np.linalg.norm(r) <= RESIDUAL_TOL
                        * max(np.linalg.norm(f[:, j]), 1.0))

    def test_zone_center_makes_no_factor_of_its_own(self, monkeypatch):
        # given the analysis's solver, the three zone-center samples of a
        # two-mirror sweep are solved on its factors: the only factor
        # they ask for is its translation pair, once, which the adjoint
        # solves of the gradients would make anyway.  Without a solver
        # the sweep builds the same one from its class blocks
        mesh, elem, rho = mirrored_cell(8, (0, 1))
        cell = analyze_cell(mesh, elem, rho)
        factored = []

        def counted(a):
            factored.append(a.shape[0])
            return symmetric_lu(a)

        monkeypatch.setattr(bloch, "symmetric_lu", counted)
        monkeypatch.setattr(fem, "symmetric_lu", counted)
        center = (np.zeros((1, 2)), np.zeros(1))

        def sweep(solver):
            factored.clear()
            out = buckling_strength(mesh, elem, cell.e_k,
                                    cell.stress_weights, m=4,
                                    k_points=center, solver=solver)
            assert [s.tau.size for s in out.samples] == [4, 4, 4]
            return out, list(factored)

        pairs = mesh.classes.split, mesh.ndof - 2 - mesh.classes.split
        out, calls = sweep(cell.homog.solver)
        assert calls == [pairs[1]]
        again, calls = sweep(cell.homog.solver)
        assert calls == []
        own, calls = sweep(None)
        assert calls == list(pairs)
        for a, b, c in zip(out.samples, again.samples, own.samples):
            assert_array_equal(a.tau, b.tau)
            assert_allclose(a.tau, c.tau, rtol=1e-10)
