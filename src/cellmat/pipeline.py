"""The shared analysis chain and full property evaluation of a design.

analyze_cell is the one spelling of the chain from a physical (filtered
and projected) density to everything the strength measures need:
interpolated moduli, homogenization, the macro strain of the unit load,
element stresses and the stress weights of the geometric stiffness.  The
optimizer, the evaluator, the gradient check and the CLI band commands
all start from it.  evaluate_design applies no design chain: its input
field is taken as the physical density.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .bloch import buckling_strength
from .design import interpolate
from .element import element_matrices
from .errors import ConfigError
from .gridio import check_density, check_material
from .homogenize import HomogResult, homogenize
from .materials import classify_failure
from .mesh import build_mesh
from .sensitivity import grad_ebar, stability_grad, stress_grad
from .stress import StressState, element_stresses, macro_strain, \
    yield_strength

NU = 1.0 / 3.0
# band sweep of every property report: segments per zone edge, bands per k
REPORT_N_SEG = 10
REPORT_M_BANDS = 6


@dataclass
class CellAnalysis:
    e_k: np.ndarray            # (ne,) elastic moduli
    de_k: np.ndarray           # their density derivatives
    e_g: np.ndarray            # (ne,) geometric-stiffness moduli
    de_g: np.ndarray
    homog: HomogResult
    eps0: np.ndarray           # macro strain of the unit compressive load
    stresses: StressState
    stress_weights: np.ndarray  # (ne, 3) e_g * s_unit, feeds the band sweep


def analyze_cell(mesh, elem, rho_bar):
    """Moduli, homogenization, stresses and band weights of a physical field."""
    e_k, de_k = interpolate(rho_bar, "stiffness")
    e_g, de_g = interpolate(rho_bar, "geometric")
    homog = homogenize(mesh, elem, e_k)
    eps0 = macro_strain(homog.cbar)
    st = element_stresses(mesh, elem, homog.chi, rho_bar, eps0)
    return CellAnalysis(e_k=e_k, de_k=de_k, e_g=e_g, de_g=de_g, homog=homog,
                        eps0=eps0, stresses=st,
                        stress_weights=e_g[:, None] * st.s_unit)


@dataclass
class DesignReport:
    n: int
    volume_fraction: float
    ebar: float
    kappa_bar: float
    sigma_y: float
    sigma_c: float | None = None
    tau_max: float | None = None
    k_critical: tuple | None = None
    failure: str | None = None
    material: str | None = None
    e1_gpa: float | None = None
    sigma_y_mpa: float | None = None
    sigma_c_mpa: float | None = None

    def to_dict(self):
        d = asdict(self)
        if d["k_critical"] is not None:
            d["k_critical"] = list(d["k_critical"])
        return d


def area_bulk_modulus(cbar):
    """Inverse area change per unit equibiaxial stress."""
    s = cbar[0, 0] + cbar[1, 1] + cbar[0, 1] + cbar[1, 0]
    return 1.0 / s


def evaluate_design(rho_phys, n, sigma1_rel, material=None, with_bands=True,
                    n_seg=REPORT_N_SEG, m_bands=REPORT_M_BANDS):
    """Analyze a physical density field under the uniaxial unit load.

    material is an optional BaseMaterial used only for unit conversion
    and naming; sigma1_rel always sets the yield normalization.  The
    report needs only tau_max, sigma_c and k_critical, so its sweep runs
    with critical_only: every sample, the zone center's too, that the
    Bloch cut proves below the largest tau so far skips its eigen-solve
    (cellmat.bloch.buckling_strength).
    """
    rho_phys = np.asarray(rho_phys, dtype=float)
    if rho_phys.size != n * n:
        raise ConfigError(f"field has {rho_phys.size} values, mesh wants {n * n}")
    check_density(rho_phys, "density field")
    check_material(rho_phys, "density field")
    if not 0.0 < sigma1_rel < 1.0:
        raise ConfigError(f"sigma1_rel must be in (0,1), got {sigma1_rel}")

    mesh = build_mesh(n)
    elem = element_matrices(NU, mesh.h)
    cell = analyze_cell(mesh, elem, rho_phys)
    sigma_y = yield_strength(cell.stresses.max_vm, sigma1_rel)

    report = DesignReport(
        n=n, volume_fraction=float(rho_phys.mean()),
        ebar=cell.homog.ebar, kappa_bar=area_bulk_modulus(cell.homog.cbar),
        sigma_y=sigma_y)
    if with_bands:
        # the sweep solves its zone center on the analysis's periodic
        # factor: on c2 at n = 64, 0.30M entries in L+U and 3 to 5 MB per
        # pair of classes
        band = buckling_strength(mesh, elem, cell.e_k, cell.stress_weights,
                                 n_seg=n_seg, m=m_bands, critical_only=True,
                                 solver=cell.homog.solver)
        report.sigma_c = band.sigma_c
        report.tau_max = band.tau_max
        kc = band.critical_k
        report.k_critical = (float(kc[0]), float(kc[1]))
        if np.isfinite(band.sigma_c):
            report.failure = classify_failure(band.sigma_c, sigma_y)
        else:
            report.failure = "yield"
    if material is not None:
        report.material = material.name
        report.e1_gpa = material.e1
        report.sigma_y_mpa = sigma_y * material.e1 * 1e3
        if report.sigma_c is not None and np.isfinite(report.sigma_c):
            report.sigma_c_mpa = report.sigma_c * material.e1 * 1e3
    return report


FD_STEP = 1e-6
CHECK_K = (1.1, 0.7)


def _fd_partial(func, x, idx):
    xp = x.copy()
    xp[idx] += FD_STEP
    fp = func(xp)
    xp[idx] -= 2.0 * FD_STEP
    fm = func(xp)
    return (fp - fm) / (2.0 * FD_STEP)


def gradient_check(n, elements, seed):
    """Adjoint gradients against central differences at random elements.

    Checks the three analysis gradients on a random smooth density:
    effective modulus, a fixed weighted sum of element stresses and a
    fixed weighted sum of inverse load factors at one generic wavevector.
    Returns a dict of max relative errors.
    """
    if elements < 1 or seed < 0:
        raise ConfigError(f"need elements >= 1 and seed >= 0, got "
                          f"{elements} and {seed}")
    mesh = build_mesh(n)
    elem = element_matrices(NU, mesh.h)
    rng = np.random.default_rng(seed)
    # generic rough field keeps the checked bands simple
    rho = rng.uniform(0.35, 0.85, mesh.ne)
    w_vm = rng.uniform(0.1, 1.0, mesh.ne)
    w_tau = np.array([0.5, 0.3, 0.2, 0.0])
    idx = rng.choice(mesh.ne, size=min(elements, mesh.ne), replace=False)
    kpt = (np.array([CHECK_K]), np.zeros(1))

    def sweep(cell):
        return buckling_strength(mesh, elem, cell.e_k, cell.stress_weights,
                                 m=w_tau.size, k_points=kpt, store_modes=True,
                                 solver=cell.homog.solver)

    def f_ebar(r):
        return analyze_cell(mesh, elem, r).homog.ebar

    def f_vm(r):
        return float(w_vm @ analyze_cell(mesh, elem, r).stresses.vm)

    def f_tau(r):
        return float(w_tau @ sweep(analyze_cell(mesh, elem, r)).samples[0].tau)

    c = analyze_cell(mesh, elem, rho)
    band = sweep(c)
    grads = {
        "ebar": (grad_ebar(c), f_ebar),
        "stress": (stress_grad(mesh, elem, c, w_vm), f_vm),
        "tau": (stability_grad(mesh, elem, c, band, [w_tau]), f_tau),
    }
    out = {"n": n, "elements": int(idx.size), "seed": seed}
    for name, (g, func) in grads.items():
        worst = 0.0
        for i in idx:
            fd = _fd_partial(func, rho, int(i))
            denom = max(abs(fd), abs(g[i]), 1e-12)
            worst = max(worst, abs(g[i] - fd) / denom)
        out[f"err_{name}"] = worst
    out["pass"] = bool(out["err_ebar"] < 1e-4 and out["err_stress"] < 1e-4
                       and out["err_tau"] < 1e-3)
    return out
