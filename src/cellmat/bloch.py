"""Bloch-Floquet buckling analysis of the compressed cell.

Cell-periodic operators are built once on the full (unreduced) node set;
for each wavevector k a phase-carrying reduction T(k) folds the boundary
dofs onto their masters, giving the Hermitian pencil

    -K_sigma(k) phi = tau K0(k) phi,    K(k) = T(k)^H K_full T(k).

tau is the inverse load factor, so the largest tau over all sampled k and
bands gives the critical load sigma_c = 1 / max tau.  K0(k) is positive
definite for every k except the zone center, where the two rigid
translations survive.  Both K0 and K_sigma annihilate translations, so at
k = 0 pinning one node's dofs is exact: every eigenpair of the pinned
pencil extends to the full one and vice versa.

The zone center is also sampled in its long-wavelength limit along x and
along y (LIMIT_DIRECTIONS), which holds the macroscopic branches that the
strictly periodic problem cannot see: the macroscopic-instability
condition of Geymonat, Mueller & Triantafyllidis (1993, ARMA 122:231).
The limit along a direction d is one more real pencil of the same size.
Let w = (wrap_x, wrap_y) mark the full nodes on the right and top edges,
U the two translations of the reduced dofs and V the others.  In the
basis W_eps = [U, i eps V], which is nonsingular for eps > 0,

    W_eps^H K(eps d) W_eps = eps^2 T_d^T K_full T_d + O(eps^3),

where T_d = limit_transform(mesh, d) is T(0) with the two columns of
reduced node 0 replaced by the ramps (d.w) T(0) U: K_full annihilates
T(0) U, so the phases of a translation enter at first order in eps, and
V is fixed only up to a translation, so node 0's own entries go.  The K0
part of (T_d^T K0 T_d, T_d^T K_sigma T_d) is positive definite, so its
eigenvalues are exactly the eps -> 0 limits of every band at k = eps d,
with none of the eps^2 cancellation that leaves roundoff in a sample at
small eps.  A limit sample reports k = (0, 0) and names its direction;
it is solved, screened and differentiated like any other sample.

band_pencil builds the pencil at one k, pinned exactly when k = 0, or in
the limit along d, and solve_band solves it; every solved sample of every
sweep, at every mesh size, takes this one path.  Where every component
of k is 0 or +-pi the phases are exactly +-1, so T(k), the folded pencil
and its modes are real and the band solve runs in real symmetric
arithmetic; elsewhere they are complex.  solve_band factors K0(k)
itself, by fem.symmetric_lu, in the order band_pencil hands it over:
band_pencil composes the mesh's nested-dissection order of the reduced
dofs (cellmat.mesh) into the transform, so the pencil comes ordered and
its modes still map to the full node set.  Every eigenvalue is then the
same, within the solver tolerance, whatever the factor order.

Every other sample of the path lies on a mirror line of the zone, where
one component of k is 0 or +-pi, and on a mirror line of a
mirror-symmetric cell the complex pencil is a real one in disguise.  Let
M be the mirror about axis x of the full node set (column c -> n - c,
u_x negated; axis y likewise with rows), with M K M = K for both
operators, and let ky be 0 or +-pi.  Then M T(k) = conj(T(k)) R_k, where
R_k is the reduced image of the mirror, so K(k) = R_k^H conj(K(k)) R_k:
the antiunitary conj o R_k commutes with the pencil and squares to 1.
The columns of the unitary U(k) = mirror_basis(mesh, k, axis) are fixed
by it, which makes U^H K(k) U real.  band_pencil folds the pencil with
U(k) after T(k) and keeps the real symmetric part, so such a sample is
solved in real arithmetic, with real modes that T(k) U(k) takes back to
the full node set.  Such a pencil couples each node with its mirror
image, so it comes in the order of the mirror quotient.
buckling_strength takes this basis on a mirror line only when the cell's
element fields, its moduli and stress weights, are mirror-symmetric
about its axis (mesh.mirror_axes, tested once per sweep); then M K M = K
holds for both operators.  An asymmetric cell keeps the complex pencils
everywhere.  Symmetric designs under the uniaxial load, the optimizer's
and the committed ones, are mirror-symmetric about both axes.

Only the largest tau matters for sigma_c.  K0(k) is positive definite
(pinned at k = 0), so the number of bands above a floor tau0 equals the
number of negative eigenvalues of A(k) = tau0 K0(k) + K_sigma(k)
(Sylvester's law of inertia, the Sturm-sequence check of finite-element
eigen-analysis): proving A(k) positive definite proves that no band at k
exceeds tau0.  buckling_strength proves it on the Bloch cut, the one
certificate, to settle a sample without an eigen-solve: at TAU_TINY
where ARPACK cannot converge because nothing is destabilized, and in the
evaluate_design report sweep below the largest tau found so far.  Only
the dofs on the cell boundary B carry Bloch phases; the interior dofs I
map to themselves at every k.  So the interior block A_II of the
full-node-set A = tau0 K0 + K_sigma is real and the same at every k, and
by Haynsworth's inertia additivity

    In(A(k)) = In(A_II) + In(S(k)),   S(k) = T_B(k)^H H T_B(k),
    H = A_BB - A_BI A_II^-1 A_IB,

where T_B(k) is T(k), or T_d, restricted to the boundary rows and
columns (for structures this is the Wittrick-Williams count).  One real
sparse factor of A per floor tau0, its interior dofs in
nested-dissection order and its 8n boundary dofs last, gives both: its
interior pivots prove A_II positive definite, and its trailing blocks
give the dense H = L_BB U_BB (substructuring).  Every sample is then
settled by a dense Cholesky factor of the (4n - 2)-square S(k), without
building its pencil.  T_B(k) is sum_w exp(i k.w) P_w over the wraps w of
the boundary nodes, so S(k) is a phase-weighted sum of real blocks
P_v^T H P_w, which are taken once per floor.  The pinned pencil at
k = 0 condenses to S(0) without the two rows and columns of reduced node
0, a corner on the cut.  The sweeps that print or differentiate every
band (cellmat sweep and band, the optimizer's KS aggregate and its
gradient, the gradient check) solve every sample not certified stable.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from .errors import AnalysisError, ConfigError
from .fem import PINS, assemble, assemble_k0, pin, symmetric_lu
from .mesh import dissection, mirror_axes, mirror_map, node_dofs

# the directions of the zone-center limit samples of every sweep
LIMIT_DIRECTIONS = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
# inverse load factors at or below this are numerically zero: no
# instability.  It sits above the roundoff of the pinned k = 0 zero
# cluster (a few 1e-10) and far below physical values (hundreds).
TAU_TINY = 1e-6
# a screened sample must lie below the running tau_max by this relative
# margin.  It sits above the error of a solved tau and of the screen's
# factors, so a sample the full sweep would have made critical is never
# screened.  Every sample is solved to ARPACK's tolerance, 1e-9: over
# the n_seg = 10 sweeps of the four committed blueprints, solving each
# pencil with SuperLU's minimum-degree factor or in the complex basis
# moved no sample's top tau by more than 7.6e-10 relative (the limits by
# at most 1.3e-11), so the margin leaves a factor of ten over the
# tolerance.
SCREEN_MARGIN = 1e-8


def stress_stiffness(mesh, elem, stress_weights):
    """Geometric stiffness of the weighted element stress field on the full
    node set.  stress_weights (ne, 3) carries the relaxed geometric modulus
    already multiplied into the unit center stresses.
    """
    ke = np.einsum("ec,cij->eij", stress_weights, elem.g_stress)
    return assemble(mesh.edofs_full, mesh.ndof_full, ke)


def bloch_transform(mesh, k):
    """Sparse T(k) mapping reduced periodic dofs to the full node set.

    T(k) is real (float64) when every component of k is 0 or +-pi: the
    Bloch phases are then exactly +-1.
    """
    k = np.asarray(k, dtype=float)
    if k.shape != (2,):
        raise ConfigError(f"wavevector must have two components, got {k!r}")
    # written so that NaN, which fails every comparison, is rejected too
    if not np.all(np.abs(k) <= np.pi + 1e-12):
        raise ConfigError(f"wavevector {k} outside the first zone [-pi, pi]^2")
    phase = np.exp(1j * (_wraps(mesh, np.arange(mesh.nn_full)) @ k))
    if np.all(_real_phase(k)):
        # exp(i pi) carries a roundoff imaginary part; drop it so the
        # folded pencil stays real and eigsh runs the symmetric solver
        phase = np.rint(phase.real)
    rows = np.arange(mesh.ndof_full)
    cols = np.empty(mesh.ndof_full, dtype=np.int64)
    cols[0::2] = 2 * mesh.master
    cols[1::2] = 2 * mesh.master + 1
    vals = np.repeat(phase, 2)
    return sp.coo_matrix((vals, (rows, cols)),
                         shape=(mesh.ndof_full, mesh.ndof)).tocsc()


def _real_phase(k):
    """Per component of k: is it 0 or +-pi, where the phase is +-1?"""
    return (k == 0.0) | (np.abs(np.abs(k) - np.pi) < 1e-12)


def _wraps(mesh, nodes):
    """(len(nodes), 2) float: is each full node on the right (wrap_x) or
    top (wrap_y) edge, the edges that fold onto their masters?"""
    n = mesh.n
    return np.column_stack([nodes % (n + 1) == n,
                            nodes // (n + 1) == n]).astype(float)


def limit_transform(mesh, direction):
    """Sparse real T_d of the zone-center limit along direction d (module
    doc): T(0) with the two columns of reduced node 0 (fem.PINS) replaced
    by ramps.  Every full dof of component c on a wrapped node gets d.w in
    column PINS[c], w = (wrap_x, wrap_y), and the entries of T(0) that map
    to node 0 are dropped.  Scaling d scales the ramp columns only, which
    leaves the limit's eigenvalues as they are.
    """
    d = np.asarray(direction, dtype=float)
    if d.shape != (2,) or not np.all(np.isfinite(d)) or not np.any(d):
        raise ConfigError("a zone-center limit needs a finite nonzero "
                          f"direction of two components, got {direction!r}")
    t = bloch_transform(mesh, np.zeros(2)).tocoo()
    keep = ~np.isin(t.col, PINS)
    nodes = np.arange(mesh.nn_full)
    ramp = np.repeat(_wraps(mesh, nodes) @ d, 2)
    rows = np.flatnonzero(ramp)
    return sp.coo_matrix(
        (np.concatenate([t.data[keep], ramp[rows]]),
         (np.concatenate([t.row[keep], rows]),
          np.concatenate([t.col[keep], np.asarray(PINS)[rows % 2]]))),
        shape=t.shape).tocsc()


def mirror_axis(k):
    """The axis whose mirror makes the pencil at k real (module doc): 0 when
    only ky is 0 or +-pi, 1 when only kx is, None otherwise."""
    real = _real_phase(np.asarray(k, dtype=float))
    if real[0] == real[1]:
        return None
    return 0 if real[1] else 1


def mirror_basis(mesh, k, axis):
    """Sparse unitary U(k) whose columns are fixed by conj o R_k.

    R_k is the reduced image of the mirror about axis at a k whose other
    component is 0 or +-pi: it maps node coordinate c to (n - c) mod n and
    negates the axis component, and a node at c = 0, its own image, takes
    the phase exp(i k[axis]).  A pair d < d' with R_k e_d = f e_d' gives
    the columns (e_d + conj(f) e_d') / sqrt(2) at d and
    i (e_d - conj(f) e_d') / sqrt(2) at d'; a dof that is its own image
    gives exp(i arg(conj f) / 2) e_d.  For a mirror-symmetric K_full,
    U^H K(k) U is then real (module doc).
    """
    image, c = mirror_map(mesh.n, axis)
    d = np.arange(mesh.ndof)
    img = 2 * image.repeat(2) + d % 2
    f = np.where(d % 2 == axis, -1.0, 1.0) * np.where(
        c.repeat(2) == 0, np.exp(1j * k[axis]), 1.0)
    fc = f.conj()
    r = np.sqrt(0.5)
    lo, own = d < img, d == img
    dl, il = d[lo], img[lo]
    rows = np.concatenate([d[own], dl, il, dl, il])
    cols = np.concatenate([d[own], dl, dl, il, il])
    vals = np.concatenate([np.exp(0.5j * np.angle(fc[own])),
                           np.full(dl.size, r), r * fc[lo],
                           np.full(dl.size, 1j * r), -1j * r * fc[lo]])
    return sp.csc_matrix((vals, (rows, cols)), shape=(mesh.ndof, mesh.ndof))


def fold(k_full, t):
    """T^H K T, Hermitized against roundoff."""
    a = t.conj().T @ (k_full @ t)
    return 0.5 * (a + a.conj().T)


def _real_fold(a, u):
    """Re(U^H a U), symmetrized against roundoff, without the entries that
    vanish exactly (in the real basis the two mirror classes decouple
    wherever no Bloch phase enters).  The real part is taken before the
    symmetrization, which keeps the complex temporaries to two; fold's
    four measurably raised the optimizer's peak memory."""
    b = (u.conj().T @ (a @ u)).real
    b = 0.5 * (b + b.T)
    b.eliminate_zeros()
    return b


def band_pencil(mesh, k0_full, ks_full, k, axis=None, direction=None):
    """(transform, K0(k), K_sigma(k)) from the full-node-set operators, both
    pinned (fem.pin) exactly at k = 0, the only k with a singular K0(k),
    unless direction names the zone-center limit along it (k = 0, module
    doc).

    The transform takes the pencil's modes to the full node set.  It is
    T(k), or T_d = limit_transform(mesh, direction), unless axis names a
    mirror of the cell (module doc): then each operator is folded with
    T(k), that with U(k) = mirror_basis(mesh, k, axis), and its real part
    is kept, a real symmetric pencil with real modes, and the transform is
    T(k) U(k).  The caller vouches that k lies on that mirror line
    (mirror_axis) and that the cell is mirror-symmetric about it
    (mesh.mirror_axes).
    The transform's columns come in the mesh's order for the factor of
    K0(k) (cellmat.mesh): the torus order, or in the mirror basis the
    order of the mirror quotient, so the pencil comes ordered.
    """
    if direction is not None:
        t = limit_transform(mesh, direction)
    else:
        t = bloch_transform(mesh, k)
    if axis is None:
        order = mesh.order
        t = t[:, order]
        k0k, ksk = fold(k0_full, t), fold(ks_full, t)
        if direction is None and not np.any(k):
            pins = np.argsort(order)[PINS]
            k0k, ksk = pin(k0k, 1.0, pins), pin(ksk, 0.0, pins)
        return t, k0k, ksk
    u = mirror_basis(mesh, k, axis)[:, mesh.mirror_orders[axis]]
    k0k = _real_fold(fold(k0_full, t), u)
    ksk = _real_fold(fold(ks_full, t), u)
    return t @ u, k0k, ksk


class _CutScreen:
    """No band at k above a floor, proven on the Bloch cut (module doc).

    The cut B is every dof of a node on the cell boundary of the full node
    set (8n dofs), the interior I every other one, inner in the
    nested-dissection order of the (n - 1) x (n - 1) interior nodes.  T(k)
    maps I to its reduced dofs with phase 1 and B to its masters, cut_red:
    the reduced dofs of the nodes on the left and bottom edges (4n - 2
    dofs).  So does the limit transform T_d, whose cut rows also carry the
    ramps into the columns of reduced node 0, itself on the cut.  H and
    its expansion (expand) are formed for one floor at a time, when a
    sample is first screened against it, and only when A_II is proven
    positive definite: otherwise no A(k) is positive definite and nothing
    is screened at that floor.
    """

    def __init__(self, mesh, k0_full, ks_full):
        n = mesh.n
        node = np.arange(mesh.nn_full)
        on_cut = np.repeat((node % (n + 1) % n == 0)
                           | (node // (n + 1) % n == 0), 2)
        red = np.arange(mesh.nn)
        self.mesh = mesh
        self.k0_full, self.ks_full = k0_full, ks_full
        self.cut = np.flatnonzero(on_cut)
        self.inner = node_dofs(dissection(
            node.reshape(n + 1, n + 1)[1:n, 1:n]))
        self.cut_red = np.flatnonzero(np.repeat((red % n == 0)
                                                | (red // n == 0), 2))
        # T_B(k) = sum_w exp(i k.w) P_w over the wraps w of the cut nodes,
        # with P_w the 0/1 map of the cut dofs of class w to their masters
        cut_node = self.cut // 2
        master = np.searchsorted(
            self.cut_red, 2 * mesh.master[cut_node] + self.cut % 2)
        wraps = _wraps(mesh, cut_node)
        self.classes = []
        for w in ((0, 0), (1, 0), (0, 1), (1, 1)):
            rows = np.flatnonzero(np.all(wraps == w, axis=1))
            self.classes.append((np.array(w), sp.csr_matrix(
                (np.ones(rows.size), (rows, master[rows])),
                shape=(self.cut.size, self.cut_red.size))))
        self.floor, self.h, self.terms = None, None, None

    def condense(self, floor):
        """H of A = floor K0 + K_sigma, or None if A_II is not proven
        positive definite.

        A is factored once with the cut ordered last, so the factor's
        trailing blocks give H = L_BB U_BB (substructuring).  The proof
        needs SuperLU to have kept this order and diagonal pivots, and
        every interior pivot positive.  A annihilates the two
        translations, which would leave the last two pivots at roundoff,
        sometimes exactly zero; a spring on the last cut node, taken off H
        again, keeps them clear.
        """
        order = np.concatenate([self.inner, self.cut])
        ni = self.inner.size
        a = (floor * self.k0_full + self.ks_full).tocsr()[order][:, order]
        spring = np.zeros(a.shape[0])
        spring[-2:] = np.abs(a.diagonal()).max()
        try:
            lu = symmetric_lu((a + sp.diags(spring)).tocsc())
        except RuntimeError:
            return None
        if not (np.array_equal(lu.perm_r, lu.perm_c)
                and np.array_equal(lu.perm_c[ni:], np.arange(ni, a.shape[0]))
                and np.all(lu.U.diagonal()[:ni] > 0.0)):
            return None
        h = lu.L[ni:, ni:].toarray() @ lu.U[ni:, ni:].toarray()
        del lu      # reading L and U cached full copies of both on it
        h[[-2, -1], [-2, -1]] -= spring[-2:]
        return 0.5 * (h + h.T)

    def expand(self, h):
        """The real blocks of S(k) = T_B(k)^H H T_B(k) = sum_d exp(i k.d)
        N_d, d = w' - w over the classes of the cut dofs, N_d the sum of
        their P_w^T H P_w': (N_0, [(d, N_d + N_d^T, N_d - N_d^T)]) for
        the d > 0, since N_-d = N_d^T.  Taken once per floor, they make
        each S(k) a phase-weighted sum of real matrices."""
        n = {}
        for w, p in self.classes:
            hp = (p.T @ h).T                    # H P_w, H is symmetric
            for v, q in self.classes:
                d = tuple(w - v)
                n[d] = n.get(d, 0.0) + q.T @ hp
        n0 = n.pop((0, 0))
        return 0.5 * (n0 + n0.T), [(np.array(d), a + a.T, a - a.T)
                                   for d, a in n.items() if d > (0, 0)]

    def schur(self, k, h, terms, direction=None):
        """S(k) = T_B^H H T_B, with T_B the cut rows and cut_red columns
        of T(k), from H's expansion terms = expand(h), or those of T_d
        when direction is given."""
        if direction is not None:
            tb = limit_transform(self.mesh, direction).tocsr()[
                self.cut][:, self.cut_red]
            s = tb.T @ (tb.T @ h).T             # H is symmetric
            return 0.5 * (s + s.T)
        n0, parts = terms
        real = np.all(_real_phase(k))
        a, b = n0.copy(), 0.0
        for d, sym, asym in parts:
            x = k @ d
            if real:        # exactly +-1, as in bloch_transform
                a += np.rint(np.cos(x)) * sym
            else:
                a += np.cos(x) * sym
                b = b + np.sin(x) * asym
        return a if real else a + 1j * b

    def below(self, k, floor, direction=None):
        """True when S(k) at floor has a Cholesky factor: no band at k, or
        in the zone-center limit along direction, exceeds floor.  At the
        pinned k = 0 (band_pencil) S(0) drops reduced node 0, cut_red[:2]."""
        if floor != self.floor:
            self.floor, self.h = floor, self.condense(floor)
            self.terms = None if self.h is None else self.expand(self.h)
        if self.h is None:
            return False
        s = self.schur(k, self.h, self.terms, direction)
        if direction is None and not np.any(k):
            s = s[2:, 2:]
        try:
            np.linalg.cholesky(s)
        except np.linalg.LinAlgError:
            return False
        return True


def solve_band(k0k, ksk, m):
    """Largest m eigenvalues of -K_sigma(k) phi = tau K0(k) phi.

    Returns (tau, phi) for the pencil band_pencil builds, with tau sorted
    descending and the columns of phi normalized to phi^H K0 phi = 1.
    phi is real when the pencil is (the real-phase wavevectors, k = 0 and
    the mirror lines of a mirror-symmetric cell); eigsh then runs the
    symmetric real Lanczos solver, while a complex pencil goes through its
    non-Hermitian Arnoldi path.  Every pencil, of any size, goes to ARPACK
    shifted by +1 * K0, which moves the (often hugely degenerate) zero
    eigenvalues of the geometric operator away from the origin where the
    relative convergence test cannot terminate; the shift is subtracted
    again and changes nothing else.

    K0(k) is factored here, once, by fem.symmetric_lu (stable because
    K0(k), pinned at k = 0, is Hermitian positive definite), and the
    factor is passed to eigsh as Minv.  ARPACK's tolerance is 1e-9 at
    every sample.

    When ARPACK fails, the bands it did converge are returned: fewer than
    m, and none after a failure other than non-convergence.
    buckling_strength decides what such a sample means (module doc).
    """
    ndof = k0k.shape[0]
    m_eff = int(min(m, ndof - 2))
    if m_eff < 1:
        raise ConfigError(f"cannot extract {m} bands from {ndof} dofs")
    shift = 1.0
    a_sh = (-ksk + shift * k0k).tocsc()
    b = k0k.tocsc()
    lu = symmetric_lu(b)
    minv = LinearOperator(b.shape, matvec=lu.solve, dtype=b.dtype)
    v0 = np.full(ndof, 1.0 / np.sqrt(ndof), dtype=b.dtype)
    try:
        w, v = eigsh(a_sh, k=m_eff, M=b, Minv=minv, which="LA", v0=v0,
                     tol=1e-9, maxiter=150)
    except ArpackError as err:
        # only an ArpackNoConvergence carries the bands that did converge;
        # they keep a complex pencil's dtype, though the pencil is
        # Hermitian definite, so drop the roundoff imaginary part
        w = getattr(err, "eigenvalues", np.empty(0)).real
        v = getattr(err, "eigenvectors", np.empty((ndof, 0), b.dtype))
    order = np.argsort(w)[::-1]
    return w[order] - shift, v[:, order]


def ibz_path(n_seg):
    """Closed rectangle path around the quarter zone, 4*n_seg samples.

    Vertices (0,0) -> (pi,0) -> (pi,pi) -> (0,pi) -> back, each edge split
    into n_seg segments; the closing vertex is not repeated.
    """
    if n_seg < 2:
        raise ConfigError(f"need at least 2 segments per edge, got {n_seg}")
    corners = np.array([[0.0, 0.0], [np.pi, 0.0], [np.pi, np.pi],
                        [0.0, np.pi], [0.0, 0.0]])
    pts = []
    arc = []
    s = 0.0
    for a, b in zip(corners[:-1], corners[1:]):
        edge = np.linalg.norm(b - a)
        for j in range(n_seg):
            t = j / n_seg
            pts.append(a + t * (b - a))
            arc.append(s + t * edge)
        s += edge
    return np.array(pts), np.array(arc)


@dataclass
class BandSample:
    k: np.ndarray
    arclength: float
    pinned: bool
    tau: np.ndarray           # empty where critical_only screened it out
    # the zone-center limit's direction (k is then 0), None elsewhere
    direction: np.ndarray | None = None
    modes: np.ndarray | None = field(default=None, repr=False)
    transform: sp.spmatrix | None = field(default=None, repr=False)


@dataclass
class BucklingResult:
    samples: list
    tau_max: float
    sigma_c: float            # inf when nothing destabilizes
    critical_sample: int
    critical_band: int
    buckled: bool

    @property
    def critical_k(self):
        return self.samples[self.critical_sample].k


def buckling_strength(mesh, elem, moduli_k, stress_weights, m, n_seg=10,
                      store_modes=False, k_points=None, critical_only=False):
    """Band sweep along the quarter-zone boundary and the critical load.

    moduli_k scales the elastic operator, stress_weights the geometric one.
    The zone center is replaced by its two limit samples, along x and
    along y (module doc), plus the exactly pinned periodic problem; the
    reported critical load is the worst case over everything sampled.  A
    limit sample reports k = (0, 0) and names its direction; it is the
    critical sample when the long-wavelength (macroscopic) mode governs.
    k_points overrides the path when given as (pts, arclength).

    A sample on a mirror line of the zone, one component of k 0 or +-pi
    and the other not, is solved as a real symmetric pencil when moduli_k
    and stress_weights are mirror-symmetric about that line's axis
    (mesh.mirror_axes, module doc).  store_modes keeps each sample's modes
    with the transform that takes them to the full node set: T(k) or T_d,
    or T(k) U(k) in the real basis, its columns in the order of the pencil
    (band_pencil).

    critical_only is for callers that need only tau_max, sigma_c and the
    critical sample, not every band.  Samples are taken in path order, and
    each one after the first destabilized sample is screened on the Bloch
    cut (module doc) against the largest tau so far, less a relative
    SCREEN_MARGIN: a sample proven to have no band above that floor cannot
    be critical, keeps an empty tau and no modes, and its pencil is never
    built.  H is formed again only when a solved sample raises the floor.
    The pinned k = 0 sample is never screened: its pencil carries the zero
    cluster, so a proof there would not show that the value the full sweep
    computes loses.  The limit samples are screened like any other, with
    the cut rows of T_d.  Nothing is screened until some tau exceeds
    TAU_TINY.  The reported tau_max, sigma_c and critical sample and band
    are those of the full sweep.

    A sample where ARPACK converges fewer than m bands (solve_band) is put
    to the cut at TAU_TINY, with the sweep's screen or one built then, so a
    sweep whose samples all converge builds none.  Proven there, it is
    certified stable: tau = 0 in every band, zero modes and transform, and
    a RuntimeWarning.  From then on each sample, the pinned k = 0 too, is
    tested so before its pencil is built, unless the critical_only screen
    runs, whose floor is higher.  Not proven, the converged bands stand
    with a RuntimeWarning, and a sample with none raises AnalysisError.
    """
    k0_full = assemble_k0(mesh, elem, moduli_k, reduced=False)
    ks_full = stress_stiffness(mesh, elem, stress_weights)
    axes = mirror_axes(mesh, moduli_k, stress_weights)

    pts, arc = ibz_path(n_seg) if k_points is None else k_points
    jobs = []           # (k, limit direction or None, arclength)
    for kvec, a in zip(pts, arc):
        if np.allclose(kvec, 0.0, atol=1e-14):
            jobs.extend((np.zeros(2), d, a) for d in LIMIT_DIRECTIONS)
            jobs.append((np.zeros(2), None, a))
        else:
            jobs.append((np.asarray(kvec, dtype=float), None, a))

    m_eff = int(min(m, mesh.ndof - 2))
    screen = _CutScreen(mesh, k0_full, ks_full) if critical_only else None
    certify_first = False   # set once the cut has proven a sample stable
    samples = []
    tau_max = -np.inf
    crit = (0, 0)
    for i, (kvec, d, a) in enumerate(jobs):
        pinned = d is None and not np.any(kvec)
        screening = critical_only and tau_max > TAU_TINY
        if (screening and not pinned
                and screen.below(kvec, tau_max * (1.0 - SCREEN_MARGIN), d)):
            samples.append(BandSample(k=kvec, arclength=a, pinned=False,
                                      tau=np.empty(0), direction=d))
            continue
        stable = (certify_first and not screening
                  and screen.below(kvec, TAU_TINY, d))
        if not stable:
            axis = mirror_axis(kvec)
            t, k0k, ksk = band_pencil(mesh, k0_full, ks_full, kvec,
                                      axis if axis in axes else None, d)
            tau, phi = solve_band(k0k, ksk, m)
            if tau.size < m_eff:
                if screen is None:
                    screen = _CutScreen(mesh, k0_full, ks_full)
                stable = screen.below(kvec, TAU_TINY, d)
                if stable:
                    certify_first = True
                elif tau.size:
                    warnings.warn(f"eigensolver converged only {tau.size} "
                                  f"of {m_eff} bands", RuntimeWarning,
                                  stacklevel=2)
                else:
                    raise AnalysisError("eigensolver converged no band on a "
                                        "sample not certified stable")
        if stable:
            warnings.warn("no band above TAU_TINY: sample certified stable",
                          RuntimeWarning, stacklevel=2)
            tau, phi = np.zeros(m_eff), np.zeros((mesh.ndof, m_eff))
            t = sp.csc_matrix((mesh.ndof_full, mesh.ndof))
        samples.append(BandSample(
            k=kvec, arclength=a, pinned=pinned, tau=tau, direction=d,
            modes=phi if store_modes else None,
            transform=t if store_modes else None))
        if tau.size:
            j = int(np.argmax(tau))
            if tau[j] > tau_max:
                tau_max = float(tau[j])
                crit = (i, j)

    buckled = tau_max > TAU_TINY
    sigma_c = 1.0 / tau_max if buckled else np.inf
    return BucklingResult(samples=samples, tau_max=tau_max, sigma_c=sigma_c,
                          critical_sample=crit[0], critical_band=crit[1],
                          buckled=buckled)
