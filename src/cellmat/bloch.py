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
pencil extends to the full one and vice versa.  The pin is carried by the
basis: the two bases at k = 0 have no column for the dofs of reduced
node 0 (cellmat.mesh), so the pencil in either is the pinned one, with
no row of its own for a pin.

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

On a cell mirror-symmetric about both axes (below) the limit is solved
in the basis [T(0) Q0, r] instead: Q0 = class_basis(n).q at k = 0, which
has no column for the pins, and r the two ramp columns of T_d.  T(0) Q0
spans what the other columns of T_d span, so the eigenvalues are the
same.  In that basis

    K0 = [[P, b], [b^T, c]],

where P is the pinned class stiffness, the matrix whose diagonal blocks
the analysis's fem.PinnedSolver has factored, b = Q0^T T(0)^T K0 r its
two border columns, which only the strip of elements under the ramps
reaches, and c = r^T K0 r, 2 x 2; K_sigma is bordered alike around the
pinned class pencil.  So K0^-1 x is one solve on P's factors and one of
the 2 x 2 Schur complement c - b^T P^-1 b (PinnedSolver.bordered), and
the pinned pencil's K0 is P itself: the zone center of a two-mirror cell
makes no sparse factor of its own.

SweepOperators.pencil builds the pencil of every sample: band_pencil's
at one k, pinned exactly when k = 0, or in the limit along d, and
SweepOperators.limit's for the limit of a two-mirror cell.  solve_band
solves it; every solved sample of every sweep, at every mesh size, takes
this one path.  The pencil comes in one basis of the reduced dofs, whose
columns carry one of the mesh's nested-dissection orders (cellmat.mesh),
and its modes map to the full node set through the transform composed
with that basis.  At the zone center of a two-mirror cell it comes with
the solve on the PinnedSolver's factors; at any other sample solve_band
factors K0(k) itself, by fem.symmetric_lu, in the order of that basis.
Every eigenvalue is then the same, within the solver tolerance, whatever
the factor order.

The basis is the class basis Q(k) of the mesh when the cell's element
fields, its moduli and stress weights, are mirror-symmetric about both
axes (mesh.mirror_axes, tested once per sweep), as the optimizer's and
the committed designs under the uniaxial load are, and a component of k
is 0 or +-pi, as at every sample of the path but the zone-center limits.
Both operators then commute with each axis mirror, linear or
antiunitary at k (cellmat.mesh), so Q(k)^H K(k) Q(k) is real and block
diagonal by class, and the sample is solved in real symmetric
arithmetic with real modes.  band_pencil assembles those blocks from
the two quarter-cell operators of the sweep (quarter_operators), with
no fold and no T(k) (mesh.ClassBasis.assemble); T(k) Q(k) is formed
only for a sample whose modes are kept.  The sweep of such a cell takes
its fields as the means over each element's orbit (mesh.orbit_mean), so
that every operator it builds, the class pencils, the limits and the
cut, is of one cell, exactly mirror-symmetric; it assembles the
full-node operators only for a sample with no component of k 0 or
+-pi.  Every other sample and cell takes the torus-order permutation
T(k), or T_d, and each operator is folded with it, T(k)^H K_full T(k):
its pencil is real where every component of k is 0 or +-pi, the phases
then exactly +-1, and complex elsewhere.

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
sparse factor of A per floor tau0 (of each class block of A on a
two-mirror cell, below), its interior dofs in nested-dissection order
and its 8n boundary dofs last, gives both: its interior pivots prove
A_II positive definite, and its trailing blocks give the dense
H = L_BB U_BB (substructuring).  Every sample is then settled by a
dense Cholesky factor of the (4n - 2)-square S(k), or of each of its
class blocks, without building its pencil.  T_B(k) is
sum_w exp(i k.w) P_w over the wraps w of the boundary nodes, so S(k) is
a phase-weighted sum of real blocks P_v^T H P_w, which are taken once
per floor.  The pinned pencil at k = 0 condenses to S(0) without the two
rows and columns of reduced node 0, a corner on the cut.  The sweeps
that print or differentiate every band (cellmat sweep and band, the
optimizer's KS aggregate and its gradient, the gradient check) solve
every sample not certified stable.

The cut of a cell mirror-symmetric about both axes is split by class
(Healey 1988).  A commutes with the two mirrors of the full node set,
which map I and B each to themselves, so in the class basis of the full
node set (mesh.cell_basis) it is four class blocks, assembled from the
quarter operators as the class pencils are and split apart by
mesh.diagonal_blocks.  Each is factored by itself with its cut, the last
2n columns of its class, last: four H_c, 2n square, and
H = Q_B blockdiag(H_c) Q_B^T, Q_B the cut columns of that basis.  T_B(k)
meets the mirrors as T(k) does, so at a k with a component 0 or +-pi
S(k) is real and block diagonal in the class basis of the reduced cut,
the cut rows of mesh.class_basis(n, k), less the pins at k = 0: four
blocks at the corners and at the pinned k = 0, two on the edges of the
quarter zone.  G(k) = Q_B^T T_B(k) Q(k) takes each of its columns to one
column of each class of a block, so a block is a gather of rows and
columns of the H_c, scaled by the coefficients of G(k), in which k
enters only through its phases (mesh.cut_map), and is proven by a real
Cholesky factor.  A limit takes S_d = M_d^T blockdiag(H_c) M_d, with M_d
the cut rows of T_d in the class basis, and any other k the S(k) of H
reassembled from the H_c.  On the 64 x 64 c2 at its report floor,
single-threaded on a shared 2-core Xeon (best of 7, three runs), the
split condensation takes 30 to 52 ms against 110 to 151 ms unsplit, and
the 42 samples of its sweep 20 to 37 ms against 80 to 107 ms.
"""

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from .errors import AnalysisError, ConfigError
from .fem import PinnedSolver, assemble, assemble_k0, symmetric_lu
from .mesh import CLASSES, PINS, STRESS_PARITY, cell_basis, cell_cut, \
    class_basis, cut_map, diagonal_blocks, dissection, mirror_axes, \
    node_dofs, orbit_mean, orbit_sum, quarter_cell, real_phase

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


def wavevector(k):
    """k as a float array, or a ConfigError unless it has two components
    in the first zone [-pi, pi]^2."""
    k = np.asarray(k, dtype=float)
    if k.shape != (2,):
        raise ConfigError(f"wavevector must have two components, got {k!r}")
    # written so that NaN, which fails every comparison, is rejected too
    if not np.all(np.abs(k) <= np.pi + 1e-12):
        raise ConfigError(f"wavevector {k} outside the first zone [-pi, pi]^2")
    return k


def bloch_transform(mesh, k):
    """Sparse T(k) mapping reduced periodic dofs to the full node set.

    T(k) is real (float64) when every component of k is 0 or +-pi: the
    Bloch phases are then exactly +-1.
    """
    k = wavevector(k)
    phase = np.exp(1j * (_wraps(mesh, np.arange(mesh.nn_full)) @ k))
    if np.all(real_phase(k)):
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


def _wraps(mesh, nodes):
    """(len(nodes), 2) float: is each full node on the right (wrap_x) or
    top (wrap_y) edge, the edges that fold onto their masters?"""
    n = mesh.n
    return np.column_stack([nodes % (n + 1) == n,
                            nodes // (n + 1) == n]).astype(float)


def _ramp(mesh, direction):
    """d.w on every full node, w = (wrap_x, wrap_y): the ramp of the
    zone-center limit along direction d, or a ConfigError unless d is
    finite, nonzero and of two components."""
    d = np.asarray(direction, dtype=float)
    if d.shape != (2,) or not np.all(np.isfinite(d)) or not np.any(d):
        raise ConfigError("a zone-center limit needs a finite nonzero "
                          f"direction of two components, got {direction!r}")
    return _wraps(mesh, np.arange(mesh.nn_full)) @ d


def limit_transform(mesh, direction):
    """Sparse real T_d of the zone-center limit along direction d (module
    doc): T(0) with the two columns of reduced node 0 (mesh.PINS) replaced
    by ramps.  Every full dof of component c on a wrapped node gets d.w in
    column PINS[c], w = (wrap_x, wrap_y), and the entries of T(0) that map
    to node 0 are dropped.  Scaling d scales the ramp columns only, which
    leaves the limit's eigenvalues as they are.
    """
    ramp = np.repeat(_ramp(mesh, direction), 2)
    t = bloch_transform(mesh, np.zeros(2)).tocoo()
    keep = ~np.isin(t.col, PINS)
    rows = np.flatnonzero(ramp)
    return sp.coo_matrix(
        (np.concatenate([t.data[keep], ramp[rows]]),
         (np.concatenate([t.row[keep], rows]),
          np.concatenate([t.col[keep], np.asarray(PINS)[rows % 2]]))),
        shape=t.shape).tocsc()


def fold(k_full, t):
    """T^H K T, Hermitized against roundoff."""
    a = t.conj().T @ (k_full @ t)
    return 0.5 * (a + a.conj().T)


def quarter_operators(mesh, elem, moduli, stress_weights):
    """(K0, K_sigma) of the quarter cell (mesh.quarter_cell) of a cell
    mirror-symmetric about both axes, each as the data of the quarter
    pattern: from the moduli and the stress weights summed over the orbit
    of each quarter-cell element (mesh.orbit_sum), the shear weight odd.
    band_pencil assembles every class pencil of the sweep from them."""
    n, quarter = mesh.n, quarter_cell(mesh.n)
    weights = orbit_sum(n, stress_weights, STRESS_PARITY)
    return (quarter.matrix(np.multiply.outer(orbit_sum(n, moduli), elem.k0)),
            quarter.matrix(weights @ elem.g_stress.reshape(3, -1)))


class SweepOperators:
    """The operators of one band sweep (buckling_strength).

    For a cell mirror-symmetric about both axes (mesh.mirror_axes) the
    fields are taken as their orbit means (mesh.orbit_mean), so that every
    operator of the sweep is of one cell, exactly symmetric: the class
    pencils, the limits and the split cut see only the orbit sums of its
    fields.  quarter then holds their quarter_operators, and solver the
    PinnedSolver of the pinned class stiffness P: the one given when it
    is factored in the class basis, as the analysis's HomogResult.solver
    of the same moduli is, or else one built from the class blocks of the
    sweep on first use.  The zone center is solved on its factors
    (pencil).  For any other cell quarter is None.
    The full-node operators k0_full and ks_full are assembled on first
    use: by every pencil and the cut of a cell off the two-mirror path,
    and on it only by a sample with no component of k 0 or +-pi.
    """

    def __init__(self, mesh, elem, moduli_k, stress_weights, solver=None):
        self.mesh, self.elem = mesh, elem
        self.quarter = None
        if mirror_axes(mesh, moduli_k, stress_weights) == (0, 1):
            moduli_k = orbit_mean(mesh.n, moduli_k)
            stress_weights = orbit_mean(mesh.n, stress_weights, STRESS_PARITY)
            self.quarter = quarter_operators(mesh, elem, moduli_k,
                                             stress_weights)
            if solver is not None and solver.basis is mesh.classes.q:
                self.solver = solver
        self.moduli, self.stress_weights = moduli_k, stress_weights

    @cached_property
    def k0_full(self):
        return assemble_k0(self.mesh, self.elem, self.moduli, reduced=False)

    @cached_property
    def ks_full(self):
        return stress_stiffness(self.mesh, self.elem, self.stress_weights)

    @cached_property
    def solver(self):
        """The PinnedSolver of the class blocks of the pinned K0."""
        classes = self.mesh.classes
        [k0] = classes.assemble(self.quarter[0])
        return PinnedSolver(diagonal_blocks(k0, (0, classes.split,
                                                 k0.shape[0])), classes.q)

    def pencil(self, k, direction=None):
        """(transform, K0, K_sigma, solve) of the sample at k, or of the
        zone-center limit along direction (k = 0).  The pencil is
        band_pencil's, but for the limit of a two-mirror cell, which is
        limit's.  solve is x -> K0^-1 x on the solver's factors at the
        zone center of a two-mirror cell, and None elsewhere: solve_band
        then factors K0 itself."""
        if self.quarter is not None and direction is not None:
            return None, *self.limit(direction)
        if self.quarter is not None and real_phase(k).any():
            t, k0k, ksk = band_pencil(self.mesh, None, None, k, self.quarter)
            return t, k0k, ksk, (None if np.any(k)
                                 else self.solver.solve_blocks)
        return *band_pencil(self.mesh, self.k0_full, self.ks_full, k,
                            direction=direction), None

    def limit(self, direction):
        """(K0, K_sigma, solve) of the zone-center limit along direction
        of a two-mirror cell in the basis [T(0) Q0, r] (module doc): the
        pinned class pencil (P, S) of the sweep, bordered by the two ramp
        columns r of T_d,

            K0 = [[P, b0], [b0^T, c0]],   K_sigma = [[S, bs], [bs^T, cs]],

        b = Q0^T T(0)^T K_full r and c = r^T K_full r.  K_full r is
        nonzero only on the strip of elements that the ramps reach, so
        the border is summed over the element matrices of that strip
        alone.  solve is the solver's bordered solve."""
        mesh, classes = self.mesh, self.mesh.classes
        ramp = _ramp(mesh, direction)[mesh.conn]              # (ne, 4)
        strip = np.flatnonzero(ramp.any(axis=1))
        r = np.zeros((strip.size, 8, 2))
        r[:, 0::2, 0] = r[:, 1::2, 1] = ramp[strip]
        ke = (np.multiply.outer(self.moduli[strip], self.elem.k0),
              np.einsum("ec,cij->eij", self.stress_weights[strip],
                        self.elem.g_stress))
        out = []
        for a, k in zip(classes.assemble(*self.quarter), ke):
            kr = k @ r                                         # (s, 8, 2)
            b = np.zeros((mesh.ndof, 2))
            np.add.at(b, mesh.edofs[strip], kr)
            b = classes.q.T @ b
            c = np.einsum("eia,eib->ab", r, kr)
            c = 0.5 * (c + c.T)
            out.append((sp.bmat([[a, b], [b.T, c]], format="csc"), b, c))
        (k0, b0, c0), (ks, _, _) = out
        return k0, ks, self.solver.bordered(b0, c0)

    def transform(self, k, direction=None):
        """The transform that takes the modes of a class-basis pencil at
        k, or of a two-mirror limit along direction, to the full node set:
        T(k) Q(k), or [T(0) Q0, r]."""
        t = bloch_transform(self.mesh, k) @ class_basis(self.mesh.n, k).q
        if direction is None:
            return t
        return sp.hstack([t, limit_transform(self.mesh, direction)[:, PINS]],
                         format="csc")

    def screen(self):
        """A _CutScreen of the sweep, split by class on a two-mirror cell,
        where it reads no full-node operator."""
        if self.quarter is not None:
            return _CutScreen(self.mesh, None, None, self.quarter)
        return _CutScreen(self.mesh, self.k0_full, self.ks_full)


def band_pencil(mesh, k0_full, ks_full, k, quarter=None, direction=None):
    """(transform, K0(k), K_sigma(k)), pinned exactly at k = 0, the only k
    with a singular K0(k), unless direction names the zone-center limit
    along it (k = 0, module doc), folded with T_d.

    quarter holds the quarter_operators of a cell mirror-symmetric about
    both axes (mesh.mirror_axes), None for any other cell.  With them, and
    a component of k 0 or +-pi, the pencil is Q(k)^H K(k) Q(k) in the
    class basis Q(k) = mesh.class_basis(n, k), real symmetric and block
    diagonal by class, with real modes, assembled from the quarter cell
    without a fold (ClassBasis.assemble) and without k0_full and ks_full,
    which may then be None; the transform, T(k) Q(k), is not formed and
    comes back None.  Otherwise the transform is T(k), or T_d =
    limit_transform(mesh, direction), in the torus order of the mesh, and
    each full-node operator is folded with it once.  Either way the
    pencil's columns come in the mesh's order for the factor of K0(k)
    (cellmat.mesh).  At k = 0 both bases leave out the columns of reduced
    node 0, so the pencil is the pinned one as assembled or folded, the
    torus transform then T(0) Mesh.torus_basis: nothing is pinned here.
    The sweep takes the limit of a two-mirror cell from
    SweepOperators.limit instead.
    """
    if quarter is not None and direction is None and real_phase(k).any():
        return None, *class_basis(mesh.n, k).assemble(*quarter)
    if direction is not None:
        t = limit_transform(mesh, direction)[:, mesh.order]
    elif np.any(k):
        t = bloch_transform(mesh, k)[:, mesh.order]
    else:
        t = bloch_transform(mesh, k) @ mesh.torus_basis
    return t, fold(k0_full, t), fold(ks_full, t)


class _CutScreen:
    """No band at k above a floor, proven on the Bloch cut (module doc).

    The cut B is every dof of a node on the cell boundary of the full node
    set (8n dofs, mesh.cell_cut), the interior I every other one, inner in
    the nested-dissection order of the (n - 1) x (n - 1) interior nodes.
    T(k) maps I to its reduced dofs with phase 1 and B to its masters
    (mesh.cell_cut), which make up cut_red: the reduced dofs of the nodes
    on the left and bottom edges (4n - 2 dofs).  So does the limit
    transform T_d, whose cut rows also carry the ramps into the columns of
    reduced node 0, itself on the cut; they are built once per direction
    (limit).  H is formed for one floor at a time, when a sample is first
    screened against it, and its expansion (expand) when a sample first
    needs it, both only when A_II is proven positive definite: otherwise
    no A(k) is positive definite and nothing is screened at that floor.

    quarter holds the quarter_operators of a cell mirror-symmetric about
    both axes, None for any other cell.  With them the screen is split by
    class (module doc): A comes as its four class blocks in
    mesh.cell_basis, the class assembly of its quarter operators split by
    mesh.diagonal_blocks, each condensed onto its cut, its last 2n
    columns, to its own H_c; a sample whose k has a component 0 or +-pi
    is proven by the real blocks of S(k) in the class basis of the
    reduced cut (class_schur), a limit by its S_d from the H_c.  Any other
    k takes H reassembled from the H_c (merge).
    """

    def __init__(self, mesh, k0_full, ks_full, quarter=None):
        n = mesh.n
        self.mesh = mesh
        self.k0_full, self.ks_full = k0_full, ks_full
        self.quarter = quarter
        self.cut, master = cell_cut(n)
        self.cut_red = np.unique(master)
        if quarter is not None:
            # the cut rows of each class's cut columns of the cell basis,
            # its last 2n
            basis = cell_basis(n)
            q = basis.q[self.cut]
            self.cut_basis = [q[:, hi - 2 * n:hi] for hi in basis.bounds[1:]]
        self.limit_rows = {}
        self.floor, self.h, self.full = None, None, None

    @cached_property
    def inner(self):
        """The interior dofs in the dissection order of the interior
        nodes."""
        n = self.mesh.n
        return node_dofs(dissection(
            np.arange(self.mesh.nn_full).reshape(n + 1, n + 1)[1:n, 1:n]))

    @cached_property
    def classes(self):
        """[(w, P_w)]: T_B(k) = sum_w exp(i k.w) P_w over the wraps w of
        the cut nodes, with P_w the 0/1 map of the cut dofs of class w to
        their masters."""
        cut_node = self.cut // 2
        master = np.searchsorted(self.cut_red, cell_cut(self.mesh.n)[1])
        wraps = _wraps(self.mesh, cut_node)
        out = []
        for w in ((0, 0), (1, 0), (0, 1), (1, 1)):
            rows = np.flatnonzero(np.all(wraps == w, axis=1))
            out.append((np.array(w), sp.csr_matrix(
                (np.ones(rows.size), (rows, master[rows])),
                shape=(self.cut.size, self.cut_red.size))))
        return out

    def condense(self, floor):
        """H of A = floor K0 + K_sigma or, split, the list of the H_c of
        its class blocks; None if A_II is not proven positive definite.

        The full-node A, or each class block, is factored with the cut
        ordered last (_condensed).  A annihilates the two translations,
        which would leave a pivot at roundoff, sometimes exactly zero: a
        spring on a cut dof that each translation moves, taken off H
        again, keeps it clear.  Unsplit, it sits on the two dofs of the
        last cut node.  Split, the x translation lies in the class (-, +)
        and the y translation in (+, -), and the spring sits on the
        column of the x dof, and of the y dof, of full node 0 in them.
        """
        if self.quarter is None:
            order = np.concatenate([self.inner, self.cut])
            a = (floor * self.k0_full + self.ks_full).tocsr()[order][:, order]
            return _condensed(a, self.inner.size, [a.shape[0] - 2,
                                                   a.shape[0] - 1])
        basis = cell_basis(self.mesh.n)
        k0q, ksq = self.quarter
        out = []
        for c, a in enumerate(diagonal_blocks(
                basis.assemble(floor * k0q + ksq)[0], basis.bounds)):
            lo = basis.bounds[c]
            dof = {(-1, 1): 0, (1, -1): 1}.get(CLASSES[c])
            springs = [] if dof is None else [basis.col[c, dof] - lo]
            h = _condensed(a, a.shape[0] - 2 * self.mesh.n, springs)
            if h is None:
                return None
            out.append(h)
        return out

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

    def merge(self, hs):
        """H in the cut's own numbering from the H_c of a split screen."""
        h = sum(q @ (q @ hc).T for q, hc in zip(self.cut_basis, hs))
        return 0.5 * (h + h.T)

    def limit(self, direction):
        """The cut rows and cut_red columns of T_d, built once per
        direction; split, in the cell basis, one matrix per class."""
        key = tuple(direction)
        if key not in self.limit_rows:
            tb = limit_transform(self.mesh, direction).tocsr()[
                self.cut][:, self.cut_red]
            self.limit_rows[key] = tb if self.quarter is None else [
                (q.T @ tb).tocsr() for q in self.cut_basis]
        return self.limit_rows[key]

    def schur(self, k, h, terms, direction=None):
        """S(k) = T_B^H H T_B, with T_B the cut rows and cut_red columns
        of T(k), from H's expansion terms = expand(h), or those of T_d
        when direction is given."""
        if direction is not None:
            tb = self.limit(direction)
            s = tb.T @ (tb.T @ h).T             # H is symmetric
            return 0.5 * (s + s.T)
        n0, parts = terms
        real = np.all(real_phase(k))
        a, b = n0.copy(), 0.0
        for d, sym, asym in parts:
            x = k @ d
            if real:        # exactly +-1, as in bloch_transform
                a += np.rint(np.cos(x)) * sym
            else:
                a += np.cos(x) * sym
                b = b + np.sin(x) * asym
        return a if real else a + 1j * b

    def class_schur(self, k, hs, direction=None):
        """The real blocks of S(k) in the class basis of the reduced cut,
        given the H_c of a split screen: the cut rows of
        mesh.class_basis(n, k), gathered from the H_c through
        mesh.cut_map, block by block; or the one S_d = sum_c M_c^T H_c M_c
        of the limit along direction, M_c the cut rows of T_d in class c
        of the cell basis."""
        if direction is not None:
            s = sum(m.T @ (m.T @ hc).T for m, hc in
                    zip(self.limit(direction), hs))
            yield 0.5 * (s + s.T)
            return
        cuts = cut_map(self.mesh.n, k)
        g = cuts.coefficients(k)
        for block in cuts.blocks:
            s = 0.0
            for c, lo, hi in block:
                p, x = cuts.rows[lo:hi], g[:, lo:hi]
                s = s + (x.T @ x) * hs[c].take(p, 0).take(p, 1)
            yield s

    def below(self, k, floor, direction=None):
        """True when S(k) at floor, or each of its class blocks, has a
        Cholesky factor: no band at k, or in the zone-center limit along
        direction, exceeds floor.  At the pinned k = 0 (band_pencil) S(0)
        drops reduced node 0, cut_red[:2], as the class basis of the
        reduced cut does."""
        if floor != self.floor:
            self.floor, self.h, self.full = floor, self.condense(floor), None
        if self.h is None:
            return False
        if self.quarter is not None and (direction is not None
                                         or real_phase(k).any()):
            blocks = self.class_schur(k, self.h, direction)
        else:
            if self.full is None:
                h = self.h if self.quarter is None else self.merge(self.h)
                self.full = h, self.expand(h)
            s = self.schur(k, *self.full, direction)
            blocks = [s[2:, 2:] if direction is None and not np.any(k)
                      else s]
        try:
            for s in blocks:
                np.linalg.cholesky(s)
        except np.linalg.LinAlgError:
            return False
        return True


def _condensed(a, ni, springs):
    """H = L_BB U_BB of the CSC a, its ni interior dofs first and the cut
    last, with a spring on each of the dofs springs, taken off H again;
    None unless the factor proves a_II positive definite.

    The proof needs SuperLU to have kept this order and diagonal pivots
    (fem.symmetric_lu), and every interior pivot positive.  A spring on a
    cut dof j changes H by the same spring at j alone, so taking it off
    is exact.
    """
    spring = np.zeros(a.shape[0])
    spring[springs] = np.abs(a.diagonal()).max()
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
    at = np.asarray(springs, dtype=int) - ni
    h[at, at] -= spring[springs]
    return 0.5 * (h + h.T)


def solve_band(k0k, ksk, m, solve=None):
    """Largest m eigenvalues of -K_sigma(k) phi = tau K0(k) phi.

    Returns (tau, phi) for the pencil band_pencil builds, with tau sorted
    descending and the columns of phi normalized to phi^H K0 phi = 1.
    phi is real when the pencil is (the real-phase wavevectors, and every
    class-basis pencil of a two-mirror cell); eigsh then runs the
    symmetric real Lanczos solver, while a complex pencil goes through its
    non-Hermitian Arnoldi path.  Every pencil, of any size, goes to ARPACK
    shifted by +1 * K0, which moves the (often hugely degenerate) zero
    eigenvalues of the geometric operator away from the origin where the
    relative convergence test cannot terminate; the shift is subtracted
    again and changes nothing else.

    solve is x -> K0(k)^-1 x, passed to eigsh as Minv: the solve on the
    PinnedSolver's factors that comes with a zone-center pencil of a
    two-mirror cell (SweepOperators.pencil).  Without one, K0(k) is
    factored here, once, by fem.symmetric_lu (stable because K0(k),
    pinned at k = 0, is Hermitian positive definite; block diagonal in
    the class basis, and so is its factor).  ARPACK's tolerance is 1e-9
    at every sample.

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
    if solve is None:
        solve = symmetric_lu(b).solve
    minv = LinearOperator(b.shape, matvec=solve, dtype=b.dtype)
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
                      store_modes=False, k_points=None, critical_only=False,
                      solver=None):
    """Band sweep along the quarter-zone boundary and the critical load.

    moduli_k scales the elastic operator, stress_weights the geometric one.
    The zone center is replaced by its two limit samples, along x and
    along y (module doc), plus the exactly pinned periodic problem; the
    reported critical load is the worst case over everything sampled.  A
    limit sample reports k = (0, 0) and names its direction; it is the
    critical sample when the long-wavelength (macroscopic) mode governs.
    k_points overrides the path when given as (pts, arclength).

    Every sample but the limits is solved in the class basis, as a real
    symmetric pencil, when moduli_k and stress_weights are
    mirror-symmetric about both axes (mesh.mirror_axes, module doc) and
    a component of its k is 0 or +-pi; both fields are then taken as
    their orbit means throughout, and the limits are solved in the basis
    [T(0) Q0, r].  All three zone-center samples of such a cell are then
    solved on the factors of solver, the analysis's PinnedSolver of the
    same moduli (HomogResult.solver), or, without one, of a solver built
    from the class blocks of the sweep (SweepOperators).  store_modes
    keeps each sample's modes with the transform that takes them to the
    full node set: T(k) or T_d, or T(k) Q(k) in the class basis, or
    [T(0) Q0, r], its columns in the order of the pencil, formed then and
    only then.

    critical_only is for callers that need only tau_max, sigma_c and the
    critical sample, not every band.  Samples are taken in path order, and
    each one after the first destabilized sample is screened on the Bloch
    cut (module doc) against the largest tau so far, less a relative
    SCREEN_MARGIN: a sample proven to have no band above that floor cannot
    be critical, keeps an empty tau and no modes, and its pencil is never
    built.  H is formed again only when a solved sample raises the floor.
    A limit is screened with the cut rows of T_d, the pinned k = 0 with
    S(0) less reduced node 0.  Pinning deletes the two columns that T_d
    replaces by ramps, so the pinned pencil is a limit's compressed to
    codimension 2, and by Cauchy interlacing (Parlett 1998, section 10.1)
    tau_j(limit) >= tau_j(pinned) >= tau_j+2(limit).
    Nothing is screened until a tau exceeds TAU_TINY; tau_max, sigma_c and
    the critical sample and band are the full sweep's.

    A sample where ARPACK converges fewer than the min(m, size - 2) bands
    solve_band targets, size the rows of its pencil (ndof - 2 at the
    pinned k = 0), is put to the cut at TAU_TINY, with the sweep's screen
    or one built then, so a sweep whose samples all converge builds none.
    Proven there, it is certified stable: tau = 0 in every band, zero
    modes and transform, and a RuntimeWarning.  From then on each sample,
    the pinned k = 0 too, is tested so before its pencil is built, unless
    the critical_only screen runs, whose floor is higher.  Not proven, the
    converged bands stand with a RuntimeWarning, and a sample with none
    raises AnalysisError.
    """
    ops = SweepOperators(mesh, elem, moduli_k, stress_weights, solver)

    pts, arc = ibz_path(n_seg) if k_points is None else k_points
    jobs = []           # (k, limit direction or None, arclength)
    for kvec, a in zip(pts, arc):
        if np.allclose(kvec, 0.0, atol=1e-14):
            jobs.extend((np.zeros(2), d, a) for d in LIMIT_DIRECTIONS)
            jobs.append((np.zeros(2), None, a))
        else:
            jobs.append((wavevector(kvec), None, a))

    screen = ops.screen() if critical_only else None
    certify_first = False   # set once the cut has proven a sample stable
    samples = []
    tau_max = -np.inf
    crit = (0, 0)
    for i, (kvec, d, a) in enumerate(jobs):
        pinned = d is None and not np.any(kvec)
        # the bands solve_band targets: the pinned pencil has two dofs less
        m_eff = int(min(m, mesh.ndof - 2 * pinned - 2))
        screening = critical_only and tau_max > TAU_TINY
        if (screening
                and screen.below(kvec, tau_max * (1.0 - SCREEN_MARGIN), d)):
            samples.append(BandSample(k=kvec, arclength=a, pinned=pinned,
                                      tau=np.empty(0), direction=d))
            continue
        stable = (certify_first and not screening
                  and screen.below(kvec, TAU_TINY, d))
        if not stable:
            t, k0k, ksk, solve = ops.pencil(kvec, d)
            tau, phi = solve_band(k0k, ksk, m, solve)
            # the next sample's screen may condense before its pencil
            # replaces this one
            del k0k, ksk, solve
            if tau.size < m_eff:
                if screen is None:
                    screen = ops.screen()
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
        elif store_modes and t is None:
            t = ops.transform(kvec, d)
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
