"""Continuation-Newton solver for the implicit coupled step.

Each step starts from the exactly solvable continuation weight alpha = 0,
where the density equation returns the previous density and the momentum
equation is a symmetric positive definite linear system, and follows the
solution to alpha = 1 with damped Newton at alpha nodes that one loop
chooses (step-length adaptation: Allgower & Georg, Introduction to Numerical
Continuation Methods, SIAM, 2003, ch. 6; Deuflhard, Newton Methods for
Nonlinear Problems, Springer, 2004, ch. 5).  The first node is the whole
jump, d_alpha = 1.  A node that fails halves d_alpha and is retried from
the last accepted node's iterate; one that converges doubles d_alpha,
capped at 1 - alpha.  The step fails once d_alpha falls below MIN_DALPHA or
its `newton_max_iter` Newton iterations are spent.  Nodes and d_alpha are
binary fractions, exact in floating point, so the last node is alpha = 1.
A trial Newton update is accepted only if every density stays strictly
positive and the residual norm decreases, and a node ends at its first
iterate within `newton_tol`.

Mass needs no iteration past that tolerance, and no linear solve past its
target.  The continuity rows' face terms telescope (1^T jump_t = 0), so
their sum is (sum |E| rho - sum |E| rho_prev) / dt at every alpha, and every
Newton matrix has 1^T A = |E|^T / dt and 1^T B = 0.  So the functional
m(v) = |E|^T v_rho / dt is invariant under M^-1 J, M the preconditioner
below: w = (M^-1 J v)_rho solves S w = A v_rho + B v_u, and S's columns
sum as A's do (1^T S = 1^T A, see below), so |E|^T w = |E|^T v_rho.  A
GMRES iterate x from x0 = 0 has the
preconditioned residual q(M^-1 J) M^-1 b, q its residual polynomial with
q(0) = 1, so its residual e = b - J x has
1^T e_rho = m(M^-1 e) = q(1) 1^T b_rho, and each restarted cycle multiplies
this by its own q(1).  For the Newton right-hand side b = -r,
1^T b_rho = -mu / dt, mu = sum |E| (rho - rho_prev) the iterate's mass
defect, so an update of any step length s turns mu into
(1 - s) mu - s dt 1^T e_rho = (1 - s + s q(1)) mu.  The alpha = 0 start has
mu = 0, so the mass stays at rounding however early GMRES stops.

Each Newton matrix J = [[A, B], [C, D]] (densities first, then the
interleaved velocity components) is solved by restarted GMRES (Saad &
Schultz, SIAM J. Sci. Stat. Comput. 7, 1986) to an absolute target: a
hundredth of `newton_tol` (NEWTON_TOL_SHARE), or a tenth of the iterate's
rounding floor FLOOR_FACTOR u |||J| |x|||_inf when that is larger (u the unit
roundoff, a normwise backward error of a few u at which no Newton step can
gain a digit: Higham, Accuracy and Stability of Numerical Algorithms, 2nd
ed., 2002, ch. 12).  A correction solved further than the Newton stop can
see is oversolved (Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 19,
1982; Knoll & Keyes, J. Comput. Phys. 193, 2004, section 2.3).  GMRES stops
at the relative tolerance max(KRYLOV_RTOL, target / |b|_inf).  GMRES is
left-preconditioned by the block lower triangle
[[S, 0], [C, (dt L0^-1) (x) I]] (Knoll & Keyes, J. Comput. Phys. 193, 2004,
section 3): for each velocity component the step's own alpha = 0 factor L0
of M_rho_prev + dt K, so one velocity factorization serves the whole step,
the coupling C of the current matrix, and a density block S factored
exactly by SuperLU.  S keeps the acoustic coupling that the triangle drops
with B, the implicit pressure wave, as SIMPLE does (Patankar & Spalding,
Int. J. Heat Mass Transfer 15, 1972): S = A - B Q C_p, the density Schur
complement of J with its velocity block D ~ (L0 / dt) (x) I replaced by
the inverse Q = diag(q) (x) I of its diagonal, damped by the weight
w = SCHUR_WEIGHT, q = w dt / diag(L0), and C by its pressure part
C_p = -alpha pressure diag(p'(rho)).  Since normal @ pressure is |f| in a
face's owner column and -|f| in its neighbor's,

    S = A + alpha^2 jump^T diag(|f|^2 rho_up q) (p'(rho_own) own - p'(rho_nbr) nbr),

rho_up the upwind flux's derivative in the normal flux (0 at a kink): the
two-sided face stencil of A's own upwind term, so S has A's pattern, its
kept order and its fill, and 1^T jump^T = 0 gives 1^T S = 1^T A.  The full C
in place of C_p makes 3.2x A's fill.  At alpha = 0 and at rest S = A; at
alpha = 0 and rho = rho_prev, B = 0 and D = (M_rho_prev / dt + K) (x) I, so
there the preconditioner is J^-1.
The GMRES kernel is this module's own (`_gmres`):
each Arnoldi step orthogonalizes against the whole basis with two classical
Gram-Schmidt passes, two matrix-vector products each, which keep the basis
orthogonal to working precision (Giraud, Langou & Rozloznik, Comput. Math.
Appl. 50, 2005).
A cycle that reaches the tolerance with an iterate that fails the residual
acceptance check is followed by one whose tolerance, stripped of the target
loosening, is tightened by the factor the residual misses the bound by; a
cycle that runs out of its 100 iterations is restarted, for at most 10
cycles.  S moves with the velocity at every Newton iterate, so every Newton
matrix factors its own S (`block_preconditioner`), and no density factor
outlives its solve.  L0 does not depend on alpha and serves every node of
the step, which drops it when it returns or fails.  The patterns of A and of
the alpha = 0 system depend only on the mesh, and so does their
fill-reducing order, which is computed once per mesh (`density_order`,
`alpha0_order`): the first factor of each pattern on a mesh is ordered by
minimum degree on A^T + A with diagonal pivots, which their symmetric
patterns allow, and the mesh keeps that order.  Every later matrix of the
pattern is gathered straight into the symmetrically permuted layout and
factored in its natural order, without the ordering step, into bitwise the
factor the first one's settings would make (`KeptOrder`); so a run does not
depend on whether its mesh has been used before.
There is no direct solve of J: a zero pivot in A, a Krylov quantity that
overflows, or a solve that fails the acceptance check, raises SolverError,
and the Newton node fails, so that the continuation halves d_alpha.  GMRES
needs J only through products, its blocks A and C and the face terms of
S that J carries (`scheme.jacobian`).  Every J stores the mesh's whole
pattern, zeros included, so A and C are read from J.data at positions
fixed per mesh, and S's face terms are added at A's entries of each face's
stencil (`DensityOrder`).

A SolverError never leaves a step: `homotopy_newton_solve` decides that a
step has failed, when its alpha = 0 solve fails or its continuation gives
up, and raises StepFailure, which carries the step's index and counts and
says why.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import scheme
from .mesh import Mesh, NDArrayF, NDArrayI, cached, interior_sides


class SolverError(RuntimeError):
    """A linear solve produced an unusable result."""


class StepFailure(RuntimeError):
    """Time step `step` failed: its alpha = 0 solve, whose reason the message
    gives (alpha 0, zero counts and a NaN residual norm), or its
    continuation, at the node `alpha` that failed last.  `diagnostics` holds
    the step's counts over every node it tried."""

    def __init__(self, message: str, alpha: float, diagnostics: StepDiagnostics, step: int):
        super().__init__(message)
        self.alpha = alpha
        self.diagnostics = diagnostics
        self.step = step


# Line search: the step length is multiplied by BACKTRACK_FACTOR until the
# update keeps every density positive and lowers the residual norm, giving up
# below BACKTRACK_FLOOR.  FLOOR_FACTOR UNIT_ROUNDOFF |||J| |x|||_inf is the
# rounding floor (module docstring).  The continuation gives up below a
# d_alpha of MIN_DALPHA, so from 1 it halves down to 1/64.  With a least
# d_alpha of 1/10 the halving stopped at 1/8, and the bump at n=4,
# rho_bar 100 failed its first step there.
BACKTRACK_FACTOR = 0.5
BACKTRACK_FLOOR = 1e-4
UNIT_ROUNDOFF = np.finfo(float).eps / 2
FLOOR_FACTOR = 4.0
MIN_DALPHA = 1.0 / 64
FLOOR_ROWS = 1 << 15   # rows of |J| formed at a time for the rounding floor


@dataclass
class StepDiagnostics:
    """Counts of one step, summed over every node it tried, the failed ones
    included.  `alpha_nodes_used` counts the accepted nodes, alpha = 0
    included, so a step whose first jump converges reads 2;
    `schedule_index` counts the failed nodes, so it is at least 1 exactly
    when that jump failed; `residual_norm` is the last node's last residual.
    """

    newton_iters: int = 0
    alpha_nodes_used: int = 0
    residual_norm: float = 0.0
    schedule_index: int = 0
    linesearch_backtracks: int = 0
    krylov_iters: int = 0
    krylov_cycles: int = 0
    factorizations: int = 0     # density blocks factored


# GMRES on Newton matrices: cycles of KRYLOV_RESTART iterations to the
# Newton step's target (below), never to less than KRYLOV_RTOL relative, a
# tolerance that leaves residuals as small as a direct LU's (at 1e-13
# converged steps drifted from the direct solver's by up to 3e-13 relative).
# The tolerance is checked on the preconditioned residual: a cycle that
# reaches it ends the solve if its iterate passes the acceptance check, and a
# cycle that runs out of iterations is restarted; a solve runs at most
# KRYLOV_CYCLES cycles.  Most solves end within one cycle; the hardest matrices of a
# strongly perturbed first step take two to five.  There is no direct solve
# to fall back on: full-J LU with SuperLU's default settings, bump preset,
# alpha = 1 at the alpha = 0 state,
#
#   n   unknowns   fill     factor   peak RSS
#   4    2,400     1.41M    0.3 s     72 ->  103 MB
#   6    8,424     12.1M    3.7 s     83 ->  350 MB
#   8   20,352     54.0M    27 s     104 -> 1287 MB
#
# so at the sizes the solver targets it would turn a failure that a halved
# continuation step absorbs into an out-of-memory kill.  The
# preconditioned 2-norm underweights some rows, so a cycle can reach the
# tolerance with an iterate that fails the check (on the stress
# configuration, gamma 6, c 4, at amp 200, n=2 x2: 5-8 solves per run at
# each of seeds 0-10 of the benchmark, 5e4-7e5x over the bound; at amp 30,
# n=4 x4: one at 4 of seeds 0-7, at most 1.4x).  The next cycle therefore
# runs to KRYLOV_RTOL |M b|_2, without the target loosening below (or to
# the tighter tolerance of an earlier rejected cycle), divided by the
# factor the residual misses the bound by.  With the rounding floor as the
# only loosening, dividing the loosened tolerance by that factor instead
# failed step 1 at amp 200, n=2, at 5 of those 11 seeds; with the target
# both rules pass all 11.
#
# The target is NEWTON_TOL_SHARE times newton_tol, or FLOOR_MARGIN times the
# current iterate's rounding floor (FLOOR_FACTOR u |||J| |x|||_inf, see
# above) when that is larger, and the tolerance is loosened to it relative
# to |b|_inf: a correction resolved further than the Newton stop, or than
# the residual the next iterate can show, gains Newton nothing (Dembo,
# Eisenstat & Steihaug, SIAM J. Numer. Anal. 19, 1982), and both lie below
# the acceptance bound.  Eisenstat-Walker forcing (SIAM J. Sci. Comput. 17,
# 1996) loosens relative to the Newton residual instead, and cost a Newton
# iteration here; the target is never looser than a hundredth of
# newton_tol.  At seed 0 of the benchmark, Krylov iterations on bump n=4 x20
# / the stress configuration (amp 30, n=4 x4) / the bump Cauchy pair n = 3,
# 6 were 298 / 995 / 74 with the floor term alone and 161 / 811 / 41 at a
# share of 0.01, with the same Newton counts at seeds 0-3.  A share of
# 0.003 took 175 / 841 / 45 and 0.001 took 185 / 862 / 48, Newton counts
# again the same.  Against the floor term alone, the Cauchy pair's wall time
# fell 10.7% at 0.003 and 13.4% at 0.01 (10 alternating benchmark pairs
# each, seeds 1-10).
KRYLOV_RESTART = 100
KRYLOV_CYCLES = 10
KRYLOV_RTOL = 1e-15
FLOOR_MARGIN = 0.1
NEWTON_TOL_SHARE = 0.01

# SuperLU settings of the density block A and of the alpha = 0 matrix L0.
# Their patterns are symmetric, so they are ordered by minimum degree on
# A^T + A and factored with diagonal pivots: on the bump's initial L0 at
# n = 4 / 6 / 8 that keeps the fill (L.nnz + U.nnz) at 25k / 173k / 623k,
# against 46k / 363k / 1.47M with SuperLU's defaults, and factors 1.7-3.8x
# faster than partial pivoting on the same ordering.  Relaxed supernodes of
# one column in panels of four (relax, panel_size) keep that fill and factor
# faster.  Minimum `splu` times without and with them, 2-core host, one
# thread, A the density block of a bump step's first Newton matrix:
#
#   n    fill A / L0     A                  L0
#   4    8.7k / 25k      0.67 -> 0.57 ms    1.32 -> 1.10 ms
#   6    51k / 173k      2.77 -> 2.31 ms    7.51 -> 6.24 ms
#   8    194k / 623k     9.31 -> 7.56 ms    43.2 -> 24.4 ms
#   12   - / 3.55M                          392 -> 203 ms
#   16   - / 11.8M                          1.26 -> 1.27 s
#
# A panel size of 1 took 259 ms at n = 12 and 1.78 s at n = 16.  A zero
# pivot raises RuntimeError; `linear_solve` and the alpha = 0 solve turn it
# into a SolverError.
#
# Only a mesh's first matrix of each pattern is factored with BLOCK_LU;
# every later one is gathered into the order that factor kept and factored
# with KEPT_LU (`KeptOrder`), which skips the ordering and gives bitwise
# the same factor.  Minimum `splu` times with BLOCK_LU and in the kept
# order, gather included, one run each on the same host, A at a bump step's
# alpha = 0 velocity plus 1e-3 and L0 of the bump's initial state:
#
#   n    A                   L0
#   4    0.92 -> 0.49 ms     1.43 -> 1.12 ms
#   6    2.93 -> 1.92 ms     7.43 -> 6.68 ms
#   8    9.40 -> 7.08 ms     29.3 -> 27.0 ms
#   12   84 -> 70 ms         294 -> 277 ms
#   16   502 -> 462 ms       1.54 -> 1.28 s
#
# Factoring A's natural order instead, with no permutation, makes 2.7x the
# fill at n = 4 (23,934 against 8,710).
BLOCK_LU = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, relax=1, panel_size=4,
                options=dict(SymmetricMode=True))
KEPT_LU = dict(BLOCK_LU, permc_spec="NATURAL")

# The weight w of the density block's face weights
# q = w dt / diag(M_rho_prev + dt K) (module docstring).  The benchmark's
# stepping workloads keep their Newton totals at seeds 0-3 for w in
# 0.25-0.7 (at 0.4, every step's counts), and
# stress_bump_n4's Krylov total falls with w (seed 2: 697 with A alone, 554
# at w = 0.25, 532 at 0.35, 518 at 0.4, 500 at 0.5, 474 at 0.7), while the
# bump Cauchy pair's rises (seeds 0-3: +1 at 0.25, up to +3 from 0.4).  Of
# ROADMAP item 8's hard cases, bump n=2 x2 at rho_bar 100 takes 6 Newton
# iterations, as with A alone, for w in 0.25-0.42 and 9 for w in 0.43-0.54
# and 0.6-0.7 (at 0.55 only 6, and 9 at 0.55 +- 1e-10).  0.4 is within the
# band that keeps it, and there w +- 1e-10 keeps it too.
SCHUR_WEIGHT = 0.4


class _Reordered:
    """The SuperLU factor `lu` of P A P^T, with (P A P^T)[i, j] =
    A[order[i], order[j]] and `perm` the inverse of `order`, solving with A."""

    def __init__(self, lu: spla.SuperLU, order: NDArrayI, perm: NDArrayI):
        self.lu, self.order, self.perm = lu, order, perm

    def solve(self, b: NDArrayF) -> NDArrayF:
        # np.take gathers the rows of an (n, 3) b about 3x faster than b[order].
        return np.take(self.lu.solve(np.take(b, self.order, axis=0)), self.perm, axis=0)


class KeptOrder:
    """A square CSR pattern (indptr, indices) on a mesh, whose matrices come
    as their values in that CSR order, and the column order of the
    pattern's first SuperLU factor.

    The first matrix is factored with BLOCK_LU, and that factor's order
    `perm` is kept; every later one is gathered straight into the
    symmetrically permuted CSC layout and factored with KEPT_LU, which skips
    the ordering.  Each column of that layout keeps its rows in the
    unpermuted matrix's order, as BLOCK_LU's factor sees them, so that
    SuperLU updates every column in the same sequence: the factor is bitwise
    BLOCK_LU's, and the pattern's first matrix on a mesh factors as every
    later one does.  (Rows sorted in the permuted order give the same fill,
    but round differently.)
    """

    def __init__(self, indptr: NDArrayI, indices: NDArrayI):
        self.indptr, self.indices = indptr, indices
        self.n = len(indptr) - 1
        self.perm = self.order = None
        self._layout = None   # (positions, indices, indptr), laid out on the second factor

    def _lay_out(self):
        """The permuted CSC layout: for each of its entries, the position of
        the value in CSR order and the permuted row, and its column pointer."""
        n, nnz = self.n, self.indices.size
        csc = sp.csr_matrix((np.arange(nnz), self.indices, self.indptr), shape=(n, n)).tocsc()
        counts = np.diff(csc.indptr)[self.order]
        indptr = np.concatenate([[0], np.cumsum(counts)])
        at = np.arange(nnz) + np.repeat(csc.indptr[self.order] - indptr[:-1], counts)
        return (csc.data[at], self.perm[csc.indices[at]].astype(np.int32),
                indptr.astype(np.int32))

    def _layout_positions(self) -> NDArrayI:
        """Where each entry of the permuted layout takes its value from,
        laid out on first use."""
        if self._layout is None:
            self._layout = self._lay_out()
        return self._layout[0]

    def factor(self, values: NDArrayF):
        """The factor of the matrix with `values`; raises RuntimeError at a
        zero pivot."""
        if self.perm is None:
            return self._factor_first(values)
        return self._factor_kept(values[self._layout_positions()])

    def _factor_first(self, values: NDArrayF):
        """BLOCK_LU's factor of the matrix with `values` in CSR order, whose
        order is kept."""
        n = self.n
        matrix = sp.csr_matrix((values, self.indices, self.indptr), shape=(n, n))
        lu = spla.splu(matrix.tocsc(), **BLOCK_LU)
        self.perm = lu.perm_c.copy()   # lu.perm_c is a view that keeps the whole factor alive
        self.order = np.argsort(self.perm)
        return lu

    def _factor_kept(self, values: NDArrayF) -> _Reordered:
        """The factor of the matrix with `values` in the permuted layout."""
        _, indices, indptr = self._layout
        matrix = sp.csc_matrix((values, indices, indptr), shape=(self.n, self.n))
        # Its rows are unique but unsorted: flagged canonical, `splu` hands
        # them to SuperLU in this order instead of sorting them.
        matrix.has_canonical_format = True
        return _Reordered(spla.splu(matrix, **KEPT_LU), self.order, self.perm)


class DensityOrder(KeptOrder):
    """The kept order of the density block A = J[:n, :n] of the Newton
    matrices J that store the whole canonical CSR pattern (indptr, indices),
    zeros included, as `scheme.jacobian` does, and of the preconditioner's
    density block S = A + jump^T diag(q) (diag(h_own) own + diag(h_nbr) nbr)
    on A's pattern, h = J.acoustic (`scheme.jacobian`), for the faces with
    owner and neighbor elements `own` and `nbr` (`block_preconditioner`).
    Density columns lead every row, so A's
    entries sit at `positions` in J.data, and those of the coupling block
    C = J[n:, :n] lead the other rows.  The permuted layout reads J.data
    itself, its positions composed with `positions` once per mesh, and the
    face terms are added at `stencil`, A's entries (own, own), (own, nbr),
    (nbr, own) and (nbr, nbr) of each face, in CSR order until the layout
    is made and in the layout's order from then on."""

    def __init__(self, indptr: NDArrayI, indices: NDArrayI, n: int,
                 own: NDArrayI, nbr: NDArrayI):
        # The pointer of the density columns over every row of J.
        columns = np.searchsorted(np.flatnonzero(indices < n), indptr).astype(np.int32)
        self.positions = np.flatnonzero(indices[:indptr[n]] < n).astype(np.int32)
        super().__init__(columns[:n + 1], indices[self.positions])
        self.coupling_indptr = columns[n:] - columns[n]
        # A's CSR entries are sorted by their keys row n + column.
        keys = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.indptr)) * n + self.indices
        sides = np.stack([own, nbr], axis=1).astype(np.int64)
        self.stencil = np.searchsorted(keys, (sides.T[:, :, None] * n + sides).ravel())

    def _lay_out(self):
        """The permuted layout, its positions those of J.data; moves the
        stencil into the layout's order."""
        positions, indices, indptr = super()._lay_out()
        at = np.empty_like(positions)
        at[positions] = np.arange(positions.size)
        self.stencil = at[self.stencil]
        return self.positions[positions], indices, indptr

    def factor_block(self, J: sp.csr_matrix, q: NDArrayF):
        """The factor of the density block S of J with face weights `q`;
        raises RuntimeError at a zero pivot."""
        first = self.perm is None
        values = J.data[self.positions if first else self._layout_positions()]
        terms = np.empty((2, len(q), 2))
        np.multiply(q[:, None], J.acoustic, out=terms[0])
        np.negative(terms[0], out=terms[1])
        values += np.bincount(self.stencil, terms.ravel(), minlength=values.size)
        return self._factor_first(values) if first else self._factor_kept(values)

    def coupling_block(self, J: sp.csr_matrix) -> sp.csr_matrix:
        """J's coupling block C without its stored zeros, which are 85-87%
        of it at a bump step's first matrix from rest (n = 4, 8)."""
        indptr = self.coupling_indptr
        at = np.repeat(J.indptr[self.n:-1] - indptr[:-1], np.diff(indptr)) + np.arange(indptr[-1])
        C = sp.csr_matrix((J.data[at], J.indices[at], indptr.copy()),
                          shape=(len(indptr) - 1, self.n))
        C.eliminate_zeros()
        return C


@cached
def alpha0_order(mesh: Mesh) -> KeptOrder:
    """`mesh`'s kept order of the alpha = 0 matrix (`scheme.alpha0_map`),
    built on first use and cached; its order is set by the mesh's first
    alpha = 0 factor."""
    am = scheme.alpha0_map(mesh)
    return KeptOrder(am.indptr, am.indices)


@cached
def density_order(mesh: Mesh) -> DensityOrder:
    """`mesh`'s kept order of the Newton density block, built on first use
    and cached; its order is set by the mesh's first density factor.  The
    Newton loop first asks for it after the step's alpha = 0 factor is made,
    as it first asked for `scheme.jacobian_map`: building the map before
    that factor left heap holes the factor filled, and one n=16 bump step
    peaked 100 MB higher."""
    jm = scheme.jacobian_map(mesh)
    _, own, nbr = interior_sides(mesh)
    return DensityOrder(jm.indptr, jm.indices, mesh.n_elems, own, nbr)


def _residual_bound(b: NDArrayF) -> float:
    """The acceptance check's bound on |A x - b|_inf."""
    return 1e-10 * (1.0 + np.abs(b).max())


def _rejection(x: NDArrayF, r: NDArrayF, b: NDArrayF) -> str | None:
    """Why `x` fails the acceptance check for A x = b, given its residual
    r = b - A x, or None if it passes."""
    if not np.all(np.isfinite(x)):
        return "linear solve returned non-finite values"
    resid = np.abs(r).max()
    if resid > _residual_bound(b):
        return f"linear solve residual too large: {resid:.3e}"
    return None


def block_preconditioner(J: sp.csr_matrix, density: DensityOrder, lu_u,
                         dt: float) -> Callable[[NDArrayF], NDArrayF]:
    """The preconditioner of the Newton matrix J = [[A, B], [C, D]] with
    `density.n` density rows: the map r -> z that solves S z_rho = r_rho,
    S = A - B (diag(q) (x) I) C_p the pressure Schur block, factored exactly
    here in the kept order `density`, then
    (M_rho_prev / dt + K) z_d = (r_u - C z_rho)_d for each velocity
    component d, `lu_u` being the step's factor of M_rho_prev + dt K from
    `alpha0_solve` and `dt` the time step.  q = SCHUR_WEIGHT dt /
    diag(M_rho_prev + dt K), and S is A plus J's face terms `J.acoustic`
    weighted by q (`scheme.jacobian`).  Raises RuntimeError at a zero pivot
    in S."""
    ne = density.n
    lu_rho = density.factor_block(J, SCHUR_WEIGHT * dt / lu_u.diagonal)
    C = density.coupling_block(J)

    def precondition(r):
        z_rho = lu_rho.solve(r[:ne])
        z_u = lu_u.solve((r[ne:] - C @ z_rho).reshape(-1, 3))
        z_u *= dt
        return np.concatenate([z_rho, z_u.ravel()])

    return precondition


@np.errstate(over="ignore", invalid="ignore")   # an overflow ends the solve instead
def _gmres(J: sp.csr_matrix, b: NDArrayF, precondition: Callable[[NDArrayF], NDArrayF],
           restart: int, stats: StepDiagnostics,
           target: float) -> tuple[NDArrayF, str | None]:
    """GMRES for J x = b from x = 0, left-preconditioned by `precondition`
    (M), in cycles of at most `restart` iterations.

    A cycle ends when the preconditioned residual estimate reaches the
    tolerance, max(KRYLOV_RTOL, target / |b|_inf) |M b|_2 at first
    (KRYLOV_RTOL |M b|_2 for b = 0), at breakdown (the Krylov space holds
    the solution), or when it runs out of iterations.  A cycle that reaches
    the tolerance ends the solve if its iterate passes the acceptance check;
    if not, the next cycle's tolerance is the smaller of the current one and
    KRYLOV_RTOL |M b|_2, divided by the factor by which |b - J x|_inf
    exceeds the check's bound.  A cycle that runs out of iterations is
    restarted.  Every cycle after the first starts from the true residual,
    and the solve ends after KRYLOV_CYCLES cycles.  A residual or
    basis-vector norm that is not finite ends the solve at once: no finite
    iterate comes of its cycle, whose iterate is returned as NaN.  Returns
    the last iterate and why it fails the acceptance check (None if it
    passes).  `stats` counts the iterations and cycles.
    """
    eps = np.finfo(b.dtype).eps
    x = np.zeros_like(b)
    r = b
    z = precondition(b)
    mb = np.linalg.norm(z)
    rtol = KRYLOV_RTOL
    if b.any():
        rtol = max(rtol, target / np.abs(b).max())
    tol = rtol * mb
    V = np.empty((restart + 1, b.size))   # Arnoldi basis, one vector per row
    R = np.zeros((restart, restart))      # triangular factor of the Hessenberg matrix
    iters = 0
    for cycle in range(KRYLOV_CYCLES):
        if cycle:
            z = precondition(r)
        beta = np.linalg.norm(z)
        if beta == 0.0:   # r = 0: x is exact
            break
        stats.krylov_cycles += 1
        np.multiply(z, 1.0 / beta, out=V[0])
        g = [beta]        # rotated right-hand side, |g[-1]| the residual estimate
        rotations = []
        for k in range(restart):
            w = precondition(J @ V[k])
            h0 = np.linalg.norm(w)
            if not math.isfinite(beta + h0):
                break
            basis = V[: k + 1]
            h = basis @ w
            w -= h @ basis
            h2 = basis @ w
            w -= h2 @ basis
            h += h2
            h1 = np.linalg.norm(w)
            breakdown = h1 <= eps * h0
            if breakdown:
                h1 = 0.0
            else:
                np.multiply(w, 1.0 / h1, out=V[k + 1])
            col = h.tolist()
            for i, (c, s) in enumerate(rotations):
                col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
            # Rotation zeroing h1 below col[k], with LAPACK lartg's signs.
            d = math.copysign(math.hypot(col[k], h1), col[k])
            c, s = (col[k] / d, h1 / d) if d else (1.0, 0.0)
            rotations.append((c, s))
            col[k] = d
            R[: k + 1, k] = col
            g.append(-s * g[k])
            g[k] *= c
            iters += 1
            if abs(g[-1]) <= tol or breakdown:
                break
        if not math.isfinite(beta + h0):
            x.fill(np.nan)
            break
        m = len(rotations)
        if R[m - 1, m - 1] == 0.0:   # singular only in its last column
            m -= 1
        x += sla.solve_triangular(R[:m, :m], g[:m]) @ V[:m]
        r = b - J @ x
        if len(rotations) == restart:   # the cycle ran out of iterations
            continue
        if _rejection(x, r, b) is None:
            break
        # The preconditioned norm underweights the rows that fail the check:
        # drop the target loosening and tighten the tolerance by the factor
        # they miss it by.
        tol = min(tol, KRYLOV_RTOL * mb) * _residual_bound(b) / np.abs(r).max()
    stats.krylov_iters += iters
    return x, _rejection(x, r, b)


def linear_solve(J: sp.csr_matrix, b: NDArrayF, density: DensityOrder, stats: StepDiagnostics,
                 lu_u, dt: float, target: float) -> NDArrayF:
    """Solve the Newton system J x = b, J with `density.n` density unknowns
    first, by GMRES preconditioned with a fresh factor of its density block
    in the kept order `density` and the step's alpha = 0 factor `lu_u` at
    time step `dt` (`block_preconditioner`).  `target`, the absolute
    residual the Newton step needs, loosens GMRES's tolerance (`_gmres`),
    and `stats` counts the Krylov iterations and factorizations.  x is accepted only if it is
    finite with |J x - b|_inf <= 1e-10 (1 + |b|_inf).  Raises SolverError at
    a zero pivot in A or when GMRES's last iterate fails the check.
    """
    try:
        precondition = block_preconditioner(J, density, lu_u, dt)
    except RuntimeError as exc:   # exactly singular A
        raise SolverError(f"preconditioner block: {exc}") from exc
    stats.factorizations += 1
    x, reason = _gmres(J, b, precondition, KRYLOV_RESTART, stats, target)
    if reason is not None:
        raise SolverError(reason)
    return x


class Alpha0Factor:
    """The step's factor `lu` of the alpha = 0 matrix M_rho_prev + dt K,
    which solves with it, and the matrix's `diagonal`."""

    def __init__(self, lu, diagonal: NDArrayF):
        self.lu, self.diagonal = lu, diagonal
        self.solve = lu.solve


def alpha0_solve(prev, params, mesh: Mesh) -> tuple:
    """Exact solution of the alpha = 0 system, packed as `scheme.pack` packs
    a state, and the Alpha0Factor of its momentum matrix.

    The continuity block forces rho = rho_prev; the momentum block is
    (M_rho + dt K) u = M_rho-data with M_rho the rho-weighted mean-velocity
    mass and K the broken-gradient stiffness, both SPD on interior dofs.
    """
    dt = params.dt(mesh)
    rho_prev = prev.rho

    # One scalar system, factored once in the mesh's kept order, for the
    # three velocity components; it is symmetric positive definite, so
    # BLOCK_LU's settings hold.
    uhat_prev = scheme.element_average(prev.u, mesh)
    rhs = scheme.mesh_operators(mesh).avg_t @ ((mesh.elem_volume * rho_prev)[:, None] * uhat_prev)
    A = scheme.alpha0_matrix(mesh, rho_prev, dt)
    try:
        lu = alpha0_order(mesh).factor(A.data)
    except RuntimeError as exc:   # exactly singular
        raise SolverError(f"alpha = 0 system: {exc}") from exc
    u = lu.solve(rhs)
    reason = _rejection(u, rhs - A @ u, rhs)
    if reason is not None:
        raise SolverError(reason)

    return np.concatenate([rho_prev, u.ravel()]), Alpha0Factor(lu, A.diagonal())


def homotopy_newton_solve(prev, params, mesh: Mesh) -> tuple["scheme.State", StepDiagnostics]:
    """Advance `prev` by one time step along the continuation the module
    docstring describes; raises StepFailure if the alpha = 0 solve fails,
    with its reason, or if the continuation gives up.  The step's alpha = 0
    factor serves every node."""
    k = prev.k + 1
    try:
        x, lu_u = alpha0_solve(prev, params, mesh)
    except SolverError as exc:
        raise StepFailure(f"alpha=0, 0 iterations, {exc}", alpha=0.0,
                          diagnostics=StepDiagnostics(residual_norm=math.nan), step=k) from exc
    dt = params.dt(mesh)
    diag = StepDiagnostics(alpha_nodes_used=1)
    alpha, d_alpha = 0.0, 1.0

    try:
        while alpha < 1.0:
            trial = alpha + d_alpha
            # _newton_at_alpha rebinds the iterate, never mutates it, so a
            # failed node leaves x at the last accepted node's.
            x_new, ok = _newton_at_alpha(prev, x, trial, params, mesh, diag, lu_u, dt)
            if ok:
                x, alpha = x_new, trial
                diag.alpha_nodes_used += 1
                d_alpha = min(2.0 * d_alpha, 1.0 - alpha)
                continue
            diag.schedule_index += 1
            d_alpha /= 2.0
            if d_alpha < MIN_DALPHA or diag.newton_iters >= params.newton_max_iter:
                raise StepFailure(
                    f"alpha={trial:g}, {diag.newton_iters} iterations, "
                    f"residual {diag.residual_norm:.3e}",
                    alpha=trial,
                    diagnostics=diag,
                    step=k,
                )
        return scheme.unpack(x, mesh, k), diag
    finally:
        lu_u = None   # a StepFailure's traceback keeps this frame, not L0


def _rounding_floor(J: sp.csr_matrix, x: NDArrayF) -> float:
    """FLOOR_FACTOR u |||J| |x|||_inf, the residual of the iterate x at which
    no Newton step with the matrix J can gain a digit.  |J| is formed
    FLOOR_ROWS rows at a time, sharing J's index arrays: a whole |J| (42 MB
    at n=16, where J stores its zeros) raised one n=16 bump step's peak
    resident memory from 556 to 573 MB."""
    abs_x, sums = np.abs(x), []
    for indptr in (J.indptr[lo:lo + FLOOR_ROWS + 1] for lo in range(0, J.shape[0], FLOOR_ROWS)):
        at = slice(indptr[0], indptr[-1])
        rows = sp.csr_matrix((np.abs(J.data[at]), J.indices[at], indptr - indptr[0]),
                             shape=(indptr.size - 1, J.shape[1]))
        sums.append((rows @ abs_x).max())
    return FLOOR_FACTOR * UNIT_ROUNDOFF * np.max(sums)


@np.errstate(over="ignore", invalid="ignore")   # an overflow gives no Newton step instead
def _newton_at_alpha(prev, x, alpha, params, mesh, diag, lu_u, dt):
    """Damped Newton at one alpha node, until the residual is within
    tolerance or diag.newton_iters reaches params.newton_max_iter, its
    matrices preconditioned with the step's alpha = 0 factor `lu_u` at time
    step `dt`.  Returns the last iterate and whether its residual is within
    tolerance."""
    density = density_order(mesh)
    ne = density.n
    tol = params.newton_tol

    def res_norm(xv):
        guess = scheme.unpack(xv, mesh, prev.k + 1)
        r = scheme.residual(prev, guess, params, mesh, alpha=alpha).ravel()
        return guess, r, np.abs(r).max()

    guess, r, norm = res_norm(x)
    while not norm <= tol and diag.newton_iters < params.newton_max_iter:
        J = scheme.jacobian(prev, guess, params, mesh, alpha=alpha)
        floor = _rounding_floor(J, x)
        if not np.isfinite(norm + floor):
            break   # an overflowed residual or Jacobian gives no Newton step
        target = max(FLOOR_MARGIN * floor, NEWTON_TOL_SHARE * tol)
        try:
            delta = linear_solve(J, -r, density=density, stats=diag, lu_u=lu_u, dt=dt,
                                 target=target)
        except SolverError:
            break
        del J   # no name holds it while the next one is built

        step = 1.0
        accepted = False
        while step >= BACKTRACK_FLOOR:
            x_try = x + step * delta
            if x_try[:ne].min() > 0.0:
                guess_try, r_try, norm_try = res_norm(x_try)
                if np.isfinite(norm_try) and norm_try < norm:
                    accepted = True
                    break
            step *= BACKTRACK_FACTOR
            diag.linesearch_backtracks += 1
        if not accepted:
            break   # no admissible decrease

        x, guess, r, norm = x_try, guess_try, r_try, norm_try
        diag.newton_iters += 1

    diag.residual_norm = norm
    return x, norm <= tol
