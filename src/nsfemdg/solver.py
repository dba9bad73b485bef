"""Continuation-Newton solver for the implicit coupled step.

Each step starts from the exactly solvable continuation weight alpha = 0,
where the density equation returns the previous density and the momentum
equation is a symmetric positive definite linear system, then tracks the
solution along a schedule of alpha nodes up to alpha = 1 with damped Newton.
The alpha = 0 state is computed once per step and is the start of every
schedule.  The first schedule is {0, 1}; on failure the step restarts with
{0, 1/4, 1/2, 3/4, 1} and finally the uniform schedule of `homotopy_steps`
steps (`schedules`).  A trial Newton update is accepted only if every density
stays strictly positive and the residual norm decreases.  After the tolerance
is met the iteration goes on to the rounding floor of the residual, which is
what makes discrete mass conservation hold to near machine precision: a node
ends at an iterate below the tolerance once the step that reached it gained
less than a digit, or once its residual is at most FLOOR_FACTOR u |||J| |x|||
(u the unit roundoff, J and x the previous iterate's matrix and iterate), a
normwise backward error of a few u at which no further step can gain a digit
(Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002, ch.
12).  The floor test costs no Jacobian, linear solve or residual: the floor
of an iterate comes from the Jacobian it is solved with, and is computed
before that solve, whose GMRES tolerance it also sets.

Each Newton matrix J = [[A, B], [C, D]] (densities first, then the
interleaved velocity components) is solved by restarted GMRES (Saad &
Schultz, SIAM J. Sci. Stat. Comput. 7, 1986) to relative tolerance 1e-15, or
to a tenth of the iterate's rounding floor relative to the right-hand side
when that is larger, left-preconditioned by the block lower triangle that
keeps the alpha = 0 structure: the density block A, factored exactly by
SuperLU, and one scalar velocity-component block S of D, factored by
SuperLU's threshold incomplete LU, with the coupling C of the current
matrix; B is ignored.  The GMRES kernel is this module's own (`_gmres`):
each Arnoldi step orthogonalizes against the whole basis with two classical
Gram-Schmidt passes, two matrix-vector products each, which keep the basis
orthogonal to working precision (Giraud, Langou & Rozloznik, Comput. Math.
Appl. 50, 2005).
A cycle that reaches the tolerance with an iterate that fails the residual
acceptance check is followed by one whose tolerance, stripped of the floor
loosening, is tightened by the factor the residual misses the bound by.
The factors are lagged (`BlockFactors`): a run holds one set across its time
steps, keyed to the continuation weight alpha they were made at, and
refreshes them on evidence.
Entering a node at another alpha drops them, so the default schedule {0, 1}
carries them from step to step at alpha = 1 and a fallback schedule factors
afresh at each of its nodes.  A fresh factorization gets GMRES restarted
every 100 iterations for at most 10 cycles, and its iteration count becomes
the base unless the solve took at most one, which leaves the base as it was;
the factors are kept for the next matrix only if that solve ended within one
cycle.  Kept factors get a single cycle, capped at twice the base, or a full
cycle before any base is set; if it misses, its iterate is discarded, the
matrix is refactored and solved afresh.  Both blocks are ordered by minimum
degree on A^T + A with diagonal pivots, which their symmetric patterns allow.
There is no direct solve of J: a zero pivot in a block, or a solve on fresh
factors that fails the acceptance check, raises SolverError with the factors
dropped, and the Newton node fails, so that the next continuation schedule
runs.  The symmetric positive definite alpha = 0 system is factored with the
blocks' settings.  GMRES needs J only through products and its diagonal
blocks; `scheme.jacobian` stores no exact zeros, so neither do the blocks
factored here.
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
from .mesh import Mesh, NDArrayF


class SolverError(RuntimeError):
    """A linear solve produced an unusable result."""


class StepFailure(RuntimeError):
    """No continuation schedule converged for a time step."""

    def __init__(self, message: str, alpha: float, iterations: int, residual_norm: float,
                 step: int | None = None):
        super().__init__(message)
        self.alpha = alpha
        self.iterations = iterations
        self.residual_norm = residual_norm
        self.step = step


# Line search: the step length is multiplied by BACKTRACK_FACTOR until the
# update keeps every density positive and lowers the residual norm, giving up
# below BACKTRACK_FLOOR.  Below the Newton tolerance the iteration goes on
# while each step still divides the residual norm by at least POLISH_GAIN and
# the residual is above FLOOR_FACTOR UNIT_ROUNDOFF |||J| |x|||_inf.  Over nine
# bump, shear and stress configurations (n = 2-4), |r|_inf / (u |||J| |x|||)
# was 0.11-3.9 at 92 of the 94 iterates below the tolerance whose next step
# gained under a digit (6.1 and 6.6 at the other two) and at least 3.9 at the
# 67 whose next step gained one or more; all but one of those were above 12.
BACKTRACK_FACTOR = 0.5
BACKTRACK_FLOOR = 1e-4
POLISH_GAIN = 10.0
UNIT_ROUNDOFF = np.finfo(float).eps / 2
FLOOR_FACTOR = 4.0


def schedules(uniform_steps: int) -> list[tuple]:
    """Continuation schedules in the order they are tried: {0, 1}, then
    {0, 1/4, 1/2, 3/4, 1}, then `uniform_steps` equal steps, without repeats."""
    out = []
    for s in ((0.0, 1.0), (0.0, 0.25, 0.5, 0.75, 1.0),
              tuple(np.linspace(0.0, 1.0, uniform_steps + 1))):
        if s not in out:
            out.append(s)
    return out


@dataclass
class StepDiagnostics:
    newton_iters: int = 0
    alpha_nodes_used: int = 0
    residual_norm: float = 0.0
    schedule_index: int = 0
    linesearch_backtracks: int = 0
    krylov_iters: int = 0
    krylov_cycles: int = 0
    factorizations: int = 0     # preconditioner block pairs factored


# GMRES on Newton matrices: cycles of KRYLOV_RESTART iterations to a tolerance
# that leaves residuals as small as a direct LU's (at 1e-13 converged steps
# drifted from the direct solver's by up to 3e-13 relative).  The tolerance is
# checked on the preconditioned residual: a cycle that reaches it ends the
# solve if its iterate passes the acceptance check, and a cycle that runs out
# of iterations is restarted, at most KRYLOV_CYCLES times.  Most solves end
# within one cycle; the hardest matrices of a strongly perturbed first step
# take two to five.  There is no direct solve to fall back on: full-J LU with
# SuperLU's default settings, bump preset, alpha = 1 at the alpha = 0 state,
#
#   n   unknowns   fill     factor   peak RSS
#   4    2,400     1.41M    0.3 s     72 ->  103 MB
#   6    8,424     12.1M    3.7 s     83 ->  350 MB
#   8   20,352     54.0M    27 s     104 -> 1287 MB
#
# so at the sizes the solver targets it would turn a failure that the next
# continuation schedule absorbs into an out-of-memory kill.  The
# preconditioned 2-norm underweights some rows, so a cycle can reach the
# tolerance with an iterate that fails the check (on the stress
# configuration, gamma 6, c 4, amp 30, n=4: one solve in about half the runs,
# 1.1-90x over the bound).  Restarted at the same tolerance, such a solve
# sometimes ran cycles of 2-3 iterations that never passed.  The next cycle
# therefore runs to KRYLOV_RTOL |M b|_2, without the floor loosening below
# (or to the tighter tolerance of an earlier rejected cycle), divided by the
# factor the residual misses the bound by.  Dividing the floor-loosened
# tolerance by that factor instead stagnated on the stress configuration at
# amp 200, n=2 (9 solves over seeds 0-10 of the benchmark): once an iterate
# missed the bound by 1.02-2.4x, each further cycle took one iteration and
# gained nothing, 47-59 iterations in all.  With the loosening dropped, all
# 9 passed in the second cycle, after 49-65 iterations.
#
# The tolerance is loosened to FLOOR_MARGIN times the current iterate's
# rounding floor (FLOOR_FACTOR u |||J| |x|||_inf, see above) relative to
# |b|_inf, when that is larger: a step resolved further than the residual
# the next iterate can show gains Newton nothing (Eisenstat & Walker, SIAM J.
# Sci. Comput. 17, 1996), and the floor is far below the acceptance bound.
# With the exact velocity factor this alone cut Krylov iterations 586 -> 389
# on bump n=4 x20, 2263 -> 1937 on the stress configuration and 96 -> 69 on
# the bump Cauchy pair n = 3, 6, all at seed 0 of the benchmark, with the
# same Newton counts.  With the ILU below, a margin of 1.0 raised the Newton
# counts of the first two 46 -> 48 and 37 -> 39; 0.01 took 462 / 1952 / 105
# Krylov iterations against 0.1's 422 / 1878 / 100.  The previous iterate's
# floor instead of the current one took 436 Krylov iterations instead of
# 389 on bump n=4 x20 with the exact factor.
KRYLOV_RESTART = 100
KRYLOV_CYCLES = 10
KRYLOV_RTOL = 1e-15
FLOOR_MARGIN = 0.1

# Lagged preconditioner (Knoll & Keyes, JCP 193, 2004, section 3): the Newton
# matrices at one continuation weight differ little, within a step and from
# one step to the next, so block factors are kept while a single GMRES cycle
# of fewer than STALE_GROWTH times the base iterations still solves with
# them.  Held by the run and keyed to alpha, they cut bump n=4 x20 from 21
# factorizations (one holder per schedule) to 1, for 558 -> 586 Krylov
# iterations and the same 46 Newton iterations.  A stale cycle of up to
# KRYLOV_RESTART iterations instead of the cap made the stress configuration
# (gamma 6, c 4, amp 30, n=4 x4) 6-7% slower.  The first Newton matrix of a
# node entered from the alpha = 0 state was solved in one iteration (a
# breakdown) in every configuration measured; such a solve sets no base, and
# the factors then get a full cycle.  A 16-iteration first cycle would cut
# the stale cycle that fails in step 1 of the stress configuration from 100
# iterations to 16, but the first stale solve of bump n=8 already takes 14.
STALE_GROWTH = 2.0

# SuperLU settings of both blocks and of the alpha = 0 system.  Their
# patterns are symmetric, so they are ordered by minimum degree on A^T + A
# and factored with diagonal pivots.  Measured on the first bump Newton
# matrix, 2-core host: the velocity block's fill at n = 4/6/8 falls
# 92k/708k/3.40M -> 53k/522k/2.49M against SuperLU's default ordering, its
# factorization 4.4/43/323 -> 2.6/42/248 ms; the same ordering with partial
# pivoting took 717 ms at n=8.  The alpha = 0 solve for three right-hand
# sides, with its assembly, fell 5.7 -> 3.2 ms at n=4 and 32 -> 11 ms at n=6
# against SuperLU's default settings.
# A zero pivot raises RuntimeError, in the incomplete factor as in the exact
# ones; `linear_solve` and the alpha = 0 solve turn it into a SolverError.
BLOCK_LU = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options=dict(SymmetricMode=True))

# The velocity block S is factored incompletely, by SuperLU's threshold ILU
# (ILUTP: Li & Shao, ACM TOMS 37, 2011) with BLOCK_LU's ordering and pivots:
# entries below ILU_DROP_TOL relative to their column are dropped and the
# factor keeps at most ILU_FILL_FACTOR times the entries of S.  The density
# block A, a P0 upwind block, and the alpha = 0 system stay exact.  S of the
# first alpha = 1 bump matrix: fill (L.nnz + U.nnz) / factorization / solve
# for three right-hand sides, 2-core host, one thread:
#
#   n   splu                     spilu(1e-4, 10)        spilu(1e-3, 5)
#   4   63.0k / 4.7 ms / 177 us  23.6k / 6.4 ms / 166 us 17.2k / 5.0 ms / 120 us
#   6   771k / 73 ms / 2.68 ms   139k / 48 ms / 851 us   79.3k / 39 ms / 631 us
#   8   2.75M / 309 ms / 10.1 ms 457k / 237 ms / 2.14 ms 227k / 179 ms / 1.59 ms
#
# and spilu(1e-2, 3): 10.6k / 4.7 ms / 89 us, 41.1k / 32 ms / 508 us, 103k /
# 110 ms / 1.20 ms.  In a one-step bump run at n=16 the held factor of S
# has 2.50M entries against 114-116M exact.  At seed 0 of the benchmark the
# three ILU settings took 402 / 422 / 483 Krylov iterations on bump n=4 x20,
# 1854 / 1878 / 1948 on the stress configuration (gamma 6, c 4, amp 30, n=4
# x4) and 100 / 100 / 117 on the bump Cauchy pair n = 3, 6, with the Newton
# counts of the exact factor; (1e-3, 5) takes about the iterations of
# (1e-4, 10) at half its fill.
ILU_DROP_TOL = 1e-3
ILU_FILL_FACTOR = 5


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


class BlockFactors:
    """Preconditioner factors for Newton matrices J = [[A, B], [C, D]] with
    `ne` density rows, held from one matrix to the next.

    `lu_rho` factors A exactly and `lu_u` factors S = J[ne::3, ne::3], the
    first velocity component's block of D, incompletely; `alpha` is the
    continuation weight of the node they serve.  `base` is the iteration
    count of the latest solve right after a factorization, among those that
    took more than one iteration; 0 before there is one.  A run creates one
    holder and hands it to every step.
    """

    def __init__(self):
        self.lu_rho = self.lu_u = None
        self.base = 0
        self.alpha = None

    def keep_for(self, alpha: float) -> None:
        """Enter a continuation node at weight `alpha`: factors made at another
        weight are dropped."""
        if alpha != self.alpha:
            self.drop()
            self.alpha = alpha

    @property
    def held(self) -> bool:
        return self.lu_u is not None

    def factor(self, J: sp.csr_matrix, ne: int) -> None:
        """Factor A exactly and S incompletely; raises RuntimeError at a zero
        pivot."""
        self.drop()   # before the new factors are allocated
        lu_rho = spla.splu(sp.csc_matrix(J[:ne, :ne]), **BLOCK_LU)
        lu_u = spla.spilu(sp.csc_matrix(J[ne::3, ne::3]), drop_tol=ILU_DROP_TOL,
                          fill_factor=ILU_FILL_FACTOR, **BLOCK_LU)
        self.lu_rho, self.lu_u = lu_rho, lu_u

    def drop(self) -> None:
        self.lu_rho = self.lu_u = None

    def preconditioner(self, C: sp.csr_matrix) -> Callable[[NDArrayF], NDArrayF]:
        """The map r -> z that solves A z_rho = r_rho, then
        S z_d = (r_u - C z_rho)_d for each velocity component d."""
        ne = C.shape[1]
        lu_rho, lu_u = self.lu_rho, self.lu_u

        def precondition(r):
            z_rho = lu_rho.solve(r[:ne])
            z_u = lu_u.solve((r[ne:] - C @ z_rho).reshape(-1, 3))
            return np.concatenate([z_rho, z_u.ravel()])

        return precondition


def _gmres(J: sp.csr_matrix, b: NDArrayF, precondition: Callable[[NDArrayF], NDArrayF],
           restart: int, cycles: int, stats: StepDiagnostics,
           floor: float = 0.0) -> tuple[NDArrayF, str | None, int]:
    """Up to `cycles` cycles of GMRES for J x = b from x = 0, left-preconditioned
    by `precondition` (M), each of at most `restart` iterations.

    A cycle ends when the preconditioned residual estimate reaches the
    tolerance, max(KRYLOV_RTOL, FLOOR_MARGIN floor / |b|_inf) |M b|_2 at
    first (KRYLOV_RTOL |M b|_2 for a zero floor or b = 0), or at breakdown
    (the Krylov space holds the solution).  Such a cycle ends the solve if
    its iterate passes the acceptance check; if not, the next cycle's
    tolerance is the smaller of the current one and KRYLOV_RTOL |M b|_2,
    divided by the factor by which |b - J x|_inf exceeds the check's bound.
    The next cycle starts from the true residual, as after a cycle that runs
    out of iterations.  Returns the last iterate, why it fails the acceptance
    check (None if it passes), and the iteration count, which is below
    `restart` if and only if the first cycle ended the solve.  `stats`
    counts the iterations and cycles.
    """
    eps = np.finfo(b.dtype).eps
    x = np.zeros_like(b)
    r = b
    z = precondition(b)
    mb = np.linalg.norm(z)
    rtol = KRYLOV_RTOL
    if floor > 0.0 and b.any():
        rtol = max(rtol, FLOOR_MARGIN * floor / np.abs(b).max())
    tol = rtol * mb
    V = np.empty((restart + 1, b.size))   # Arnoldi basis, one vector per row
    R = np.zeros((restart, restart))      # triangular factor of the Hessenberg matrix
    iters = 0
    for cycle in range(cycles):
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
        m = len(rotations)
        if R[m - 1, m - 1] == 0.0:   # singular only in its last column
            m -= 1
        x += sla.solve_triangular(R[:m, :m], g[:m]) @ V[:m]
        r = b - J @ x
        if len(rotations) < restart:   # the cycle reached the tolerance
            if _rejection(x, r, b) is None:
                break
            # The preconditioned norm underweights the rows that fail the
            # check: drop the floor loosening and tighten the tolerance by the
            # factor they miss it by.
            tol = min(tol, KRYLOV_RTOL * mb) * _residual_bound(b) / np.abs(r).max()
    stats.krylov_iters += iters
    return x, _rejection(x, r, b), iters


def linear_solve(J: sp.csr_matrix, b: NDArrayF, n_density: int,
                 stats: StepDiagnostics | None = None,
                 factors: BlockFactors | None = None, floor: float = 0.0) -> NDArrayF:
    """Solve the Newton system J x = b, J with `n_density` density unknowns
    first, by GMRES preconditioned with `factors`, which are kept or
    refreshed as the module docstring describes; without them the blocks are
    factored for this matrix alone.  `floor`, the rounding floor of the
    Newton iterate, loosens GMRES's tolerance (`_gmres`), and `stats` counts
    the Krylov iterations and factorizations.  x is accepted only if it is
    finite with |J x - b|_inf <= 1e-10 (1 + |b|_inf).  Raises SolverError at
    a zero pivot in a block or when the solve on fresh factors fails the
    check; the factors are then dropped.
    """
    stats = stats if stats is not None else StepDiagnostics()
    factors = factors if factors is not None else BlockFactors()
    C = J[n_density:, :n_density]
    if factors.held:
        cap = min(KRYLOV_RESTART, int(STALE_GROWTH * factors.base)) or KRYLOV_RESTART
        x, reason, iters = _gmres(J, b, factors.preconditioner(C), cap, 1, stats, floor)
        if reason is None and iters < cap:
            return x
    try:
        factors.factor(J, n_density)
    except RuntimeError as exc:   # exactly singular block; factor dropped the old ones
        raise SolverError(f"preconditioner block: {exc}") from exc
    stats.factorizations += 1
    x, reason, iters = _gmres(J, b, factors.preconditioner(C),
                              KRYLOV_RESTART, KRYLOV_CYCLES, stats, floor)
    if iters > 1:   # a breakdown at once says nothing of the next matrix
        factors.base = iters
    if not (reason is None and iters < KRYLOV_RESTART):   # kept only after one cycle
        factors.drop()
    if reason is not None:
        raise SolverError(reason)
    return x


def alpha0_solve(prev, params, mesh: Mesh) -> "scheme.State":
    """Exact solution of the alpha = 0 system.

    The continuity block forces rho = rho_prev; the momentum block is
    (M_rho + dt K) u = M_rho-data with M_rho the rho-weighted mean-velocity
    mass and K the broken-gradient stiffness, both SPD on interior dofs.
    """
    dt = params.dt(mesh)
    rho_prev = prev.rho

    Ms = scheme.interior_weighted_mass(mesh, rho_prev)
    Ks = scheme.interior_stiffness(mesh)

    # One scalar system, factored once, for the three velocity components;
    # it is symmetric positive definite, so the blocks' SuperLU settings hold.
    uhat_prev = scheme.element_average(prev.u, mesh)
    rhs = scheme.mesh_operators(mesh).avg.T @ ((mesh.elem_volume * rho_prev)[:, None] * uhat_prev)
    A = sp.csc_matrix(Ms + dt * Ks)
    try:
        u = spla.splu(A, **BLOCK_LU).solve(rhs)
    except RuntimeError as exc:   # exactly singular
        raise SolverError(f"alpha = 0 system: {exc}") from exc
    reason = _rejection(u, rhs - A @ u, rhs)
    if reason is not None:
        raise SolverError(reason)

    state = scheme.unpack(
        np.concatenate([rho_prev, u.ravel()]), mesh, prev.k + 1, prev.t + dt
    )
    return state


def homotopy_newton_solve(prev, params, mesh: Mesh, factors: BlockFactors | None = None
                          ) -> tuple["scheme.State", StepDiagnostics]:
    """Advance `prev` by one time step; raises StepFailure if all schedules fail.
    `factors` carries the preconditioner from the previous step and on to the
    next; without it the step starts with none."""
    dt = params.dt(mesh)
    k, t = prev.k + 1, prev.t + dt
    last_fail = (1.0, 0, np.inf)
    # Every schedule starts here; _newton_at_alpha rebinds x, never mutates it.
    x0 = scheme.pack(alpha0_solve(prev, params, mesh), mesh)
    factors = factors if factors is not None else BlockFactors()

    for ischedule, schedule in enumerate(schedules(params.homotopy_steps)):
        x = x0
        diag = StepDiagnostics(schedule_index=ischedule, alpha_nodes_used=1)
        ok = True
        for alpha in schedule[1:]:
            diag.alpha_nodes_used += 1
            factors.keep_for(alpha)
            x, ok = _newton_at_alpha(prev, x, alpha, params, mesh, diag, factors)
            if not ok:
                last_fail = (alpha, diag.newton_iters, diag.residual_norm)
                break
        if ok:
            state = scheme.unpack(x, mesh, k, t)
            return state, diag

    raise StepFailure(
        f"no continuation schedule converged (last: alpha={last_fail[0]}, "
        f"residual={last_fail[2]:.3e})",
        alpha=last_fail[0],
        iterations=last_fail[1],
        residual_norm=last_fail[2],
    )


def _rounding_floor(J: sp.csr_matrix, x: NDArrayF) -> float:
    """FLOOR_FACTOR u |||J| |x|||_inf, the residual of the iterate x at which
    no Newton step with the matrix J can gain a digit; |J| shares J's index
    arrays."""
    abs_J = sp.csr_matrix((np.abs(J.data), J.indices, J.indptr), shape=J.shape)
    return FLOOR_FACTOR * UNIT_ROUNDOFF * (abs_J @ np.abs(x)).max()


def _newton_at_alpha(prev, x, alpha, params, mesh, diag, factors):
    ne = mesh.n_elems
    tol = params.newton_tol

    def res_norm(xv):
        guess = scheme.unpack(xv, mesh, prev.k + 1, prev.t)
        r = scheme.residual(prev, guess, params, mesh, alpha=alpha).ravel()
        return guess, r, np.abs(r).max()

    guess, r, norm = res_norm(x)
    gain = 0.0   # entry below tolerance converges with zero iterations
    floor = 0.0  # rounding floor of the residual, once a Jacobian is known
    while diag.newton_iters < params.newton_max_iter:
        diag.residual_norm = norm
        if norm <= tol and (gain < POLISH_GAIN or norm <= floor):
            return x, True
        J = scheme.jacobian(prev, guess, params, mesh, alpha=alpha)
        floor = _rounding_floor(J, x)
        if not np.isfinite(norm + floor):
            # An overflowed residual or Jacobian gives no Newton step.
            return x, norm <= tol
        try:
            delta = linear_solve(J, -r, n_density=ne, stats=diag, factors=factors,
                                 floor=floor)
        except SolverError:
            return x, norm <= tol
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
            # No admissible decrease; fine if already converged.
            return x, norm <= tol

        gain = norm / norm_try if norm_try > 0.0 else np.inf
        x, guess, r, norm = x_try, guess_try, r_try, norm_try
        diag.newton_iters += 1

    diag.residual_norm = norm
    return x, norm <= tol
