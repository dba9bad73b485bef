"""Continuation-Newton solver for the implicit coupled step.

Each step starts from the exactly solvable continuation weight alpha = 0,
where the density equation returns the previous density and the momentum
equation is a symmetric positive definite linear system, then tracks the
solution along a schedule of alpha nodes up to alpha = 1 with damped Newton.
The alpha = 0 state is computed once per step and is the start of every
schedule.  The first schedule is {0, 1}; on failure the step restarts with
{0, 1/4, 1/2, 3/4, 1} and finally the uniform schedule of `homotopy_steps`
steps (`schedules`).  A trial Newton update is accepted only if every density
stays strictly positive and the residual norm decreases; after the tolerance
is met the iteration continues while it still gains whole digits, so accepted
steps typically sit at the rounding floor of the residual, which is what makes
discrete mass conservation hold to near machine precision.

Each Newton matrix J = [[A, B], [C, D]] (densities first, then the
interleaved velocity components) is solved by GMRES, restarted every 100
iterations for at most 10 cycles, to relative tolerance 1e-15 and
left-preconditioned by the block lower triangle that keeps the alpha = 0
structure: the density block A and one scalar velocity-component block of
D, each factored by SuperLU, with the coupling C; B is ignored.  A result
that fails the residual acceptance check of `linear_solve` is discarded and
the same system is solved by sparse direct LU, which every other linear
solve uses.  GMRES needs J only through products and its diagonal blocks,
so J has no fixed pattern: entries that cancel exactly are not stored.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
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
# while each step still divides the residual norm by at least POLISH_GAIN.
BACKTRACK_FACTOR = 0.5
BACKTRACK_FLOOR = 1e-4
POLISH_GAIN = 10.0


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
    direct_fallbacks: int = 0


# GMRES on Newton matrices: cycles of KRYLOV_RESTART iterations to a tolerance
# that leaves residuals as small as the direct LU's (at 1e-13 converged steps
# drifted from the direct solver's by up to 3e-13 relative).  The tolerance is
# checked on the preconditioned residual: a cycle that reaches it ends the
# solve, and a cycle that runs out of iterations is restarted, at most
# KRYLOV_CYCLES times.  Most solves end within one cycle; the hardest
# matrices of a strongly perturbed first step take two to five.  Restarting
# them instead of falling back keeps the LU factors, and the memory they
# take, out of every run that converges.
KRYLOV_RESTART = 100
KRYLOV_CYCLES = 10
KRYLOV_RTOL = 1e-15


def _rejection(A: sp.spmatrix, x: NDArrayF, b: NDArrayF) -> str | None:
    """Why `x` fails the acceptance check for A x = b, or None if it passes."""
    if not np.all(np.isfinite(x)):
        return "linear solve returned non-finite values"
    resid = np.abs(A @ x - b).max()
    if resid > 1e-10 * (1.0 + np.abs(b).max()):
        return f"linear solve residual too large: {resid:.3e}"
    return None


def linear_solve(A: sp.spmatrix, b: NDArrayF, n_density: int | None = None,
                 stats: StepDiagnostics | None = None) -> NDArrayF:
    """Solve A x = b, accepting x only if it is finite with
    |A x - b|_inf <= 1e-10 (1 + |b|_inf); raises SolverError otherwise.

    Given `n_density`, A is a Newton matrix with that many density unknowns
    first: it is solved by preconditioned GMRES, and by sparse direct LU only
    when the GMRES result fails the check.  `stats` then counts the Krylov
    iterations and direct fallbacks.  Otherwise the solve is direct; b may
    then hold several right-hand sides as columns.
    """
    if n_density is not None:
        x, iters = _krylov_attempt(A, b, n_density)
        if stats is not None:
            stats.krylov_iters += iters
        if x is not None:
            return x
        if stats is not None:
            stats.direct_fallbacks += 1
    x = spla.spsolve(sp.csc_matrix(A), b)
    reason = _rejection(A, x, b)
    if reason is not None:
        raise SolverError(reason)
    return x


def _krylov_attempt(J: sp.csr_matrix, b: NDArrayF, ne: int) -> tuple[NDArrayF | None, int]:
    """GMRES for a Newton matrix J = [[A, B], [C, D]] with ne density rows.

    The preconditioner solves A z_rho = r_rho, then S z_d = (r_u - C z_rho)_d
    for each velocity component d, with S = J[ne::3, ne::3] the first
    component's block of D.  Returns the iterate (None if it fails the
    acceptance check or a block is singular) and the iteration count.  The factors and the Krylov workspace are freed on
    return, before a direct fallback allocates its own.
    """
    try:
        lu_rho = spla.splu(sp.csc_matrix(J[:ne, :ne]))
        lu_u = spla.splu(sp.csc_matrix(J[ne::3, ne::3]))
    except RuntimeError:  # exactly singular block
        return None, 0
    C = J[ne:, :ne]

    def precondition(r):
        z_rho = lu_rho.solve(r[:ne])
        z_u = lu_u.solve((r[ne:] - C @ z_rho).reshape(-1, 3))
        return np.concatenate([z_rho, z_u.ravel()])

    iters = 0

    def count(_):
        nonlocal iters
        iters += 1

    M = spla.LinearOperator(J.shape, matvec=precondition, dtype=float)
    x = np.zeros_like(b)
    for _ in range(KRYLOV_CYCLES):
        start = iters
        x, _ = spla.gmres(J, b, x0=x, rtol=KRYLOV_RTOL, atol=0.0, restart=KRYLOV_RESTART,
                          maxiter=1, M=M, callback=count, callback_type="pr_norm")
        accepted = _rejection(J, x, b) is None
        if accepted and iters - start < KRYLOV_RESTART:  # tolerance reached
            return x, iters
    return (x if accepted else None), iters


def alpha0_solve(prev, params, mesh: Mesh) -> "scheme.State":
    """Exact solution of the alpha = 0 system.

    The continuity block forces rho = rho_prev; the momentum block is
    (M_rho + dt K) u = M_rho-data with M_rho the rho-weighted mean-velocity
    mass and K the broken-gradient stiffness, both SPD on interior dofs.
    """
    dt = params.dt(mesh)
    rho_prev = prev.rho.values

    Ms = scheme.interior_weighted_mass(mesh, rho_prev)
    Ks = scheme.interior_stiffness(mesh)

    # One scalar system, factored once, for the three velocity components.
    uhat_prev = scheme.element_average(prev.u, mesh)
    rhs = scheme.mesh_operators(mesh).avg.T @ ((mesh.elem_volume * rho_prev)[:, None] * uhat_prev)
    u = linear_solve(Ms + dt * Ks, rhs)

    state = scheme.unpack(
        np.concatenate([rho_prev, u.ravel()]), mesh, prev.k + 1, prev.t + dt
    )
    return state


def homotopy_newton_solve(prev, params, mesh: Mesh) -> tuple["scheme.State", StepDiagnostics]:
    """Advance `prev` by one time step; raises StepFailure if all schedules fail."""
    dt = params.dt(mesh)
    k, t = prev.k + 1, prev.t + dt
    last_fail = (1.0, 0, np.inf)
    # Every schedule starts here; _newton_at_alpha rebinds x, never mutates it.
    x0 = scheme.pack(alpha0_solve(prev, params, mesh), mesh)

    for ischedule, schedule in enumerate(schedules(params.homotopy_steps)):
        x = x0
        diag = StepDiagnostics(schedule_index=ischedule, alpha_nodes_used=1)
        ok = True
        for alpha in schedule[1:]:
            diag.alpha_nodes_used += 1
            x, ok = _newton_at_alpha(prev, x, alpha, params, mesh, diag)
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


def _newton_at_alpha(prev, x, alpha, params, mesh, diag):
    ne = mesh.n_elems
    tol = params.newton_tol

    def res_norm(xv):
        guess = scheme.unpack(xv, mesh, prev.k + 1, prev.t)
        r = scheme.residual(prev, guess, params, mesh, alpha=alpha)
        return guess, r.ravel(), np.abs(r.ravel()).max()

    guess, r, norm = res_norm(x)
    gain = 0.0   # entry below tolerance converges with zero iterations
    while diag.newton_iters < params.newton_max_iter:
        diag.residual_norm = norm
        if norm == 0.0:
            return x, True
        if norm <= tol and gain < POLISH_GAIN:
            return x, True
        J = scheme.jacobian(prev, guess, params, mesh, alpha=alpha)
        try:
            delta = linear_solve(J, -r, n_density=ne, stats=diag)
        except SolverError:
            return (x, True) if norm <= tol else (x, False)

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
            return (x, True) if norm <= tol else (x, False)

        gain = norm / norm_try if norm_try > 0.0 else np.inf
        x, guess, r, norm = x_try, guess_try, r_try, norm_try
        diag.newton_iters += 1

    diag.residual_norm = norm
    return (x, norm <= tol)
