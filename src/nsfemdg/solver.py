"""Continuation-Newton solver for the implicit coupled step.

Each step starts from the exactly solvable continuation weight alpha = 0,
where the density equation returns the previous density and the momentum
equation is a symmetric positive definite linear system, then tracks the
solution along a schedule of alpha nodes up to alpha = 1 with damped Newton.
The default schedule is {0, 1}; on failure the step restarts with
{0, 1/4, 1/2, 3/4, 1} and finally a uniform schedule.  A trial Newton update
is accepted only if every density stays strictly positive and the residual
norm decreases; after the tolerance is met the iteration continues while it
still gains whole digits, so accepted steps typically sit at the rounding
floor of the residual, which is what makes discrete mass conservation hold
to near machine precision.
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


@dataclass(frozen=True)
class HomotopySettings:
    """Continuation schedules and line-search controls."""

    alpha_schedule: tuple = (0.0, 1.0)
    backtrack_factor: float = 0.5
    backtrack_floor: float = 1e-4     # smallest admissible step length
    polish_gain: float = 10.0         # keep iterating below tol while gaining this factor

    def __post_init__(self):
        s = self.alpha_schedule
        if len(s) < 2 or s[0] != 0.0 or s[-1] != 1.0 or np.any(np.diff(s) <= 0.0):
            raise ValueError(
                f"alpha_schedule must increase from 0 to 1, got {s}"
            )
        if not 0.0 < self.backtrack_factor < 1.0:
            raise ValueError("backtrack_factor must be in (0, 1)")

    def schedules(self, uniform_steps: int) -> list[tuple]:
        fallback = (0.0, 0.25, 0.5, 0.75, 1.0)
        uniform = tuple(np.linspace(0.0, 1.0, uniform_steps + 1))
        out = [self.alpha_schedule]
        for s in (fallback, uniform):
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


def linear_solve(A: sp.spmatrix, b: NDArrayF) -> NDArrayF:
    """Sparse direct solve with a residual acceptance check."""
    x = spla.spsolve(sp.csc_matrix(A), b)
    if not np.all(np.isfinite(x)):
        raise SolverError("linear solve returned non-finite values")
    resid = np.abs(A @ x - b).max()
    if resid > 1e-10 * (1.0 + np.abs(b).max()):
        raise SolverError(f"linear solve residual too large: {resid:.3e}")
    return x


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
    A = sp.kron(Ms + dt * Ks, sp.identity(3), format="csr")

    uhat_prev = scheme.element_average(prev.u, mesh)
    rhs = scheme.mesh_operators(mesh).avg.T @ ((mesh.elem_volume * rho_prev)[:, None] * uhat_prev)
    x = linear_solve(A, rhs.ravel())

    state = scheme.unpack(
        np.concatenate([rho_prev, x]), mesh, prev.k + 1, prev.t + dt
    )
    return state


def homotopy_newton_solve(
    prev, params, mesh: Mesh, settings: HomotopySettings | None = None
) -> tuple["scheme.State", StepDiagnostics]:
    """Advance `prev` by one time step; raises StepFailure if all schedules fail."""
    if settings is None:
        settings = HomotopySettings()
    dt = params.dt(mesh)
    k, t = prev.k + 1, prev.t + dt
    last_fail = (1.0, 0, np.inf)

    for ischedule, schedule in enumerate(settings.schedules(params.homotopy_steps)):
        x = scheme.pack(alpha0_solve(prev, params, mesh), mesh)
        diag = StepDiagnostics(schedule_index=ischedule, alpha_nodes_used=1)
        ok = True
        for alpha in schedule[1:]:
            diag.alpha_nodes_used += 1
            x, ok = _newton_at_alpha(prev, x, alpha, params, mesh, settings, diag)
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


def _newton_at_alpha(prev, x, alpha, params, mesh, settings, diag):
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
        if norm <= tol and gain < settings.polish_gain:
            return x, True
        J = scheme.jacobian(prev, guess, params, mesh, alpha=alpha)
        try:
            delta = linear_solve(J, -r)
        except SolverError:
            return (x, True) if norm <= tol else (x, False)

        step = 1.0
        accepted = False
        while step >= settings.backtrack_floor:
            x_try = x + step * delta
            if x_try[:ne].min() > 0.0:
                guess_try, r_try, norm_try = res_norm(x_try)
                if np.isfinite(norm_try) and norm_try < norm:
                    accepted = True
                    break
            step *= settings.backtrack_factor
            diag.linesearch_backtracks += 1
        if not accepted:
            # No admissible decrease; fine if already converged.
            return (x, True) if norm <= tol else (x, False)

        gain = norm / norm_try if norm_try > 0.0 else np.inf
        x, guess, r, norm = x_try, guess_try, r_try, norm_try
        diag.newton_iters += 1

    diag.residual_norm = norm
    return (x, norm <= tol)
