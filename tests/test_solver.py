"""Linear solves, the decoupled entry solve, and the continuation Newton loop."""
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from nsfemdg import scheme, solver
from nsfemdg.spaces import apply_bc


def bump_state(mesh, params):
    rho0, m0 = scheme.bump_data(1.0, 0.5, 0.15, 0.5 * (mesh.box_lo + mesh.box_hi))
    return scheme.initial_state(rho0, m0, mesh, params)


def _discard(state, row):
    """The `on_state` of a run whose states a test does not read."""


# ---------------------------------------------------------------------------
# Newton linear solve


def newton_system(mesh, params):
    """First Newton matrix and right-hand side of the second bump step."""
    first, _ = solver.homotopy_newton_solve(bump_state(mesh, params), params, mesh)
    guess = scheme.unpack(solver.alpha0_solve(first, params, mesh), mesh, first.k + 1)
    J = scheme.jacobian(first, guess, params, mesh, alpha=1.0)
    r = scheme.residual(first, guess, params, mesh, alpha=1.0)
    return J, -r.ravel()


def test_newton_solve_matches_direct(mesh2, params):
    J, b = newton_system(mesh2, params)
    stats = solver.StepDiagnostics()
    x = solver.linear_solve(J, b, n_density=mesh2.n_elems, stats=stats,
                            factors=solver.BlockFactors(), floor=0.0)
    direct = spla.spsolve(sp.csc_matrix(J), b)
    assert np.abs(x - direct).max() <= 1e-12 * np.abs(direct).max()
    # 9 iterations today (8 with scipy's gmres); a preconditioner without the
    # coupling C needed 16.
    assert 0 < stats.krylov_iters <= 12


def newton_layout(b_scale):
    """A Newton-layout system whose upper-right block B, which the
    preconditioner ignores, is scaled by `b_scale`."""
    rng = np.random.default_rng(3)
    ne, ni = 120, 60
    A = sp.diags(1.0 + rng.uniform(0.0, 1.0, ne))
    B = sp.random(ne, 3 * ni, density=0.2, random_state=rng) * b_scale
    C = sp.random(3 * ni, ne, density=0.2, random_state=rng)
    S = sp.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(ni, ni))
    J = sp.bmat([[A, B], [C, sp.kron(S, sp.identity(3))]], format="csr")
    return J, rng.standard_normal(ne + 3 * ni), ne


def test_newton_solve_restarts_a_cycle_short_of_the_bound():
    """A system that one GMRES cycle leaves short of the acceptance bound is
    finished by a restarted cycle."""
    J, b, ne = newton_layout(1.0)
    stats = solver.StepDiagnostics()
    x = solver.linear_solve(J, b, n_density=ne, stats=stats, factors=solver.BlockFactors(),
                            floor=0.0)
    direct = np.linalg.solve(J.toarray(), b)
    # 195 iterations over two cycles today.
    assert solver.KRYLOV_RESTART < stats.krylov_iters < 3 * solver.KRYLOV_RESTART
    assert np.abs(x - direct).max() <= 1e-10 * np.abs(direct).max()


def test_newton_solve_failure_raises():
    """A large upper-right block B leaves every GMRES cycle short of the
    acceptance bound: the solve raises SolverError with the residual's reason."""
    J, b, ne = newton_layout(100.0)
    stats = solver.StepDiagnostics()
    with pytest.raises(solver.SolverError, match="residual too large"):
        solver.linear_solve(J, b, n_density=ne, stats=stats, factors=solver.BlockFactors(),
                            floor=0.0)
    assert stats.krylov_iters == solver.KRYLOV_RESTART * solver.KRYLOV_CYCLES
    assert stats.krylov_cycles == solver.KRYLOV_CYCLES


def test_failed_solve_drops_factors():
    """A solve that fails on factors held from an earlier matrix refactors
    once, and drops the factors when the fresh ones fail too."""
    J, b, ne = newton_layout(0.01)
    stats, factors = solver.StepDiagnostics(), solver.BlockFactors()
    solver.linear_solve(J, b, n_density=ne, stats=stats, factors=factors, floor=0.0)
    assert factors.held
    stale_cap = int(solver.STALE_GROWTH * factors.base)
    J_bad, b_bad, _ = newton_layout(100.0)
    stats = solver.StepDiagnostics()
    with pytest.raises(solver.SolverError, match="residual too large"):
        solver.linear_solve(J_bad, b_bad, n_density=ne, stats=stats, factors=factors, floor=0.0)
    # The held factors' capped stale cycle, then every cycle on fresh factors.
    assert stats.krylov_iters == stale_cap + solver.KRYLOV_RESTART * solver.KRYLOV_CYCLES
    assert stats.krylov_cycles == 1 + solver.KRYLOV_CYCLES
    assert stats.factorizations == 1
    assert factors.lu_rho is None and factors.lu_u is None


# ---------------------------------------------------------------------------
# GMRES kernel


def block_preconditioner(J, ne):
    factors = solver.BlockFactors()
    factors.factor(J, ne)
    return factors.preconditioner(J[ne:, :ne])


def test_gmres_matches_scipy():
    """One cycle passes the acceptance check within one iteration of scipy's
    GMRES with the same preconditioner and tolerance."""
    J, b, ne = newton_layout(0.01)
    precondition = block_preconditioner(J, ne)
    stats = solver.StepDiagnostics()
    x, _, iters = solver._gmres(J, b, precondition, solver.KRYLOV_RESTART, 1, stats, 0.0)
    assert solver._rejection(x, b - J @ x, b) is None
    assert (stats.krylov_iters, stats.krylov_cycles) == (iters, 1)
    residuals = []
    spla.gmres(J, b, rtol=solver.KRYLOV_RTOL, atol=0.0, restart=solver.KRYLOV_RESTART,
               maxiter=1, M=spla.LinearOperator(J.shape, matvec=precondition, dtype=float),
               callback=residuals.append, callback_type="pr_norm")
    assert abs(iters - len(residuals)) <= 1


def test_gmres_below_restart_only_at_tolerance():
    """A cycle one iteration shorter than the converged one runs out of
    iterations, and is restarted although its iterate passes the acceptance
    check; one iteration longer ends at the tolerance."""
    J, b, ne = newton_layout(0.01)
    precondition = block_preconditioner(J, ne)
    _, _, k = solver._gmres(J, b, precondition, solver.KRYLOV_RESTART, 1,
                            solver.StepDiagnostics(), 0.0)
    assert k < solver.KRYLOV_RESTART
    _, reason, short = solver._gmres(J, b, precondition, k - 1, 1, solver.StepDiagnostics(),
                                     0.0)
    assert short == k - 1 and reason is None
    stats = solver.StepDiagnostics()
    solver._gmres(J, b, precondition, k - 1, solver.KRYLOV_CYCLES, stats, 0.0)
    assert stats.krylov_cycles == 2
    _, reason, longer = solver._gmres(J, b, precondition, k + 1, 1, solver.StepDiagnostics(),
                                      0.0)
    assert longer == k and reason is None


def test_gmres_breakdown_with_exact_preconditioner():
    """With M = J^-1 exactly (a power-of-two diagonal), the first Arnoldi
    vector spans the solution: one iteration, one cycle."""
    d = np.tile(2.0 ** np.arange(-5, 6), 10)
    J = sp.diags(d).tocsr()
    b = np.random.default_rng(5).standard_normal(d.size)
    stats = solver.StepDiagnostics()
    x, reason, iters = solver._gmres(J, b, lambda r: r / d, solver.KRYLOV_RESTART,
                                     solver.KRYLOV_CYCLES, stats, 0.0)
    assert reason is None and iters == 1 and stats.krylov_cycles == 1
    assert np.allclose(x, b / d, rtol=1e-14, atol=0.0)


def test_gmres_zero_rhs():
    """b = 0 ends before any iteration, with or without a floor, and warns
    of no 0/0."""
    J, b, ne = newton_layout(0.01)
    for floor in (0.0, 1e-3):
        stats = solver.StepDiagnostics()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, reason, iters = solver._gmres(J, np.zeros_like(b), block_preconditioner(J, ne),
                                             solver.KRYLOV_RESTART, solver.KRYLOV_CYCLES,
                                             stats, floor)
        assert reason is None and iters == 0 and stats.krylov_cycles == 0
        assert not x.any()


def test_overflowing_krylov_quantity_fails_the_solve():
    """The density row's coupling B, the largest float in each column,
    which the block preconditioner ignores, overflows the first product
    J v: the solve ends within its first cycle with the non-finite reason,
    as a SolverError, and numpy warns of nothing."""
    big = np.finfo(float).max
    J = sp.csr_matrix(np.array([[1.0, big, big, big],
                                [0.0, 1.0, 0.0, 0.0],
                                [0.0, 0.0, 1.0, 0.0],
                                [0.0, 0.0, 0.0, 1.0]]))
    stats = solver.StepDiagnostics()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(solver.SolverError, match="non-finite"):
            solver.linear_solve(J, np.ones(4), n_density=1, stats=stats,
                                factors=solver.BlockFactors(), floor=0.0)
    assert stats.krylov_cycles == 1 and stats.krylov_iters == 0
    assert not caught


def test_floor_shortens_the_solve():
    """A rounding floor above KRYLOV_RTOL |b|_inf / FLOOR_MARGIN ends GMRES
    sooner, at an iterate that still passes the acceptance check; one below
    it gives the iterate of floor 0 bitwise."""
    J, b, ne = newton_layout(0.01)
    bmax = np.abs(b).max()

    def solve(floor):
        stats = solver.StepDiagnostics()
        x = solver.linear_solve(J, b, n_density=ne, stats=stats, floor=floor,
                                factors=solver.BlockFactors())
        return x, stats.krylov_iters

    exact, iters = solve(0.0)
    x, fewer = solve(1e-10 * bmax)
    assert fewer < iters
    assert solver._rejection(x, b - J @ x, b) is None
    below, same = solve(0.5 * solver.KRYLOV_RTOL * bmax / solver.FLOOR_MARGIN)
    assert same == iters and np.array_equal(below, exact)


def test_velocity_block_factor_is_incomplete(mesh2, params):
    """On a bump Newton matrix the held velocity factor stores fewer entries
    than SuperLU's exact factor of the same block, and preconditions GMRES
    to an iterate that passes the acceptance check."""
    J, b = newton_system(mesh2, params)
    ne = mesh2.n_elems
    factors = solver.BlockFactors()
    factors.factor(J, ne)
    exact = spla.splu(sp.csc_matrix(J[ne::3, ne::3]), **solver.BLOCK_LU)
    assert factors.lu_u.nnz < exact.nnz   # 1574 against 4048 today
    x, reason, _ = solver._gmres(J, b, factors.preconditioner(J[ne:, :ne]),
                                 solver.KRYLOV_RESTART, solver.KRYLOV_CYCLES,
                                 solver.StepDiagnostics(), 0.0)
    assert reason is None and solver._rejection(x, b - J @ x, b) is None


def test_gmres_tightens_after_rejected_cycle():
    """A cycle that reaches the tolerance with an iterate failing the
    acceptance check is followed by one with a tighter tolerance, which
    passes, with or without a rounding floor loosening the first cycle's
    tolerance.  A preconditioner that shrinks the density rows by 1e-10
    makes the first cycle end that way."""
    J, b, ne = newton_layout(0.01)
    precondition = block_preconditioner(J, ne)
    scale = np.r_[np.full(ne, 1e-10), np.ones(J.shape[0] - ne)]

    def shrunk(r):
        return scale * precondition(r)

    for floor in (0.0, 1e-10 * np.abs(b).max()):
        _, reason, first = solver._gmres(J, b, shrunk, solver.KRYLOV_RESTART, 1,
                                         solver.StepDiagnostics(), floor)
        assert first < solver.KRYLOV_RESTART and reason is not None
        stats = solver.StepDiagnostics()
        x, reason, _ = solver._gmres(J, b, shrunk, solver.KRYLOV_RESTART,
                                     solver.KRYLOV_CYCLES, stats, floor)
        assert reason is None and solver._rejection(x, b - J @ x, b) is None
        assert 1 < stats.krylov_cycles < solver.KRYLOV_CYCLES


def test_bump_step_runs_without_scipy_gmres(mesh2, params, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("scipy's gmres called on the Newton path")

    monkeypatch.setattr(spla, "gmres", refuse)
    _, diag = solver.homotopy_newton_solve(bump_state(mesh2, params), params, mesh2)
    assert diag.residual_norm <= params.newton_tol
    assert diag.krylov_iters > 0


def row_scaled(J, ne, lo, hi):
    """J with its density rows scaled by factors drawn from [lo, hi]."""
    rng = np.random.default_rng(4)
    scale = np.r_[rng.uniform(lo, hi, ne), np.ones(J.shape[0] - ne)]
    return (sp.diags(scale) @ J).tocsr()


def test_close_newton_matrices_share_factors():
    """Held factors of one matrix precondition the next, close one."""
    J, b, ne = newton_layout(0.01)
    stats, factors = solver.StepDiagnostics(), solver.BlockFactors()
    solver.linear_solve(J, b, n_density=ne, stats=stats, factors=factors, floor=0.0)
    assert factors.held and stats.factorizations == 1
    J2 = row_scaled(J, ne, 1.0, 1.001)
    x = solver.linear_solve(J2, b, n_density=ne, stats=stats, factors=factors, floor=0.0)
    assert stats.factorizations == 1
    assert np.allclose(x, np.linalg.solve(J2.toarray(), b), rtol=1e-10, atol=1e-12)


def test_stale_factors_missing_their_cap_refactor_once():
    """A stale cycle that misses its cap is discarded and the matrix is
    refactored once; the fresh solve's result passes the acceptance check."""
    J, b, ne = newton_layout(0.01)
    stats, factors = solver.StepDiagnostics(), solver.BlockFactors()
    solver.linear_solve(J, b, n_density=ne, stats=stats, factors=factors, floor=0.0)
    base = factors.base
    first = stats.krylov_iters
    J2 = row_scaled(J, ne, 0.1, 10.0)
    x = solver.linear_solve(J2, b, n_density=ne, stats=stats, factors=factors, floor=0.0)
    assert stats.factorizations == 2
    assert solver._rejection(x, b - J2 @ x, b) is None
    # The stale cycle's iterations, up to the cap, stay counted.
    cap = int(solver.STALE_GROWTH * base)
    assert stats.krylov_iters - first >= cap + 1
    assert factors.held


def test_one_iteration_solve_sets_no_base():
    """With B = 0 the block preconditioner is J itself, so GMRES ends in one
    iteration.  That solve sets no base: a nearby matrix is solved with the
    held factors, where a cap of twice one iteration would refactor it, and
    a base set before is kept."""
    J, b, ne = newton_layout(0.0)
    stats, factors = solver.StepDiagnostics(), solver.BlockFactors()
    solver.linear_solve(J, b, n_density=ne, stats=stats, factors=factors, floor=0.0)
    assert stats.krylov_iters == 1 and factors.held and factors.base == 0
    J2 = row_scaled(J, ne, 1.0, 1.001)
    x = solver.linear_solve(J2, b, n_density=ne, stats=stats, factors=factors, floor=0.0)
    assert stats.factorizations == 1
    assert stats.krylov_iters - 1 > 2
    assert np.allclose(x, np.linalg.solve(J2.toarray(), b), rtol=1e-10, atol=1e-12)

    J0, b0, _ = newton_layout(0.01)
    factors.drop()
    solver.linear_solve(J0, b0, n_density=ne, stats=solver.StepDiagnostics(), factors=factors,
                        floor=0.0)
    base = factors.base
    assert base > 1
    factors.drop()
    solver.linear_solve(J, b, n_density=ne, stats=solver.StepDiagnostics(), factors=factors,
                        floor=0.0)
    assert factors.held and factors.base == base


def test_bump_steps_reuse_factors(mesh2, params, monkeypatch):
    """Bump n=2 x3: the run holds one preconditioner across its steps, so it
    factors fewer times than it takes steps, and no step takes more Newton
    iterations than with every matrix factored afresh.  A second run in the
    same process starts with its own holder and gives bitwise-equal rows."""
    rho0, m0 = scheme.make_initial_data("bump", 1.0, 0.5, 0.15,
                                        mesh2.box_lo, mesh2.box_hi)
    first = scheme.run(mesh2, params, rho0, m0, 3, _discard)
    again = scheme.run(mesh2, params, rho0, m0, 3, _discard)
    assert again.rows == first.rows and again.diagnostics == first.diagnostics
    lagged = first.diagnostics[1:]
    monkeypatch.setattr(solver.BlockFactors, "held", property(lambda self: False))
    fresh = scheme.run(mesh2, params, rho0, m0, 3, _discard).diagnostics[1:]
    assert all(d.newton_iters <= f.newton_iters for d, f in zip(lagged, fresh))
    assert sum(d.factorizations for d in lagged) < len(lagged)


def test_bump_run_newton_counts(mesh2, params):
    """Bump n=2 x3 takes 4, 3 and 2 Newton iterations, as with the exact
    velocity factor and GMRES run to KRYLOV_RTOL: neither the incomplete
    factor nor the floor-relative tolerance costs a Newton iteration."""
    rho0, m0 = scheme.make_initial_data("bump", 1.0, 0.5, 0.15,
                                        mesh2.box_lo, mesh2.box_hi)
    steps = scheme.run(mesh2, params, rho0, m0, 3, _discard).diagnostics[1:]
    assert [d.newton_iters for d in steps] == [4, 3, 2]


def test_fallback_schedule_refactors_at_each_node(mesh2, params, monkeypatch):
    """Factors are kept for one continuation weight: a step on the fallback
    schedule factors afresh at the first Newton matrix of each of its nodes,
    although the holder arrives with the previous step's alpha = 1 factors."""
    factors = solver.BlockFactors()
    first, _ = solver.homotopy_newton_solve(bump_state(mesh2, params), params, mesh2, factors)
    assert factors.held and factors.alpha == 1.0

    events = []
    jacobian, factor = scheme.jacobian, solver.BlockFactors.factor

    def recorded_jacobian(*args, alpha):
        events.append(("J", alpha))
        return jacobian(*args, alpha=alpha)

    def recorded_factor(self, J, ne):
        events.append(("F", self.alpha))
        factor(self, J, ne)

    monkeypatch.setattr(scheme, "jacobian", recorded_jacobian)
    monkeypatch.setattr(solver.BlockFactors, "factor", recorded_factor)
    monkeypatch.setattr(solver, "schedules", lambda steps: [(0.0, 0.25, 0.5, 0.75, 1.0)])
    _, diag = solver.homotopy_newton_solve(first, params, mesh2, factors)
    assert diag.alpha_nodes_used == 5
    nodes = list(dict.fromkeys(alpha for kind, alpha in events if kind == "J"))
    assert nodes == [0.25, 0.5, 0.75, 1.0]
    for alpha in nodes:
        i = events.index(("J", alpha))
        assert events[i + 1] == ("F", alpha)


def test_newton_solve_rejects_singular(mesh1, params):
    """A zero density row makes the density block exactly singular: the
    solve raises SolverError before any GMRES iteration, and no LU of J
    warns of a singular matrix."""
    J, b = newton_system(mesh1, params)
    J = J.tolil()
    J[0, :] = 0.0
    stats = solver.StepDiagnostics()
    with warnings.catch_warnings():
        warnings.simplefilter("error", spla.MatrixRankWarning)
        with pytest.raises(solver.SolverError, match="singular"):
            solver.linear_solve(J.tocsr(), b, n_density=mesh1.n_elems, stats=stats,
                                factors=solver.BlockFactors(), floor=0.0)
    assert stats.krylov_iters == 0 and stats.factorizations == 0


# ---------------------------------------------------------------------------
# Continuation schedules.


def test_settings_schedules_dedup():
    # four uniform steps repeat the fallback {0,.25,.5,.75,1}
    assert solver.schedules(4) == [(0.0, 1.0), (0.0, 0.25, 0.5, 0.75, 1.0)]


def test_settings_schedules_order():
    schedules = solver.schedules(10)
    assert schedules[0] == (0.0, 1.0)
    assert schedules[1] == (0.0, 0.25, 0.5, 0.75, 1.0)
    assert len(schedules[2]) == 11
    assert schedules[2][0] == 0.0 and schedules[2][-1] == 1.0


# ---------------------------------------------------------------------------
# Entry solve at alpha = 0.


def test_alpha0_keeps_density(mesh2, params):
    prev = bump_state(mesh2, params)
    x = solver.alpha0_solve(prev, params, mesh2)
    assert x.shape == scheme.pack(prev, mesh2).shape
    assert np.array_equal(x[:mesh2.n_elems], prev.rho)


def test_alpha0_zeroes_residual(mesh2, params):
    """The entry state solves the alpha = 0 nonlinear system exactly: the
    momentum block is linear in u once rho is frozen."""
    prev = bump_state(mesh2, params)
    new = scheme.unpack(solver.alpha0_solve(prev, params, mesh2), mesh2, prev.k + 1)
    res = scheme.residual(prev, new, params, mesh2, alpha=0.0)
    scale = 1.0 + np.abs(scheme.pack(prev, mesh2)).max()
    assert np.abs(res.continuity).max() < 1e-12
    assert np.abs(res.momentum).max() < 1e-10 * scale


def test_alpha0_matches_dense_solve(mesh1, params):
    """Cross-check the sparse block solve against a dense factorization."""
    rng = np.random.default_rng(5)
    rho = 1.0 + 0.3 * rng.uniform(-1, 1, mesh1.n_elems)
    dofs = 0.4 * rng.standard_normal((mesh1.n_faces, 3))
    prev = scheme.State(rho, apply_bc(dofs, mesh1), k=0)
    new = scheme.unpack(solver.alpha0_solve(prev, params, mesh1), mesh1, prev.k + 1)

    dt = params.dt(mesh1)
    Ms = scheme.interior_weighted_mass(mesh1, prev.rho).toarray()
    K = scheme.interior_stiffness(mesh1).toarray()
    A3 = np.kron(Ms + dt * K, np.eye(3))
    interior = mesh1.interior_faces
    rhs = np.zeros(3 * len(interior))
    slot = {f: i for i, f in enumerate(interior)}
    for e in range(mesh1.n_elems):
        uhat_prev = prev.u[mesh1.elem_faces[e]].mean(axis=0)
        for f in mesh1.elem_faces[e]:
            if f in slot:
                rhs[3 * slot[f]: 3 * slot[f] + 3] += (
                    mesh1.elem_volume[e] * prev.rho[e] / 4.0 * uhat_prev
                )
        # time term: (|E|/(4 dt)) (rho uhat - rho_prev uhat_prev); rho = rho_prev
    dense = np.linalg.solve(A3, rhs)
    assert np.allclose(new.u[interior].ravel(), dense, atol=1e-10)


# ---------------------------------------------------------------------------
# Newton with continuation.


def test_stationary_converges_without_iterations(mesh2):
    params = scheme.SchemeParams(kappa=0.0)
    rho0, m0 = scheme.bump_data(1.0, 0.0, 0.15, (0.5, 0.5, 0.5))
    prev = scheme.initial_state(rho0, m0, mesh2, params)
    new, diag = solver.homotopy_newton_solve(prev, params, mesh2)
    assert diag.newton_iters == 0
    assert diag.alpha_nodes_used == 2
    assert diag.schedule_index == 0
    assert np.array_equal(new.rho, prev.rho)
    assert np.array_equal(new.u, prev.u)


def test_bump_step_converges(mesh2, params):
    prev = bump_state(mesh2, params)
    new, diag = solver.homotopy_newton_solve(prev, params, mesh2)
    assert diag.residual_norm <= params.newton_tol
    assert diag.newton_iters <= params.newton_max_iter
    assert new.rho.min() > 0
    res = scheme.residual(prev, new, params, mesh2)
    assert np.abs(res.ravel()).max() <= params.newton_tol


def test_mass_conserved_per_step(mesh2, params):
    prev = bump_state(mesh2, params)
    new, _ = solver.homotopy_newton_solve(prev, params, mesh2)
    m0 = np.sum(mesh2.elem_volume * prev.rho)
    m1 = np.sum(mesh2.elem_volume * new.rho)
    assert abs(m1 - m0) / m0 < 1e-12


def rounding_floor(J, x):
    """FLOOR_FACTOR u |||J| |x|||_inf: residuals below it are rounding noise."""
    return solver.FLOOR_FACTOR * solver.UNIT_ROUNDOFF * (abs(J) @ np.abs(x)).max()


def test_no_newton_solve_at_the_rounding_floor(mesh2, params, monkeypatch):
    """Bump n=2: every Newton matrix is solved at an iterate whose residual
    is above its rounding floor; the step still converges and conserves mass."""
    floors, residuals = [], []
    jacobian, linear_solve = scheme.jacobian, solver.linear_solve

    def recorded_jacobian(prev, guess, *args, **kwargs):
        J = jacobian(prev, guess, *args, **kwargs)
        floors.append(rounding_floor(J, scheme.pack(guess, mesh2)))
        return J

    def recorded_solve(J, b, **kwargs):
        residuals.append(np.abs(b).max())
        return linear_solve(J, b, **kwargs)

    monkeypatch.setattr(scheme, "jacobian", recorded_jacobian)
    monkeypatch.setattr(solver, "linear_solve", recorded_solve)
    prev = bump_state(mesh2, params)
    new, diag = solver.homotopy_newton_solve(prev, params, mesh2)
    assert len(residuals) == len(floors) == diag.newton_iters > 0
    assert all(r > f for r, f in zip(residuals, floors))
    assert np.abs(scheme.residual(prev, new, params, mesh2).ravel()).max() <= params.newton_tol
    m0 = np.sum(mesh2.elem_volume * prev.rho)
    assert abs(np.sum(mesh2.elem_volume * new.rho) - m0) / m0 < 1e-12


def test_loose_tolerance_still_polishes_to_the_floor(mesh2, monkeypatch):
    """With newton_tol 1e-4 the node goes on past the tolerance until the
    residual reaches its rounding floor or a step gains under POLISH_GAIN."""
    params = scheme.SchemeParams(newton_tol=1e-4)
    solved_at = []
    linear_solve = solver.linear_solve

    def recorded_solve(J, b, **kwargs):
        solved_at.append(np.abs(b).max())
        return linear_solve(J, b, **kwargs)

    monkeypatch.setattr(solver, "linear_solve", recorded_solve)
    prev = bump_state(mesh2, params)
    new, diag = solver.homotopy_newton_solve(prev, params, mesh2)
    assert diag.schedule_index == 0 and diag.alpha_nodes_used == 2   # one node, alpha = 1
    final = diag.residual_norm
    assert final == np.abs(scheme.residual(prev, new, params, mesh2).ravel()).max()
    assert min(solved_at) <= params.newton_tol   # polished past the tolerance
    floor = rounding_floor(scheme.jacobian(prev, new, params, mesh2), scheme.pack(new, mesh2))
    assert final <= floor or solved_at[-1] / final < solver.POLISH_GAIN


def test_stress_step_needs_no_direct_solve(mesh2, monkeypatch):
    """Bump amp 200 with gamma 6, c 4 on n=2: step 1 needs the third
    continuation schedule, and its hardest GMRES solves on fresh factors miss
    the acceptance bound after their first cycle.  The restarted cycles pass
    without any sparse direct solve."""
    def refuse(*args, **kwargs):
        raise AssertionError("sparse direct solve called")

    monkeypatch.setattr(spla, "spsolve", refuse)
    params = scheme.SchemeParams(gamma=6.0, c=4.0)
    rho0, m0 = scheme.make_initial_data("bump", 1.0, 200.0, 0.15,
                                        mesh2.box_lo, mesh2.box_hi)
    (diag,) = scheme.run(mesh2, params, rho0, m0, 1, _discard).diagnostics[1:]
    assert diag.schedule_index == 2
    assert diag.residual_norm <= params.newton_tol


def test_step_counts_add_up_over_every_schedule(mesh2, monkeypatch):
    """On a step that falls back to the third schedule, the step's counts are
    the sums over every node tried, the failed schedules' nodes included."""
    counts = ("newton_iters", "linesearch_backtracks", "krylov_iters", "krylov_cycles",
              "factorizations")
    sums = dict.fromkeys(counts, 0)
    nodes = []
    newton_at_alpha = solver._newton_at_alpha

    def recorded(prev, x, alpha, params, mesh, diag, *args):
        before = {key: getattr(diag, key) for key in counts}
        x, ok = newton_at_alpha(prev, x, alpha, params, mesh, diag, *args)
        for key in counts:
            sums[key] += getattr(diag, key) - before[key]
        nodes.append(ok)
        return x, ok

    monkeypatch.setattr(solver, "_newton_at_alpha", recorded)
    params = scheme.SchemeParams(gamma=6.0, c=4.0)
    rho0, m0 = scheme.make_initial_data("bump", 1.0, 200.0, 0.15,
                                        mesh2.box_lo, mesh2.box_hi)
    _, diag = solver.homotopy_newton_solve(scheme.initial_state(rho0, m0, mesh2, params),
                                           params, mesh2)
    assert diag.schedule_index == 2 and nodes.count(False) == 2
    assert {key: getattr(diag, key) for key in counts} == sums
    assert sums["newton_iters"] > 0 and sums["factorizations"] > 0
    # The node count is the converged schedule's, alpha = 0 included.
    assert diag.alpha_nodes_used == len(solver.schedules(params.homotopy_steps)[2])


def test_step_failure_reports_context(mesh2):
    params = scheme.SchemeParams(newton_tol=1e-16, newton_max_iter=1,
                                 homotopy_steps=2)
    prev = bump_state(mesh2, params)
    with pytest.raises(solver.StepFailure) as info:
        solver.homotopy_newton_solve(prev, params, mesh2)
    exc = info.value
    # the reported alpha is where the last-tried schedule stalled
    assert 0.0 < exc.alpha <= 1.0
    assert exc.iterations >= 1
    assert exc.residual_norm > 0
    assert exc.step == prev.k + 1
    assert str(exc) == (f"alpha={exc.alpha:g}, {exc.iterations} iterations, "
                        f"residual {exc.residual_norm:.3e}")


def test_singular_alpha0_solve_fails_the_step(mesh1):
    """At c = 1e-300 the alpha = 0 system is singular: the step fails with
    StepFailure at alpha = 0, which says why and carries the step index."""
    params = scheme.SchemeParams(c=1e-300)
    prev = bump_state(mesh1, params)
    with pytest.raises(solver.StepFailure) as info:
        solver.homotopy_newton_solve(prev, params, mesh1)
    exc = info.value
    assert (exc.step, exc.alpha, exc.iterations) == (1, 0.0, 0)
    assert isinstance(exc.__cause__, solver.SolverError)
    assert str(exc) == f"alpha=0, 0 iterations, {exc.__cause__}"
    assert "singular" in str(exc)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("amp,sigma,residual_finite", [(0.5, 0.15, True), (5.0, 1.0, False)])
def test_overflowing_residual_fails_the_step(mesh1, amp, sigma, residual_finite, monkeypatch):
    """At a = 1e308 the Jacobian (amp 0.5), or the residual too (amp 5),
    overflows: every node fails without a linear solve, and so does the step,
    with StepFailure rather than an error from GMRES.  The bump is off the
    cube's centre, so its six tets differ in density and the entry residual
    does not vanish by symmetry: Newton reaches the Jacobian."""
    params = scheme.SchemeParams(a=1e308)
    rho0, m0 = scheme.bump_data(1.0, amp, sigma, (0.4, 0.5, 0.5))
    prev = scheme.initial_state(rho0, m0, mesh1, params)
    entry = scheme.unpack(solver.alpha0_solve(prev, params, mesh1), mesh1, prev.k + 1)
    norm = np.abs(scheme.residual(prev, entry, params, mesh1).ravel()).max()
    assert np.isfinite(norm) == residual_finite
    monkeypatch.setattr(solver, "linear_solve", None)   # must not be reached
    with pytest.raises(solver.StepFailure) as info:
        solver.homotopy_newton_solve(prev, params, mesh1)
    assert info.value.iterations == 0


def test_alpha0_solved_once_per_step(mesh2, monkeypatch):
    """Every continuation schedule starts from one alpha = 0 solve."""
    params = scheme.SchemeParams(newton_tol=1e-16, newton_max_iter=1,
                                 homotopy_steps=2)
    calls = []
    original = solver.alpha0_solve

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(solver, "alpha0_solve", counted)
    with pytest.raises(solver.StepFailure):
        solver.homotopy_newton_solve(bump_state(mesh2, params), params, mesh2)
    assert len(solver.schedules(params.homotopy_steps)) == 3
    assert len(calls) == 1


def test_run_trajectory_contract(mesh2, params):
    rho0, m0 = scheme.make_initial_data("bump", 1.0, 0.5, 0.15,
                                        mesh2.box_lo, mesh2.box_hi)
    states = []
    result = scheme.run(mesh2, params, rho0, m0, 3, lambda state, row: states.append(state))
    assert len(states) == 4
    assert len(result.rows) == 4
    assert [r["step"] for r in result.rows] == [0, 1, 2, 3]
    assert [s.k for s in states] == [0, 1, 2, 3]
    assert [r["t"] for r in result.rows] == [k * result.dt for k in range(4)]


def test_step_failure_carries_step_index(mesh2):
    params = scheme.SchemeParams(newton_tol=1e-16, newton_max_iter=1,
                                 homotopy_steps=2)
    rho0, m0 = scheme.make_initial_data("bump", 1.0, 0.5, 0.15,
                                        mesh2.box_lo, mesh2.box_hi)
    with pytest.raises(solver.StepFailure) as info:
        scheme.run(mesh2, params, rho0, m0, 2, _discard)
    assert info.value.step == 1
