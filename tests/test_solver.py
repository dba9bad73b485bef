"""Linear solves, the decoupled entry solve, and the continuation Newton loop."""
import gc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from nsfemdg import scheme, solver
from nsfemdg.mesh import build_box_mesh
from nsfemdg.spaces import apply_bc


def bump_state(mesh, params):
    rho0, m0 = scheme.bump_data(1.0, 0.5, 0.15, 0.5 * (mesh.box_lo + mesh.box_hi))
    return scheme.initial_state(rho0, m0, mesh, params)


def stress_state(mesh, params):
    """Bump amp 200 under gamma 6, c 4: at n=2 its first step's jump to
    alpha = 1 fails, and the continuation halves d_alpha three times."""
    rho0, m0 = scheme.make_initial_data("bump", 1.0, 200.0, 0.15, mesh.box_lo, mesh.box_hi)
    return scheme.initial_state(rho0, m0, mesh, params)


STRESS = dict(gamma=6.0, c=4.0)


def _discard(state, row):
    """The `on_state` of a run whose states a test does not read."""


# ---------------------------------------------------------------------------
# Newton linear solve


def newton_system(mesh, params):
    """First Newton matrix and right-hand side of the second bump step, and
    the mesh's density order and that step's alpha = 0 factor and time
    step, as `linear_solve` takes them."""
    first, _ = solver.homotopy_newton_solve(bump_state(mesh, params), params, mesh)
    x0, lu_u = solver.alpha0_solve(first, params, mesh)
    guess = scheme.unpack(x0, mesh, first.k + 1)
    J = scheme.jacobian(first, guess, params, mesh, alpha=1.0)
    r = scheme.residual(first, guess, params, mesh, alpha=1.0)
    return J, -r.ravel(), dict(density=solver.density_order(mesh), lu_u=lu_u,
                               dt=params.dt(mesh))


def test_newton_solve_matches_direct(mesh2, params):
    J, b, step = newton_system(mesh2, params)
    stats = solver.StepDiagnostics()
    x = solver.linear_solve(J, b, stats=stats, target=0.0, **step)
    direct = spla.spsolve(sp.csc_matrix(J), b)
    assert np.abs(x - direct).max() <= 1e-12 * np.abs(direct).max()
    # 6 iterations today, 5 with the density block A in place of S; with A
    # and without the coupling C, 9.
    assert 0 < stats.krylov_iters <= 12


def faceless(J):
    """J as a Newton matrix without faces, so without pressure-coupling
    face terms: its preconditioner's density block is A."""
    J.acoustic = np.empty((0, 2))
    return J


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
    return faceless(J), rng.standard_normal(ne + 3 * ni), ne


def layout_step(J, ne):
    """A density order on J's pattern and the exact factor of J's first
    velocity-component block, at dt = 1, without faces, so with no face
    weights: for a faceless Newton-layout matrix, the parts of the
    preconditioner that a mesh's density order and a step's alpha = 0
    factor and time step play."""
    block = sp.csc_matrix(J[ne::3, ne::3])
    no_faces = np.empty(0, dtype=int)
    return dict(density=solver.DensityOrder(J.indptr, J.indices, ne, no_faces, no_faces),
                lu_u=solver.Alpha0Factor(spla.splu(block, **solver.BLOCK_LU), np.empty(0)),
                dt=1.0)


def test_newton_solve_restarts_a_cycle_short_of_the_bound():
    """A system that one GMRES cycle leaves short of the acceptance bound is
    finished by a restarted cycle."""
    J, b, ne = newton_layout(1.0)
    stats = solver.StepDiagnostics()
    x = solver.linear_solve(J, b, stats=stats, target=0.0, **layout_step(J, ne))
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
        solver.linear_solve(J, b, stats=stats, target=0.0, **layout_step(J, ne))
    assert stats.krylov_iters == solver.KRYLOV_RESTART * solver.KRYLOV_CYCLES
    assert stats.krylov_cycles == solver.KRYLOV_CYCLES


def test_failed_solve_drops_factors(monkeypatch):
    """A solve that fails the acceptance check leaves no density factor
    behind once its SolverError is handled.  The velocity factor, which the
    step owns, serves the next matrix, whose density block is factored
    afresh."""
    J_bad, b_bad, ne = newton_layout(100.0)
    J, b, _ = newton_layout(0.01)   # the same velocity blocks
    step = layout_step(J, ne)
    refs, splu = [], spla.splu

    def weakly_referable(*args, **kwargs):
        factor = _Factor(splu(*args, **kwargs))
        refs.append(weakref.ref(factor))
        return factor

    monkeypatch.setattr(spla, "splu", weakly_referable)
    stats = solver.StepDiagnostics()
    try:
        solver.linear_solve(J_bad, b_bad, stats=stats, target=0.0, **step)
    except solver.SolverError as exc:
        assert "residual too large" in str(exc)
    else:
        pytest.fail("the solve passed")
    gc.collect()
    assert stats.factorizations == len(refs) == 1 and refs[0]() is None
    x = solver.linear_solve(J, b, stats=stats, target=0.0, **step)
    assert stats.factorizations == len(refs) == 2
    assert solver._rejection(x, b - J @ x, b) is None


# ---------------------------------------------------------------------------
# GMRES kernel


def layout_preconditioner(J, ne):
    return solver.block_preconditioner(J, **layout_step(J, ne))


def test_gmres_matches_scipy():
    """One cycle passes the acceptance check within one iteration of scipy's
    GMRES with the same preconditioner and tolerance."""
    J, b, ne = newton_layout(0.01)
    precondition = layout_preconditioner(J, ne)
    stats = solver.StepDiagnostics()
    x, reason = solver._gmres(J, b, precondition, solver.KRYLOV_RESTART, stats, 0.0)
    assert reason is None and solver._rejection(x, b - J @ x, b) is None
    assert stats.krylov_cycles == 1
    iters = stats.krylov_iters
    residuals = []
    spla.gmres(J, b, rtol=solver.KRYLOV_RTOL, atol=0.0, restart=solver.KRYLOV_RESTART,
               maxiter=1, M=spla.LinearOperator(J.shape, matvec=precondition, dtype=float),
               callback=residuals.append, callback_type="pr_norm")
    assert abs(iters - len(residuals)) <= 1


def test_gmres_below_restart_only_at_tolerance(monkeypatch):
    """A cycle one iteration shorter than the converged one runs out of
    iterations, and is restarted although its iterate passes the acceptance
    check (as a budget of one cycle shows); one iteration longer ends at the
    tolerance."""
    J, b, ne = newton_layout(0.01)
    precondition = layout_preconditioner(J, ne)

    def run(restart):
        stats = solver.StepDiagnostics()
        _, reason = solver._gmres(J, b, precondition, restart, stats, 0.0)
        return reason, stats

    reason, stats = run(solver.KRYLOV_RESTART)
    k = stats.krylov_iters
    assert k < solver.KRYLOV_RESTART and stats.krylov_cycles == 1 and reason is None
    with monkeypatch.context() as m:
        m.setattr(solver, "KRYLOV_CYCLES", 1)
        reason, stats = run(k - 1)
    assert (stats.krylov_iters, stats.krylov_cycles) == (k - 1, 1) and reason is None
    reason, stats = run(k - 1)
    assert stats.krylov_cycles == 2 and reason is None
    reason, stats = run(k + 1)
    assert (stats.krylov_iters, stats.krylov_cycles) == (k, 1) and reason is None


def test_gmres_breakdown_with_exact_preconditioner():
    """With M = J^-1 exactly (a power-of-two diagonal), the first Arnoldi
    vector spans the solution: one iteration, one cycle."""
    d = np.tile(2.0 ** np.arange(-5, 6), 10)
    J = sp.diags(d).tocsr()
    b = np.random.default_rng(5).standard_normal(d.size)
    stats = solver.StepDiagnostics()
    x, reason = solver._gmres(J, b, lambda r: r / d, solver.KRYLOV_RESTART, stats, 0.0)
    assert reason is None
    assert (stats.krylov_iters, stats.krylov_cycles) == (1, 1)
    assert np.allclose(x, b / d, rtol=1e-14, atol=0.0)


def test_gmres_zero_rhs():
    """b = 0 ends before any iteration, with or without a target, and warns
    of no 0/0."""
    J, b, ne = newton_layout(0.01)
    for target in (0.0, 1e-3):
        stats = solver.StepDiagnostics()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, reason = solver._gmres(J, np.zeros_like(b), layout_preconditioner(J, ne),
                                      solver.KRYLOV_RESTART, stats, target)
        assert reason is None
        assert stats.krylov_iters == 0 and stats.krylov_cycles == 0
        assert not x.any()


def test_overflowing_krylov_quantity_fails_the_solve():
    """The density row's coupling B, the largest float in each column,
    which the block preconditioner ignores, overflows the first product
    J v: the solve ends within its first cycle with the non-finite reason,
    as a SolverError, and numpy warns of nothing."""
    big = np.finfo(float).max
    J = faceless(sp.csr_matrix(np.array([[1.0, big, big, big],
                                         [0.0, 1.0, 0.0, 0.0],
                                         [0.0, 0.0, 1.0, 0.0],
                                         [0.0, 0.0, 0.0, 1.0]])))
    stats = solver.StepDiagnostics()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(solver.SolverError, match="non-finite"):
            solver.linear_solve(J, np.ones(4), stats=stats, target=0.0, **layout_step(J, 1))
    assert stats.krylov_cycles == 1 and stats.krylov_iters == 0
    assert not caught


def test_floor_shortens_the_solve():
    """A target, such as FLOOR_MARGIN times a rounding floor, above
    KRYLOV_RTOL |b|_inf ends GMRES sooner, at an iterate that still passes
    the acceptance check; one below it gives the iterate of target 0
    bitwise."""
    J, b, ne = newton_layout(0.01)
    bmax = np.abs(b).max()

    def solve(target):
        stats = solver.StepDiagnostics()
        x = solver.linear_solve(J, b, stats=stats, target=target, **layout_step(J, ne))
        return x, stats.krylov_iters

    exact, iters = solve(0.0)
    x, fewer = solve(1e-10 * bmax)
    assert fewer < iters
    assert solver._rejection(x, b - J @ x, b) is None
    below, same = solve(0.5 * solver.KRYLOV_RTOL * bmax)
    assert same == iters and np.array_equal(below, exact)


def test_velocity_factor_is_the_steps_alpha0_factor(mesh2, monkeypatch):
    """The stress step, which retries halved nodes: every preconditioner of
    the step uses the factor that its alpha = 0 solve made, and the step
    makes no other velocity factorization: one SuperLU call per density
    factor plus that one, and no incomplete factor.  Every preconditioner,
    in every node tried, the failed ones included, factors its own density
    block."""
    made, used, splu_calls = [], [], []
    alpha0_solve, block_preconditioner, splu = (solver.alpha0_solve,
                                                solver.block_preconditioner, spla.splu)

    def recorded_alpha0(*args):
        x0, lu_u = alpha0_solve(*args)
        made.append(lu_u)
        return x0, lu_u

    def recorded_preconditioner(J, density, lu_u, dt):
        used.append(lu_u)
        return block_preconditioner(J, density, lu_u, dt)

    def counted_splu(*args, **kwargs):
        splu_calls.append(1)
        return splu(*args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("incomplete factor made")

    monkeypatch.setattr(solver, "alpha0_solve", recorded_alpha0)
    monkeypatch.setattr(solver, "block_preconditioner", recorded_preconditioner)
    monkeypatch.setattr(spla, "splu", counted_splu)
    monkeypatch.setattr(spla, "spilu", refuse)
    params = scheme.SchemeParams(**STRESS)
    _, diag = solver.homotopy_newton_solve(stress_state(mesh2, params), params, mesh2)
    tried = diag.alpha_nodes_used - 1 + diag.schedule_index
    assert diag.schedule_index >= 1 and diag.factorizations == len(used) >= tried
    assert len(made) == 1
    assert all(lu_u is made[0] for lu_u in used)
    assert len(splu_calls) == diag.factorizations + 1


def test_alpha0_newton_matrix_solves_in_one_iteration(mesh2, params):
    """At alpha = 0 and the alpha = 0 state, B = 0 and D is
    (M_rho_prev / dt + K) (x) I, so the preconditioner with the step's
    alpha = 0 factor is the inverse of J: GMRES ends in one iteration."""
    prev = bump_state(mesh2, params)
    x0, lu_u = solver.alpha0_solve(prev, params, mesh2)
    J = scheme.jacobian(prev, scheme.unpack(x0, mesh2, prev.k + 1), params, mesh2, alpha=0.0)
    # Most of J is stored zeros here, B all of it, yet A and C are read by
    # position, as at any other matrix.
    assert np.array_equal(J.indices, scheme.jacobian_map(mesh2).indices)
    b = np.random.default_rng(6).standard_normal(J.shape[0])
    stats = solver.StepDiagnostics()
    x = solver.linear_solve(J, b, density=solver.density_order(mesh2), stats=stats,
                            lu_u=lu_u, dt=params.dt(mesh2), target=0.0)
    assert (stats.krylov_iters, stats.krylov_cycles, stats.factorizations) == (1, 1, 1)
    assert solver._rejection(x, b - J @ x, b) is None


class _Factor:
    """A weakly referable stand-in for a SuperLU factor, which is not."""

    def __init__(self, lu):
        self.lu = lu

    def solve(self, rhs):
        return self.lu.solve(rhs)

    def __getattr__(self, name):   # perm_c, L and U
        return getattr(self.lu, name)


@pytest.mark.parametrize("fails", [False, True])
def test_no_reference_to_alpha0_factor_outlives_the_step(mesh2, fails, monkeypatch):
    """The step drops its alpha = 0 factor when it returns (bump n=2) and
    when it raises StepFailure (a budget of one Newton iteration at
    newton_tol 1e-16), although the exception and its traceback outlive it."""
    params = (scheme.SchemeParams(newton_tol=1e-16, newton_max_iter=1)
              if fails else scheme.SchemeParams())
    refs = []
    alpha0_solve = solver.alpha0_solve

    def weakly_referable(*args):
        x0, lu_u = alpha0_solve(*args)
        factor = _Factor(lu_u)
        refs.append(weakref.ref(factor))
        return x0, factor

    monkeypatch.setattr(solver, "alpha0_solve", weakly_referable)
    prev = bump_state(mesh2, params)
    if fails:
        with pytest.raises(solver.StepFailure) as info:
            solver.homotopy_newton_solve(prev, params, mesh2)
        assert info.value.diagnostics.newton_iters >= 1
    else:
        _, diag = solver.homotopy_newton_solve(prev, params, mesh2)
        assert diag.krylov_iters > 0
    gc.collect()
    assert len(refs) == 1 and refs[0]() is None


@pytest.mark.parametrize("k", [1, 2, 3])
def test_early_gmres_iterate_keeps_the_mass(mesh2, params, k, monkeypatch):
    """GMRES stopped after k iterations on a bump Newton matrix, for a
    right-hand side whose continuity rows sum to 0: the residual's
    continuity rows still sum to 0 at rounding, because 1^T A = |E|^T / dt
    and 1^T B = 0 make |E|^T x_rho / dt invariant under M^-1 J (module
    docstring)."""
    J, b, step = newton_system(mesh2, params)
    ne = mesh2.n_elems
    b = np.random.default_rng(7).standard_normal(b.size)
    b[:ne] -= b[:ne].mean()
    assert abs(b[:ne].sum()) <= 1e-14 * np.abs(b).sum()
    monkeypatch.setattr(solver, "KRYLOV_CYCLES", 1)
    stats = solver.StepDiagnostics()
    x, _ = solver._gmres(J, b, solver.block_preconditioner(J, **step), k, stats, 0.0)
    assert (stats.krylov_iters, stats.krylov_cycles) == (k, 1)
    e = b - J @ x
    assert np.abs(e).max() > 1e-6 * np.abs(b).max()   # far from solved
    assert abs(e[:ne].sum()) <= 1e-14 * np.abs(b).sum()


def test_gmres_tightens_after_rejected_cycle(monkeypatch):
    """A cycle that reaches the tolerance with an iterate failing the
    acceptance check is followed by one with a tighter tolerance, which
    passes, with or without a target loosening the first cycle's tolerance;
    every cycle ends at its tolerance, none by running out of iterations.  A
    preconditioner that shrinks the density rows by 1e-10 makes the first
    cycle end that way."""
    J, b, ne = newton_layout(0.01)
    precondition = layout_preconditioner(J, ne)
    scale = np.r_[np.full(ne, 1e-10), np.ones(J.shape[0] - ne)]

    def shrunk(r):
        return scale * precondition(r)

    verdicts = []
    rejection = solver._rejection

    def recorded(x, r, b):
        verdicts.append(rejection(x, r, b))
        return verdicts[-1]

    monkeypatch.setattr(solver, "_rejection", recorded)
    for target in (0.0, 1e-10 * np.abs(b).max()):
        verdicts.clear()
        stats = solver.StepDiagnostics()
        x, reason = solver._gmres(J, b, shrunk, solver.KRYLOV_RESTART, stats, target)
        assert verdicts[0] is not None
        assert reason is None and rejection(x, b - J @ x, b) is None
        assert 1 < stats.krylov_cycles < solver.KRYLOV_CYCLES
        # One verdict per cycle that reached its tolerance, and the returned one.
        assert len(verdicts) == stats.krylov_cycles + 1


def test_bump_step_runs_without_scipy_gmres(mesh2, params, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("scipy's gmres called on the Newton path")

    monkeypatch.setattr(spla, "gmres", refuse)
    _, diag = solver.homotopy_newton_solve(bump_state(mesh2, params), params, mesh2)
    assert diag.residual_norm <= params.newton_tol
    assert diag.krylov_iters > 0


def test_bump_steps_reuse_factors(mesh2, params, monkeypatch):
    """Bump n=2 x3: each step's one node reuses the step's alpha = 0 factor
    at every Newton matrix and factors each matrix's density block, so a
    step makes one SuperLU call per Newton iteration plus its alpha = 0
    one.  A second run in the same process gives bitwise-equal rows, on the
    same mesh, whose factors all take the orders the first run kept, and on
    a new one."""
    splu_calls, splu = [], spla.splu

    def counted_splu(*args, **kwargs):
        splu_calls.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counted_splu)
    rho0, m0 = scheme.make_initial_data("bump", 1.0, 0.5, 0.15,
                                        mesh2.box_lo, mesh2.box_hi)
    first = scheme.run(mesh2, params, rho0, m0, 3, _discard)
    steps = first.diagnostics[1:]
    assert all(d.schedule_index == 0 and d.factorizations == d.newton_iters for d in steps)
    assert len(splu_calls) == sum(d.factorizations + 1 for d in steps)
    again = scheme.run(mesh2, params, rho0, m0, 3, _discard)
    assert again.rows == first.rows and again.diagnostics == first.diagnostics
    fresh = scheme.run(build_box_mesh(2), params, rho0, m0, 3, _discard)
    assert fresh.rows == first.rows and fresh.diagnostics == first.diagnostics


def _permc_specs(monkeypatch):
    """The permc_spec of every SuperLU factorization made from now on."""
    specs, splu = [], spla.splu

    def recorded(*args, **kwargs):
        specs.append(kwargs["permc_spec"])
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", recorded)
    return specs


def test_one_ordering_per_pattern_per_mesh(params, monkeypatch):
    """Bump n=2 x3 on a new mesh, then again on the same mesh: the first
    step orders the alpha = 0 matrix and then the density block by minimum
    degree, once each, and every other factorization of either run takes the
    kept order."""
    specs = _permc_specs(monkeypatch)
    mesh = build_box_mesh(2)
    rho0, m0 = scheme.make_initial_data("bump", 1.0, 0.5, 0.15, mesh.box_lo, mesh.box_hi)
    for _ in range(2):
        scheme.run(mesh, params, rho0, m0, 3, _discard)
    assert len(specs) > 4
    assert specs == ["MMD_AT_PLUS_A"] * 2 + ["NATURAL"] * (len(specs) - 2)


def _fill(lu):
    return lu.L.nnz + lu.U.nnz


def moving_guess(mesh, params, prev, rng):
    """The alpha = 0 iterate of the step from `prev` with its densities
    perturbed by up to 10% and a random velocity of up to 0.3 per component
    in its place, so that every face has a normal flux."""
    x0, lu_u = solver.alpha0_solve(prev, params, mesh)
    guess = scheme.unpack(x0, mesh, prev.k + 1)
    guess.rho = guess.rho * (1.0 + 0.1 * rng.uniform(-1.0, 1.0, mesh.n_elems))
    guess.u = apply_bc(rng.uniform(-0.3, 0.3, guess.u.shape), mesh)
    return guess, lu_u


def factored_block(J, density, lu_u, dt, monkeypatch):
    """The factor of J's preconditioner density block and the matrix that
    SuperLU factored, in the density unknowns' own order, as CSR."""
    factored, splu = [], spla.splu

    def recorded(matrix, **kwargs):
        factored.append((matrix.data.copy(), matrix.indices.copy(), matrix.indptr.copy(),
                         kwargs["permc_spec"]))
        return splu(matrix, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(spla, "splu", recorded)
        lu = density.factor_block(J, solver.SCHUR_WEIGHT * dt / lu_u.diagonal)
    [(data, indices, indptr, spec)] = factored
    coo = sp.csc_matrix((data, indices, indptr), shape=(density.n, density.n)).tocoo()
    # In the kept order entry (i, j) is the block's (order[i], order[j]).
    order = density.order if spec == "NATURAL" else np.arange(density.n)
    return lu, sp.csr_matrix((coo.data, (order[coo.row], order[coo.col])), shape=coo.shape)


def _assert_kept_orders_keep_the_fill(mesh, params, monkeypatch):
    """On `mesh`, the second alpha = 0 matrix and the second pressure Schur
    density block are factored in the kept order, with the fill of BLOCK_LU's
    own minimum-degree factor of the same matrix, and solve bitwise as it
    does; the Schur block stores A's pattern and its factor has A's fill."""
    prev = bump_state(mesh, params)
    dt, ne = params.dt(mesh), mesh.n_elems
    density = solver.density_order(mesh)
    rng = np.random.default_rng(mesh.n_elems)
    b = rng.standard_normal((len(mesh.interior_faces), 3))
    for scale in (1.0, 1.3):
        later = scheme.State(scale * prev.rho, prev.u, k=0)
        guess, lu_u = moving_guess(mesh, params, later, rng)
        J = scheme.jacobian(later, guess, params, mesh, alpha=1.0)
        assert np.abs(J.acoustic).min(axis=1).max() > 0.0
        lu_rho, S = factored_block(J, density, lu_u, dt, monkeypatch)
    L0 = scheme.interior_weighted_mass(mesh, later.rho) + dt * scheme.interior_stiffness(mesh)
    A = sp.csr_matrix(J[:ne, :ne])
    assert np.array_equal(S.indptr, A.indptr) and np.array_equal(S.indices, A.indices)
    for kept, matrix, rhs in ((lu_u.lu, L0, b), (lu_rho, S, b.ravel()[:ne])):
        assert isinstance(kept, solver._Reordered)
        mmd = spla.splu(sp.csc_matrix(matrix), **solver.BLOCK_LU)
        assert _fill(kept.lu) == _fill(mmd)
        assert np.array_equal(kept.solve(rhs), mmd.solve(rhs))
    assert _fill(lu_rho.lu) == _fill(spla.splu(sp.csc_matrix(A), **solver.BLOCK_LU))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_kept_orders_keep_the_fill(n, params, monkeypatch):
    _assert_kept_orders_keep_the_fill(build_box_mesh(n), params, monkeypatch)


def test_kept_orders_keep_the_fill_on_a_renumbered_mesh(shuffled3, params, monkeypatch):
    _assert_kept_orders_keep_the_fill(shuffled3, params, monkeypatch)


def _assert_density_block_is_the_pressure_schur_complement(mesh, params, monkeypatch):
    """At two random moving states and alpha = 1 and 1/2 the
    preconditioner's density block is A - B (diag(q) (x) I) C_p,
    C_p = -alpha pressure diag(p'(rho)) the pressure part of C and
    q = SCHUR_WEIGHT dt / diag(L0), formed here by sparse products, to
    1e-13 relative."""
    prev = bump_state(mesh, params)
    dt, ne = params.dt(mesh), mesh.n_elems
    density = solver.density_order(mesh)
    pressure = scheme.mesh_operators(mesh).pressure
    L0 = scheme.alpha0_matrix(mesh, prev.rho, dt)
    Q = sp.diags(np.repeat(solver.SCHUR_WEIGHT * dt / L0.diagonal(), 3))
    rng = np.random.default_rng(11)
    for alpha in (1.0, 1.0, 0.5, 0.5):
        guess, lu_u = moving_guess(mesh, params, prev, rng)
        J = scheme.jacobian(prev, guess, params, mesh, alpha=alpha)
        C_p = -alpha * pressure @ sp.diags(scheme.pressure_derivative(guess.rho, params))
        expected = (J[:ne, :ne] - J[:ne, ne:] @ Q @ C_p).toarray()
        _, S = factored_block(J, density, lu_u, dt, monkeypatch)
        correction = np.abs(expected - J[:ne, :ne].toarray()).max()
        assert correction > 1e-3 * np.abs(expected).max()
        assert np.abs(S.toarray() - expected).max() <= 1e-13 * np.abs(expected).max()


def test_density_block_is_the_pressure_schur_complement(mesh2, params, monkeypatch):
    _assert_density_block_is_the_pressure_schur_complement(mesh2, params, monkeypatch)


def test_density_block_is_the_pressure_schur_complement_on_a_renumbered_mesh(
        shuffled3, params, monkeypatch):
    _assert_density_block_is_the_pressure_schur_complement(shuffled3, params, monkeypatch)


def _assert_density_block_is_A_at_alpha0_and_at_rest(mesh, params, monkeypatch):
    """At alpha = 0, and at rest at alpha = 1, B (diag(q) (x) I) C_p = 0:
    the preconditioner's density block is A, bitwise."""
    prev = bump_state(mesh, params)
    dt, ne = params.dt(mesh), mesh.n_elems
    guess, lu_u = moving_guess(mesh, params, prev, np.random.default_rng(12))
    rest = scheme.State(guess.rho, np.zeros_like(guess.u), guess.k)
    for state, alpha in ((guess, 0.0), (rest, 1.0)):
        J = scheme.jacobian(prev, state, params, mesh, alpha=alpha)
        _, S = factored_block(J, solver.density_order(mesh), lu_u, dt, monkeypatch)
        A = sp.csr_matrix(J[:ne, :ne])
        assert np.array_equal(S.indptr, A.indptr) and np.array_equal(S.indices, A.indices)
        assert np.array_equal(S.data, A.data)


def test_density_block_is_A_at_alpha0_and_at_rest(mesh2, params, monkeypatch):
    _assert_density_block_is_A_at_alpha0_and_at_rest(mesh2, params, monkeypatch)


def test_density_block_is_A_at_alpha0_and_at_rest_on_a_renumbered_mesh(shuffled3, params,
                                                                       monkeypatch):
    _assert_density_block_is_A_at_alpha0_and_at_rest(shuffled3, params, monkeypatch)


def test_orders_live_and_die_with_their_mesh(params):
    """Step an n=3 mesh, drop it, then step an n=2 mesh: the n=2 mesh gets
    orders of its own, sized by it, and the n=3 mesh's orders are freed
    with it, so no order outlives its mesh to be read for another."""
    mesh = build_box_mesh(3)
    solver.homotopy_newton_solve(bump_state(mesh, params), params, mesh)
    freed = [weakref.ref(solver.density_order(mesh)), weakref.ref(solver.alpha0_order(mesh))]
    del mesh
    gc.collect()
    assert [ref() for ref in freed] == [None, None]
    other = build_box_mesh(2)
    _, diag = solver.homotopy_newton_solve(bump_state(other, params), params, other)
    assert diag.residual_norm <= params.newton_tol
    assert solver.density_order(other).perm.size == other.n_elems
    assert solver.alpha0_order(other).perm.size == len(other.interior_faces)


def test_kept_orders_hold_no_factor(params):
    """A SuperLU factor's perm_c is a view whose base is the factor, so an
    order kept from it would keep the mesh's first factors alive, L0's the
    largest; no array the orders keep is a view of a factor."""
    mesh = build_box_mesh(2)
    solver.homotopy_newton_solve(bump_state(mesh, params), params, mesh)
    for order in (solver.density_order(mesh), solver.alpha0_order(mesh)):
        assert order.perm is not None
        assert all(not isinstance(array.base, spla.SuperLU)
                   for array in vars(order).values() if isinstance(array, np.ndarray))


def test_renumbered_meshes_get_orders_of_their_own(shuffled3, params):
    """The n=3 mesh and its shuffled, rotated-tet renumbering each step on
    orders of their own."""
    plain = build_box_mesh(3)
    for mesh in (plain, shuffled3):
        _, diag = solver.homotopy_newton_solve(bump_state(mesh, params), params, mesh)
        assert diag.residual_norm <= params.newton_tol
    for order in (solver.density_order, solver.alpha0_order):
        mine, theirs = order(plain), order(shuffled3)
        assert mine is not theirs
        assert not np.array_equal(mine.perm, theirs.perm)


def test_bump_run_newton_counts(mesh2, params):
    """Bump n=2 x3 takes 3, 2 and 2 Newton iterations, as with an exact
    factor of the velocity block and GMRES run to KRYLOV_RTOL: neither the
    alpha = 0 factor in its place nor GMRES's stop at the Newton step's
    target costs a Newton iteration."""
    rho0, m0 = scheme.make_initial_data("bump", 1.0, 0.5, 0.15,
                                        mesh2.box_lo, mesh2.box_hi)
    steps = scheme.run(mesh2, params, rho0, m0, 3, _discard).diagnostics[1:]
    assert [d.newton_iters for d in steps] == [3, 2, 2]


def test_each_continuation_node_tried_refactors(mesh2, monkeypatch):
    """The stress step, which retries halved nodes, factors afresh at every
    Newton matrix of each node it tries, the failed ones included: a node
    starts with a Jacobian, and each Jacobian is followed by the
    factorization of its density block."""
    events = []
    newton_at_alpha, jacobian, block_preconditioner = (solver._newton_at_alpha, scheme.jacobian,
                                                       solver.block_preconditioner)

    def recorded_node(prev, x, alpha, *args):
        events.append(("N", alpha))
        return newton_at_alpha(prev, x, alpha, *args)

    def recorded_jacobian(*args, alpha):
        events.append(("J", alpha))
        return jacobian(*args, alpha=alpha)

    def recorded_preconditioner(*args):
        events.append(("F", events[-1][1]))
        return block_preconditioner(*args)

    monkeypatch.setattr(solver, "_newton_at_alpha", recorded_node)
    monkeypatch.setattr(scheme, "jacobian", recorded_jacobian)
    monkeypatch.setattr(solver, "block_preconditioner", recorded_preconditioner)
    params = scheme.SchemeParams(**STRESS)
    _, diag = solver.homotopy_newton_solve(stress_state(mesh2, params), params, mesh2)
    starts = [i for i, event in enumerate(events) if event[0] == "N"]
    assert diag.schedule_index >= 1
    assert len(starts) == diag.alpha_nodes_used - 1 + diag.schedule_index
    for i in starts:
        assert events[i + 1][0] == "J"
    jacobians = [i for i, event in enumerate(events) if event[0] == "J"]
    assert [events[i + 1] for i in jacobians] == [("F", events[i][1]) for i in jacobians]
    assert diag.factorizations == len(jacobians)


def test_no_density_factor_crosses_a_step_or_a_node(mesh2, params, monkeypatch):
    """Bump n=2 x2, whose jumps to alpha = 1 converge, one node per step:
    each Newton solve makes one density factor, which nothing holds once
    the solve returns, and the solves of a step share its alpha = 0
    factor, which differs between the steps."""
    solves, made = [], []
    linear_solve, splu = solver.linear_solve, spla.splu

    def weakly_referable(*args, **kwargs):
        factor = _Factor(splu(*args, **kwargs))
        made.append(weakref.ref(factor))
        return factor

    def recorded_solve(J, b, **kwargs):
        before = len(made)
        x = linear_solve(J, b, **kwargs)
        gc.collect()
        solves.append((kwargs["lu_u"], [ref() for ref in made[before:]]))
        return x

    monkeypatch.setattr(spla, "splu", weakly_referable)
    monkeypatch.setattr(solver, "linear_solve", recorded_solve)
    rho0, m0 = scheme.make_initial_data("bump", 1.0, 0.5, 0.15,
                                        mesh2.box_lo, mesh2.box_hi)
    steps = scheme.run(mesh2, params, rho0, m0, 2, _discard).diagnostics[1:]
    assert [(d.schedule_index, d.alpha_nodes_used) for d in steps] == [(0, 2), (0, 2)]
    assert len(solves) == sum(d.newton_iters for d in steps)
    assert all(factors == [None] for _, factors in solves)
    velocity = [lu_u for lu_u, _ in solves]
    first = steps[0].newton_iters
    assert len({id(lu_u) for lu_u in velocity[:first]}) == 1
    assert len({id(lu_u) for lu_u in velocity[first:]}) == 1
    assert velocity[0] is not velocity[first]


def test_every_gmres_solve_factors_its_density_block_once(mesh2, monkeypatch):
    """The stress step, which has failed nodes: every `linear_solve` that
    reaches GMRES makes exactly one SuperLU factorization, of its own
    density block, failed nodes' solves included, and the step's count of
    factorizations is the number of those solves."""
    solves, splu_calls, gmres_calls = [], [], []
    linear_solve, gmres, splu = solver.linear_solve, solver._gmres, spla.splu

    def counted_splu(*args, **kwargs):
        splu_calls.append(1)
        return splu(*args, **kwargs)

    def counted_gmres(*args):
        gmres_calls.append(1)
        return gmres(*args)

    def recorded_solve(J, b, **kwargs):
        before = len(splu_calls), len(gmres_calls)
        try:
            return linear_solve(J, b, **kwargs)
        finally:
            solves.append((len(splu_calls) - before[0], len(gmres_calls) - before[1]))

    monkeypatch.setattr(spla, "splu", counted_splu)
    monkeypatch.setattr(solver, "_gmres", counted_gmres)
    monkeypatch.setattr(solver, "linear_solve", recorded_solve)
    params = scheme.SchemeParams(**STRESS)
    _, diag = solver.homotopy_newton_solve(stress_state(mesh2, params), params, mesh2)
    assert diag.schedule_index >= 1
    reached = [factored for factored, gmres_runs in solves if gmres_runs == 1]
    assert len(reached) == len(solves) == diag.factorizations
    assert reached == [1] * len(reached)


def test_newton_solve_rejects_singular(mesh1, params):
    """A zero density row makes the density block exactly singular: the
    solve raises SolverError before any GMRES iteration, and no LU of J
    warns of a singular matrix."""
    J, b, step = newton_system(mesh1, params)
    J.data[J.indptr[0]:J.indptr[1]] = 0.0   # stored zeros: J keeps the mesh's pattern
    stats = solver.StepDiagnostics()
    with warnings.catch_warnings():
        warnings.simplefilter("error", spla.MatrixRankWarning)
        with pytest.raises(solver.SolverError, match="singular"):
            solver.linear_solve(J, b, stats=stats, target=0.0, **step)
    assert stats.krylov_iters == 0 and stats.factorizations == 0


# ---------------------------------------------------------------------------
# Entry solve at alpha = 0.


def test_alpha0_keeps_density(mesh2, params):
    prev = bump_state(mesh2, params)
    x, _ = solver.alpha0_solve(prev, params, mesh2)
    assert x.shape == scheme.pack(prev, mesh2).shape
    assert np.array_equal(x[:mesh2.n_elems], prev.rho)


def test_alpha0_zeroes_residual(mesh2, params):
    """The entry state solves the alpha = 0 nonlinear system exactly: the
    momentum block is linear in u once rho is frozen."""
    prev = bump_state(mesh2, params)
    new = scheme.unpack(solver.alpha0_solve(prev, params, mesh2)[0], mesh2, prev.k + 1)
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
    new = scheme.unpack(solver.alpha0_solve(prev, params, mesh1)[0], mesh1, prev.k + 1)

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


def test_loose_tolerance_keeps_the_mass_without_solving_below_it(mesh2, monkeypatch):
    """At newton_tol 1e-4, bump n=2 x3: no linear solve is made at an iterate
    whose residual is already within the tolerance, and every row keeps the
    mass of row 0 to rounding, because a GMRES iterate keeps the mass defect
    of the iterate it corrects however early GMRES stops (module
    docstring)."""
    params = scheme.SchemeParams(newton_tol=1e-4)
    solved_at = []
    linear_solve = solver.linear_solve

    def recorded_solve(J, b, **kwargs):
        solved_at.append(np.abs(b).max())
        return linear_solve(J, b, **kwargs)

    monkeypatch.setattr(solver, "linear_solve", recorded_solve)
    rho0, m0 = scheme.make_initial_data("bump", 1.0, 0.5, 0.15,
                                        mesh2.box_lo, mesh2.box_hi)
    result = scheme.run(mesh2, params, rho0, m0, 3, _discard)
    assert len(solved_at) == sum(d.newton_iters for d in result.diagnostics[1:]) > 0
    assert min(solved_at) > params.newton_tol
    mass = np.array([row["mass"] for row in result.rows])
    assert np.abs(mass - mass[0]).max() <= 1e-13 * mass[0]


def test_stress_step_needs_no_direct_solve(mesh2, monkeypatch):
    """Bump amp 200 with gamma 6, c 4 on n=2: step 1's jump to alpha = 1
    fails and the continuation halves d_alpha, and its hardest GMRES solves
    miss the acceptance bound after their first cycle.  The
    restarted cycles pass without any sparse direct solve."""
    def refuse(*args, **kwargs):
        raise AssertionError("sparse direct solve called")

    monkeypatch.setattr(spla, "spsolve", refuse)
    params = scheme.SchemeParams(**STRESS)
    rho0, m0 = scheme.make_initial_data("bump", 1.0, 200.0, 0.15,
                                        mesh2.box_lo, mesh2.box_hi)
    (diag,) = scheme.run(mesh2, params, rho0, m0, 1, _discard).diagnostics[1:]
    assert diag.schedule_index >= 1
    assert diag.residual_norm <= params.newton_tol


def test_step_counts_add_up_over_every_continuation_node(mesh2, monkeypatch):
    """On the stress step, which retries halved nodes, the step's counts are
    the sums over every node tried, the failed nodes included."""
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
    params = scheme.SchemeParams(**STRESS)
    _, diag = solver.homotopy_newton_solve(stress_state(mesh2, params), params, mesh2)
    assert diag.schedule_index == nodes.count(False) >= 1
    assert {key: getattr(diag, key) for key in counts} == sums
    assert sums["newton_iters"] > 0 and sums["factorizations"] > 0
    # The node count is the accepted nodes', alpha = 0 included.
    assert diag.alpha_nodes_used == nodes.count(True) + 1


def test_retries_start_from_the_last_accepted_node(mesh2, monkeypatch):
    """The stress step, with the first node that converges after an accepted
    alpha > 0 refused as well: every retry halves the failed jump from the
    last accepted node and starts from that node's iterate.  A budget of 10
    Newton iterations, fewer than the first accepted node needs, is spent in
    full and not exceeded: the step fails."""
    nodes, refused = [], []
    newton_at_alpha = solver._newton_at_alpha

    def recorded(prev, x, alpha, *args):
        x_new, ok = newton_at_alpha(prev, x, alpha, *args)
        if ok and not refused and any(node[3] for node in nodes):
            refused.append(alpha)
            ok = False
        nodes.append((x, alpha, x_new, ok))
        return x_new, ok

    monkeypatch.setattr(solver, "_newton_at_alpha", recorded)
    params = scheme.SchemeParams(**STRESS)
    prev = stress_state(mesh2, params)
    solver.homotopy_newton_solve(prev, params, mesh2)
    accepted, jump, retries = (solver.alpha0_solve(prev, params, mesh2)[0], 0.0), None, []
    for x, alpha, x_new, ok in nodes:
        if jump is not None:
            retries.append(accepted[1])
            assert alpha == accepted[1] + 0.5 * jump and np.array_equal(x, accepted[0])
        accepted, jump = ((x_new, alpha), None) if ok else (accepted, alpha - accepted[1])
    assert len(refused) == 1 and retries[0] == 0.0 and retries[-1] > 0.0

    with pytest.raises(solver.StepFailure) as info:
        solver.homotopy_newton_solve(prev, replace(params, newton_max_iter=10), mesh2)
    assert info.value.diagnostics.newton_iters == 10


def test_step_failure_reports_context(mesh2):
    params = scheme.SchemeParams(newton_tol=1e-16, newton_max_iter=1)
    prev = bump_state(mesh2, params)
    with pytest.raises(solver.StepFailure) as info:
        solver.homotopy_newton_solve(prev, params, mesh2)
    exc, diag = info.value, info.value.diagnostics
    # the reported alpha is the node at which the continuation gave up
    assert 0.0 < exc.alpha <= 1.0
    assert diag.newton_iters >= 1
    assert diag.krylov_iters > 0 and diag.factorizations >= 1
    assert diag.residual_norm > 0
    assert exc.step == prev.k + 1
    assert str(exc) == (f"alpha={exc.alpha:g}, {diag.newton_iters} iterations, "
                        f"residual {diag.residual_norm:.3e}")


def test_singular_alpha0_solve_fails_the_step(mesh1):
    """At c = 1e-300 the alpha = 0 system is singular: the step fails with
    StepFailure at alpha = 0, which says why and carries the step index."""
    params = scheme.SchemeParams(c=1e-300)
    prev = bump_state(mesh1, params)
    with pytest.raises(solver.StepFailure) as info:
        solver.homotopy_newton_solve(prev, params, mesh1)
    exc = info.value
    assert (exc.step, exc.alpha, exc.diagnostics.newton_iters) == (1, 0.0, 0)
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
    entry = scheme.unpack(solver.alpha0_solve(prev, params, mesh1)[0], mesh1, prev.k + 1)
    norm = np.abs(scheme.residual(prev, entry, params, mesh1).ravel()).max()
    assert np.isfinite(norm) == residual_finite
    monkeypatch.setattr(solver, "linear_solve", None)   # must not be reached
    with pytest.raises(solver.StepFailure) as info:
        solver.homotopy_newton_solve(prev, params, mesh1)
    assert info.value.diagnostics.newton_iters == 0


def test_alpha0_solved_once_per_step(mesh2, monkeypatch):
    """The stress step retries halved nodes on one alpha = 0 solve."""
    params = scheme.SchemeParams(**STRESS)
    calls = []
    original = solver.alpha0_solve

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(solver, "alpha0_solve", counted)
    _, diag = solver.homotopy_newton_solve(stress_state(mesh2, params), params, mesh2)
    assert diag.schedule_index >= 1
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
    params = scheme.SchemeParams(newton_tol=1e-16, newton_max_iter=1)
    rho0, m0 = scheme.make_initial_data("bump", 1.0, 0.5, 0.15,
                                        mesh2.box_lo, mesh2.box_hi)
    with pytest.raises(solver.StepFailure) as info:
        scheme.run(mesh2, params, rho0, m0, 2, _discard)
    assert info.value.step == 1
