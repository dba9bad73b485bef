"""Residual assembly, Jacobian, parameters, and initial data."""
import numpy as np
import pytest
import scipy.sparse as sp

from nsfemdg import io, oracles, scheme, spaces
from nsfemdg.mesh import build_box_mesh, interior_sides
from nsfemdg.spaces import apply_bc, element_average


def random_pair(mesh, params, seed=0, spread=0.2, vel=0.3):
    """Positive nonuniform previous/current states with admissible velocity."""
    rng = np.random.default_rng(seed)
    rho_prev = 1.0 + spread * rng.uniform(-1, 1, mesh.n_elems)
    rho = 1.0 + spread * rng.uniform(-1, 1, mesh.n_elems)
    u_prev = apply_bc(vel * rng.standard_normal((mesh.n_faces, 3)), mesh)
    u = apply_bc(vel * rng.standard_normal((mesh.n_faces, 3)), mesh)
    prev = scheme.State(rho_prev, u_prev, k=0)
    cur = scheme.State(rho, u, k=1)
    return prev, cur


# ---------------------------------------------------------------------------
# Parameters.


def test_params_defaults(params):
    assert params.gamma == 3.5
    assert params.a == 1.0
    assert params.epsilon == 0.2
    assert params.kappa == 0.01
    assert params.c == 0.5
    assert params.newton_tol == 1e-9
    assert params.newton_max_iter == 50


@pytest.mark.parametrize(
    "kwargs",
    [
        {"gamma": 1.0},
        {"gamma": 0.5},
        {"epsilon": 1.0 / 6.0},
        {"epsilon": 0.1},
        {"epsilon": 1.0},
        {"a": 0.0},
        {"a": -1.0},
        {"c": 0.0},
        {"kappa": -0.01},
        {"newton_tol": 0.0},
        {"newton_max_iter": 0},
    ],
)
def test_params_invalid(kwargs):
    with pytest.raises(ValueError):
        scheme.SchemeParams(**kwargs)


def test_params_small_gamma_warns():
    with pytest.warns(UserWarning):
        scheme.SchemeParams(gamma=2.5)


def test_params_gamma_above_three_is_silent(recwarn):
    scheme.SchemeParams(gamma=3.5)
    assert len(recwarn) == 0


def test_dt_and_h_power(params, mesh2):
    assert params.dt(mesh2) == pytest.approx(0.5 * mesh2.h)
    assert params.h_power(mesh2) == pytest.approx(mesh2.h**0.8)


def test_pressure_values():
    p = scheme.SchemeParams(gamma=4.0)
    assert scheme.pressure(np.array([2.0]), p)[0] == pytest.approx(16.0)
    assert scheme.pressure_derivative(np.array([2.0]), p)[0] == pytest.approx(32.0)


# ---------------------------------------------------------------------------
# Initial data.


def test_initial_state_density_floor():
    # box scaled so h = 0.5 exactly: the floor is kappa*h = 0.005
    L = 0.5 / np.sqrt(3.0)
    mesh = build_box_mesh(1, (0, 0, 0), (L, L, L))
    assert np.isclose(mesh.h, 0.5, atol=1e-15)
    p = scheme.SchemeParams()
    rho0, m0 = scheme.make_initial_data("stationary", 1.0, 0.5, 0.15, (0, 0, 0), (L, L, L))
    state = scheme.initial_state(rho0, m0, mesh, p)
    assert np.allclose(state.rho, 1.005, atol=1e-14)
    assert np.all(state.u == 0.0)


def test_initial_state_negative_density_rejected(mesh1, params):
    def rho0(p):
        return np.atleast_2d(p)[:, 0] - 0.5  # negative for x < 0.5

    def m0(p):
        return np.zeros((np.atleast_2d(p).shape[0], 3))

    with pytest.raises(scheme.InitialDataError, match="negative"):
        scheme.initial_state(rho0, m0, mesh1, params)


def test_initial_state_zero_density_needs_a_floor(mesh1):
    rho0, m0 = scheme.bump_data(0.0, 0.0, 0.15, (0.5, 0.5, 0.5))
    with pytest.raises(scheme.InitialDataError, match="zero"):
        scheme.initial_state(rho0, m0, mesh1, scheme.SchemeParams(kappa=0.0))
    state = scheme.initial_state(rho0, m0, mesh1, scheme.SchemeParams())
    assert np.all(state.rho == 0.01 * mesh1.h)


def test_initial_state_evaluates_rho0_once_per_point_set(mesh2, params):
    """The sign check rides on the projection: one call at the element
    points and one at the face points."""
    calls = []
    rho0, m0 = scheme.shear_data(2.0, 0.8)

    def counted(p):
        calls.append(len(p))
        return rho0(p)

    scheme.initial_state(counted, m0, mesh2, params)
    assert sum(calls) == mesh2.n_elems * 4 + mesh2.n_faces * 3


def test_initial_state_velocity_division(mesh2, params):
    """u is interpolated from m0 / (rho0 + kappa h), then no-slip zeroed."""
    rho0, m0 = scheme.shear_data(2.0, 0.8)
    state = scheme.initial_state(rho0, m0, mesh2, params)
    floor = params.kappa * mesh2.h
    interior = mesh2.interior_faces
    from nsfemdg.spaces import face_quad_points

    pts, w = face_quad_points(mesh2, 2, slice(None))
    vals = m0(pts.reshape(-1, 3)).reshape(pts.shape[0], -1, 3)
    dens = rho0(pts.reshape(-1, 3)).reshape(pts.shape[0], -1)
    expected = np.einsum("q,fqi->fi", w, vals / (dens + floor)[:, :, None])
    assert np.allclose(state.u[interior], expected[interior], atol=1e-14)
    assert np.all(state.u[mesh2.is_boundary_face] == 0.0)


def test_run_calls_on_state_per_step(mesh1, params):
    """on_state sees every state, the initial one first, in step order, with
    the row that run appends to result.rows."""
    calls = []
    rho0, m0 = scheme.bump_data(1.0, 0.5, 0.15, 0.5 * (mesh1.box_lo + mesh1.box_hi))
    result = scheme.run(mesh1, params, rho0, m0, 3,
                        lambda state, row: calls.append((state, row)))
    assert [state.k for state, _ in calls] == [0, 1, 2, 3]
    assert [row for _, row in calls] == result.rows
    assert all(row is result.rows[k] for k, (_, row) in enumerate(calls))


def test_step_count_covers_the_final_time():
    """Steps of dt whose extension, state k on ((k-1) dt, k dt], covers
    [0, T]: a part of a step counts as a step, a multiple of dt up to
    rounding does not add one, and there is at least one."""
    dt = 0.1
    assert scheme.step_count(2.5 * dt, dt) == 3
    assert scheme.step_count(2.0 * dt, dt) == 2
    assert scheme.step_count(0.7, dt) == 7            # 0.7 / 0.1 = 6.999999999999999
    assert scheme.step_count(0.1 + 0.2, dt) == 3      # 3.0000000000000004
    assert scheme.step_count(1e-300, dt) == 1


def test_presets_shapes(mesh2):
    ctr = 0.5 * (mesh2.box_lo + mesh2.box_hi)
    rho0, m0 = scheme.bump_data(1.0, 0.5, 0.15, ctr)
    vals = rho0(mesh2.elem_centroid)
    assert vals.max() <= 1.5 + 1e-12
    assert vals.min() >= 1.0
    # the bump peaks at the center
    assert np.isclose(rho0(ctr[None, :])[0], 1.5, atol=1e-13)
    assert np.all(m0(mesh2.elem_centroid) == 0.0)

    rho0, m0 = scheme.shear_data(2.0, 0.3)
    m = m0(np.array([[0.5, 0.25, 0.5]]))
    assert np.allclose(m[0], [2.0 * 0.3, 0.0, 0.0], atol=1e-13)


def test_make_initial_data_unknown_preset():
    with pytest.raises(ValueError):
        scheme.make_initial_data("vortex", 1.0, 0.5, 0.15, np.zeros(3), np.ones(3))


# ---------------------------------------------------------------------------
# Packing.


def test_pack_unpack_roundtrip(mesh2, params):
    _, state = random_pair(mesh2, params, seed=1)
    x = scheme.pack(state, mesh2)
    assert x.size == mesh2.n_elems + 3 * len(mesh2.interior_faces)
    back = scheme.unpack(x, mesh2, state.k)
    assert np.array_equal(back.rho, state.rho)
    assert np.array_equal(back.u, state.u)


def test_unpacked_state_does_not_alias_the_iterate(mesh2, params):
    _, state = random_pair(mesh2, params, seed=2)
    x = scheme.pack(state, mesh2)
    back = scheme.unpack(x, mesh2, state.k)
    x[:] = 7.0
    assert np.array_equal(back.rho, state.rho)
    assert np.array_equal(back.u, state.u)


# ---------------------------------------------------------------------------
# Residual structure.


def test_residual_alpha_affine(mesh2, params):
    prev, cur = random_pair(mesh2, params, seed=2)
    r0 = scheme.residual(prev, cur, params, mesh2, alpha=0.0).ravel()
    r1 = scheme.residual(prev, cur, params, mesh2, alpha=1.0).ravel()
    for alpha in (0.25, 0.5, 0.9):
        ra = scheme.residual(prev, cur, params, mesh2, alpha=alpha).ravel()
        assert np.allclose(ra, (1 - alpha) * r0 + alpha * r1, atol=1e-14)


def test_residual_alpha_zero_decouples_density(mesh2, params):
    prev, cur = random_pair(mesh2, params, seed=3)
    r0 = scheme.residual(prev, cur, params, mesh2, alpha=0.0)
    expected = mesh2.elem_volume * (cur.rho - prev.rho) / params.dt(mesh2)
    assert np.allclose(r0.continuity, expected, atol=1e-14)


def test_continuity_rows_telescope(mesh2, params):
    """Summed over elements, flux and stabilization cancel exactly."""
    prev, cur = random_pair(mesh2, params, seed=4)
    res = scheme.residual(prev, cur, params, mesh2)
    total = np.sum(res.continuity)
    mass_rate = np.sum(mesh2.elem_volume * (cur.rho - prev.rho))
    assert np.isclose(total, mass_rate / params.dt(mesh2), atol=1e-12)


def test_momentum_rows_vanish_for_uniform_rest(mesh2, params):
    rho = np.full(mesh2.n_elems, 2.0)
    u = np.zeros((mesh2.n_faces, 3))
    prev = scheme.State(rho.copy(), u, k=0)
    cur = scheme.State(rho.copy(), u.copy(), k=1)
    res = scheme.residual(prev, cur, params, mesh2)
    # constant pressure integrates to zero against every test function
    assert np.abs(res.momentum).max() < 1e-12
    assert np.abs(res.continuity).max() < 1e-14


@pytest.mark.parametrize("n", [1, 2])
def test_continuity_matches_reference(n, params):
    mesh = build_box_mesh(n)
    prev, cur = random_pair(mesh, params, seed=10 + n)
    res = scheme.residual(prev, cur, params, mesh)
    ref = oracles.continuity_rows_reference(prev, cur, params, mesh)
    scale = 1.0 + np.abs(ref).max()
    assert np.abs(res.continuity - ref).max() / scale < 1e-13


def unconstrained_pair(mesh, params, seed):
    """Like random_pair, but the no-slip dofs keep their random values."""
    prev, cur = random_pair(mesh, params, seed)
    rng = np.random.default_rng(seed)
    for state in (prev, cur):
        bnd = mesh.is_boundary_face
        state.u[bnd] = 0.3 * rng.standard_normal((int(bnd.sum()), 3))
    return prev, cur


@pytest.mark.parametrize("n,pair", [
    pytest.param(1, random_pair, id="1"),
    pytest.param(2, random_pair, id="2"),
    pytest.param(2, unconstrained_pair, id="2-boundary-dofs"),
])
def test_momentum_matches_reference(n, pair, params):
    """The assembly reads every face dof, as the reference does."""
    mesh = build_box_mesh(n)
    prev, cur = pair(mesh, params, seed=20 + n)
    res = scheme.residual(prev, cur, params, mesh)
    ref = oracles.momentum_rows_reference(prev, cur, params, mesh)
    scale = 1.0 + np.abs(ref).max()
    assert np.abs(res.momentum - ref).max() / scale < 1e-12


# ---------------------------------------------------------------------------
# Jacobian.


def _kink_safe(mesh, state, floor=0.05):
    u = state.u.copy()
    for f in mesh.interior_faces:
        nu = mesh.face_normal[f]
        flux = float(u[f] @ nu)
        if abs(flux) < floor:
            u[f] += ((floor if flux >= 0 else -floor) - flux) * nu
    return scheme.State(state.rho, u, k=state.k)


def test_jacobian_matches_fd(mesh1, params):
    prev, cur = random_pair(mesh1, params, seed=30)
    cur = _kink_safe(mesh1, cur)
    J = scheme.jacobian(prev, cur, params, mesh1).toarray()
    J_fd = oracles.jacobian_fd(prev, cur, params, mesh1)
    assert np.abs(J - J_fd).max() / np.abs(J_fd).max() < 1e-5


def _rest(mesh):
    """Uniform rest: the state where most Jacobian entries cancel."""
    return scheme.State(np.full(mesh.n_elems, 1.3), np.zeros((mesh.n_faces, 3)), k=1)


def _assert_alpha_affine(prev, cur, params, mesh):
    J0 = scheme.jacobian(prev, cur, params, mesh, alpha=0.0).toarray()
    J1 = scheme.jacobian(prev, cur, params, mesh, alpha=1.0).toarray()
    Jh = scheme.jacobian(prev, cur, params, mesh, alpha=0.5).toarray()
    assert np.allclose(Jh, 0.5 * (J0 + J1), atol=1e-13)


def test_jacobian_alpha_affine(mesh1, params):
    rest = _rest(mesh1)
    for prev, cur in (random_pair(mesh1, params, seed=31), (rest, rest)):
        _assert_alpha_affine(prev, cur, params, mesh1)


def test_jacobian_alpha_affine_at_rest_on_several_cubes(mesh2, params):
    rest = _rest(mesh2)
    _assert_alpha_affine(rest, rest, params, mesh2)


def test_jacobian_fd_at_half_alpha(mesh1, params):
    prev, cur = random_pair(mesh1, params, seed=32)
    cur = _kink_safe(mesh1, cur)
    J = scheme.jacobian(prev, cur, params, mesh1, alpha=0.5).toarray()
    J_fd = oracles.jacobian_fd(prev, cur, params, mesh1, alpha=0.5)
    assert np.abs(J - J_fd).max() / np.abs(J_fd).max() < 1e-5


@pytest.mark.parametrize("alpha", [1.0, 0.5])
def test_jacobian_matches_fd_on_several_cubes(mesh2, params, alpha):
    """On n = 2 faces and elements of different cubes couple, which n = 1 lacks."""
    prev, cur = random_pair(mesh2, params, seed=34)
    cur = _kink_safe(mesh2, cur)
    J = scheme.jacobian(prev, cur, params, mesh2, alpha=alpha).toarray()
    J_fd = oracles.jacobian_fd(prev, cur, params, mesh2, alpha=alpha)
    assert np.abs(J - J_fd).max() / np.abs(J_fd).max() < 1e-5


@pytest.mark.parametrize("build", [
    scheme.jacobian_map, interior_sides, scheme.mesh_operators,
    spaces.p1_coefficients, io._vtk_geometry,
], ids=lambda build: build.__name__)
def test_jacobian_map_is_built_once_per_mesh(params, build):
    """Every builder of mesh-derived data runs once per mesh object."""
    mesh, twin = build_box_mesh(1), build_box_mesh(1)
    prev, cur = random_pair(mesh, params, seed=35)
    first = scheme.jacobian(prev, cur, params, mesh)
    built = build(mesh)
    jm = scheme.jacobian_map(mesh)
    again = scheme.jacobian(prev, cur, params, mesh)
    assert build(mesh) is built
    assert build(twin) is not built
    assert scheme.jacobian_map(mesh) is jm
    assert scheme.jacobian_map(twin) is not jm
    assert scheme.jacobian_map(build_box_mesh(2)).indptr.size != jm.indptr.size
    twin_J = scheme.jacobian(prev, cur, params, twin)
    for J in (again, twin_J):
        assert np.array_equal(J.indptr, first.indptr)
        assert np.array_equal(J.indices, first.indices)
        assert np.array_equal(J.data, first.data)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_pattern_slot_is_filled_by_a_path(n):
    """The pattern holds only entries that some path reaches: with random
    coefficients in [1, 2] no value of the map comes out zero."""
    jm = scheme.jacobian_map(build_box_mesh(n))
    rng = np.random.default_rng(n)
    n_c = jm.coefficients.shape[1] - jm.scalar.shape[0]
    scalar = jm.scalar @ rng.uniform(1.0, 2.0, jm.scalar.shape[1])
    data = jm.coefficients @ np.concatenate([rng.uniform(1.0, 2.0, n_c), scalar])
    assert np.all(data != 0.0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_scalar_positions_are_the_component_copies(n):
    """The scalar block's entry (i, j) lands at D's entry (3 i + d, 3 j + d)
    for each component d, at distinct positions, in the block's row order:
    its copy column, one of the last columns of the coefficient map, holds
    a 1 at those three positions and nothing else, and no J position takes
    more than one copy."""
    mesh = build_box_mesh(n)
    jm = scheme.jacobian_map(mesh)
    ne, ni, m = mesh.n_elems, len(mesh.interior_faces), jm.scalar.shape[0]
    copies = jm.coefficients[:, -m:]
    assert np.array_equal(np.diff(copies.indptr), np.full(m, 3))
    assert np.all(copies.data == 1.0)
    pos = copies.indices.reshape(m, 3).T
    assert np.unique(pos).size == pos.size
    rows = np.repeat(np.arange(len(jm.indptr) - 1), np.diff(jm.indptr))[pos] - ne
    cols = jm.indices[pos] - ne
    assert rows.min() >= 0 and cols.min() >= 0
    (i, di), (j, dj) = np.divmod(rows, 3), np.divmod(cols, 3)
    assert np.array_equal(di, np.broadcast_to(np.arange(3)[:, None], pos.shape))
    assert np.array_equal(dj, di)
    assert np.all(i == i[0]) and np.all(j == j[0])
    assert np.all(np.diff(i[0] * ni + j[0]) > 0)


def test_alpha0_matrix_is_the_mass_plus_stiffness(mesh2, shuffled3, params):
    """The alpha = 0 matrix filled from its per-mesh map is bitwise the sum
    of the weighted mass and dt times the stiffness, in pattern and values,
    and shares no array with the map."""
    for mesh in (mesh2, shuffled3):
        rho = np.random.default_rng(mesh.n_elems).uniform(0.5, 2.0, mesh.n_elems)
        dt = params.dt(mesh)
        L0 = scheme.alpha0_matrix(mesh, rho, dt)
        expected = scheme.interior_weighted_mass(mesh, rho) + dt * scheme.interior_stiffness(mesh)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(L0, name), getattr(expected, name)), name
        am = scheme.alpha0_map(mesh)
        assert not np.shares_memory(L0.indices, am.indices)
        assert not np.shares_memory(L0.indptr, am.indptr)


@pytest.mark.parametrize("alpha", [1.0 / 64, 0.5, 1.0])
def test_density_block_holds_its_whole_pattern(mesh2, params, alpha):
    """At alpha in (0, 1] no entry of the density block A comes out zero, on
    random states and at rest (u = 0, uniform density or not): its diagonal
    is at least |E| / dt and its off-diagonals are strictly negative.  So A
    always has the Jacobian map's pattern, and the solver reads it from
    J.data in the mesh's kept order.  (B, whose upwind derivative in the
    flux is zero at rest, does lose its entries there.)"""
    ne = mesh2.n_elems
    jm = scheme.jacobian_map(mesh2)
    pattern = sp.csr_matrix((np.ones(jm.indices.size), jm.indices, jm.indptr))[:ne, :ne]
    rest = _rest(mesh2)
    graded = scheme.State(np.linspace(0.5, 2.0, ne), np.zeros((mesh2.n_faces, 3)), k=1)
    pairs = [random_pair(mesh2, params, seed=seed) for seed in (40, 41)]
    for prev, cur in pairs + [(rest, rest), (rest, graded)]:
        A = scheme.jacobian(prev, cur, params, mesh2, alpha=alpha)[:ne, :ne]
        assert np.array_equal(A.indptr, pattern.indptr)
        assert np.array_equal(A.indices, pattern.indices)
        assert np.all(A.diagonal() >= mesh2.elem_volume / params.dt(mesh2))
        assert np.all((A - sp.diags(A.diagonal())).data < 0.0)


def test_jacobian_is_canonical_without_stored_zeros(mesh2, params):
    rest = _rest(mesh2)
    for (prev, cur), alpha in ((random_pair(mesh2, params, seed=36), 1.0),
                               ((rest, rest), 1.0), ((rest, rest), 0.0)):
        J = scheme.jacobian(prev, cur, params, mesh2, alpha=alpha)
        assert J.has_canonical_format
        row = np.repeat(np.arange(J.shape[0]), np.diff(J.indptr))
        assert np.all(np.diff(row * J.shape[1] + J.indices) > 0)   # sorted, no duplicates
        assert np.all(J.data != 0.0)


def test_changing_a_jacobian_leaves_the_next_one_unchanged(mesh2, params):
    prev, cur = random_pair(mesh2, params, seed=37)
    J = scheme.jacobian(prev, cur, params, mesh2)
    expected = J.copy()
    J.data[:] = 0.0
    J.eliminate_zeros()
    again = scheme.jacobian(prev, cur, params, mesh2)
    assert np.array_equal(again.indptr, expected.indptr)
    assert np.array_equal(again.indices, expected.indices)
    assert np.array_equal(again.data, expected.data)


def test_interior_stiffness_spd(mesh1):
    K = scheme.interior_stiffness(mesh1).toarray()
    assert np.allclose(K, K.T, atol=1e-13)
    w = np.linalg.eigvalsh(K)
    assert w.min() > 0  # no-slip removes the constant kernel


def test_interior_weighted_mass_row_sums(mesh2):
    """Row sums count |E| rho_E / 16 once per interior column face of E."""
    rho = np.linspace(1.0, 2.0, mesh2.n_elems)
    M = scheme.interior_weighted_mass(mesh2, rho).toarray()
    interior = mesh2.interior_faces
    is_int = ~mesh2.is_boundary_face
    expected = np.zeros(mesh2.n_faces)
    for e in range(mesh2.n_elems):
        n_cols = int(is_int[mesh2.elem_faces[e]].sum())
        for f in mesh2.elem_faces[e]:
            if is_int[f]:
                expected[f] += mesh2.elem_volume[e] * rho[e] / 16.0 * n_cols
    assert np.allclose(M.sum(axis=1), expected[interior], atol=1e-14)


def test_residual_blocks_shapes(mesh2, params):
    prev, cur = random_pair(mesh2, params, seed=33)
    res = scheme.residual(prev, cur, params, mesh2)
    assert res.continuity.shape == (mesh2.n_elems,)
    assert res.momentum.shape == (len(mesh2.interior_faces), 3)
    assert res.ravel().size == mesh2.n_elems + 3 * len(mesh2.interior_faces)
