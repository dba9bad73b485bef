"""Tests for the energy ledger, structure checks, and refinement studies."""

import tracemalloc

import numpy as np
import pytest

from nsfemdg import diagnostics, scheme, solver, spaces
from nsfemdg.mesh import build_box_mesh
from nsfemdg.spaces import (
    PolynomialField,
    ScalarPolynomial,
    SineField,
    apply_bc,
    broken_divergence,
    cell_means,
    element_average,
    elem_quad_points,
    eval_flux_reconstruction,
    face_quad_points,
    flux_reconstruction,
    interpolate_v,
    normal_flux,
    tet_rule,
    tri_rule,
)

UNIT_BOX = (0, 0, 0), (1, 1, 1)


def _random_state(mesh, rng, k=1, rho_scale=0.5, u_scale=0.4):
    """Admissible but otherwise arbitrary state: positive density, no-slip u."""
    rho = 1.0 + rho_scale * rng.uniform(size=len(mesh.tets))
    u = apply_bc(u_scale * rng.standard_normal((len(mesh.face_area), 3)), mesh)
    return scheme.State(rho=rho, u=u, k=k)


def _constant_velocity(mesh, vec):
    return np.tile(np.asarray(vec, dtype=float), (len(mesh.face_area), 1))


# ---------------------------------------------------------------------------
# energy ledger


def test_energy_ledger_uniform_rest():
    mesh = build_box_mesh(2)
    params = scheme.SchemeParams(gamma=4.0, a=1.0)
    state = scheme.State(
        rho=np.full(len(mesh.tets), 2.0),
        u=_constant_velocity(mesh, (0.0, 0.0, 0.0)),
        k=0,
    )
    led = diagnostics.energy_ledger(state, params, mesh)
    assert led.mass == pytest.approx(2.0, abs=1e-14)
    assert led.kinetic == 0.0
    # internal energy density a rho^gamma / (gamma - 1) = 16 / 3 on the unit box
    assert led.internal == pytest.approx(16.0 / 3.0, rel=1e-14)
    assert led.grad_diss == 0.0
    assert led.d2 == 0.0
    assert led.d5 == 0.0
    assert led.min_rho == 2.0
    assert led.total == led.kinetic + led.internal


def test_energy_ledger_constant_velocity_kinetic():
    mesh = build_box_mesh(2)
    params = scheme.SchemeParams()
    state = scheme.State(
        rho=np.full(len(mesh.tets), 2.0),
        u=_constant_velocity(mesh, (1.0, 2.0, 3.0)),
        k=0,
    )
    led = diagnostics.energy_ledger(state, params, mesh)
    # 0.5 * rho * |u|^2 * |box| = 0.5 * 2 * 14
    assert led.kinetic == pytest.approx(14.0, rel=1e-13)
    assert led.grad_diss == pytest.approx(0.0, abs=1e-24)
    assert led.d2 == pytest.approx(0.0, abs=1e-24)


def test_energy_ledger_linear_velocity_grad_diss():
    mesh = build_box_mesh(2)
    params = scheme.SchemeParams()
    A = np.array([[0.3, -0.1, 0.2], [0.0, 0.4, -0.2], [0.1, 0.0, -0.5]])

    def u_fn(p):
        return np.atleast_2d(p) @ A.T

    state = scheme.State(
        rho=np.ones(len(mesh.tets)),
        u=interpolate_v(u_fn, mesh, 2),
        k=0,
    )
    led = diagnostics.energy_ledger(state, params, mesh)
    # interpolation reproduces linear fields, so the broken gradient is A
    # everywhere and the squared seminorm is ||A||_F^2 times the box volume.
    assert led.grad_diss == pytest.approx(np.sum(A**2), rel=1e-12)


def test_energy_ledger_d2_matches_hand_loop():
    mesh = build_box_mesh(2)
    params = scheme.SchemeParams()
    rng = np.random.default_rng(11)
    state = _random_state(mesh, rng)
    led = diagnostics.energy_ledger(state, params, mesh)

    uhat = element_average(state.u, mesh)
    rho = state.rho
    expected = 0.0
    for f in np.flatnonzero(mesh.face_neighbor >= 0):
        own, nbr = mesh.face_owner[f], mesh.face_neighbor[f]
        flux = float(state.u[f] @ mesh.face_normal[f])
        up = rho[own] * max(flux, 0.0) + rho[nbr] * min(flux, 0.0)
        jump2 = float(np.sum((uhat[nbr] - uhat[own]) ** 2))
        expected += 0.5 * mesh.face_area[f] * abs(up) * jump2
    assert led.d2 == pytest.approx(expected, rel=1e-13)
    assert led.d2 > 1e-6  # the random state actually exercises the sum


def test_energy_ledger_d5_matches_hand_loop():
    mesh = build_box_mesh(2)
    params = scheme.SchemeParams()
    rng = np.random.default_rng(12)
    prev = _random_state(mesh, rng, k=0)
    new = _random_state(mesh, rng, k=1)
    led = diagnostics.energy_ledger(new, params, mesh, prev=prev)

    dt = params.dt(mesh)
    du = element_average(new.u, mesh) - element_average(prev.u, mesh)
    expected = float(
        np.sum(mesh.elem_volume * prev.rho * np.sum(du**2, axis=1))
    ) / (2.0 * dt)
    assert led.d5 == pytest.approx(expected, rel=1e-13)
    assert led.d5 > 1e-6


# ---------------------------------------------------------------------------
# positivity and renormalized continuity


def test_positivity_slack_hand_case():
    mesh = build_box_mesh(2)
    params = scheme.SchemeParams()
    s = np.array([0.4, -0.1, 0.3])

    def u_fn(p):
        return np.atleast_2d(p) * s

    prev = scheme.State(
        rho=np.linspace(0.8, 1.2, len(mesh.tets)),
        u=_constant_velocity(mesh, (0, 0, 0)), k=0)
    new = scheme.State(
        rho=np.linspace(0.9, 1.1, len(mesh.tets)),
        u=interpolate_v(u_fn, mesh, 2), k=1)

    # div u = 0.4 - 0.1 + 0.3 = 0.6 exactly, everywhere
    div = broken_divergence(new.u, mesh)
    assert np.allclose(div, 0.6, atol=1e-12)
    dt = params.dt(mesh)
    expected = 0.9 - 0.8 / (1.0 + dt * 0.6)
    assert diagnostics.positivity_slack(prev, new, params, mesh) == pytest.approx(
        expected, rel=1e-12)


def test_renormalized_margin_recompute():
    mesh = build_box_mesh(2)
    params = scheme.SchemeParams()
    rng = np.random.default_rng(13)
    prev = _random_state(mesh, rng, k=0)
    new = _random_state(mesh, rng, k=1)

    lhs, rhs, margin = diagnostics.renormalized_margin(prev, new, params, mesh)
    dt = params.dt(mesh)
    vol = mesh.elem_volume
    lhs_ref = np.sum(vol * (new.rho**2 - prev.rho**2)) / (2 * dt)
    rhs_ref = -np.sum(vol * 0.5 * new.rho**2
                      * broken_divergence(new.u, mesh))
    assert lhs == pytest.approx(lhs_ref, rel=1e-13)
    assert rhs == pytest.approx(rhs_ref, rel=1e-13)
    assert margin == pytest.approx(rhs_ref - lhs_ref, abs=1e-12)


# ---------------------------------------------------------------------------
# transport identities


@pytest.mark.parametrize("n", [1, 2])
def test_transport_identities_arbitrary_state(n):
    mesh = build_box_mesh(n)
    rng = np.random.default_rng(100 + n)
    phi = ScalarPolynomial.random(rng)
    v = PolynomialField.random(rng)
    for trial in range(3):
        state = _random_state(mesh, rng, u_scale=0.6)
        res = diagnostics.transport_identity_residuals(state, mesh, phi, v)
        assert res["continuity"] <= 1e-12
        assert res["momentum"] <= 1e-12


def test_transport_identity_has_teeth():
    # the identity must balance genuinely large parts, not compare zeros
    mesh = build_box_mesh(2)
    rng = np.random.default_rng(21)
    phi = ScalarPolynomial.random(rng)
    v = PolynomialField.random(rng)
    state = _random_state(mesh, rng, u_scale=0.6)
    moments = diagnostics.transport_moments(mesh, phi, v)
    fluxes = diagnostics.transport_fluxes(state, mesh)
    lhs_c, vol_c, p1 = diagnostics.continuity_transport(state, mesh, moments, fluxes)
    lhs_m, vol_m, p2, p3, p4 = diagnostics.momentum_transport(state, mesh, moments, fluxes)
    assert max(abs(lhs_c), abs(vol_c), abs(p1)) > 1e-4
    assert max(abs(lhs_m), abs(vol_m), abs(p2), abs(p3), abs(p4)) > 1e-4
    assert abs(lhs_c - (vol_c + p1)) <= 1e-12 * (1.0 + abs(lhs_c))
    assert abs(lhs_m - (vol_m + p2 + p3 + p4)) <= 1e-12 * (1.0 + abs(lhs_m))


def test_transport_constant_test_functions_vanish():
    mesh = build_box_mesh(1)
    rng = np.random.default_rng(22)
    state = _random_state(mesh, rng)

    phi = ScalarPolynomial(coeffs=np.r_[2.0, np.zeros(9)])
    v = PolynomialField(coeffs=np.zeros((3, 10)))
    v.coeffs[:, 0] = (1.0, -2.0, 0.5)

    moments = diagnostics.transport_moments(mesh, phi, v)
    fluxes = diagnostics.transport_fluxes(state, mesh)
    lhs_c, vol_c, p1 = diagnostics.continuity_transport(state, mesh, moments, fluxes)
    assert abs(lhs_c) < 1e-13 and abs(vol_c) < 1e-13 and abs(p1) < 1e-13
    lhs_m, vol_m, p2, p3, p4 = diagnostics.momentum_transport(state, mesh, moments, fluxes)
    for val in (lhs_m, vol_m, p2, p3, p4):
        assert abs(val) < 1e-12


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("degree", [2, 4])
def test_transport_volume_terms_match_direct_quadrature(n, degree):
    """The moment form is the degree-2 quadrature sum regrouped, and the
    integrands have degree 2: it matches the sum at degree 2, and at 4."""
    mesh = build_box_mesh(n)
    rng = np.random.default_rng(40 + 10 * n + degree)
    phi = ScalarPolynomial.random(rng)
    v = PolynomialField.random(rng)
    moments = diagnostics.transport_moments(mesh, phi, v)
    pts, w = elem_quad_points(mesh, degree, slice(None))
    flat = pts.reshape(-1, 3)
    grad = phi.gradient(flat).reshape(pts.shape[0], -1, 3)
    J = v.jacobian(flat).reshape(pts.shape[0], -1, 3, 3)
    for _ in range(3):
        state = _random_state(mesh, rng, u_scale=0.6)
        rho_vol = state.rho * mesh.elem_volume
        ut = eval_flux_reconstruction(normal_flux(state.u, mesh), mesh, pts)
        uhat = element_average(state.u, mesh)
        ref_c = np.sum(rho_vol * np.einsum("q,eqi,eqi->e", w, ut, grad))
        ref_m = np.sum(rho_vol * np.einsum("q,ei,eqij,eqj->e", w, uhat, J, ut))
        fluxes = diagnostics.transport_fluxes(state, mesh)
        _, vol_c, _ = diagnostics.continuity_transport(state, mesh, moments, fluxes)
        _, vol_m, *_ = diagnostics.momentum_transport(state, mesh, moments, fluxes)
        assert abs(ref_c) > 1e-3 and abs(ref_m) > 1e-3
        assert vol_c == pytest.approx(ref_c, rel=1e-13)
        assert vol_m == pytest.approx(ref_m, rel=1e-13)


def _traced_peak(call):
    """The traced peak of `call()`, made once beforehand so that the mesh
    caches are not counted, and what it returns."""
    call()
    tracemalloc.start()
    try:
        out = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, out


def test_momentum_transport_memory_is_bounded():
    """At n=8, with the mesh caches built, the traced peak of one call stays
    below eight (n_interior, 3) float64 arrays."""
    mesh = build_box_mesh(8)
    rng = np.random.default_rng(23)
    state = _random_state(mesh, rng)
    moments = diagnostics.transport_moments(
        mesh, ScalarPolynomial.random(rng), PolynomialField.random(rng))
    fluxes = diagnostics.transport_fluxes(state, mesh)
    peak, _ = _traced_peak(lambda: diagnostics.momentum_transport(state, mesh, moments, fluxes))
    assert peak < 8 * len(mesh.interior_faces) * 3 * 8


def _transport_moments_reference(mesh, phi, v, degree):
    """Whole-mesh einsum evaluation of every moment."""
    bary, w = tet_rule(degree)
    pts = np.einsum("qi,eij->eqj", bary, mesh.vertices[mesh.tets])
    ne, nq = pts.shape[:2]
    flat = pts.reshape(-1, 3)
    grad = phi.gradient(flat).reshape(ne, nq, 3)
    J = v.jacobian(flat).reshape(ne, nq, 3, 3)
    fbary, fw = tri_rule(degree)
    fpts = np.einsum("qi,fij->fqj", fbary, mesh.vertices[mesh.face_vertices])
    fflat = fpts.reshape(-1, 3)
    phi_fmean = np.einsum("q,fq->f", fw, phi(fflat).reshape(fpts.shape[:2]))
    v_fmean = np.einsum("q,fqi->fi", fw, v(fflat).reshape(fpts.shape))
    return diagnostics.TransportMoments(
        phat=np.einsum("q,eq->e", w, phi(flat).reshape(ne, nq)),
        grad_phi=np.einsum("q,eqi->ei", w, grad),
        x_grad_phi=np.einsum("q,eqi,eqi->e", w, pts, grad),
        phi_face=mesh.face_area * phi_fmean,
        what=v_fmean[mesh.elem_faces].mean(axis=1),
        dv=np.einsum("q,eqij->eij", w, J),
        dv_x=np.einsum("q,eqij,eqj->ei", w, J, pts),
        v_face=mesh.face_area[:, None] * v_fmean,
        interp_defect=mesh.elem_volume[:, None] * np.einsum(
            "q,eqi->ei", w, np.einsum("ql,eli->eqi", 1.0 - 3.0 * bary, v_fmean[mesh.elem_faces])
            - v(flat).reshape(ne, nq, 3)),
    )


@pytest.mark.parametrize("degree", [2, 4])
def test_transport_moments_do_not_depend_on_the_block(degree, monkeypatch):
    """A 256-point budget gives blocks of 64 of the 162 elements and of 64 of
    the 378 faces (85 rows of the 3-point rule, cut to a multiple of 64; the
    last blocks ragged).  These give the bits of one block, and both
    match the whole-mesh einsum evaluation at `degree` to rounding: the
    degree-2 moments are exact."""
    mesh = build_box_mesh(3)
    rng = np.random.default_rng(90 + degree)
    phi = ScalarPolynomial.random(rng)
    v = PolynomialField.random(rng)
    monkeypatch.setattr(spaces, "QUAD_POINTS", 2**40)
    whole = diagnostics.transport_moments(mesh, phi, v)
    monkeypatch.setattr(spaces, "QUAD_POINTS", 64 * len(tet_rule(2)[1]))
    assert mesh.n_elems % 64 and mesh.n_faces % 64
    blocked = diagnostics.transport_moments(mesh, phi, v)
    ref = _transport_moments_reference(mesh, phi, v, degree)
    for name in diagnostics.TransportMoments.__dataclass_fields__:
        got, want = getattr(whole, name), getattr(ref, name)
        assert np.array_equal(getattr(blocked, name), got), name
        # The interpolation error is formed pointwise against values of v's
        # size, and rounds at that size times the element volume.
        scale = (mesh.elem_volume.max() * np.abs(ref.what).max() if name == "interp_defect"
                 else np.abs(want).max())
        assert np.abs(got - want).max() <= 1e-14 * scale, name


def test_transport_moments_memory_is_bounded_by_the_block():
    """At n=16, which the degree-2 rules cut into 8 element and 11 face
    blocks, the traced peak less the moments returned stays below one
    whole-mesh (n_elems, nq, 3, 3) array of v's Jacobian.  (At n=8 one
    degree-2 element block holds the whole mesh.)"""
    mesh = build_box_mesh(16)
    rng = np.random.default_rng(38)
    phi, v = ScalarPolynomial.random(rng), PolynomialField.random(rng)
    peak, moments = _traced_peak(lambda: diagnostics.transport_moments(mesh, phi, v))
    kept = sum(getattr(moments, name).nbytes
               for name in diagnostics.TransportMoments.__dataclass_fields__)
    assert peak - kept < mesh.n_elems * len(tet_rule(2)[1]) * 3 * 3 * 8


def test_injected_states_memory_is_bounded_by_the_block():
    """At n=16, which the degree-4 rules cut into 26 element and 22 face
    blocks, the traced peak of injecting three samples, less the means kept,
    stays below one whole-mesh array of the degree-4 face points."""
    mesh = build_box_mesh(16)
    data = diagnostics.bump_flow_data(*UNIT_BOX)
    samples = [data(0.05 * k) for k in (1, 2, 3)]
    peak, _ = _traced_peak(lambda: diagnostics.injected_states(samples, mesh, 4))
    kept = len(samples) * (mesh.n_elems + 3 * mesh.n_faces) * 8
    assert peak - kept < face_quad_points(mesh, 4, slice(None))[0].nbytes


def _count_moments(monkeypatch):
    """Counts transport_moments calls by mesh identity."""
    calls = []
    original = diagnostics.transport_moments

    def counted(mesh, *args, **kwargs):
        calls.append(id(mesh))
        return original(mesh, *args, **kwargs)

    monkeypatch.setattr(diagnostics, "transport_moments", counted)
    return calls


def test_p_decay_study_builds_moments_once_per_mesh(monkeypatch):
    rng = np.random.default_rng(33)
    calls = _count_moments(monkeypatch)
    # T = 0.8 gives one step at n=1 and two at n=2.
    diagnostics.p_decay_study((1, 2), diagnostics.bump_flow_data(*UNIT_BOX),
                              ScalarPolynomial.random(rng), PolynomialField.random(rng),
                              0.8, scheme.SchemeParams(), *UNIT_BOX)
    assert len(calls) == 2
    assert len(set(calls)) == 2


def test_p_decay_study_point_mappings_do_not_grow_with_steps(monkeypatch):
    """All time samples of a mesh are injected in one pass over its points."""
    rng = np.random.default_rng(34)
    phi, v = ScalarPolynomial.random(rng), PolynomialField.random(rng)
    calls = []
    for name in ("elem_quad_points", "face_quad_points"):
        def counted(*args, _original=getattr(spaces, name)):
            calls.append(args[0])
            return _original(*args)
        monkeypatch.setattr(spaces, name, counted)
    counts = []
    # At n=2 dt = 0.433: T = 0.4 gives one step and T = 1.2 three.
    for T in (0.4, 1.2):
        calls.clear()
        study = diagnostics.p_decay_study((2,), diagnostics.bump_flow_data(*UNIT_BOX), phi, v,
                                          T, scheme.SchemeParams(), *UNIT_BOX)
        assert study["rows"][0]["P1"] > 0.0
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_p_decay_study_does_not_depend_on_the_block(monkeypatch):
    rng = np.random.default_rng(35)
    phi, v = ScalarPolynomial.random(rng), PolynomialField.random(rng)

    def study():
        return diagnostics.p_decay_study((2, 3), diagnostics.bump_flow_data(*UNIT_BOX), phi, v,
                                         0.8, scheme.SchemeParams(), *UNIT_BOX)

    monkeypatch.setattr(spaces, "QUAD_POINTS", 2**40)
    whole = study()
    # 7 elements of the injected states' degree-4 rule per block, 24 of the
    # moments' degree-2 one.
    monkeypatch.setattr(spaces, "QUAD_POINTS", 7 * len(tet_rule(4)[1]))
    assert study() == whole


def test_p4_moves_by_rounding_when_the_weights_do(monkeypatch):
    """Scaling the degree-2 tet weights by 1 + 2**-52 moves P4 at n=8, on the
    pdecay study's injected state, by at most 1e-13 relative: its factor is
    one quadrature mean of the interpolation error, which the weights scale,
    not the difference of two O(1) means, which they would not cancel in."""
    mesh = build_box_mesh(8)
    rng = np.random.default_rng(37)
    phi, v = ScalarPolynomial.random(rng), PolynomialField.random(rng)
    rho_fn, u_fn = diagnostics.bump_flow_data(*UNIT_BOX)(0.1)
    state = scheme.State(rho=cell_means(rho_fn, mesh, 4),
                         u=apply_bc(interpolate_v(u_fn, mesh, 4), mesh), k=1)
    fluxes = diagnostics.transport_fluxes(state, mesh)

    def p4():
        moments = diagnostics.transport_moments(mesh, phi, v)
        return diagnostics.momentum_transport(state, mesh, moments, fluxes)[4]

    base = p4()
    rule = spaces.tet_rule
    monkeypatch.setattr(spaces, "tet_rule", lambda degree: (
        (rule(2)[0], rule(2)[1] * (1.0 + 2.0**-52)) if degree == 2 else rule(degree)))
    assert abs(p4() - base) <= 1e-13 * abs(base)


def test_defect_integrals_form_the_face_fluxes_once_per_state(monkeypatch):
    """One `transport_fluxes` call per state, and P1-P4 are the bits of the
    two identities each forming the state's face fluxes on its own."""
    mesh = build_box_mesh(3)
    rng = np.random.default_rng(36)
    moments = diagnostics.transport_moments(mesh, ScalarPolynomial.random(rng),
                                            PolynomialField.random(rng))
    states = [_random_state(mesh, rng, u_scale=0.6) for _ in range(3)]
    dt = 0.1
    calls = []
    original = diagnostics.transport_fluxes

    def counted(state, mesh):
        calls.append(state)
        return original(state, mesh)

    monkeypatch.setattr(diagnostics, "transport_fluxes", counted)
    totals = diagnostics._defect_integrals(iter(states), mesh, moments, dt)
    assert len(calls) == len(states) and all(a is b for a, b in zip(calls, states))

    def own_fluxes(state):
        w, s = flux_reconstruction(normal_flux(state.u, mesh), mesh)
        return diagnostics.TransportFluxes(w, s, *scheme.interior_fluxes(state, mesh))

    ref = {"P1": 0.0, "P2": 0.0, "P3": 0.0, "P4": 0.0}
    for state in states:
        _, _, p1 = diagnostics.continuity_transport(state, mesh, moments, own_fluxes(state))
        _, _, p2, p3, p4 = diagnostics.momentum_transport(state, mesh, moments,
                                                          own_fluxes(state))
        for key, val in zip(ref, (p1, p2, p3, p4)):
            ref[key] += dt * abs(val)
    assert min(ref.values()) > 0.0
    assert totals == ref


# ---------------------------------------------------------------------------
# CSV row and trajectory integrals


def test_csv_row_matches_column_contract():
    led = diagnostics.EnergyLedger(mass=1.0, kinetic=0.5, internal=2.0,
                                   grad_diss=0.1, d2=0.01, d5=0.001, min_rho=0.9)
    row = diagnostics.csv_row(3, 0.75, led, 1e-12, 1e-6, 4, 2)
    assert ",".join(row) == ("step,t,mass,kinetic,internal,grad_diss,D2,D5,min_rho,"
                             "energy_margin,positivity_slack,newton_iters,alpha_nodes_used")
    assert row["step"] == 3
    assert row["D2"] == 0.01
    assert row["D5"] == 0.001
    assert row["alpha_nodes_used"] == 2


# ---------------------------------------------------------------------------
# Cauchy differences on synthetic trajectories


def _const_run(mesh, dt, values):
    """A run of spatially constant densities, one value per time level."""
    return mesh, dt, [np.full(mesh.n_elems, val) for val in values]


def test_cauchy_difference_constant_offset():
    coarse = _const_run(build_box_mesh(1), 0.5, [1.0, 1.0, 1.0])
    fine = _const_run(build_box_mesh(2), 0.25, [1.5] * 5)
    (diff,) = diagnostics.cauchy_differences([coarse, fine], T=1.0)
    # |difference| = 0.5 on the whole unit box for the whole unit interval
    assert diff == pytest.approx(0.5, rel=1e-13)


def test_cauchy_difference_piecewise_in_time():
    # State k holds on ((k-1) dt, k dt]: the coarse levels are 2 on (0, 0.5 s]
    # and 4 on (0.5 s, s], against a fine value of 1, so diff^2 = (0.5 + 4.5) s
    # at any time scale s.  At T = 0.75 s the coarse level 2 lies 0.25 s past
    # T, and (T, s] is not integrated: diff^2 = (0.5 + 0.25 * 9) s.
    for s, T, fine_levels, diff2 in ((1.0, 1.0, 5, 5.0), (1e-13, 1.0, 5, 5.0),
                                     (1e-15, 1.0, 5, 5.0), (1e-13, 0.75, 4, 2.75)):
        coarse = _const_run(build_box_mesh(1), 0.5 * s, [1.0, 2.0, 4.0])
        fine = _const_run(build_box_mesh(2), 0.25 * s, [1.0] * fine_levels)
        (diff,) = diagnostics.cauchy_differences([coarse, fine], T=T * s)
        assert diff == pytest.approx(np.sqrt(diff2 * s), rel=1e-12), (s, T)


def test_cauchy_differences_pair_count():
    results = [
        _const_run(build_box_mesh(1), 0.5, [1.0, 1.0, 1.0]),
        _const_run(build_box_mesh(2), 0.25, [1.0] * 5),
        _const_run(build_box_mesh(4), 0.125, [1.0] * 9),
    ]
    diffs = diagnostics.cauchy_differences(results, T=1.0)
    assert len(diffs) == 2
    assert all(d == pytest.approx(0.0, abs=1e-14) for d in diffs)


def test_cauchy_differences_on_solver_runs_decrease():
    params = scheme.SchemeParams()
    rho0, m0 = scheme.bump_data(1.0, 0.3, 0.2, (0.5, 0.5, 0.5))
    T = 0.5
    runs = []
    for mesh in map(build_box_mesh, (1, 2)):
        densities = []
        result = scheme.run(mesh, params, rho0, m0, scheme.step_count(T, params.dt(mesh)),
                            lambda state, row: densities.append(state.rho))
        runs.append((mesh, result.dt, densities))
    diffs = diagnostics.cauchy_differences(runs, T)
    assert len(diffs) == 1
    assert diffs[0] > 0.0


# ---------------------------------------------------------------------------
# injected smooth data and refinement studies


def test_bump_flow_data_velocity_vanishes_on_boundary():
    data = diagnostics.bump_flow_data((0, -1, 2), (2, 1, 3))
    _, u_fn = data(0.3)
    pts = np.array([
        [0.0, 0.0, 2.5], [2.0, 0.5, 2.2], [1.0, -1.0, 2.9],
        [1.5, 1.0, 2.1], [0.7, 0.3, 2.0], [0.2, -0.5, 3.0],
    ])
    assert np.max(np.abs(u_fn(pts))) < 1e-14


def test_bump_flow_data_is_bitwise_the_array_formulas():
    """The density and velocity, computed one coordinate row at a time, give
    the bits of the formulas on (n, 3) arrays, in a C-ordered (n, 3) array:
    the quadrature sums over another layout can round differently."""
    lo, hi = np.array([-0.3, 0.1, 1.7]), np.array([0.4, 1.3, 2.9])
    pts = np.random.default_rng(39).uniform(lo, hi, size=(5000, 3))
    for t in (0.0, 0.07, 0.5):
        rho_fn, u_fn = diagnostics.bump_flow_data(lo, hi)(t)
        ctr = 0.5 * (lo + hi) + t * np.array([0.2, 0.1, 0.05])
        rho = 1.0 + 0.4 * np.exp(-np.sum((pts - ctr) ** 2, axis=1) / 0.35**2)
        x = (pts - lo) / (hi - lo)
        g = x * (1.0 - x)
        g3 = g[:, 0] * g[:, 1] * g[:, 2]
        u = 32.0 * (1.0 + 0.3 * np.sin(2.0 * t)) * np.stack(
            [g3 * (1.0 + 0.4 * x[:, 0] - 0.2 * x[:, 1]), g3 * (0.7 - 0.3 * x[:, 2]),
             g3 * (0.5 + 0.2 * x[:, 1])], axis=1)
        got_rho, got_u = rho_fn(pts), u_fn(pts)
        assert got_rho.tobytes() == rho.tobytes()
        assert got_u.flags.c_contiguous and got_u.tobytes() == u.tobytes()


def test_bump_flow_data_center_drifts():
    data = diagnostics.bump_flow_data(*UNIT_BOX)
    rho0, _ = data(0.0)
    rho1, _ = data(1.0)
    assert rho0(np.array([[0.5, 0.5, 0.5]]))[0] > rho1(np.array([[0.5, 0.5, 0.5]]))[0]
    assert rho1(np.array([[0.7, 0.6, 0.55]]))[0] > rho0(np.array([[0.7, 0.6, 0.55]]))[0]


def test_p_decay_study_shapes_and_hand_check():
    rng = np.random.default_rng(7)
    phi = ScalarPolynomial.random(rng)
    v = PolynomialField.random(rng)
    data = diagnostics.bump_flow_data(*UNIT_BOX)
    params = scheme.SchemeParams()
    study = diagnostics.p_decay_study((1, 2), data, phi, v, 0.4, params, *UNIT_BOX)

    assert [row["n"] for row in study["rows"]] == [1, 2]
    assert all(len(study["rates"][k]) == 1 for k in ("P1", "P2", "P3", "P4"))

    # recompute the n=1 row directly: h = sqrt(3), dt = c h, one sample at dt
    mesh = build_box_mesh(1)
    dt = params.dt(mesh)
    assert int(np.ceil(0.4 / dt - 1e-9)) == 1
    rho_fn, u_fn = data(dt)
    state = scheme.State(
        rho=cell_means(rho_fn, mesh, 4),
        u=apply_bc(interpolate_v(u_fn, mesh, degree=4), mesh), k=1)
    moments = diagnostics.transport_moments(mesh, phi, v)
    fluxes = diagnostics.transport_fluxes(state, mesh)
    _, _, p1 = diagnostics.continuity_transport(state, mesh, moments, fluxes)
    _, _, p2, p3, p4 = diagnostics.momentum_transport(state, mesh, moments, fluxes)
    row = study["rows"][0]
    for key, val in zip(("P1", "P2", "P3", "P4"), (p1, p2, p3, p4)):
        assert row[key] == pytest.approx(dt * abs(val), rel=1e-13)


def test_interpolation_rate_study_orders():
    study = diagnostics.interpolation_rate_study(SineField(), (2, 4), *UNIT_BOX)
    assert study["h"][0] == pytest.approx(2.0 * study["h"][1], rel=1e-12)
    assert study["l2"][0] > study["l2"][1]
    assert study["h1"][0] > study["h1"][1]
    assert 1.5 <= study["l2_order"] <= 2.5
    assert 0.5 <= study["h1_order"] <= 1.5
