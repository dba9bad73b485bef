"""Acceptance suite: one test per release criterion, shared desk-scale runs.

Each test prints a single ``acceptance NN <label>: PASS`` line with the worst
measured value, so a verbose run doubles as a verification report.  The
expensive trajectories are computed once per module and shared.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from nsfemdg import cli, diagnostics, oracles, scheme
from nsfemdg.mesh import build_box_mesh
from nsfemdg.spaces import (
    PolynomialField,
    ScalarPolynomial,
    SineField,
    apply_bc,
    broken_gradient,
    commuting_residual,
    elem_quad_points,
    element_average,
    orthogonality_residual,
)

PARAMS = scheme.SchemeParams()
UNIT_BOX = (0, 0, 0), (1, 1, 1)


def _timed_run(preset, n, steps=None, T=None, params=PARAMS):
    mesh = build_box_mesh(n)
    rho0, m0 = scheme.make_initial_data(preset, 1.0, 0.5, 0.15,
                                        mesh.box_lo, mesh.box_hi)
    if steps is None:
        steps = scheme.step_count(T, params.dt(mesh))
    states = []
    t0 = time.perf_counter()
    result = scheme.run(mesh, params, rho0, m0, steps, lambda state, row: states.append(state))
    return SimpleNamespace(**vars(result), states=states), time.perf_counter() - t0


def _report(num, label, worst):
    print(f"acceptance {num:02d} {label}: PASS ({worst})")


@pytest.fixture(scope="module")
def stationary_n2():
    # kappa = 0 drops the kappa*h lift on the initial density, so the exact
    # constant state is the one being propagated
    return _timed_run("stationary", 2, steps=10,
                      params=scheme.SchemeParams(kappa=0.0))


@pytest.fixture(scope="module")
def bump_n1():
    return _timed_run("bump", 1, steps=3)


@pytest.fixture(scope="module")
def bump_n2():
    return _timed_run("bump", 2, steps=10)


@pytest.fixture(scope="module")
def bump_n4():
    return _timed_run("bump", 4, steps=20)


@pytest.fixture(scope="module")
def shear_n2():
    return _timed_run("shear", 2, steps=10)


@pytest.fixture(scope="module")
def shear_n4():
    return _timed_run("shear", 4, steps=10)


@pytest.fixture(scope="module")
def cauchy_runs():
    t0 = time.perf_counter()
    results = [_timed_run("bump", n, T=0.25)[0] for n in (2, 4, 8)]
    return results, time.perf_counter() - t0


@pytest.fixture(scope="module")
def all_runs(stationary_n2, bump_n1, bump_n2, bump_n4, shear_n2, shear_n4,
             cauchy_runs):
    named = [
        ("stationary n=2", stationary_n2[0]),
        ("bump n=1", bump_n1[0]),
        ("bump n=2", bump_n2[0]),
        ("bump n=4", bump_n4[0]),
        ("shear n=2", shear_n2[0]),
        ("shear n=4", shear_n4[0]),
    ]
    named += [(f"cauchy bump n={n}", r)
              for n, r in zip((2, 4, 8), cauchy_runs[0])]
    return named


def test_criterion_01_stationary_preservation(stationary_n2):
    result, seconds = stationary_n2
    worst_rho = max(float(np.abs(s.rho - 1.0).max()) for s in result.states)
    worst_u = max(float(np.abs(s.u).max()) for s in result.states)
    assert worst_rho <= 1e-12
    assert worst_u <= 1e-12
    assert seconds < 5.0
    _report(1, "stationary state preserved",
            f"|rho-1| {worst_rho:.1e}, |u| {worst_u:.1e}, {seconds:.2f}s")


def test_criterion_02_mass_conservation(bump_n4):
    result, _ = bump_n4
    mass0 = result.rows[0]["mass"]
    drift = max(abs(row["mass"] - mass0) / mass0 for row in result.rows)
    assert drift <= 1e-12
    _report(2, "mass conserved every step", f"worst drift {drift:.1e}")


def test_criterion_03_energy_inequality(bump_n4):
    result, seconds = bump_n4
    e0 = result.rows[0]["kinetic"] + result.rows[0]["internal"]
    cum = 0.0
    worst = -np.inf
    for row in result.rows[1:]:
        cum += result.dt * (row["grad_diss"] + row["D2"] + row["D5"])
        total = row["kinetic"] + row["internal"] + cum
        worst = max(worst, total - e0 * (1.0 + 1e-10))
        assert total <= e0 * (1.0 + 1e-10)
    assert seconds < 300.0
    _report(3, "energy inequality with dissipation ledger",
            f"worst excess {worst:.1e}, {seconds:.1f}s")


def test_criterion_04_positivity_bound(all_runs):
    worst = np.inf
    for name, result in all_runs:
        for prev, new in zip(result.states[:-1], result.states[1:]):
            slack = diagnostics.positivity_slack(prev, new, result.params,
                                                 result.mesh)
            worst = min(worst, slack)
            assert slack >= -1e-12, name
    _report(4, "density lower bound every step", f"worst slack {worst:.1e}")


def test_criterion_05_commuting_identities():
    rng = np.random.default_rng(501)
    fields = [PolynomialField.random(rng) for _ in range(10)]
    worst = 0.0
    for n in (1, 2):
        mesh = build_box_mesh(n)
        for field in fields:
            worst = max(worst, max(commuting_residual(field, mesh).values()))
    assert worst <= 1e-12
    _report(5, "interpolation commutes with div/curl/flux", f"worst {worst:.1e}")


def test_criterion_06_gradient_orthogonality():
    rng = np.random.default_rng(601)
    mesh = build_box_mesh(2)
    pts, w = elem_quad_points(mesh, 2, slice(None))
    worst = 0.0
    for _ in range(10):
        u = apply_bc(rng.standard_normal((mesh.n_faces, 3)), mesh)
        v = PolynomialField.random(rng)
        res = abs(orthogonality_residual(u, v, mesh))
        norm_u = np.sqrt(np.sum(
            mesh.elem_volume * np.sum(broken_gradient(u, mesh) ** 2, axis=(1, 2))))
        J = v.jacobian(pts.reshape(-1, 3)).reshape(pts.shape[0], -1, 3, 3)
        norm_v = np.sqrt(np.einsum("e,q,eqij,eqij->", mesh.elem_volume, w, J, J))
        rel = res / (norm_u * norm_v)
        worst = max(worst, rel)
        assert rel <= 1e-10
    _report(6, "interpolation-error gradients orthogonal", f"worst {worst:.1e}")


def test_criterion_07_interpolation_rates():
    study = diagnostics.interpolation_rate_study(SineField(), (2, 4, 8), *UNIT_BOX)
    assert 1.8 <= study["l2_order"] <= 2.2
    assert 0.8 <= study["h1_order"] <= 1.2
    _report(7, "interpolation rates on smooth field",
            f"L2 order {study['l2_order']:.3f}, H1 order {study['h1_order']:.3f}")


def test_criterion_08_transport_identities(bump_n1, bump_n2):
    rng = np.random.default_rng(801)
    worst = 0.0
    for result, _ in (bump_n1, bump_n2):
        for state in result.states[1:]:
            for n_coeffs in (1, 4, 10):  # constant, linear, quadratic
                phi = ScalarPolynomial(np.concatenate(
                    [rng.uniform(-1, 1, n_coeffs), np.zeros(10 - n_coeffs)]))
                v = PolynomialField(np.concatenate(
                    [rng.uniform(-1, 1, (3, n_coeffs)),
                     np.zeros((3, 10 - n_coeffs))], axis=1))
                res = diagnostics.transport_identity_residuals(state, result.mesh, phi, v)
                worst = max(worst, res["continuity"], res["momentum"])
                assert worst <= 1e-10
    _report(8, "transport summation identities", f"worst {worst:.1e}")


def test_criterion_09_reference_assembly_equivalence():
    rng = np.random.default_rng(901)
    worst_c = worst_m = 0.0
    for n in (1, 2):
        mesh = build_box_mesh(n)
        prev, guess = cli._probe_state(mesh, PARAMS, rng)
        res = scheme.residual(prev, guess, PARAMS, mesh)
        diff_c = np.abs(res.continuity
                        - oracles.continuity_rows_reference(prev, guess, PARAMS, mesh))
        diff_m = np.abs(res.momentum
                        - oracles.momentum_rows_reference(prev, guess, PARAMS, mesh))
        worst_c = max(worst_c, float(diff_c.max()))
        worst_m = max(worst_m, float(diff_m.max()))
    assert worst_c <= 1e-13
    assert worst_m <= 1e-12
    _report(9, "residual matches independent reference assembly",
            f"continuity {worst_c:.1e}, momentum {worst_m:.1e}")


def test_criterion_10_jacobian_probe():
    rng = np.random.default_rng(1001)
    mesh = build_box_mesh(1)
    prev, guess = cli._probe_state(mesh, PARAMS, rng)
    fluxes = np.einsum("fi,fi->f", guess.u[mesh.interior_faces],
                       mesh.face_normal[mesh.interior_faces])
    assert np.all(np.abs(fluxes) >= 0.01)  # away from upwind kinks
    J = scheme.jacobian(prev, guess, PARAMS, mesh).toarray()
    J_fd = oracles.jacobian_fd(prev, guess, PARAMS, mesh)
    rel = float(np.abs(J - J_fd).max() / np.abs(J_fd).max())
    assert rel <= 1e-5
    _report(10, "analytic Jacobian matches finite differences", f"relative {rel:.1e}")


def test_criterion_11_renormalized_inequality(bump_n2, bump_n4):
    worst = np.inf
    for result, _ in (bump_n2, bump_n4):
        for prev, new in zip(result.states[:-1], result.states[1:]):
            _, rhs, margin = diagnostics.renormalized_margin(
                prev, new, result.params, result.mesh)
            bound = -1e-10 * (1.0 + abs(rhs))
            worst = min(worst, margin - bound)
            assert margin >= bound
    _report(11, "renormalized continuity inequality", f"worst margin {worst:.1e}")


def test_criterion_12_solver_robustness(bump_n2, bump_n4, shear_n2, shear_n4):
    worst_iters = 0
    worst_nodes = 0
    for result, _ in (bump_n2, bump_n4, shear_n2, shear_n4):
        for sd in result.diagnostics:
            if sd is None:  # slot for the initial state
                continue
            assert sd.residual_norm <= 1e-9
            assert sd.newton_iters <= 50
            # On default settings the continuation fails at most one node (one
            # halving of d_alpha) and accepts at most four after alpha = 0.
            assert sd.schedule_index <= 1
            assert sd.alpha_nodes_used <= 5
            worst_iters = max(worst_iters, sd.newton_iters)
            worst_nodes = max(worst_nodes, sd.alpha_nodes_used)
    _report(12, "every step converges on default settings",
            f"max iters {worst_iters}, max continuation nodes {worst_nodes}")


def test_criterion_13_cauchy_refinement(cauchy_runs):
    results, seconds = cauchy_runs
    diffs = diagnostics.cauchy_differences(
        [(r.mesh, r.dt, [s.rho for s in r.states]) for r in results], T=0.25)
    assert len(diffs) == 2
    assert diffs[0] > diffs[1] > 0.0
    assert seconds < 1800.0
    _report(13, "space-time Cauchy differences shrink",
            f"{diffs[0]:.3e} > {diffs[1]:.3e}, {seconds:.0f}s")


def test_criterion_14_defect_functional_decay():
    rng = np.random.default_rng(7)
    phi = ScalarPolynomial.random(rng)
    v = PolynomialField.random(rng)
    study = diagnostics.p_decay_study((2, 4, 8), diagnostics.bump_flow_data(*UNIT_BOX),
                                      phi, v, 0.5, PARAMS, *UNIT_BOX)
    ratios = []
    for key in ("P1", "P2", "P3", "P4"):
        vals = [row[key] for row in study["rows"]]
        assert vals[0] > vals[1] > vals[2] > 0.0, key
        ratios.append(vals[1] / vals[0])
        ratios.append(vals[2] / vals[1])
    _report(14, "defect time-integrals decay under refinement",
            f"worst ratio {max(ratios):.2f}")
