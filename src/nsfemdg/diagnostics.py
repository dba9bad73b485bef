"""Structure-property diagnostics for computed states.

Everything here evaluates, at desk scale, quantities the scheme provably
controls: total mass, the energy ledger with its numerical dissipation
terms, the elementwise positivity bound, a weakened renormalized continuity
inequality, and two transport summation identities whose defect terms must
vanish under refinement.  The checks are written against arbitrary states;
converged states satisfy the inequalities up to solver tolerance, while the
transport identities are algebraic and hold for any admissible state.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import scheme
from .fluxes import upwind_momentum
from .mesh import Mesh, NDArrayF, build_box_mesh, find_elements
from .spaces import (
    apply_bc,
    at_points,
    broken_divergence,
    broken_gradient,
    element_average,
    element_means,
    face_means,
    flux_reconstruction,
    interpolation_errors,
    normal_flux,
)


@dataclass(frozen=True)
class EnergyLedger:
    """Energy bookkeeping of one state (d5 needs the previous one).

    kinetic and internal make up the total energy; grad_diss is the squared
    broken H1 seminorm of the velocity; d2 is the upwind interface
    dissipation sum_faces |f| |Up| |[uhat]|^2 / 2 and d5 the time-discretization
    dissipation sum_E |E| rho_prev |uhat - uhat_prev|^2 / (2 dt).
    """

    mass: float
    kinetic: float
    internal: float
    grad_diss: float
    d2: float
    d5: float
    min_rho: float

    @property
    def total(self) -> float:
        return self.kinetic + self.internal


def energy_ledger(state, params, mesh: Mesh, prev=None) -> EnergyLedger:
    rho = state.rho
    vol = mesh.elem_volume
    uhat = element_average(state.u, mesh)

    mass = float(np.sum(vol * rho))
    kinetic = float(0.5 * np.sum(vol * rho * np.sum(uhat**2, axis=1)))
    internal = float(np.sum(vol * params.a * rho**params.gamma / (params.gamma - 1.0)))
    G = broken_gradient(state.u, mesh)
    grad_diss = float(np.sum(vol * np.sum(G**2, axis=(1, 2))))

    int_f, own, nbr = scheme._interior(mesh)
    _, up = scheme.interior_fluxes(state, mesh)
    jump2 = np.sum((uhat[nbr] - uhat[own]) ** 2, axis=1)
    d2 = float(0.5 * np.sum(mesh.face_area[int_f] * np.abs(up) * jump2))

    d5 = 0.0
    if prev is not None:
        dt = params.dt(mesh)
        duhat2 = np.sum((uhat - element_average(prev.u, mesh)) ** 2, axis=1)
        d5 = float(np.sum(vol * prev.rho * duhat2) / (2.0 * dt))

    return EnergyLedger(mass=mass, kinetic=kinetic, internal=internal,
                        grad_diss=grad_diss, d2=d2, d5=d5,
                        min_rho=float(rho.min()))


def positivity_slack(prev, new, params, mesh: Mesh) -> float:
    """min rho_new minus the proven lower bound min rho_prev / (1 + dt |div|_inf)."""
    dt = params.dt(mesh)
    div_inf = float(np.abs(broken_divergence(new.u, mesh)).max())
    bound = prev.rho.min() / (1.0 + dt * div_inf)
    return float(new.rho.min() - bound)


def renormalized_margin(prev, new, params, mesh: Mesh) -> tuple[float, float, float]:
    """Weakened renormalized continuity check with B(z) = z^2 / 2.

    Returns (lhs, rhs, rhs - lhs) for
    sum_E |E| (rho^2 - rho_prev^2) / (2 dt)  <=  - sum_E |E| (rho^2 / 2) div u;
    the dropped terms are all nonnegative, so converged states satisfy this
    up to solver tolerance.
    """
    dt = params.dt(mesh)
    vol = mesh.elem_volume
    rho, rho_prev = new.rho, prev.rho
    lhs = float(np.sum(vol * (rho**2 - rho_prev**2)) / (2.0 * dt))
    rhs = float(-np.sum(vol * 0.5 * rho**2 * broken_divergence(new.u, mesh)))
    return lhs, rhs, rhs - lhs


def csv_row(step, t, ledger: EnergyLedger, energy_margin, positivity_slack_val,
            newton_iters, alpha_nodes) -> dict:
    """One row of diagnostics.csv; its keys, in order, are the file's columns."""
    return {
        "step": int(step),
        "t": float(t),
        "mass": ledger.mass,
        "kinetic": ledger.kinetic,
        "internal": ledger.internal,
        "grad_diss": ledger.grad_diss,
        "D2": ledger.d2,
        "D5": ledger.d5,
        "min_rho": ledger.min_rho,
        "energy_margin": float(energy_margin),
        "positivity_slack": float(positivity_slack_val),
        "newton_iters": int(newton_iters),
        "alpha_nodes_used": int(alpha_nodes),
    }


# ---------------------------------------------------------------------------
# Transport summation identities.
#
# With rho elementwise constant, uhat the elementwise mean velocity, utilde
# the div-conforming reconstruction of the face fluxes and phat / what the
# elementwise means of the test data, the upwind face sums satisfy, for any
# admissible state and smooth phi, v:
#
#   sum_faces |f| Up (phat_+ - phat_-)      = int rho utilde . grad phi + P1
#   sum_faces |f| UpM . (what_+ - what_-)   = int rho (uhat x utilde) : grad v
#                                             + P2 + P3 + P4
#
# The P terms collect, elementwise over outward faces, the defect between a
# test function and its elementwise or facewise mean; they are the parts that
# vanish under refinement.  P4 carries a minus sign relative to how the
# others read: the volume correction enters as
# -(sum_E rho div u uhat . int_E (interp v - v)), which the identity check
# below verifies numerically.
#
# Everything the test functions contribute depends on the mesh alone, so it
# is evaluated once per mesh by `transport_moments`.  On each element
# utilde = w + s x, so the volume integrals reduce to element moments of the
# test functions,
#
#   int_E utilde . grad phi       = |E| (w . <grad phi> + s <x . grad phi>),
#   int_E uhat . Dv utilde        = |E| uhat . (<Dv> w + s <Dv x>),
#
# with <.> the element quadrature mean; this is the same finite quadrature
# sum regrouped.  The per-state functions then do O(elements + faces) work.


@dataclass(frozen=True)
class TransportMoments:
    """State-independent moments of the test functions phi and v on one mesh.

    Element quantities are quadrature means (or integrals) at the degree the
    moments were built with; face integrals are area times face mean.
    """

    phat: NDArrayF          # (n_elems,) element means of phi
    grad_phi: NDArrayF      # (n_elems, 3) element means of grad phi
    x_grad_phi: NDArrayF    # (n_elems,) element means of x . grad phi
    phi_face: NDArrayF      # (n_faces,) face integrals of phi
    what: NDArrayF          # (n_elems, 3) element averages of interpolate_v(v)
    dv: NDArrayF            # (n_elems, 3, 3) element means of Dv
    dv_x: NDArrayF          # (n_elems, 3) element means of Dv x
    v_face: NDArrayF        # (n_faces, 3) face integrals of v
    v_elem: NDArrayF        # (n_elems, 3) element integrals of v


def transport_moments(mesh: Mesh, phi, v, degree: int = 2) -> TransportMoments:
    """Evaluate phi, grad phi, v and Dv once at the element and face points."""

    def element_terms(p, blk):
        grad = at_points(phi.gradient, p)
        J = at_points(v.jacobian, p)
        return (at_points(phi, p), at_points(v, p), grad, np.einsum("eqi,eqi->eq", p, grad),
                J, (J @ p[..., None])[..., 0])

    phat, v_mean, grad_phi, x_grad_phi, dv, dv_x = element_means(element_terms, mesh, degree)
    phi_fmean, v_fmean = face_means(lambda p, blk: (at_points(phi, p), at_points(v, p)),
                                    mesh, degree)

    return TransportMoments(
        phat=phat,
        grad_phi=grad_phi,
        x_grad_phi=x_grad_phi,
        phi_face=mesh.face_area * phi_fmean,
        # v_fmean are the face dofs of interpolate_v(v).
        what=v_fmean[mesh.elem_faces].mean(axis=1),
        dv=dv,
        dv_x=dv_x,
        v_face=mesh.face_area[:, None] * v_fmean,
        v_elem=mesh.elem_volume[:, None] * v_mean,
    )


def continuity_transport(state, mesh: Mesh, moments: TransportMoments):
    """Returns (lhs, volume_term, p1) of the continuity transport identity."""
    rho = state.rho
    int_f, own, nbr = scheme._interior(mesh)
    area = mesh.face_area[int_f]
    flux, up = scheme.interior_fluxes(state, mesh)

    phat = moments.phat
    lhs = float(np.sum(area * up * (phat[nbr] - phat[own])))

    w, s = flux_reconstruction(normal_flux(state.u, mesh), mesh)
    volume = float(np.sum(
        rho * mesh.elem_volume
        * (np.einsum("ei,ei->e", w, moments.grad_phi) + s * moments.x_grad_phi)
    ))

    phi_int = moments.phi_face[int_f]
    p1 = float(
        np.sum((rho[own] - rho[nbr]) * np.minimum(flux, 0.0) * (area * phat[own] - phi_int))
        + np.sum((rho[nbr] - rho[own]) * np.minimum(-flux, 0.0) * (area * phat[nbr] - phi_int))
    )
    return lhs, volume, p1


def momentum_transport(state, mesh: Mesh, moments: TransportMoments):
    """Returns (lhs, volume_term, p2, p3, p4) of the momentum transport identity.

    p4 is decided by rounding at n >= 8: its factor vol*what - v_elem is the
    element integral of v's CR interpolant minus that of v, two quadrature
    sums that agree to O(h^2) relative and cancel.  Quadrature-weight changes
    of 2e-14 relative moved p4 by 1.3e-12 relative at n=8 and 1.1e-11 at
    n=16, so comparisons of p4 across versions need rtol >= 1e-10.
    """
    rho = state.rho
    vol = mesh.elem_volume
    int_f, own, nbr = scheme._interior(mesh)
    area = mesh.face_area[int_f]
    flux, up = scheme.interior_fluxes(state, mesh)
    uhat = element_average(state.u, mesh)
    upm = upwind_momentum(up, uhat[own], uhat[nbr])

    what = moments.what
    lhs = float(np.sum(area * np.einsum("ij,ij->i", upm, what[nbr] - what[own])))

    w, s = flux_reconstruction(normal_flux(state.u, mesh), mesh)
    dv_ut = np.einsum("eij,ej->ei", moments.dv, w) + s[:, None] * moments.dv_x
    volume = float(np.sum(rho * vol * np.einsum("ei,ei->e", uhat, dv_ut)))

    v_int = moments.v_face[int_f]
    defect_own = area[:, None] * what[own] - v_int      # int_f (what_E - v)
    defect_nbr = area[:, None] * what[nbr] - v_int

    p2 = float(
        np.sum((rho[own] - rho[nbr]) * np.minimum(flux, 0.0)
               * np.einsum("ij,ij->i", uhat[own], defect_own))
        + np.sum((rho[nbr] - rho[own]) * np.minimum(-flux, 0.0)
                 * np.einsum("ij,ij->i", uhat[nbr], defect_nbr))
    )
    jump = uhat[own] - uhat[nbr]
    p3 = float(
        np.sum(np.minimum(up, 0.0) * np.einsum("ij,ij->i", jump, defect_own))
        + np.sum(np.minimum(-up, 0.0) * np.einsum("ij,ij->i", -jump, defect_nbr))
    )

    div = broken_divergence(state.u, mesh)
    p4 = float(
        -np.sum(rho * div * np.einsum("ei,ei->e", uhat, vol[:, None] * what - moments.v_elem))
    )
    return lhs, volume, p2, p3, p4


def transport_identity_residuals(state, mesh: Mesh, phi, v, degree: int = 2) -> dict:
    """Relative defects |LHS - RHS| / (1 + |LHS|) of both transport identities."""
    moments = transport_moments(mesh, phi, v, degree)
    lhs_c, vol_c, p1 = continuity_transport(state, mesh, moments)
    lhs_m, vol_m, p2, p3, p4 = momentum_transport(state, mesh, moments)
    return {
        "continuity": abs(lhs_c - (vol_c + p1)) / (1.0 + abs(lhs_c)),
        "momentum": abs(lhs_m - (vol_m + p2 + p3 + p4)) / (1.0 + abs(lhs_m)),
    }


def _defect_integrals(states, mesh: Mesh, moments: TransportMoments,
                      dt: float) -> dict[str, float]:
    """sum_k dt |P_i| over `states`, one state at a time, for the four defect
    terms P1-P4."""
    totals = {"P1": 0.0, "P2": 0.0, "P3": 0.0, "P4": 0.0}
    for state in states:
        _, _, p1 = continuity_transport(state, mesh, moments)
        _, _, p2, p3, p4 = momentum_transport(state, mesh, moments)
        for key, val in zip(totals, (p1, p2, p3, p4)):
            totals[key] += dt * abs(val)
    return totals


def bump_flow_data(rho_bar: float = 1.0, amp: float = 0.4, sigma: float = 0.35,
                   drift=(0.2, 0.1, 0.05), box_lo=(0, 0, 0), box_hi=(1, 1, 1)):
    """Smooth time-dependent fields for defect-decay measurements.

    The density is a Gaussian bump whose center drifts across the box (the
    drift breaks every mesh symmetry, so the signed defect sums cannot
    cancel); the velocity is a polynomial bubble profile with asymmetric
    modulation, vanishing on the boundary and monotone across each half of
    the box so that even the coarsest mesh resolves its variation.  Returns a
    callable ``data(t) -> (rho_fn, u_fn)``.
    """
    lo = np.asarray(box_lo, dtype=float)
    hi = np.asarray(box_hi, dtype=float)
    ctr0 = 0.5 * (lo + hi)
    dr = np.asarray(drift, dtype=float)
    span = hi - lo

    def data(t: float):
        ctr = ctr0 + t * dr

        def rho_fn(p):
            p = np.atleast_2d(p)
            r2 = np.sum((p - ctr) ** 2, axis=1)
            return rho_bar + amp * np.exp(-r2 / sigma**2)

        def u_fn(p):
            p = np.atleast_2d(p)
            x = (p - lo) / span
            g = x * (1.0 - x)
            g3 = g[:, 0] * g[:, 1] * g[:, 2]
            mod = 32.0 * (1.0 + 0.3 * np.sin(2.0 * t))
            return mod * np.stack(
                [
                    g3 * (1.0 + 0.4 * x[:, 0] - 0.2 * x[:, 1]),
                    g3 * (0.7 - 0.3 * x[:, 2]),
                    g3 * (0.5 + 0.2 * x[:, 1]),
                ],
                axis=1,
            )

        return rho_fn, u_fn

    return data


def p_decay_study(ns, data, phi, v, T: float = 0.5, params=None,
                  box_lo=(0, 0, 0), box_hi=(1, 1, 1), degree: int = 4) -> dict:
    """Defect time-integrals of injected smooth data over a mesh family.

    For each mesh the data is sampled on the scheme's own time grid
    (dt = c h, values on ((k-1) dt, k dt]), injected into the discrete spaces,
    and the four defect functionals are accumulated as sum_k dt |P_i|.
    Returns per-mesh rows plus the log2 decay rates between consecutive
    refinements.
    """
    if params is None:
        params = scheme.SchemeParams()
    rows = []
    for n in ns:
        mesh = build_box_mesh(n, box_lo, box_hi)
        moments = transport_moments(mesh, phi, v, degree)
        dt = params.dt(mesh)
        steps = scheme.step_count(T, dt)
        # Every sample of the data is injected in one pass over the points.
        samples = [data(k * dt) for k in range(1, steps + 1)]
        rhos = element_means(lambda p, blk: [at_points(rho_fn, p) for rho_fn, _ in samples],
                             mesh, degree)
        us = face_means(lambda p, blk: [at_points(u_fn, p) for _, u_fn in samples],
                        mesh, degree)
        states = (scheme.State(rho=rho, u=apply_bc(u, mesh), k=k, t=k * dt)
                  for k, (rho, u) in enumerate(zip(rhos, us), start=1))
        totals = _defect_integrals(states, mesh, moments, dt)
        rows.append({"n": n, "h": mesh.h, **totals})
    rates = {
        key: [
            float(np.log2(a[key] / b[key])) if b[key] > 0 else float("nan")
            for a, b in zip(rows[:-1], rows[1:])
        ]
        for key in ("P1", "P2", "P3", "P4")
    }
    return {"rows": rows, "rates": rates}


# ---------------------------------------------------------------------------
# Refinement studies.


def interpolation_rate_study(field, ns, box_lo=(0, 0, 0), box_hi=(1, 1, 1), degree: int = 6) -> dict:
    """Interpolation errors over a mesh family and least-squares orders."""
    hs, l2, h1 = [], [], []
    for n in ns:
        mesh = build_box_mesh(n, box_lo, box_hi)
        e2, e1 = interpolation_errors(field, mesh, degree=degree)
        hs.append(mesh.h)
        l2.append(e2)
        h1.append(e1)

    def order(errs):
        return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])

    return {"h": hs, "l2": l2, "h1": h1, "l2_order": order(l2), "h1_order": order(h1)}


def cauchy_differences(results, T: float) -> list[float]:
    """L2 space-time distances between consecutive refinements.

    Meshes must be nested (each fine element lies inside one coarse element);
    the coarse density is injected exactly and both piecewise-constant-in-time
    extensions (state k on ((k-1) dt, k dt], as `scheme.step_count` states)
    are integrated over [0, T] on the union of their time grids.
    """
    out = []
    for coarse, fine in zip(results[:-1], results[1:]):
        parent = find_elements(coarse.mesh, fine.mesh.elem_centroid)
        cuts = np.unique(np.concatenate([
            np.arange(len(coarse.states)) * coarse.dt,
            np.arange(len(fine.states)) * fine.dt,
            [0.0, T],
        ]))
        cuts = cuts[(cuts >= 0.0) & (cuts <= T + 1e-12)]
        total = 0.0
        vol_f = fine.mesh.elem_volume
        for a, b in zip(cuts[:-1], cuts[1:]):
            if b - a <= 1e-14:
                continue
            kc = min(scheme.step_count(b, coarse.dt), len(coarse.states) - 1)
            kf = min(scheme.step_count(b, fine.dt), len(fine.states) - 1)
            diff = coarse.states[kc].rho[parent] - fine.states[kf].rho
            total += (b - a) * float(np.sum(vol_f * diff**2))
        out.append(float(np.sqrt(total)))
    return out
