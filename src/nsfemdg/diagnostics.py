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
from .fluxes import upwind_momentum, upwind_scalar
from .mesh import Mesh, NDArrayF, build_box_mesh, find_elements, interior_sides
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
    polynomial_values,
    tet_rule,
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
    internal = float(np.sum(vol * scheme.pressure(rho, params) / (params.gamma - 1.0)))
    G = broken_gradient(state.u, mesh)
    grad_diss = float(np.sum(vol * np.sum(G**2, axis=(1, 2))))

    int_f, own, nbr = interior_sides(mesh)
    _, up = scheme.interior_fluxes(state, mesh)
    jump2 = np.sum((np.take(uhat, nbr, axis=0) - np.take(uhat, own, axis=0)) ** 2, axis=1)
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
# with <.> the element mean by the degree-2 rule, which is exact for test
# functions of degree <= 2; this is the same finite quadrature sum regrouped.
# The per-state functions then do O(elements + faces) work, and the face
# fluxes they share are formed once per state by `transport_fluxes`.


@dataclass(frozen=True)
class TransportMoments:
    """State-independent moments of the test functions phi and v on one mesh.

    Element quantities are means (or integrals), face integrals are area
    times face mean, all exact up to rounding for test functions of degree
    <= 2.
    """

    phat: NDArrayF          # (n_elems,) element means of phi
    grad_phi: NDArrayF      # (n_elems, 3) element means of grad phi
    x_grad_phi: NDArrayF    # (n_elems,) element means of x . grad phi
    phi_face: NDArrayF      # (n_faces,) face integrals of phi
    what: NDArrayF          # (n_elems, 3) element averages of interpolate_v(v)
    dv: NDArrayF            # (n_elems, 3, 3) element means of Dv
    dv_x: NDArrayF          # (n_elems, 3) element means of Dv x
    v_face: NDArrayF        # (n_faces, 3) face integrals of v
    interp_defect: NDArrayF  # (n_elems, 3) element integrals of interpolate_v(v) - v


def transport_moments(mesh: Mesh, phi, v) -> TransportMoments:
    """Evaluate phi, grad phi, v and Dv once at the element and face points.

    phi and v have degree <= 2 (`ScalarPolynomial`, `PolynomialField`), so
    every integrand here (phi, v, grad phi, x . grad phi, Dv, Dv x and
    interp v - v) has degree <= 2, and the degree-2 rules integrate it exactly.
    """
    def phi_and_v(p):
        phi_p, v_p = polynomial_values(phi, v, p.reshape(-1, 3))
        return phi_p.reshape(p.shape[:2]), v_p.reshape(p.shape[:2] + (3,))

    phi_fmean, v_fmean = face_means(lambda p, blk: phi_and_v(p), mesh, 2)
    # v_fmean are the face dofs of interpolate_v(v).  Local face l omits vertex
    # l (`mesh._LOCAL_FACES`), so its basis function is 1 - 3 lambda_l.
    basis = 1.0 - 3.0 * tet_rule(2)[0]                       # (nq, 4)

    def element_terms(p, blk):
        grad = at_points(phi.gradient, p)
        J = at_points(v.jacobian, p)
        phi_p, v_p = phi_and_v(p)
        defect = basis @ v_fmean[mesh.elem_faces[blk]]      # interpolate_v(v) at p
        defect -= v_p
        return (phi_p, defect, grad, np.einsum("eqi,eqi->eq", p, grad),
                J, (J @ p[..., None])[..., 0])

    phat, defect_mean, grad_phi, x_grad_phi, dv, dv_x = element_means(element_terms, mesh, 2)

    return TransportMoments(
        phat=phat,
        grad_phi=grad_phi,
        x_grad_phi=x_grad_phi,
        phi_face=mesh.face_area * phi_fmean,
        what=element_average(v_fmean, mesh),
        dv=dv,
        dv_x=dv_x,
        v_face=mesh.face_area[:, None] * v_fmean,
        interp_defect=mesh.elem_volume[:, None] * defect_mean,
    )


@dataclass(frozen=True)
class TransportFluxes:
    """The face fluxes of one state that both transport identities read."""

    w: NDArrayF      # (n_elems, 3) and
    s: NDArrayF      # (n_elems,): the flux reconstruction w + s x per element
    flux: NDArrayF   # (n_interior,) normal velocity flux
    up: NDArrayF     # (n_interior,) upwind mass flux


def transport_fluxes(state, mesh: Mesh) -> TransportFluxes:
    """One pass over the faces of `state`, shared by both identities: one
    normal flux feeds the reconstruction and `scheme.interior_fluxes`' upwind flux."""
    flux = normal_flux(state.u, mesh)
    w, s = flux_reconstruction(flux, mesh)
    int_f, own, nbr = interior_sides(mesh)
    flux = flux[int_f]
    return TransportFluxes(w, s, flux, upwind_scalar(state.rho[own], state.rho[nbr], flux))


def continuity_transport(state, mesh: Mesh, moments: TransportMoments,
                         fluxes: TransportFluxes):
    """Returns (lhs, volume_term, p1) of the continuity transport identity."""
    rho = state.rho
    volume = float(np.sum(
        rho * mesh.elem_volume
        * (np.einsum("ei,ei->e", fluxes.w, moments.grad_phi) + fluxes.s * moments.x_grad_phi)
    ))

    int_f, own, nbr = interior_sides(mesh)
    area = mesh.face_area[int_f]
    flux, up = fluxes.flux, fluxes.up

    phat = moments.phat
    lhs = float(np.sum(area * up * (phat[nbr] - phat[own])))

    phi_int = moments.phi_face[int_f]
    p1 = float(
        np.sum((rho[own] - rho[nbr]) * np.minimum(flux, 0.0) * (area * phat[own] - phi_int))
        + np.sum((rho[nbr] - rho[own]) * np.minimum(-flux, 0.0) * (area * phat[nbr] - phi_int))
    )
    return lhs, volume, p1


def momentum_transport(state, mesh: Mesh, moments: TransportMoments,
                       fluxes: TransportFluxes):
    """Returns (lhs, volume_term, p2, p3, p4) of the momentum transport identity.

    p4's factor, the element integral of interpolate_v(v) - v, is one
    quadrature mean, which the weights scale: degree-2 tet weights scaled by
    1 + 2e-14 moved p4 by 2.0e-14 relative at n=8 and 2.2e-14 at n=16 (pdecay's
    injected state), by 0 at 1 + 2**-52.  rtol = 1e-13 compares it, as p1-p3.
    """
    rho = state.rho
    vol = mesh.elem_volume
    uhat = element_average(state.u, mesh)
    what = moments.what
    # The element terms come first, and each (n_interior, 3) array of the
    # face terms is dropped once it has been used, so few are alive at once.
    # 3 s, the reconstruction's divergence, is the broken divergence.
    p4 = float(-np.sum(rho * 3.0 * fluxes.s * np.einsum("ei,ei->e", uhat, moments.interp_defect)))

    dv_ut = np.einsum("eij,ej->ei", moments.dv, fluxes.w) + fluxes.s[:, None] * moments.dv_x
    volume = float(np.sum(rho * vol * np.einsum("ei,ei->e", uhat, dv_ut)))
    del dv_ut

    int_f, own, nbr = interior_sides(mesh)
    area = mesh.face_area[int_f]
    flux, up = fluxes.flux, fluxes.up
    uhat_own, uhat_nbr = uhat[own], uhat[nbr]
    del uhat
    upm = upwind_momentum(up, uhat_own, uhat_nbr)
    dwhat = what[nbr]
    dwhat -= what[own]
    lhs = float(np.sum(area * np.einsum("ij,ij->i", upm, dwhat)))
    del upm, dwhat

    # p2 and p3 side by side, each face term dotted with int_f (what_E - v).
    v_int = moments.v_face[int_f]
    jump = uhat_own - uhat_nbr
    defect = what[own]
    defect *= area[:, None]
    defect -= v_int
    p2_own = np.einsum("ij,ij->i", uhat_own, defect)
    p3_own = np.einsum("ij,ij->i", jump, defect)
    del uhat_own, defect
    defect = what[nbr]
    defect *= area[:, None]
    defect -= v_int
    del v_int
    p2_nbr = np.einsum("ij,ij->i", uhat_nbr, defect)
    p3_nbr = np.einsum("ij,ij->i", np.negative(jump, out=jump), defect)
    del uhat_nbr, jump, defect

    p2 = float(
        np.sum((rho[own] - rho[nbr]) * np.minimum(flux, 0.0) * p2_own)
        + np.sum((rho[nbr] - rho[own]) * np.minimum(-flux, 0.0) * p2_nbr)
    )
    p3 = float(
        np.sum(np.minimum(up, 0.0) * p3_own) + np.sum(np.minimum(-up, 0.0) * p3_nbr)
    )
    return lhs, volume, p2, p3, p4


def transport_identity_residuals(state, mesh: Mesh, phi, v) -> dict:
    """Relative defects |LHS - RHS| / (1 + |LHS|) of both transport identities."""
    moments = transport_moments(mesh, phi, v)
    fluxes = transport_fluxes(state, mesh)
    lhs_c, vol_c, p1 = continuity_transport(state, mesh, moments, fluxes)
    lhs_m, vol_m, p2, p3, p4 = momentum_transport(state, mesh, moments, fluxes)
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
        fluxes = transport_fluxes(state, mesh)
        _, _, p1 = continuity_transport(state, mesh, moments, fluxes)
        _, _, p2, p3, p4 = momentum_transport(state, mesh, moments, fluxes)
        for key, val in zip(totals, (p1, p2, p3, p4)):
            totals[key] += dt * abs(val)
    return totals


def bump_flow_data(box_lo, box_hi):
    """Smooth time-dependent fields for defect-decay measurements.

    The density is `scheme.bump_data`'s bump with its center drifting across
    the box (the drift breaks every mesh symmetry, so the signed defect sums
    cannot cancel); the velocity is a polynomial bubble profile with asymmetric
    modulation, vanishing on the boundary and monotone across each half of
    the box so that even the coarsest mesh resolves its variation.  Returns a
    callable ``data(t) -> (rho_fn, u_fn)``.
    """
    lo = np.asarray(box_lo, dtype=float)
    hi = np.asarray(box_hi, dtype=float)
    ctr0 = 0.5 * (lo + hi)
    dr = np.array([0.2, 0.1, 0.05])
    span = hi - lo

    def data(t: float):
        rho_fn, _ = scheme.bump_data(1.0, 0.4, 0.35, ctr0 + t * dr)

        def u_fn(p):
            # One contiguous row per coordinate: the bits of the same
            # operations on (n, 3) arrays, written to a C-ordered (n, 3) array,
            # whose layout the quadrature sums see.
            x = np.subtract(np.atleast_2d(p).T, lo[:, None], order="C")
            x /= span[:, None]
            g = 1.0 - x
            g *= x
            g3 = g[0] * g[1]
            g3 *= g[2]
            out = np.empty(x.shape[::-1])
            np.multiply(g3, 1.0 + 0.4 * x[0] - 0.2 * x[1], out=out[:, 0])
            np.multiply(g3, 0.7 - 0.3 * x[2], out=out[:, 1])
            np.multiply(g3, 0.5 + 0.2 * x[1], out=out[:, 2])
            out *= 32.0 * (1.0 + 0.3 * np.sin(2.0 * t))
            return out

        return rho_fn, u_fn

    return data


def injected_states(samples, mesh: Mesh, degree: int):
    """The states k = 1, 2, ... of the (rho_fn, u_fn) `samples`: element means
    of each density and no-slip face means of each velocity, at `degree`.
    Every sample is injected in one pass over the points, and each state's
    velocity copy is made as the state is taken."""
    rhos = element_means(lambda p, blk: [at_points(rho_fn, p) for rho_fn, _ in samples],
                         mesh, degree)
    us = face_means(lambda p, blk: [at_points(u_fn, p) for _, u_fn in samples], mesh, degree)
    return (scheme.State(rho=rho, u=apply_bc(u, mesh), k=k)
            for k, (rho, u) in enumerate(zip(rhos, us), start=1))


def p_decay_study(ns, data, phi, v, T: float, params, box_lo, box_hi) -> dict:
    """Defect time-integrals of injected smooth data over a mesh family.

    For each mesh the data is sampled on the scheme's own time grid
    (dt = c h, values on ((k-1) dt, k dt]), injected into the discrete spaces,
    and the four defect functionals are accumulated as sum_k dt |P_i|.
    Returns per-mesh rows plus the log2 decay rates between consecutive
    refinements.
    """
    degree = 4   # quadrature degree of the injected data; the moments are exact at 2
    rows = []
    for n in ns:
        mesh = build_box_mesh(n, box_lo, box_hi)
        moments = transport_moments(mesh, phi, v)
        dt = params.dt(mesh)
        steps = scheme.step_count(T, dt)
        states = injected_states([data(k * dt) for k in range(1, steps + 1)], mesh, degree)
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


def interpolation_rate_study(field, ns, box_lo, box_hi) -> dict:
    """Interpolation errors over a mesh family and least-squares orders."""
    hs, l2, h1 = [], [], []
    for n in ns:
        mesh = build_box_mesh(n, box_lo, box_hi)
        e2, e1 = interpolation_errors(field, mesh, degree=6)
        hs.append(mesh.h)
        l2.append(e2)
        h1.append(e1)

    def order(errs):
        if min(errs) == 0.0:   # on a small enough box the errors underflow: no order
            return float("nan")
        return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])

    return {"h": hs, "l2": l2, "h1": h1, "l2_order": order(l2), "h1_order": order(h1)}


def cauchy_differences(runs, T: float) -> list[float]:
    """L2 space-time distances between consecutive refinements, each run a
    `(mesh, dt, densities)` with densities[k] that of state k, k = 0 to
    `scheme.step_count(T, dt)`.

    Meshes must be nested (each fine element lies inside one coarse element);
    the coarse density is injected exactly and both piecewise-constant-in-time
    extensions (state k on ((k-1) dt, k dt], as `scheme.step_count` states)
    are integrated over [0, T] on the union of their time grids, less the
    slivers shorter than `scheme.STEP_SLACK` times the larger dt, whose right
    ends `step_count` puts on the level below.
    """
    out = []
    for (mesh_c, dt_c, rho_c), (mesh_f, dt_f, rho_f) in zip(runs[:-1], runs[1:]):
        parent = find_elements(mesh_c, mesh_f.elem_centroid)
        levels = np.concatenate([np.arange(len(rho_c)) * dt_c, np.arange(len(rho_f)) * dt_f])
        cuts = np.append(np.unique(levels[levels < T]), T)
        sliver = scheme.STEP_SLACK * max(dt_c, dt_f)
        total = 0.0
        vol_f = mesh_f.elem_volume
        for a, b in zip(cuts[:-1], cuts[1:]):
            if b - a < sliver:
                continue
            diff = rho_c[scheme.step_count(b, dt_c)][parent] - rho_f[scheme.step_count(b, dt_f)]
            total += (b - a) * float(np.sum(vol_f * diff**2))
        out.append(float(np.sqrt(total)))
    return out
