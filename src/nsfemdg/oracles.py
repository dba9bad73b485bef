"""Independent reference assembly for cross-checking the vectorized residual.

Everything here is deliberately written the slow way: connectivity is rebuilt
from the tetrahedra with dictionaries, geometry is recomputed from vertex
coordinates, and the residual rows are accumulated element by element in
Python loops.  Only the pointwise flux kernels are shared with the production
path.  Agreement with `scheme.residual` at alpha = 1 is therefore a real
consistency check, not a tautology.
"""
from __future__ import annotations

import numpy as np

from . import scheme
from .fluxes import stab_continuity, upwind_momentum, upwind_scalar
from .mesh import _LOCAL_FACES, Mesh


def _face_key(tet, local: int):
    return tuple(sorted(tet[list(_LOCAL_FACES[local])]))


def _adjacency(mesh: Mesh) -> dict:
    """face key -> list of elements sharing it, rebuilt from the tets."""
    adj: dict[tuple, list[int]] = {}
    for e, tet in enumerate(np.asarray(mesh.tets)):
        for local in range(4):
            adj.setdefault(_face_key(tet, local), []).append(e)
    return adj


def _face_ids(mesh: Mesh) -> dict:
    return {tuple(fv): i for i, fv in enumerate(np.asarray(mesh.face_vertices))}


def _tet_volume(v) -> float:
    return abs(np.linalg.det(np.asarray(v[1:]) - np.asarray(v[0]))) / 6.0


def _face_geometry(vertices, key, elem_centroid):
    """(area, outward unit normal, centroid) of the face seen from one element."""
    a, b, c = (vertices[k] for k in key)
    cross = np.cross(b - a, c - a)
    area = 0.5 * float(np.linalg.norm(cross))
    normal = cross / np.linalg.norm(cross)
    centroid = (a + b + c) / 3.0
    if np.dot(normal, centroid - elem_centroid) < 0.0:
        normal = -normal
    return area, normal, centroid


def continuity_rows_reference(prev, guess, params, mesh: Mesh) -> np.ndarray:
    """Continuity residual rows of the full scheme, one float per element."""
    vertices = np.asarray(mesh.vertices)
    tets = np.asarray(mesh.tets)
    adj = _adjacency(mesh)
    fid = _face_ids(mesh)
    dt = params.dt(mesh)
    hp = params.h_power(mesh)
    rho = guess.rho
    rho_prev = prev.rho

    rows = np.zeros(len(tets))
    for e, tet in enumerate(tets):
        verts = vertices[tet]
        vol = _tet_volume(verts)
        centroid = verts.mean(axis=0)
        acc = 0.0
        for local in range(4):
            key = _face_key(tet, local)
            sharing = adj[key]
            if len(sharing) == 1:
                continue  # no-slip wall: no flux, no interface stabilization
            other = sharing[0] if sharing[1] == e else sharing[1]
            area, normal, _ = _face_geometry(vertices, key, centroid)
            f_out = float(np.dot(guess.u[fid[key]], normal))
            acc += area * upwind_scalar(rho[e], rho[other], f_out)
            acc -= stab_continuity(rho[other] - rho[e], hp, area)
        rows[e] = vol * (rho[e] - rho_prev[e]) / dt + acc
    return rows


def momentum_rows_reference(prev, guess, params, mesh: Mesh) -> np.ndarray:
    """Momentum residual rows of the full scheme, (n_interior_faces, 3).

    Rows follow the interior faces in face-index order, matching the
    production unknown packing.
    """
    vertices = np.asarray(mesh.vertices)
    tets = np.asarray(mesh.tets)
    adj = _adjacency(mesh)
    fid = _face_ids(mesh)
    dt = params.dt(mesh)
    hp = params.h_power(mesh)
    rho = guess.rho
    rho_prev = prev.rho

    acc = np.zeros((mesh.n_faces, 3))
    uhat = np.zeros((len(tets), 3))
    centroids = np.zeros((len(tets), 3))
    for e, tet in enumerate(tets):
        verts = vertices[tet]
        vol = _tet_volume(verts)
        centroid = verts.mean(axis=0)
        centroids[e] = centroid

        keys = [_face_key(tet, local) for local in range(4)]
        gids = [fid[k] for k in keys]
        vand = np.array([
            [*np.mean(vertices[list(k)], axis=0), 1.0] for k in keys
        ])
        dofs = guess.u[gids]                    # (4, 3)
        uhat[e] = dofs.mean(axis=0)
        uhat_prev = prev.u[gids].mean(axis=0)

        grads = [np.linalg.solve(vand, np.eye(4)[l])[:3] for l in range(4)]
        G = np.array([np.linalg.solve(vand, dofs[:, c])[:3] for c in range(3)])

        time_val = (vol / (4.0 * dt)) * (rho[e] * uhat[e] - rho_prev[e] * uhat_prev)
        p = params.a * rho[e] ** params.gamma
        for local, g in enumerate(gids):
            acc[g] += time_val
            acc[g] += vol * (G @ grads[local])
            acc[g] -= p * vol * grads[local]

    for key, sharing in adj.items():
        if len(sharing) == 1:
            continue
        e_lo, e_hi = min(sharing), max(sharing)
        area, normal, _ = _face_geometry(vertices, key, centroids[e_lo])
        f = float(np.dot(guess.u[fid[key]], normal))
        upm = upwind_momentum(upwind_scalar(rho[e_lo], rho[e_hi], f), uhat[e_lo], uhat[e_hi])
        stab = (stab_continuity(rho[e_hi] - rho[e_lo], hp, area)
                * 0.5 * (uhat[e_lo] + uhat[e_hi]))
        lo_gids = [fid[_face_key(tets[e_lo], l)] for l in range(4)]
        hi_gids = [fid[_face_key(tets[e_hi], l)] for l in range(4)]
        for g in lo_gids:
            acc[g] += 0.25 * area * upm
            acc[g] -= 0.25 * stab
        for g in hi_gids:
            acc[g] -= 0.25 * area * upm
            acc[g] += 0.25 * stab

    return acc[mesh.interior_faces]


def jacobian_fd(prev, guess, params, mesh: Mesh, alpha: float = 1.0) -> np.ndarray:
    """Dense central-difference Jacobian of the packed residual."""
    x0 = scheme.pack(guess, mesh)
    n = x0.size
    J = np.zeros((n, n))
    for j in range(n):
        eps = 1e-6 * max(1.0, abs(x0[j]))
        xp, xm = x0.copy(), x0.copy()
        xp[j] += eps
        xm[j] -= eps
        rp = scheme.residual(prev, scheme.unpack(xp, mesh, guess.k),
                             params, mesh, alpha).ravel()
        rm = scheme.residual(prev, scheme.unpack(xm, mesh, guess.k),
                             params, mesh, alpha).ravel()
        J[:, j] = (rp - rm) / (2.0 * eps)
    return J
