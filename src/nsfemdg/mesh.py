"""Structured tetrahedral meshes of box domains.

A box is split into n^3 cubes and every cube into the six tetrahedra that
share the cube's main diagonal, giving 6*n^3 positively oriented elements.
The subdivision is nested under n -> 2n refinement, which the Cauchy
convergence study relies on.

Face orientation convention: every face stores one unit normal.  For an
interior face the normal points from the adjacent element with the lower
index (the owner) to the one with the higher index; for a boundary face it
points out of the domain.  `elem_face_sign` records +1 where the stored
normal is outward for that element and -1 where it is inward, so outward
quantities are always `sign * stored`.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np
import numpy.typing as npt

NDArrayF = npt.NDArray[np.floating]
NDArrayI = npt.NDArray[np.integer]

# Local faces of a tet, opposite vertices 0..3.
_LOCAL_FACES = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))
# Face keys pack three vertex ids into one int64, so nv**3 must stay below
# 2**63: a box up to n = 126.
MAX_VERTS = 2**21


@dataclass(eq=False)
class Mesh:
    """Conforming tetrahedral mesh with oriented faces.

    All connectivity is index-based; arrays are immutable by convention.
    `face_neighbor` is -1 on boundary faces.
    """

    vertices: NDArrayF          # (n_verts, 3)
    tets: NDArrayI              # (n_elems, 4), positively oriented
    face_vertices: NDArrayI     # (n_faces, 3)
    face_owner: NDArrayI        # (n_faces,)  lower adjacent element index
    face_neighbor: NDArrayI     # (n_faces,)  higher adjacent element, -1 on boundary
    elem_faces: NDArrayI        # (n_elems, 4) global face id of local face l
    elem_face_sign: NDArrayF    # (n_elems, 4) +1 if stored normal is outward
    elem_volume: NDArrayF       # (n_elems,)
    elem_centroid: NDArrayF     # (n_elems, 3)
    face_area: NDArrayF         # (n_faces,)
    face_normal: NDArrayF       # (n_faces, 3) unit, oriented owner -> neighbor
    face_centroid: NDArrayF     # (n_faces, 3)
    h: float                    # max element diameter
    box_lo: NDArrayF | None = None
    box_hi: NDArrayF | None = None
    n_per_axis: int | None = None
    _space_cache: dict = field(default_factory=dict, repr=False)   # see `cached`

    @property
    def n_elems(self) -> int:
        return self.tets.shape[0]

    @property
    def n_faces(self) -> int:
        return self.face_vertices.shape[0]

    @property
    def n_verts(self) -> int:
        return self.vertices.shape[0]

    @property
    def is_boundary_face(self) -> npt.NDArray[np.bool_]:
        return self.face_neighbor < 0

    @property
    def interior_faces(self) -> NDArrayI:
        return np.flatnonzero(self.face_neighbor >= 0)

    @property
    def boundary_faces(self) -> NDArrayI:
        return np.flatnonzero(self.face_neighbor < 0)


def cached(build):
    """Decorate `build(mesh)`, which derives data from the mesh alone, to run
    once per mesh: the result is stored on the mesh, keyed by `build`, and
    every later call returns that same object."""

    @functools.wraps(build)
    def lookup(mesh: Mesh):
        cache = mesh._space_cache
        if build not in cache:
            cache[build] = build(mesh)
        return cache[build]

    return lookup


def build_box_mesh(n: int, box_lo=(0.0, 0.0, 0.0), box_hi=(1.0, 1.0, 1.0)) -> Mesh:
    """Build the six-tets-per-cube subdivision of a box with n cells per axis."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    lo = np.asarray(box_lo, dtype=float)
    hi = np.asarray(box_hi, dtype=float)
    if lo.shape != (3,) or hi.shape != (3,):
        raise ValueError("box_lo and box_hi must be 3-vectors")
    if not np.all(hi > lo):
        raise ValueError(f"degenerate box: lo={lo}, hi={hi}")

    axis = [np.linspace(lo[d], hi[d], n + 1) for d in range(3)]
    grid = np.stack(np.meshgrid(*axis, indexing="ij"), axis=-1)
    vertices = grid.reshape(-1, 3)

    # Each cube is split along the six monotone vertex paths from its lowest
    # to its highest corner, one per axis permutation, cubes in (i, j, k)
    # order.  Vertex id (i, j, k) -> i*(n+1)^2 + j*(n+1) + k is linear, so a
    # tet is its cube's corner id plus the path's id offsets.
    stride = np.array([(n + 1) ** 2, n + 1, 1])
    paths = np.zeros((6, 4, 3), dtype=np.int64)
    for p, perm in enumerate(itertools.permutations((0, 1, 2))):
        for s, axis_step in enumerate(perm, start=1):
            paths[p, s:, axis_step] += 1
    # The box map scales each axis positively, so a path's orientation, the
    # sign of its permutation, is the same in every cube: swap the last two
    # vertices of the odd ones.
    odd = np.linalg.det(paths[:, 1:]) < 0
    paths[odd] = paths[odd][:, [0, 1, 3, 2]]
    cubes = np.stack(np.meshgrid(*[np.arange(n)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    tets = ((cubes @ stride)[:, None, None] + (paths @ stride)[None]).reshape(-1, 4)

    return _mesh_from_tets(vertices, tets, lo, hi, n)


def _mesh_from_tets(vertices, tets, box_lo=None, box_hi=None, n_per_axis=None) -> Mesh:
    n_verts = len(vertices)
    if n_verts >= MAX_VERTS:
        raise ValueError(f"{n_verts} vertices: face keys need fewer than {MAX_VERTS}")
    n_elems = tets.shape[0]
    v = vertices[tets]
    signed6 = np.einsum(
        "ei,ei->e",
        np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]),
        v[:, 3] - v[:, 0],
    )
    if np.any(signed6 <= 0):
        raise ValueError("mesh contains a non-positively-oriented or degenerate tet")
    elem_volume = signed6 / 6.0
    elem_centroid = v.mean(axis=1)

    # Collect faces; each sorted vertex triple appears in one or two elements.
    # Faces are numbered by first appearance in (element, local face) order,
    # so the owner, the first element seen, is the lower adjacent index.
    # A triple (a, b, c) is packed into the int64 (a*nv + b)*nv + c, which
    # orders as the triples do, so the 1-D `unique` numbers faces as a
    # row-wise one would, without sorting a void view.
    keys = np.sort(tets[:, _LOCAL_FACES], axis=2).reshape(-1, 3)
    a, b, c = keys.astype(np.int64, copy=False).T
    packed = (a * n_verts + b) * n_verts + c
    _, first, inverse, counts = np.unique(
        packed, return_index=True, return_inverse=True, return_counts=True)
    if np.any(counts > 2):
        key = tuple(int(i) for i in keys[first[np.argmax(counts > 2)]])
        raise ValueError(f"face {key} shared by more than two tets")
    order = np.argsort(first)                     # face id -> unique row
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    slot_face = rank[inverse.reshape(-1)]         # face id of each (element, local face)
    elem_faces = slot_face.reshape(n_elems, 4)

    first_slot = first[order]
    face_vertices = keys[first_slot]
    face_owner = first_slot // 4
    face_neighbor = np.full(len(order), -1, dtype=np.int64)
    second = np.flatnonzero(first_slot[slot_face] != np.arange(len(keys)))
    face_neighbor[slot_face[second]] = second // 4

    fv = vertices[face_vertices]
    cross = np.cross(fv[:, 1] - fv[:, 0], fv[:, 2] - fv[:, 0])
    face_area = 0.5 * np.linalg.norm(cross, axis=1)
    if np.any(face_area <= 0.0):
        raise ValueError("mesh contains a degenerate face")
    face_normal = cross / (2.0 * face_area)[:, None]
    face_centroid = fv.mean(axis=1)

    # Orient normals away from the owner, owner -> neighbor on interior faces.
    away = face_centroid - elem_centroid[face_owner]
    face_normal[np.einsum("fi,fi->f", face_normal, away) < 0.0] *= -1.0

    elem_face_sign = np.where(
        face_owner[elem_faces] == np.arange(n_elems)[:, None], 1.0, -1.0
    )

    edges = list(itertools.combinations(range(4), 2))
    edge_len = np.stack([np.linalg.norm(v[:, a] - v[:, b], axis=1) for a, b in edges])
    h = float(edge_len.max())

    return Mesh(
        vertices=vertices,
        tets=tets,
        face_vertices=face_vertices,
        face_owner=face_owner,
        face_neighbor=face_neighbor,
        elem_faces=elem_faces,
        elem_face_sign=elem_face_sign,
        elem_volume=elem_volume,
        elem_centroid=elem_centroid,
        face_area=face_area,
        face_normal=face_normal,
        face_centroid=face_centroid,
        h=h,
        box_lo=box_lo,
        box_hi=box_hi,
        n_per_axis=n_per_axis,
    )


def find_elements(mesh: Mesh, points: NDArrayF, tol: float = 1e-12) -> NDArrayI:
    """Locate the element containing each point of a box mesh.

    Points on inter-element boundaries resolve to the first of the (up to six)
    candidate tets of the enclosing cube that contains them.
    """
    if mesh.n_per_axis is None:
        raise ValueError("find_elements requires a mesh built by build_box_mesh")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = mesh.n_per_axis
    rel = (pts - mesh.box_lo) / (mesh.box_hi - mesh.box_lo)
    if np.any(rel < -tol) or np.any(rel > 1.0 + tol):
        raise ValueError("point outside the mesh box")
    cell = np.clip((rel * n).astype(np.int64), 0, n - 1)
    cell_id = (cell[:, 0] * n + cell[:, 1]) * n + cell[:, 2]

    # Barycentric coordinates of every point in each of its cube's six tets.
    cand = 6 * cell_id[:, None] + np.arange(6)                    # (npts, 6)
    v = mesh.vertices[mesh.tets[cand]]                            # (npts, 6, 4, 3)
    T = (v[:, :, 1:] - v[:, :, :1]).swapaxes(-1, -2)
    lam = np.linalg.solve(T, (pts[:, None, :] - v[:, :, 0])[..., None])[..., 0]
    lam_min = np.minimum(1.0 - lam.sum(axis=-1), lam.min(axis=-1))
    inside = lam_min >= -1e-10
    missing = ~inside.any(axis=1)
    if np.any(missing):
        raise ValueError(f"point {pts[np.argmax(missing)]} not located in its candidate cube")
    # argmax picks the first candidate that contains the point.
    return cand[np.arange(len(pts)), inside.argmax(axis=1)]

