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

# Local faces of a tet, opposite vertices 0..3: local face l omits vertex l,
# so `elem_faces[:, l]` is the face opposite vertex `tets[:, l]`, which
# `spaces.flux_reconstruction` relies on.
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
    elem_faces: NDArrayI        # (n_elems, 4) global face id of local face l, opposite tets[:, l]
    elem_face_sign: NDArrayF    # (n_elems, 4) +1 if stored normal is outward
    elem_volume: NDArrayF       # (n_elems,)
    elem_centroid: NDArrayF     # (n_elems, 3)
    face_area: NDArrayF         # (n_faces,)
    face_normal: NDArrayF       # (n_faces, 3) unit, oriented owner -> neighbor
    face_centroid: NDArrayF     # (n_faces, 3)
    h: float                    # max element diameter
    box_lo: NDArrayF
    box_hi: NDArrayF
    n_per_axis: int
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
        return interior_sides(self)[0]


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


@cached
def interior_sides(mesh: Mesh) -> tuple[NDArrayI, NDArrayI, NDArrayI]:
    """The interior faces in index order, with their owner and neighbor elements."""
    int_f = np.flatnonzero(mesh.face_neighbor >= 0)
    return int_f, mesh.face_owner[int_f], mesh.face_neighbor[int_f]


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


def _cross(a: NDArrayF, b: NDArrayF) -> NDArrayF:
    """`np.cross` of two (n, 3) arrays, one coordinate at a time: the same
    products and differences, so the same bits, without its general set-up."""
    out = np.empty_like(a)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        np.multiply(a[:, j], b[:, k], out=out[:, i])
        out[:, i] -= a[:, k] * b[:, j]
    return out


def _squared_norms(a: NDArrayF) -> NDArrayF:
    """Squared lengths of (n, 3) rows, summed as `np.linalg.norm` sums them."""
    out = a[:, 0] * a[:, 0]
    out += a[:, 1] * a[:, 1]
    out += a[:, 2] * a[:, 2]
    return out


def _mean(points: list[NDArrayF]) -> NDArrayF:
    """The mean of (n, 3) point arrays, summed in order and divided once, as
    `mean(axis=1)` of their stack sums and divides: its bits."""
    out = points[0] + points[1]
    for p in points[2:]:
        out += p
    out /= len(points)
    return out


def _mesh_from_tets(vertices, tets, box_lo, box_hi, n_per_axis) -> Mesh:
    # Each whole-mesh temporary is dropped once it has been used, so the
    # build holds little beside the arrays the mesh keeps.  Geometry is formed
    # from one (n, 3) array per corner, and the helpers above give the bits
    # of `np.cross`, `mean(axis=1)` and `np.linalg.norm`.
    n_verts = len(vertices)
    if n_verts >= MAX_VERTS:
        raise ValueError(f"{n_verts} vertices: face keys need fewer than {MAX_VERTS}")
    n_elems = tets.shape[0]
    v = [np.take(vertices, tets[:, i], axis=0) for i in range(4)]
    e1, e2, e3 = (v[i] - v[0] for i in (1, 2, 3))
    signed6 = np.einsum("ei,ei->e", _cross(e1, e2), e3)
    if np.any(signed6 <= 0):
        raise ValueError("mesh contains a non-positively-oriented or degenerate tet")
    elem_volume = signed6 / 6.0
    del signed6
    # The largest squared edge, one sqrt: the bits of the largest edge norm.
    h2 = max(_squared_norms(e).max() for e in (e1, e2, e3))
    del e1, e2, e3
    for a, b in ((1, 2), (1, 3), (2, 3)):
        h2 = max(h2, _squared_norms(v[b] - v[a]).max())
    h = float(np.sqrt(h2))
    elem_centroid = _mean(v)
    del v

    # Collect faces; each sorted vertex triple appears in one or two elements.
    # A triple (a, b, c) is packed into the int64 (a*nv + b)*nv + c, which
    # orders as the triples do; a min/max network of the (n_elems, 4) columns
    # sorts the triples (the middle is max(lo, min(hi, c))), and the key of
    # slot 4e + l, local face l of element e, is packed[e, l].
    a, b, c = (tets[:, list(col)] for col in zip(*_LOCAL_FACES))
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    del a, b
    packed = np.minimum(lo, c, dtype=np.int64)
    packed *= n_verts
    packed += np.maximum(lo, np.minimum(hi, c))
    packed *= n_verts
    packed += np.maximum(hi, c)
    del lo, hi, c
    packed = packed.reshape(-1)
    n_slots = len(packed)

    # One stable sort of the keys groups the slots of each face, and puts the
    # lowest slot of a group first.  Faces are numbered by first appearance in
    # slot order, so the owner, the element of a face's first slot, is the
    # lower adjacent index, and a face's number is the count of first slots
    # before its own: a cumulative count over the slots that start a group.
    order = np.argsort(packed, kind="stable")
    key = packed[order]
    starts = np.empty(n_slots, dtype=bool)
    starts[0] = True
    np.not_equal(key[1:], key[:-1], out=starts[1:])
    third = ~(starts[2:] | starts[1:-1])          # neither starts nor follows a start
    if np.any(third):
        q, last = divmod(int(key[2 + np.argmax(third)]), n_verts)
        raise ValueError(f"face {(*divmod(q, n_verts), last)} shared by more than two tets")
    del key, third
    is_first = np.zeros(n_slots, dtype=bool)
    is_first[order[starts]] = True
    first_slot = np.flatnonzero(is_first)         # face id -> its first slot
    slot_face = np.cumsum(is_first)               # face id + 1, on first slots
    del is_first
    slot_face -= 1
    follows = np.flatnonzero(~starts)             # sorted positions of second slots
    del starts
    second = order[follows]
    slot_face[second] = slot_face[order[follows - 1]]
    del order, follows
    elem_faces = slot_face.reshape(n_elems, 4)

    face_owner = first_slot // 4
    face_neighbor = np.full(len(first_slot), -1, dtype=np.int64)
    face_neighbor[slot_face[second]] = second // 4
    del second
    face_vertices = np.empty((len(first_slot), 3), dtype=np.int64)
    q, face_vertices[:, 2] = np.divmod(packed[first_slot], n_verts)
    del packed, first_slot
    face_vertices[:, 0], face_vertices[:, 1] = np.divmod(q, n_verts)
    del q

    fv = [np.take(vertices, face_vertices[:, i], axis=0) for i in range(3)]
    face_normal = _cross(fv[1] - fv[0], fv[2] - fv[0])   # twice the area long
    face_centroid = _mean(fv)
    del fv
    face_area = 0.5 * np.sqrt(_squared_norms(face_normal))
    if np.any(face_area <= 0.0):
        raise ValueError("mesh contains a degenerate face")
    face_normal /= (2.0 * face_area)[:, None]

    # Orient normals away from the owner, owner -> neighbor on interior faces.
    away = np.take(elem_centroid, face_owner, axis=0)
    np.subtract(face_centroid, away, out=away)
    face_normal *= np.where(np.einsum("fi,fi->f", face_normal, away) < 0.0, -1.0, 1.0)[:, None]
    del away

    elem_face_sign = np.where(
        face_owner[elem_faces] == np.arange(n_elems)[:, None], 1.0, -1.0
    )

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


def find_elements(mesh: Mesh, points: NDArrayF) -> NDArrayI:
    """Locate the element containing each point of a box mesh.

    Points on inter-element boundaries resolve to the first of the (up to six)
    candidate tets of the enclosing cube that contains them.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = mesh.n_per_axis
    rel = (pts - mesh.box_lo) / (mesh.box_hi - mesh.box_lo)
    if np.any(rel < -1e-12) or np.any(rel > 1.0 + 1e-12):
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

