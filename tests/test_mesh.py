"""Mesh construction, connectivity, and geometry invariants."""
import itertools
import tracemalloc

import numpy as np
import pytest

from nsfemdg.mesh import (
    _LOCAL_FACES,
    _mesh_from_tets,
    build_box_mesh,
    find_elements,
)


def barycentric_coordinates(mesh, elem, point):
    """Barycentric coordinates of a point with respect to one tet."""
    v = mesh.vertices[mesh.tets[elem]]
    lam = np.linalg.solve((v[1:] - v[0]).T, np.asarray(point, dtype=float) - v[0])
    return np.concatenate([[1.0 - lam.sum()], lam])


def shape_ratio_max(mesh):
    """Largest circumradius / inradius over the elements."""
    v = mesh.vertices[mesh.tets]
    # Inradius r = 3V / (sum of face areas).
    inradius = 3.0 * mesh.elem_volume / mesh.face_area[mesh.elem_faces].sum(axis=1)
    # Circumcenter c solves 2 (v_i - v_0) . c = |v_i|^2 - |v_0|^2, i = 1..3.
    b = np.sum(v[:, 1:] ** 2, axis=2) - np.sum(v[:, :1] ** 2, axis=2)
    center = np.linalg.solve(2.0 * (v[:, 1:] - v[:, :1]), b[..., None])[..., 0]
    return float((np.linalg.norm(center - v[:, 0], axis=1) / inradius).max())


def test_unit_cube_counts(mesh1):
    assert mesh1.n_verts == 8
    assert mesh1.n_elems == 6
    assert mesh1.n_faces == 18
    assert int(mesh1.is_boundary_face.sum()) == 12
    assert len(mesh1.interior_faces) == 6


def test_refined_counts(mesh2):
    assert mesh2.n_elems == 48
    # 4 face slots per tet, two boundary triangles per cube facet per cell face
    assert int(mesh2.is_boundary_face.sum()) == 2 * 6 * 4
    assert 2 * len(mesh2.interior_faces) + int(mesh2.is_boundary_face.sum()) == 4 * 48


@pytest.mark.parametrize("n", [1, 2, 3])
def test_volumes_fill_box(n):
    mesh = build_box_mesh(n)
    assert mesh.elem_volume.min() > 0
    assert np.isclose(mesh.elem_volume.sum(), 1.0, rtol=0, atol=1e-14)


def test_scaled_box_volume_and_h():
    mesh = build_box_mesh(2, (0.0, -1.0, 0.5), (2.0, 1.0, 1.5))
    assert np.isclose(mesh.elem_volume.sum(), 2.0 * 2.0 * 1.0, atol=1e-13)
    # longest edge of a cell: the main diagonal of one grid cell
    assert np.isclose(mesh.h, np.sqrt(1.0 + 1.0 + 0.25), atol=1e-14)


def test_h_is_max_edge(mesh1):
    assert np.isclose(mesh1.h, np.sqrt(3.0), atol=1e-15)


def test_face_normals_are_unit(mesh2):
    norms = np.linalg.norm(mesh2.face_normal, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-14)


def test_interior_normal_points_owner_to_neighbor(mesh2):
    for f in mesh2.interior_faces:
        e_m, e_p = mesh2.face_owner[f], mesh2.face_neighbor[f]
        assert e_m < e_p  # owner is the lower element index
        d = mesh2.elem_centroid[e_p] - mesh2.elem_centroid[e_m]
        assert np.dot(mesh2.face_normal[f], d) > 0


def test_boundary_normal_points_outward(mesh2):
    for f in np.flatnonzero(mesh2.is_boundary_face):
        assert mesh2.face_neighbor[f] == -1
        e = mesh2.face_owner[f]
        d = mesh2.face_centroid[f] - mesh2.elem_centroid[e]
        assert np.dot(mesh2.face_normal[f], d) > 0


def test_elem_face_sign_marks_outward(mesh2):
    for e in range(mesh2.n_elems):
        for l in range(4):
            f = mesh2.elem_faces[e, l]
            d = mesh2.face_centroid[f] - mesh2.elem_centroid[e]
            outward = np.dot(mesh2.face_normal[f], d) > 0
            assert mesh2.elem_face_sign[e, l] == (1.0 if outward else -1.0)


def test_closed_surface_sums_to_zero(mesh2):
    """Divergence theorem on constants: signed area-weighted normals cancel."""
    nu = mesh2.face_normal[mesh2.elem_faces]
    area = mesh2.face_area[mesh2.elem_faces]
    total = np.einsum("el,el,eli->ei", mesh2.elem_face_sign, area, nu)
    assert np.abs(total).max() < 1e-13


def test_face_area_total(mesh1):
    # cube surface 6, each facet split into 2 triangles of area 1/2
    assert np.isclose(mesh1.face_area[mesh1.is_boundary_face].sum(), 6.0, atol=1e-13)


def test_find_elements_centroids(mesh2):
    found = find_elements(mesh2, mesh2.elem_centroid)
    assert np.array_equal(found, np.arange(mesh2.n_elems))


def test_find_elements_random_points(mesh2):
    rng = np.random.default_rng(11)
    pts = rng.uniform(0.05, 0.95, size=(50, 3))
    elems = find_elements(mesh2, pts)
    for p, e in zip(pts, elems):
        lam = barycentric_coordinates(mesh2, int(e), p)
        assert lam.min() >= -1e-10
        assert np.isclose(lam.sum(), 1.0, atol=1e-12)


def test_find_elements_outside_raises(mesh1):
    with pytest.raises(ValueError):
        find_elements(mesh1, np.array([[2.0, 0.5, 0.5]]))


def test_nested_refinement(mesh1):
    """Halving the grid keeps every fine element inside one coarse element."""
    fine = build_box_mesh(2)
    parent = find_elements(mesh1, fine.elem_centroid)
    for e in range(fine.n_elems):
        for vid in fine.tets[e]:
            lam = barycentric_coordinates(mesh1, int(parent[e]), fine.vertices[vid])
            assert lam.min() >= -1e-12
    # volumes of children sum to the parent volume
    child_vol = np.zeros(mesh1.n_elems)
    np.add.at(child_vol, parent, fine.elem_volume)
    assert np.allclose(child_vol, mesh1.elem_volume, atol=1e-14)


def test_mesh_metrics_shape_regularity():
    ratios = [shape_ratio_max(build_box_mesh(n)) for n in (1, 2, 4)]
    # Kuhn subdivision is self-similar: the quality is refinement independent
    assert np.allclose(ratios, ratios[0], rtol=1e-10)
    assert ratios[0] < 20.0


def test_h_halves_under_refinement():
    h = [build_box_mesh(n).h for n in (1, 2, 4)]
    assert np.isclose(h[0] / h[1], 2.0, atol=1e-13)
    assert np.isclose(h[1] / h[2], 2.0, atol=1e-13)


def test_positive_orientation(mesh2):
    v = mesh2.vertices[mesh2.tets]
    det = np.linalg.det(v[:, 1:] - v[:, :1])
    assert det.min() > 0


# ---------------------------------------------------------------------------
# Vectorized construction against a loop reference


def _reference_tets(n, vertices):
    """Cube-by-cube, path-by-path loop, positively oriented."""
    def vid(i, j, k):
        return (i * (n + 1) + j) * (n + 1) + k

    tets = []
    for corner in itertools.product(range(n), repeat=3):
        for perm in itertools.permutations((0, 1, 2)):
            steps = [list(corner)]
            for p in perm:
                nxt = list(steps[-1])
                nxt[p] += 1
                steps.append(nxt)
            tets.append([vid(*s) for s in steps])
    tets = np.array(tets, dtype=np.int64)
    v = vertices[tets]
    det = np.einsum("ei,ei->e", np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]),
                    v[:, 3] - v[:, 0])
    tets[det < 0, 2:] = tets[det < 0, 2:][:, ::-1]
    return tets


def _reference_faces(tets):
    """Faces numbered by first appearance, through a dict of sorted triples."""
    first, face_verts, owner, neighbor = {}, [], [], []
    elem_faces = np.empty((len(tets), 4), dtype=np.int64)
    for e in range(len(tets)):
        for l, loc in enumerate(_LOCAL_FACES):
            key = tuple(sorted(int(tets[e, i]) for i in loc))
            f = first.get(key)
            if f is None:
                f = first[key] = len(face_verts)
                face_verts.append(key)
                owner.append(e)
                neighbor.append(-1)
            else:
                neighbor[f] = e
            elem_faces[e, l] = f
    return np.array(face_verts), np.array(owner), np.array(neighbor), elem_faces


@pytest.mark.parametrize("n, lo, hi", [
    (1, (0, 0, 0), (1, 1, 1)), (2, (0, 0, 0), (1, 1, 1)),
    (3, (0, 0, 0), (1, 1, 1)), (4, (0, 0, 0), (1, 1, 1)),
    (3, (0.0, -1.0, 0.5), (2.0, 1.0, 1.5)), (6, (0, 0, 0), (1, 1, 1)),
])
def test_box_mesh_matches_loop_reference(n, lo, hi):
    mesh = build_box_mesh(n, lo, hi)
    tets = _reference_tets(n, mesh.vertices)
    assert np.array_equal(mesh.tets, tets)
    face_vertices, owner, neighbor, elem_faces = _reference_faces(tets)
    assert np.array_equal(mesh.face_vertices, face_vertices)
    assert np.array_equal(mesh.face_owner, owner)
    assert np.array_equal(mesh.face_neighbor, neighbor)
    assert np.array_equal(mesh.elem_faces, elem_faces)


def test_shuffled_tets_match_loop_reference(shuffled3):
    """Faces from packed keys are numbered as the loop numbers them in any
    element order, and with each tet's vertices rotated by an even
    permutation, which keeps its orientation but reorders its face keys."""
    face_vertices, owner, neighbor, elem_faces = _reference_faces(shuffled3.tets)
    assert np.array_equal(shuffled3.face_vertices, face_vertices)
    assert np.array_equal(shuffled3.face_owner, owner)
    assert np.array_equal(shuffled3.face_neighbor, neighbor)
    assert np.array_equal(shuffled3.elem_faces, elem_faces)


def _reference_geometry(mesh):
    """Element and face geometry of the mesh's connectivity from whole-array
    formulas: `np.cross`, `mean(axis=1)` and `np.linalg.norm`."""
    v = mesh.vertices[mesh.tets]
    signed6 = np.einsum("ei,ei->e", np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]),
                        v[:, 3] - v[:, 0])
    elem_centroid = v.mean(axis=1)
    h = max(np.linalg.norm(v[:, a] - v[:, b], axis=1).max()
            for a, b in itertools.combinations(range(4), 2))
    fv = mesh.vertices[mesh.face_vertices]
    normal = np.cross(fv[:, 1] - fv[:, 0], fv[:, 2] - fv[:, 0])
    face_centroid = fv.mean(axis=1)
    area = 0.5 * np.linalg.norm(normal, axis=1)
    normal /= (2.0 * area)[:, None]
    away = face_centroid - elem_centroid[mesh.face_owner]
    normal[np.einsum("fi,fi->f", normal, away) < 0.0] *= -1.0
    return {"elem_volume": signed6 / 6.0, "elem_centroid": elem_centroid, "face_area": area,
            "face_normal": normal, "face_centroid": face_centroid, "h": h}


def _assert_geometry_is_the_reference(mesh):
    for name, want in _reference_geometry(mesh).items():
        got = getattr(mesh, name)
        if name == "h":
            assert type(got) is float and got == want
            continue
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.flags.c_contiguous, name
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("lo, hi", [((0, 0, 0), (1, 1, 1)), ((0.0, -1.0, 0.5), (2.0, 1.0, 1.5)),
                                    ((-0.3, 0.1, 1.7), (0.4, 1.3, 2.9))])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8])
def test_geometry_is_bitwise_the_whole_array_formulas(n, lo, hi):
    """The build's coordinate-at-a-time arithmetic gives the bits of the
    whole-array formulas, every -0.0 included.  On the unit box most sums
    are exact in any order; the other boxes' are not."""
    _assert_geometry_is_the_reference(build_box_mesh(n, lo, hi))


def test_shuffled_geometry_is_bitwise_the_whole_array_formulas(shuffled3):
    _assert_geometry_is_the_reference(shuffled3)


def test_build_memory_is_bounded_by_the_mesh():
    """At n=8 the traced peak of a build stays below 2.5 times the bytes of
    the arrays the mesh keeps: each whole-mesh temporary is dropped once it
    has been used."""
    build_box_mesh(8)
    tracemalloc.start()
    try:
        mesh = build_box_mesh(8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(val.nbytes for val in vars(mesh).values() if isinstance(val, np.ndarray))
    assert peak < 2.5 * kept


def test_face_keys_overflow_raises(mesh1):
    """Packed face keys need nv**3 < 2**63; a read-only broadcast stands in
    for the 2**21 vertices, so nothing that size is allocated."""
    vertices = np.broadcast_to(np.zeros(3), (2**21, 3))
    with pytest.raises(ValueError, match="2097152 vertices"):
        _mesh_from_tets(vertices, mesh1.tets, mesh1.box_lo, mesh1.box_hi, 1)


@pytest.mark.parametrize("n, lo, hi, match", [
    (0, (0, 0, 0), (1, 1, 1), "n must be >= 1"),
    (1, (0, 0), (1, 1), "3-vectors"),
    (1, (0, 0, 0), (1, 0, 1), "degenerate box"),
])
def test_box_mesh_invalid_input_raises(n, lo, hi, match):
    with pytest.raises(ValueError, match=match):
        build_box_mesh(n, lo, hi)


def test_negatively_oriented_tet_raises(mesh1):
    tets = mesh1.tets.copy()
    tets[0, [2, 3]] = tets[0, [3, 2]]
    with pytest.raises(ValueError, match="non-positively-oriented"):
        _mesh_from_tets(mesh1.vertices, tets, mesh1.box_lo, mesh1.box_hi, 1)


def test_underflowing_face_area_raises(mesh1):
    """At a spacing of 1e-100 every tet's volume, ~1e-300, is still a normal
    float, but the squared cross products of its faces, ~1e-400, underflow to
    zero area."""
    scale = 1e-100
    with pytest.raises(ValueError, match="degenerate face"):
        _mesh_from_tets(scale * mesh1.vertices, mesh1.tets, scale * mesh1.box_lo,
                        scale * mesh1.box_hi, 1)


def test_face_shared_by_three_tets_raises(mesh1):
    tets = np.vstack([mesh1.tets, mesh1.tets[:1]])
    with pytest.raises(ValueError, match="shared by more than two tets"):
        _mesh_from_tets(mesh1.vertices, tets, mesh1.box_lo, mesh1.box_hi, 1)


def _reference_find(mesh, pts):
    """First of the cube's six candidate tets whose coordinates are >= -1e-10."""
    n = mesh.n_per_axis
    cell = np.clip((pts * n).astype(np.int64), 0, n - 1)
    out = []
    for p, (i, j, k) in zip(pts, cell):
        c = (i * n + j) * n + k
        out.append(next(e for e in range(6 * c, 6 * c + 6)
                        if barycentric_coordinates(mesh, e, p).min() >= -1e-10))
    return np.array(out)


@pytest.mark.parametrize("n", [2, 3])
def test_find_elements_matches_per_point_reference(n):
    coarse = build_box_mesh(n)
    fine = build_box_mesh(2 * n)
    rng = np.random.default_rng(n)
    # Fine vertices lie on coarse vertices, edges and shared faces: the
    # first-candidate tie-break decides them.
    for pts in (fine.elem_centroid, fine.vertices, fine.face_centroid,
                rng.uniform(0.0, 1.0, size=(300, 3))):
        assert np.array_equal(find_elements(coarse, pts), _reference_find(coarse, pts))


def test_find_elements_not_located_raises(mesh2):
    # With the first two cubes' tets swapped, no candidate covers their points.
    broken = _mesh_from_tets(mesh2.vertices, mesh2.tets[np.r_[6:12, 0:6, 12:48]],
                             mesh2.box_lo, mesh2.box_hi, 2)
    with pytest.raises(ValueError, match="not located"):
        find_elements(broken, broken.elem_centroid)
