"""Quadrature, interpolation, reconstructions, and the identity residuals."""
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import roots_jacobi

from nsfemdg import diagnostics, scheme, spaces
from nsfemdg.mesh import build_box_mesh
from nsfemdg.spaces import (
    PolynomialField,
    ScalarPolynomial,
    SineField,
    apply_bc,
    at_points,
    basis_gradients,
    broken_curl,
    broken_divergence,
    broken_gradient,
    cell_means,
    commuting_residual,
    element_average,
    element_means,
    elem_quad_points,
    eval_flux_reconstruction,
    face_means,
    face_quad_points,
    flux_reconstruction,
    interpolate_v,
    interpolation_errors,
    normal_flux,
    orthogonality_residual,
    p1_coefficients,
    quad_blocks,
    tet_rule,
    tri_rule,
)


# ---------------------------------------------------------------------------
# Quadrature.


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6])
def test_tet_rule_weights(degree):
    bary, w = tet_rule(degree)
    assert bary.shape[1] == 4
    assert np.isclose(w.sum(), 1.0, atol=1e-14)
    assert np.allclose(bary.sum(axis=1), 1.0, atol=1e-13)
    assert bary.min() >= 0.0


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6])
def test_tet_rule_integrates_monomials(degree, mesh2):
    """Sum over elements must reproduce exact cube integrals up to `degree`."""
    pts, w = elem_quad_points(mesh2, degree, slice(None))
    for a, b, c in itertools.product(range(degree + 1), repeat=3):
        if a + b + c > degree:
            continue
        vals = pts[..., 0] ** a * pts[..., 1] ** b * pts[..., 2] ** c
        total = np.sum(mesh2.elem_volume * np.einsum("q,eq->e", w, vals))
        exact = 1.0 / ((a + 1) * (b + 1) * (c + 1))
        assert np.isclose(total, exact, atol=1e-13), (a, b, c)


@pytest.mark.parametrize("degree", [2, 3, 4, 5, 6])
def test_tri_rule_integrates_monomials(degree, mesh1):
    """Boundary faces on z=0 tile the unit square; test surface integrals."""
    bary, w = tri_rule(degree)
    assert np.isclose(w.sum(), 1.0, atol=1e-14)
    pts, wq = face_quad_points(mesh1, degree, slice(None))
    bottom = [f for f in np.flatnonzero(mesh1.is_boundary_face)
              if abs(mesh1.face_centroid[f][2]) < 1e-12]
    assert len(bottom) == 2
    for a, b in itertools.product(range(degree + 1), repeat=2):
        if a + b > degree:
            continue
        total = 0.0
        for f in bottom:
            vals = pts[f, :, 0] ** a * pts[f, :, 1] ** b
            total += mesh1.face_area[f] * float(wq @ vals)
        assert np.isclose(total, 1.0 / ((a + 1) * (b + 1)), atol=1e-13), (a, b)


def test_rules_have_no_spurious_points():
    """The pinned point counts, all points distinct, and no rule above
    degree 6."""
    assert [len(tet_rule(d)[1]) for d in range(1, 7)] == [1, 4, 14, 14, 14, 24]
    assert [len(tri_rule(d)[1]) for d in range(1, 7)] == [1, 3, 6, 6, 12, 12]
    for rule in (tet_rule, tri_rule):
        for degree in range(1, 7):
            bary, w = rule(degree)
            assert len(np.unique(bary, axis=0)) == len(w)
        with pytest.raises(ValueError, match="degree 7"):
            rule(7)


_RULES = [(rule, degree) for rule in (tet_rule, tri_rule) for degree in range(1, 7)]


@pytest.mark.parametrize("rule, degree", _RULES)
def test_rules_are_exact_on_reference_monomials(rule, degree):
    """The rule's mean of every monomial of degree <= `degree` in the
    barycentrics l1..ld of the reference d-simplex is its exact mean,
    d! a! b! (c!) / (a + b (+ c) + d)!: 6 a!b!c!/(a+b+c+3)! on the tet,
    2 a!b!/(a+b+2)! on the triangle, to 1e-15 relative (7.3e-16 at most)."""
    bary, w = rule(degree)
    dim = bary.shape[1] - 1
    for powers in itertools.product(range(degree + 1), repeat=dim):
        if sum(powers) > degree:
            continue
        exact = (math.factorial(dim) * math.prod(map(math.factorial, powers))
                 / math.factorial(sum(powers) + dim))
        got = w @ np.prod(bary[:, 1:] ** np.array(powers), axis=1)
        assert abs(got - exact) <= 1e-15 * exact, (powers, got - exact)


@pytest.mark.parametrize("rule, degree", [(r, d) for r, d in _RULES if d >= 3])
def test_symmetric_rules_have_positive_weights_and_interior_points(rule, degree):
    bary, w = rule(degree)
    assert w.min() > 0.0
    assert bary.min() > 0.0
    assert np.abs(bary.sum(axis=1) - 1.0).max() <= 2 * np.finfo(float).eps


@pytest.mark.parametrize("rule, degree", _RULES)
def test_rules_are_invariant_under_vertex_permutations(rule, degree):
    """Permuting the simplex's vertices maps the rule's (point, weight)
    pairs onto themselves, bit for bit."""
    bary, w = rule(degree)
    pairs = {tuple(p): wq for p, wq in zip(bary, w)}
    for perm in itertools.permutations(range(bary.shape[1])):
        assert {tuple(p[list(perm)]): wq for p, wq in zip(bary, w)} == pairs, perm


def _collapsed_rule(dim, degree):
    """The collapsed Gauss-Jacobi product rule on the dim-simplex, exact to
    `degree`, from scipy's roots_jacobi: an independent reference.  Axis i
    takes the rule for the weight (1-t)^(dim-1-i), and its node is scaled by
    (1 - t_j) of every axis j before it."""
    n = (degree + 2) // 2
    axes = []
    for alpha in range(dim - 1, -1, -1):
        x, w = roots_jacobi(n, alpha, 0.0)
        axes.append(list(zip((x + 1.0) / 2.0, w / w.sum())))
    pts, wts = [], []
    for nodes in itertools.product(*axes):
        coords, scale, weight = [], 1.0, 1.0
        for t, w in nodes:
            coords.append(t * scale)
            scale *= 1.0 - t
            weight *= w
        pts.append((1.0 - sum(coords), *coords))
        wts.append(weight)
    w = np.array(wts)
    return np.array(pts), w / w.sum()


def test_studies_agree_with_collapsed_gauss_jacobi_rules(monkeypatch):
    """The interpolation rates and the P1-P4 decay study on n = (2, 3) agree
    with those of collapsed Gauss-Jacobi rules (64/27 tet points, 16/9
    triangle points at degrees 6/4) to quadrature error: 3e-3 relative.  The
    largest move measured is 1.1e-3, on P4 at n=2."""
    rng = np.random.default_rng(7)
    phi, v = ScalarPolynomial.random(rng), PolynomialField.random(rng)

    def studies():
        box = (0, 0, 0), (1, 1, 1)
        rates = diagnostics.interpolation_rate_study(SineField(), (2, 3), *box)
        pdecay = diagnostics.p_decay_study((2, 3), diagnostics.bump_flow_data(*box), phi, v,
                                           0.4, scheme.SchemeParams(), *box)
        return (np.array(rates["l2"] + rates["h1"]),
                np.array([[row[k] for k in ("P1", "P2", "P3", "P4")] for row in pdecay["rows"]]))

    ours = studies()
    for name, dim in (("tet_rule", 3), ("tri_rule", 2)):
        symmetric = getattr(spaces, name)
        monkeypatch.setattr(spaces, name, lambda degree, _rule=symmetric, _dim=dim: (
            _rule(degree) if degree <= 2 else _collapsed_rule(_dim, degree)))
    theirs = studies()
    for a, b in zip(ours, theirs):
        np.testing.assert_allclose(a, b, rtol=3e-3, atol=0.0)
        assert not np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Projection / interpolation.


def test_cell_means_of_linear_is_centroid_value(mesh2):
    means = cell_means(lambda p: np.atleast_2d(p)[:, 0], mesh2, 2)
    assert np.allclose(means, mesh2.elem_centroid[:, 0], atol=1e-14)
    # the means integrate to the mean of x over the unit cube
    assert np.isclose(np.sum(mesh2.elem_volume * means), 0.5, atol=1e-14)


def test_interpolate_reproduces_linears(mesh2):
    field = PolynomialField(np.hstack([np.arange(12.0).reshape(3, 4) - 5.0,
                                       np.zeros((3, 6))]))
    interp = interpolate_v(field, mesh2, 2)
    # a linear function's face average is its value at the face centroid
    assert np.allclose(interp, field(mesh2.face_centroid), atol=1e-13)
    l2, h1 = interpolation_errors(field, mesh2, 6)
    assert l2 < 1e-13 and h1 < 1e-12


def test_element_average_is_barycenter_value(mesh2):
    field = PolynomialField(np.hstack([np.ones((3, 4)), np.zeros((3, 6))]))
    interp = interpolate_v(field, mesh2, 2)
    avg = element_average(interp, mesh2)
    assert np.allclose(avg, field(mesh2.elem_centroid), atol=1e-13)


@pytest.mark.parametrize("scale", [1.0, 1e-310])
def test_element_average_is_bitwise_the_mean(mesh2, shuffled3, scale):
    """The incidence product sums each element's four dofs in `elem_faces`
    order with unit weights and scales once by 1/4, so it is bitwise the
    mean of the gathered dofs, also at subnormal scale, where weights of 1/4
    inside the sum would round each term."""
    for mesh in (mesh2, shuffled3):
        u = scale * np.random.default_rng(mesh.n_elems).standard_normal((mesh.n_faces, 3))
        expected = u[mesh.elem_faces].mean(axis=1)
        assert np.array_equal(element_average(u, mesh).view(np.int64), expected.view(np.int64))


def test_apply_bc_zeros_only_boundary(mesh2):
    rng = np.random.default_rng(0)
    u = rng.standard_normal((mesh2.n_faces, 3))
    v = apply_bc(u, mesh2)
    assert np.all(v[mesh2.is_boundary_face] == 0.0)
    assert np.array_equal(v[~mesh2.is_boundary_face], u[~mesh2.is_boundary_face])


def test_apply_bc_leaves_its_input_unchanged(mesh2):
    u = np.random.default_rng(1).standard_normal((mesh2.n_faces, 3))
    before = u.copy()
    apply_bc(u, mesh2)
    assert np.array_equal(u, before)


# ---------------------------------------------------------------------------
# Broken derivatives and the div-conforming reconstruction.


def test_broken_gradient_exact_for_linear(mesh2):
    A = np.array([[1.0, 2.0, -1.0], [0.5, 0.0, 3.0], [-2.0, 1.0, 1.0]])
    coeffs = np.zeros((3, 10))
    coeffs[:, 1:4] = A
    interp = interpolate_v(PolynomialField(coeffs), mesh2, 2)
    G = broken_gradient(interp, mesh2)
    assert np.allclose(G, A[None, :, :], atol=1e-12)
    assert np.allclose(broken_divergence(interp, mesh2), np.trace(A), atol=1e-12)
    curl_exact = np.array([A[2, 1] - A[1, 2], A[0, 2] - A[2, 0], A[1, 0] - A[0, 1]])
    assert np.allclose(broken_curl(interp, mesh2), curl_exact[None, :], atol=1e-12)


@pytest.mark.parametrize("n", [3, 8])
def test_broken_divergence_is_trace_of_gradient(n):
    """The face-flux divergence is the trace of the broken gradient to
    rounding: 1.71 ulp of the largest gradient entry at most, measured over
    these meshes and scales; the bound is 4."""
    mesh = build_box_mesh(n)
    rng = np.random.default_rng(n)
    for scale in (1e-6, 1.0, 1e6):
        u = scale * rng.standard_normal((mesh.n_faces, 3))
        G = broken_gradient(u, mesh)
        defect = np.abs(broken_divergence(u, mesh) - np.einsum("eii->e", G)).max()
        assert defect <= 4 * np.finfo(float).eps * np.abs(G).max()


def _vandermonde_inverse(mesh):
    """The P1 coefficients as the inverse of each element's face-centroid
    Vandermonde matrix, rows [x, y, z, 1] in `elem_faces` order."""
    centroids = mesh.face_centroid[mesh.elem_faces]
    return np.linalg.inv(np.concatenate([centroids, np.ones((mesh.n_elems, 4, 1))], axis=2))


def _assert_p1_coefficients_match_vandermonde_inverse(mesh):
    """Per element, the gradient rows agree to 16 ulp of their largest
    entry g, and the d row to 16 ulp of g times the largest 1-norm x of the
    element's face centroids (at most 8 and 3.1 ulp measured, n <= 3)."""
    got, want = p1_coefficients(mesh), _vandermonde_inverse(mesh)
    eps = np.finfo(float).eps
    g = np.abs(want[:, :3]).max(axis=(1, 2))
    x = np.abs(mesh.face_centroid[mesh.elem_faces]).sum(axis=2).max(axis=1)
    assert np.all(np.abs(got - want)[:, :3].max(axis=(1, 2)) <= 16 * eps * g)
    assert np.all(np.abs(got - want)[:, 3].max(axis=1) <= 16 * eps * g * x)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_p1_coefficients_match_vandermonde_inverse(n):
    _assert_p1_coefficients_match_vandermonde_inverse(build_box_mesh(n))


def test_p1_coefficients_on_rotated_tets(shuffled3):
    """The closed form reads each local face's sign, area and normal, which
    the shuffle and the rotations move."""
    _assert_p1_coefficients_match_vandermonde_inverse(shuffled3)


def test_basis_gradients_partition(mesh2):
    # the four basis functions sum to 1, so their gradients cancel
    gb = basis_gradients(mesh2)
    assert np.abs(gb.sum(axis=2)).max() < 1e-12


def _assert_reconstruction_matches_fluxes(mesh, seed):
    """The reconstructed field has the prescribed constant normal flux per face."""
    rng = np.random.default_rng(seed)
    u = apply_bc(rng.standard_normal((mesh.n_faces, 3)), mesh)
    flux = normal_flux(u, mesh)
    w, s = flux_reconstruction(flux, mesh)
    pts, _ = face_quad_points(mesh, 2, slice(None))
    for e in range(mesh.n_elems):
        for l in range(4):
            f = mesh.elem_faces[e, l]
            vals = (w[e][None, :] + s[e] * pts[f]) @ mesh.face_normal[f]
            assert np.allclose(vals, flux[f], atol=1e-10)


def _assert_reconstruction_divergence(mesh, seed):
    rng = np.random.default_rng(seed)
    u = apply_bc(rng.standard_normal((mesh.n_faces, 3)), mesh)
    _, s = flux_reconstruction(normal_flux(u, mesh), mesh)
    assert np.allclose(3.0 * s, broken_divergence(u, mesh), atol=1e-10)


def test_flux_reconstruction_matches_fluxes(mesh2):
    _assert_reconstruction_matches_fluxes(mesh2, 3)


def test_flux_reconstruction_divergence(mesh2):
    _assert_reconstruction_divergence(mesh2, 4)


def test_flux_reconstruction_on_rotated_tets(shuffled3):
    """The closed form reads the vertex opposite each local face, which the
    rotations move."""
    _assert_reconstruction_matches_fluxes(shuffled3, 3)
    _assert_reconstruction_divergence(shuffled3, 4)


def test_eval_flux_reconstruction_shape(mesh1):
    u = interpolate_v(SineField(), mesh1, 2)
    pts, _ = elem_quad_points(mesh1, 2, slice(None))
    vals = eval_flux_reconstruction(normal_flux(u, mesh1), mesh1, pts)
    assert vals.shape == pts.shape


# ---------------------------------------------------------------------------
# Identity residuals.


@pytest.mark.parametrize("n", [1, 2])
def test_commuting_identities_random_quadratics(n):
    mesh = build_box_mesh(n)
    rng = np.random.default_rng(100 + n)
    for _ in range(5):
        res = commuting_residual(PolynomialField.random(rng), mesh)
        assert set(res) == {"div", "curl", "flux_div"}
        assert max(res.values()) < 1e-12


def test_commuting_identities_inexact_beyond_quadratic(mesh1):
    """A cubic breaks exactness, confirming the checks are not vacuous."""
    res = commuting_residual(
        SineField(), mesh1, degree=6
    )
    assert max(res.values()) > 1e-6


def test_orthogonality_random_pairs(mesh2):
    rng = np.random.default_rng(42)
    for _ in range(5):
        u = apply_bc(rng.standard_normal((mesh2.n_faces, 3)), mesh2)
        field = PolynomialField.random(rng)
        res = orthogonality_residual(u, field, mesh2)
        assert abs(res) < 1e-10


def test_interpolation_error_decreases():
    field = SineField()
    errs = [interpolation_errors(field, build_box_mesh(n), 6) for n in (2, 4)]
    assert errs[1][0] < 0.4 * errs[0][0]
    assert errs[1][1] < 0.7 * errs[0][1]


@pytest.mark.parametrize("degree", [1, 2, 4, 6])
@pytest.mark.parametrize("box", [((0, 0, 0), (1, 1, 1)), ((-3, 1, 2), (5, 2, 9))])
def test_quad_points_match_einsum_mapping(degree, box):
    """The points are the barycentric combinations of the corners, within
    4 ulp of the coordinates."""
    mesh = build_box_mesh(2, *box)
    for points, rule, corners in (
            (elem_quad_points, tet_rule, mesh.vertices[mesh.tets]),
            (face_quad_points, tri_rule, mesh.vertices[mesh.face_vertices])):
        pts, w = points(mesh, degree, slice(None))
        bary, w_rule = rule(degree)
        ref = np.einsum("qi,eij->eqj", bary, corners)
        assert pts.shape == ref.shape
        assert np.array_equal(w, w_rule)
        assert np.abs(pts - ref).max() <= 4 * np.spacing(np.abs(corners).max())


def test_monomials_match_column_stack():
    pts = np.random.default_rng(5).uniform(-2.0, 2.0, size=(1001, 3))
    x, y, z = pts.T
    ref = np.stack([np.ones_like(x), x, y, z, x * x, y * y, z * z, x * y, x * z, y * z],
                   axis=1)
    assert np.array_equal(spaces._monomials(pts), ref)


def test_quad_blocks_cover_the_range(monkeypatch):
    monkeypatch.setattr(spaces, "QUAD_BLOCK", 7)
    blocks = quad_blocks(48)
    assert [(b.start, b.stop) for b in blocks] == [(k, min(k + 7, 48)) for k in range(0, 48, 7)]


def _interpolation_errors_reference(field, mesh, degree=6):
    """Whole-mesh einsum evaluation of the two interpolation errors."""
    interp = interpolate_v(field, mesh, degree=degree)
    coeff = np.einsum("elk,eki->eli", p1_coefficients(mesh), interp[mesh.elem_faces])
    bary, w = tet_rule(degree)
    pts = np.einsum("qi,eij->eqj", bary, mesh.vertices[mesh.tets])
    flat = pts.reshape(-1, 3)
    err = (np.einsum("eqj,eji->eqi", pts, coeff[:, :3, :]) + coeff[:, None, 3, :]
           - field(flat).reshape(pts.shape))
    dif = (field.jacobian(flat).reshape(*pts.shape, 3)
           - broken_gradient(interp, mesh)[:, None, :, :])
    vol = mesh.elem_volume
    return (np.sqrt(np.sum(vol * np.einsum("q,eqi,eqi->e", w, err, err))),
            np.sqrt(np.sum(vol * np.einsum("q,eqij,eqij->e", w, dif, dif))))


@pytest.mark.parametrize("degree", [4, 6])
@pytest.mark.parametrize("field", [SineField(k=1.5, amplitude=0.7),
                                   PolynomialField.random(np.random.default_rng(3))])
def test_interpolation_errors_do_not_depend_on_the_block(field, degree, monkeypatch):
    """Blocks of 64 of the 162 elements (the last one ragged) give the bits
    of one block, and both match the whole-mesh einsum evaluation."""
    mesh = build_box_mesh(3)
    monkeypatch.setattr(spaces, "QUAD_BLOCK", mesh.n_elems)
    whole = interpolation_errors(field, mesh, degree)
    monkeypatch.setattr(spaces, "QUAD_BLOCK", 64)
    assert interpolation_errors(field, mesh, degree) == whole
    ref = _interpolation_errors_reference(field, mesh, degree)
    assert min(ref) > 1e-3
    np.testing.assert_allclose(whole, ref, rtol=1e-14, atol=0.0)


def test_interpolation_errors_memory_is_bounded_by_the_block():
    """At n=8 and degree 6 the traced peak stays below one whole-mesh
    (n_elems, nq, 3, 3) array of the field's Jacobian."""
    mesh = build_box_mesh(8)
    field = SineField()
    interpolation_errors(field, mesh, 6)    # the mesh caches are not counted
    tracemalloc.start()
    try:
        interpolation_errors(field, mesh, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nq = len(tet_rule(6)[1])
    assert peak < mesh.n_elems * nq * 3 * 3 * 8


@pytest.mark.parametrize("field", [SineField(k=1.5, amplitude=0.7),
                                   PolynomialField.random(np.random.default_rng(4))])
def test_means_do_not_depend_on_the_block(field, monkeypatch):
    """Blocks of 7 elements (faces), most of which start at a point row that
    is not a multiple of 64, give the bits of one block."""
    mesh = build_box_mesh(3)
    u = interpolate_v(PolynomialField.random(np.random.default_rng(5)), mesh, 2)

    def means():
        return (cell_means(field, mesh, 4), interpolate_v(field, mesh, 4),
                orthogonality_residual(u, field, mesh, 4))

    monkeypatch.setattr(spaces, "QUAD_BLOCK", mesh.n_faces)
    whole = means()
    monkeypatch.setattr(spaces, "QUAD_BLOCK", 7)
    for got, want in zip(means(), whole):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [3, 4])
def test_polynomial_means_do_not_depend_on_the_block(n, monkeypatch):
    """10 scalar and 10 vector polynomial fields: their element and face
    means at degrees 2, 4 and 6 are the same bits in blocks of 7 and of 64
    as in one block.  A point's value must not depend on where it sits in
    the point array, as the rounding of a BLAS product over the monomials
    can."""
    mesh = build_box_mesh(n)
    rng = np.random.default_rng(35)
    fields = ([ScalarPolynomial.random(rng) for _ in range(10)]
              + [PolynomialField.random(rng) for _ in range(10)])

    def means():   # as cell_means and interpolate_v, all fields in one pass
        return [vals for degree in (2, 4, 6) for means in (element_means, face_means)
                for vals in means(lambda p, blk: [at_points(f, p) for f in fields],
                                  mesh, degree)]

    monkeypatch.setattr(spaces, "QUAD_BLOCK", mesh.n_faces)
    whole = means()
    for block in (7, 64):
        monkeypatch.setattr(spaces, "QUAD_BLOCK", block)
        for i, (got, want) in enumerate(zip(means(), whole)):
            assert np.array_equal(got, want), (block, i)


@pytest.mark.parametrize("mean, points", [(cell_means, elem_quad_points),
                                          (interpolate_v, face_quad_points)])
def test_means_memory_is_bounded_by_the_block(mean, points):
    """At n=8 and degree 6 the traced peak stays below one whole-mesh array
    of the quadrature points."""
    mesh = build_box_mesh(8)
    field = SineField()
    mean(field, mesh, 6)
    tracemalloc.start()
    try:
        mean(field, mesh, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < points(mesh, 6, slice(None))[0].nbytes


# ---------------------------------------------------------------------------
# Test fields.


# Power-form monomial tables: exponents of 1, x, y, z, x^2, y^2, z^2, xy, xz, yz.
_POWERS = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [2, 0, 0],
                    [0, 2, 0], [0, 0, 2], [1, 1, 0], [1, 0, 1], [0, 1, 1]])


def _power_tables(pts):
    """(npts, 10) monomials and (npts, 3, 10) their derivatives, by powers."""
    mono = np.prod(pts[:, None, :] ** _POWERS[None], axis=2)
    dmono = np.empty((len(pts), 3, 10))
    for d in range(3):
        lowered = np.maximum(_POWERS - np.eye(3, dtype=int)[d], 0)
        dmono[:, d, :] = _POWERS[:, d] * np.prod(pts[:, None, :] ** lowered[None], axis=2)
    return mono, dmono


def test_quadratic_fields_match_power_form():
    rng = np.random.default_rng(8)
    pts = rng.uniform(-0.5, 1.5, size=(200, 3))
    mono, dmono = _power_tables(pts)
    phi = ScalarPolynomial.random(rng)
    field = PolynomialField.random(rng)
    tol = dict(rtol=1e-14, atol=1e-14)
    np.testing.assert_allclose(phi(pts), mono @ phi.coeffs, **tol)
    np.testing.assert_allclose(phi.gradient(pts), dmono @ phi.coeffs, **tol)
    np.testing.assert_allclose(field(pts), mono @ field.coeffs.T, **tol)
    np.testing.assert_allclose(field.jacobian(pts),
                               np.einsum("pdm,im->pid", dmono, field.coeffs), **tol)
    # single points keep the (1, ...) leading axis
    assert phi.gradient(pts[0]).shape == (1, 3)
    assert field.jacobian(pts[0]).shape == (1, 3, 3)


def test_polynomial_jacobian_matches_fd():
    rng = np.random.default_rng(9)
    field = PolynomialField.random(rng)
    pts = rng.uniform(0, 1, size=(7, 3))
    J = field.jacobian(pts)
    eps = 1e-6
    for d in range(3):
        dp = np.zeros(3)
        dp[d] = eps
        fd = (field(pts + dp) - field(pts - dp)) / (2 * eps)
        assert np.allclose(J[:, :, d], fd, atol=1e-8)


def test_scalar_polynomial_gradient_matches_fd():
    rng = np.random.default_rng(10)
    phi = ScalarPolynomial.random(rng)
    pts = rng.uniform(0, 1, size=(7, 3))
    g = phi.gradient(pts)
    eps = 1e-6
    for d in range(3):
        dp = np.zeros(3)
        dp[d] = eps
        fd = (phi(pts + dp) - phi(pts - dp)) / (2 * eps)
        assert np.allclose(g[:, d], fd, atol=1e-8)


def test_sine_field_jacobian_matches_fd():
    field = SineField(k=2.0, amplitude=0.7)
    rng = np.random.default_rng(12)
    pts = rng.uniform(0, 1, size=(5, 3))
    J = field.jacobian(pts)
    eps = 1e-7
    for d in range(3):
        dp = np.zeros(3)
        dp[d] = eps
        fd = (field(pts + dp) - field(pts - dp)) / (2 * eps)
        assert np.allclose(J[:, :, d], fd, atol=1e-6)


def test_sine_field_repeats_one_component_read_only():
    field = SineField(k=2.0, amplitude=0.7)
    pts = np.random.default_rng(13).uniform(0, 1, size=(6, 3))
    vals, J = field(pts), field.jacobian(pts)
    assert vals.shape == (6, 3) and J.shape == (6, 3, 3)
    assert not vals.flags.writeable and not J.flags.writeable
    assert np.array_equal(vals, np.repeat(vals[:, :1], 3, axis=1))
    assert np.array_equal(J, np.repeat(J[:, :1, :], 3, axis=1))


@pytest.mark.parametrize("k, amplitude", [(1.0, 1.0), (1.5, 0.7), (2.0, -3.25), (0.3, 1e-3)])
def test_sine_field_is_bitwise_the_product_formula(k, amplitude):
    """Values and Jacobians equal, bit for bit, amplitude * prod(sin) and
    amplitude * [kp c0 s1 s2, kp s0 c1 s2, kp s0 s1 c2] in that operand order."""
    field = SineField(k=k, amplitude=amplitude)
    rng = np.random.default_rng(14)
    kp = k * np.pi
    for pts in (rng.uniform(0, 1, size=(448 * 64, 3)), rng.uniform(-3, 3, size=(7, 3)),
                np.array([0.25, 0.5, 0.125])):
        p = np.atleast_2d(pts)
        s, c = np.sin(kp * p), np.cos(kp * p)
        val = amplitude * s.prod(axis=1)
        grad = amplitude * np.stack([kp * c[:, 0] * s[:, 1] * s[:, 2],
                                     kp * s[:, 0] * c[:, 1] * s[:, 2],
                                     kp * s[:, 0] * s[:, 1] * c[:, 2]], axis=1)
        assert np.array_equal(field(pts), np.repeat(val[:, None], 3, axis=1))
        assert np.array_equal(field.jacobian(pts), np.repeat(grad[:, None, :], 3, axis=1))


@pytest.mark.parametrize("field", [SineField(k=1.5, amplitude=0.7),
                                   SineField(k=2.0, amplitude=-3.25),
                                   PolynomialField.random(np.random.default_rng(15))])
def test_value_and_jacobian_are_the_bits_of_call_and_jacobian(field):
    rng = np.random.default_rng(16)
    for pts in (rng.uniform(-0.5, 1.5, size=(448 * 64, 3)), np.array([0.25, 0.5, 0.125])):
        val, jac = field.value_and_jacobian(pts)
        assert val.shape == field(pts).shape and jac.shape == field.jacobian(pts).shape
        assert np.array_equal(val, field(pts))
        assert np.array_equal(jac, field.jacobian(pts))


def test_polynomial_values_are_the_bits_of_the_two_calls():
    rng = np.random.default_rng(17)
    phi, v = ScalarPolynomial.random(rng), PolynomialField.random(rng)
    for pts in (rng.uniform(-0.5, 1.5, size=(448 * 64, 3)), np.array([0.25, 0.5, 0.125])):
        phi_p, v_p = spaces.polynomial_values(phi, v, pts)
        assert phi_p.shape == phi(pts).shape and v_p.shape == v(pts).shape
        assert np.array_equal(phi_p, phi(pts)) and np.array_equal(v_p, v(pts))


def test_sine_field_vanishes_on_boundary(mesh2):
    pts, _ = face_quad_points(mesh2, 4, slice(None))
    vals = SineField()(pts.reshape(-1, 3)).reshape(pts.shape[0], -1, 3)
    assert np.abs(vals[mesh2.is_boundary_face]).max() < 1e-13
