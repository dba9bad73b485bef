"""Quadrature, interpolation, reconstructions, and the identity residuals."""
import tracemalloc

import numpy as np
import pytest
from scipy.special import roots_jacobi

from nsfemdg import diagnostics, spaces
from nsfemdg.mesh import build_box_mesh
from nsfemdg.spaces import (
    PolynomialField,
    ScalarPolynomial,
    SineField,
    apply_bc,
    basis_gradients,
    broken_curl,
    broken_divergence,
    broken_gradient,
    cell_means,
    commuting_residual,
    element_average,
    elem_quad_points,
    eval_flux_reconstruction,
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


@pytest.fixture(scope="module")
def mesh1():
    return build_box_mesh(1)


@pytest.fixture(scope="module")
def mesh2():
    return build_box_mesh(2)


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
    pts, w = elem_quad_points(mesh2, degree)
    for a, b, c in [(p, q, r) for p in range(4) for q in range(4) for r in range(4)
                    if p + q + r <= degree]:
        vals = pts[..., 0] ** a * pts[..., 1] ** b * pts[..., 2] ** c
        total = np.sum(mesh2.elem_volume * np.einsum("q,eq->e", w, vals))
        exact = 1.0 / ((a + 1) * (b + 1) * (c + 1))
        assert np.isclose(total, exact, atol=1e-13), (a, b, c)


@pytest.mark.parametrize("degree", [2, 3, 4, 5])
def test_tri_rule_integrates_monomials(degree, mesh1):
    """Boundary faces on z=0 tile the unit square; test surface integrals."""
    bary, w = tri_rule(degree)
    assert np.isclose(w.sum(), 1.0, atol=1e-14)
    pts, wq = face_quad_points(mesh1, degree)
    bottom = [f for f in mesh1.boundary_faces if abs(mesh1.face_centroid[f][2]) < 1e-12]
    assert len(bottom) == 2
    for a, b in [(p, q) for p in range(4) for q in range(4) if p + q <= degree]:
        total = 0.0
        for f in bottom:
            vals = pts[f, :, 0] ** a * pts[f, :, 1] ** b
            total += mesh1.face_area[f] * float(wq @ vals)
        assert np.isclose(total, 1.0 / ((a + 1) * (b + 1)), atol=1e-13), (a, b)


def test_rules_have_no_spurious_points():
    assert len(tet_rule(1)[1]) == 1
    assert len(tet_rule(2)[1]) == 4
    assert len(tri_rule(2)[1]) == 3


def roots_jacobi_rule(n, alpha):
    """scipy's Gauss-Jacobi rule for (1-x)^alpha, mapped to [0, 1]."""
    x, w = roots_jacobi(n, alpha, 0.0)
    return (x + 1.0) / 2.0, w / w.sum()


@pytest.mark.parametrize("alpha", [0, 1, 2])
def test_gauss01_matches_roots_jacobi(alpha):
    for n in range(1, 9):
        x, w = roots_jacobi_rule(n, alpha)
        nodes, weights = spaces._gauss01(n, alpha)
        assert np.abs(nodes - x).max() <= 1e-15
        assert np.abs(weights - w).max() <= 1e-14


def test_studies_agree_with_roots_jacobi_rules(monkeypatch):
    """The interpolation-rate and P1-P4 decay studies agree to 1e-13
    relative whether the collapsed rules come from Golub-Welsch or from
    scipy's roots_jacobi."""
    rng = np.random.default_rng(7)
    phi, v = ScalarPolynomial.random(rng), PolynomialField.random(rng)

    def studies():
        tet_rule.cache_clear()
        tri_rule.cache_clear()
        rates = diagnostics.interpolation_rate_study(SineField(), (2, 3))
        pdecay = diagnostics.p_decay_study((1, 2), diagnostics.bump_flow_data(), phi, v, T=0.4)
        return (np.array(rates["l2"] + rates["h1"]),
                np.array([[row[k] for k in ("P1", "P2", "P3", "P4")] for row in pdecay["rows"]]))

    try:
        ours = studies()
        monkeypatch.setattr(spaces, "_gauss01", roots_jacobi_rule)
        theirs = studies()
    finally:
        monkeypatch.undo()
        tet_rule.cache_clear()
        tri_rule.cache_clear()
    for a, b in zip(ours, theirs):
        np.testing.assert_allclose(a, b, rtol=1e-13, atol=0.0)


# ---------------------------------------------------------------------------
# Projection / interpolation.


def test_cell_means_of_linear_is_centroid_value(mesh2):
    means = cell_means(lambda p: np.atleast_2d(p)[:, 0], mesh2)
    assert np.allclose(means, mesh2.elem_centroid[:, 0], atol=1e-14)
    # the means integrate to the mean of x over the unit cube
    assert np.isclose(np.sum(mesh2.elem_volume * means), 0.5, atol=1e-14)


def test_interpolate_reproduces_linears(mesh2):
    field = PolynomialField(np.hstack([np.arange(12.0).reshape(3, 4) - 5.0,
                                       np.zeros((3, 6))]))
    interp = interpolate_v(field, mesh2)
    # a linear function's face average is its value at the face centroid
    assert np.allclose(interp, field(mesh2.face_centroid), atol=1e-13)
    l2, h1 = interpolation_errors(field, mesh2)
    assert l2 < 1e-13 and h1 < 1e-12


def test_element_average_is_barycenter_value(mesh2):
    field = PolynomialField(np.hstack([np.ones((3, 4)), np.zeros((3, 6))]))
    interp = interpolate_v(field, mesh2)
    avg = element_average(interp, mesh2)
    assert np.allclose(avg, field(mesh2.elem_centroid), atol=1e-13)


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
    interp = interpolate_v(PolynomialField(coeffs), mesh2)
    G = broken_gradient(interp, mesh2)
    assert np.allclose(G, A[None, :, :], atol=1e-12)
    assert np.allclose(broken_divergence(interp, mesh2), np.trace(A), atol=1e-12)
    curl_exact = np.array([A[2, 1] - A[1, 2], A[0, 2] - A[2, 0], A[1, 0] - A[0, 1]])
    assert np.allclose(broken_curl(interp, mesh2), curl_exact[None, :], atol=1e-12)


@pytest.mark.parametrize("n", [3, 8])
def test_broken_divergence_is_bitwise_trace_of_gradient(n):
    """The diagonal-only divergence adds the same products in the same order
    as the trace of the full broken gradient."""
    mesh = build_box_mesh(n)
    rng = np.random.default_rng(n)
    for scale in (1e-6, 1.0, 1e6):
        u = scale * rng.standard_normal((mesh.n_faces, 3))
        assert np.array_equal(broken_divergence(u, mesh),
                              np.einsum("eii->e", broken_gradient(u, mesh)))


def test_basis_gradients_partition(mesh2):
    # the four basis functions sum to 1, so their gradients cancel
    gb = basis_gradients(mesh2)
    assert np.abs(gb.sum(axis=2)).max() < 1e-12


def test_flux_reconstruction_matches_fluxes(mesh2):
    """The reconstructed field has the prescribed constant normal flux per face."""
    rng = np.random.default_rng(3)
    u = apply_bc(rng.standard_normal((mesh2.n_faces, 3)), mesh2)
    flux = normal_flux(u, mesh2)
    w, s = flux_reconstruction(flux, mesh2)
    pts, _ = face_quad_points(mesh2, 2)
    for e in range(mesh2.n_elems):
        for l in range(4):
            f = mesh2.elem_faces[e, l]
            vals = (w[e][None, :] + s[e] * pts[f]) @ mesh2.face_normal[f]
            assert np.allclose(vals, flux[f], atol=1e-10)


def test_flux_reconstruction_divergence(mesh2):
    rng = np.random.default_rng(4)
    u = apply_bc(rng.standard_normal((mesh2.n_faces, 3)), mesh2)
    _, s = flux_reconstruction(normal_flux(u, mesh2), mesh2)
    assert np.allclose(3.0 * s, broken_divergence(u, mesh2), atol=1e-10)


def test_eval_flux_reconstruction_shape(mesh1):
    u = interpolate_v(SineField(), mesh1)
    pts, _ = elem_quad_points(mesh1, 2)
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
    errs = [interpolation_errors(field, build_box_mesh(n)) for n in (2, 4)]
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
        pts, w = points(mesh, degree)
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
    interpolation_errors(field, mesh)       # the mesh caches are not counted
    tracemalloc.start()
    try:
        interpolation_errors(field, mesh)
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
    u = interpolate_v(PolynomialField.random(np.random.default_rng(5)), mesh)

    def means():
        return (cell_means(field, mesh, 4), interpolate_v(field, mesh, 4),
                orthogonality_residual(u, field, mesh, 4))

    monkeypatch.setattr(spaces, "QUAD_BLOCK", mesh.n_faces)
    whole = means()
    monkeypatch.setattr(spaces, "QUAD_BLOCK", 7)
    for got, want in zip(means(), whole):
        assert np.array_equal(got, want)


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
    assert peak < points(mesh, 6)[0].nbytes


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


def test_sine_field_vanishes_on_boundary(mesh2):
    pts, _ = face_quad_points(mesh2, 4)
    vals = SineField()(pts.reshape(-1, 3)).reshape(pts.shape[0], -1, 3)
    assert np.abs(vals[mesh2.boundary_faces]).max() < 1e-13
