"""Discrete spaces and interpolation operators on tetrahedral meshes.

Three discrete objects appear throughout:

* piecewise-constant scalars, an (n_elems,) array of element means;
* nonconforming piecewise-linear vector fields, an (n_faces, 3) array of
  face averages, interpolated by ``interpolate_v``; ``apply_bc`` zeroes the
  no-slip (boundary) rows;
* face normal fluxes (one scalar per face), obtained from a velocity by
  ``normal_flux``.  The lowest-order divergence-conforming reconstruction
  matching those fluxes, w + s*x on each element, is used when a flux field
  has to be evaluated inside elements.

The face-average dof makes three identities exact at the discrete level, up
to quadrature exactness, and ``commuting_residual`` /
``orthogonality_residual`` measure them:

    div_h (interp v)   = mean-of div v    elementwise,
    curl_h (interp v)  = mean-of curl v   elementwise,
    div (flux recon v) = mean-of div v    elementwise,

and the broken gradient of any dof field is L2-orthogonal to the broken
gradient of the interpolation error of any smooth field.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import roots_jacobi

from .mesh import Mesh, NDArrayF

# ---------------------------------------------------------------------------
# Quadrature.
#
# Rules are returned in barycentric coordinates with weights summing to one:
# integral over a simplex S of f  ~=  |S| * sum_q w_q f(x_q).
# The degree-2 defaults are the 4-point tet rule and the edge-midpoint
# triangle rule; higher degrees use collapsed Gauss-Jacobi product rules.


def tet_rule(degree: int) -> tuple[NDArrayF, NDArrayF]:
    if degree <= 1:
        return np.full((1, 4), 0.25), np.array([1.0])
    if degree == 2:
        a = (5.0 + 3.0 * np.sqrt(5.0)) / 20.0
        b = (5.0 - np.sqrt(5.0)) / 20.0
        bary = np.full((4, 4), b)
        np.fill_diagonal(bary, a)
        return bary, np.full(4, 0.25)
    n = (degree + 2) // 2
    xa, wa = _gauss01(n, 2)
    xb, wb = _gauss01(n, 1)
    xc, wc = _gauss01(n, 0)
    pts, wts = [], []
    for a, pa in zip(xa, wa):
        for b, pb in zip(xb, wb):
            for c, pc in zip(xc, wc):
                x = a
                y = b * (1.0 - a)
                z = c * (1.0 - a) * (1.0 - b)
                pts.append((1.0 - x - y - z, x, y, z))
                wts.append(pa * pb * pc)
    w = np.array(wts)
    return np.array(pts), w / w.sum()


def tri_rule(degree: int) -> tuple[NDArrayF, NDArrayF]:
    if degree <= 1:
        return np.full((1, 3), 1.0 / 3.0), np.array([1.0])
    if degree == 2:
        bary = 0.5 * (1.0 - np.eye(3))
        return bary, np.full(3, 1.0 / 3.0)
    n = (degree + 2) // 2
    xa, wa = _gauss01(n, 1)
    xb, wb = _gauss01(n, 0)
    pts, wts = [], []
    for a, pa in zip(xa, wa):
        for b, pb in zip(xb, wb):
            x = a
            y = b * (1.0 - a)
            pts.append((1.0 - x - y, x, y))
            wts.append(pa * pb)
    w = np.array(wts)
    return np.array(pts), w / w.sum()


def _gauss01(n: int, alpha: int):
    # Nodes/weights for weight (1-x)^alpha on [0, 1].
    x, w = roots_jacobi(n, alpha, 0.0)
    return (x + 1.0) / 2.0, w / w.sum()


def elem_quad_points(mesh: Mesh, degree: int) -> tuple[NDArrayF, NDArrayF]:
    """Physical quadrature points (n_elems, nq, 3) and weights summing to 1."""
    bary, w = tet_rule(degree)
    return bary @ mesh.vertices[mesh.tets], w


def face_quad_points(mesh: Mesh, degree: int) -> tuple[NDArrayF, NDArrayF]:
    bary, w = tri_rule(degree)
    return bary @ mesh.vertices[mesh.face_vertices], w


# Elements (or faces) per block wherever whole-mesh arrays of values at the
# quadrature points would be large (`interpolation_errors`,
# `diagnostics.transport_moments`): one (QUAD_BLOCK, nq, 3, 3) float64 array
# of the degree-6 rule (nq = 64) takes at most 2 MB, and a block's
# temporaries about three times that.  Each block is reduced to per-element
# values.  A multiple of 64 starts every block at a multiple of 64 nq
# point rows, so BLAS kernels, whose results for a row can depend on its
# offset modulo their unrolling, treat each point as in one whole-mesh call,
# and no result depends on the blocking.
QUAD_BLOCK = (2 << 20) // (64 * 3 * 3 * 8) // 64 * 64


def quad_blocks(n: int) -> list[slice]:
    """Consecutive slices of at most QUAD_BLOCK rows covering range(n)."""
    return [slice(start, min(start + QUAD_BLOCK, n)) for start in range(0, n, QUAD_BLOCK)]


# ---------------------------------------------------------------------------
# Interpolation.


def cell_means(f, mesh: Mesh, degree: int = 2) -> NDArrayF:
    """Elementwise means of a callable, (n_elems,) or (n_elems, m)."""
    pts, w = elem_quad_points(mesh, degree)
    vals = np.asarray(f(pts.reshape(-1, 3)), dtype=float)
    vals = vals.reshape(pts.shape[0], pts.shape[1], -1)
    out = np.einsum("q,eqm->em", w, vals)
    return out[:, 0] if out.shape[1] == 1 else out


def interpolate_v(f, mesh: Mesh, degree: int = 2) -> NDArrayF:
    """(n_faces, 3) face averages of a vector function (no BC applied)."""
    pts, w = face_quad_points(mesh, degree)
    vals = np.asarray(f(pts.reshape(-1, 3)), dtype=float).reshape(pts.shape[0], -1, 3)
    return np.einsum("q,fqi->fi", w, vals)


def apply_bc(u: NDArrayF, mesh: Mesh) -> NDArrayF:
    """A copy of the face dofs `u` with the no-slip (boundary) rows zeroed."""
    out = u.copy()
    out[mesh.is_boundary_face] = 0.0
    return out


def element_average(u: NDArrayF, mesh: Mesh) -> NDArrayF:
    """Elementwise mean velocity: the mean of the element's four face dofs.

    For a piecewise-linear field the mean over the element equals its value at
    the barycenter, which is the average of the four face centroids.
    """
    return u[mesh.elem_faces].mean(axis=1)


def normal_flux(u: NDArrayF, mesh: Mesh) -> NDArrayF:
    """Normal flux per face, in the stored face-normal orientation; the dof
    being the face average makes this exact."""
    return np.einsum("fi,fi->f", u, mesh.face_normal)


# ---------------------------------------------------------------------------
# Per-element reconstructions (cached on the mesh).


def p1_coefficients(mesh: Mesh) -> NDArrayF:
    """(n_elems, 4, 4) maps 4 face values to [a1, a2, a3, d] with p = a.x + d.

    Rows of the inverted Vandermonde correspond to the element's local faces
    in `elem_faces` order; face values are imposed at face centroids, where a
    linear function attains its face average.
    """
    cached = mesh._space_cache.get("p1")
    if cached is None:
        centroids = mesh.face_centroid[mesh.elem_faces]          # (ne, 4, 3)
        V = np.concatenate([centroids, np.ones(centroids.shape[:2] + (1,))], axis=2)
        cached = np.linalg.inv(V)
        mesh._space_cache["p1"] = cached
    return cached


def basis_gradients(mesh: Mesh) -> NDArrayF:
    """(n_elems, 3, 4): constant gradient of the face-dof basis functions."""
    return p1_coefficients(mesh)[:, :3, :]


def flux_reconstruction_coefficients(mesh: Mesh) -> NDArrayF:
    """(n_elems, 4, 4) maps 4 face fluxes to [w1, w2, w3, s] with u = w + s*x.

    The normal component of w + s*x is constant on each face plane, so
    matching the four stored-orientation fluxes is a 4x4 solve per element.
    """
    cached = mesh._space_cache.get("rt0")
    if cached is None:
        nu = mesh.face_normal[mesh.elem_faces]                   # (ne, 4, 3)
        d = np.einsum("eli,eli->el", nu, mesh.face_centroid[mesh.elem_faces])
        V = np.concatenate([nu, d[:, :, None]], axis=2)
        cached = np.linalg.inv(V)
        mesh._space_cache["rt0"] = cached
    return cached


def broken_gradient(u: NDArrayF, mesh: Mesh) -> NDArrayF:
    """(n_elems, 3, 3) with G[e, i, j] = d u_i / d x_j, constant per element."""
    coeff = np.einsum("elk,eki->eli", p1_coefficients(mesh), u[mesh.elem_faces])
    return coeff[:, :3, :].transpose(0, 2, 1)


def broken_divergence(u: NDArrayF, mesh: Mesh) -> NDArrayF:
    return np.einsum("eii->e", broken_gradient(u, mesh))


def broken_curl(u: NDArrayF, mesh: Mesh) -> NDArrayF:
    G = broken_gradient(u, mesh)
    return np.stack(
        [G[:, 2, 1] - G[:, 1, 2], G[:, 0, 2] - G[:, 2, 0], G[:, 1, 0] - G[:, 0, 1]],
        axis=1,
    )


def flux_reconstruction(flux: NDArrayF, mesh: Mesh) -> tuple[NDArrayF, NDArrayF]:
    """Per-element (w, s) of the div-conforming field u = w + s*x matching the
    (n_faces,) normal fluxes `flux`."""
    coeff = np.einsum(
        "elk,ek->el", flux_reconstruction_coefficients(mesh), flux[mesh.elem_faces]
    )
    return coeff[:, :3], coeff[:, 3]


def eval_flux_reconstruction(flux: NDArrayF, mesh: Mesh, pts: NDArrayF) -> NDArrayF:
    """Evaluate the reconstructed field at (n_elems, nq, 3) element points."""
    w, s = flux_reconstruction(flux, mesh)
    return w[:, None, :] + s[:, None, None] * pts


# ---------------------------------------------------------------------------
# Identity residuals.


def commuting_residual(field, mesh: Mesh, degree: int = 2) -> dict[str, float]:
    """Max-norm defects of the three interpolation/derivative identities.

    `field` must provide `__call__(pts)` and `jacobian(pts)`.  For fields with
    polynomial degree <= `degree` the residuals are at rounding level.
    """
    interp = interpolate_v(field, mesh, degree=degree)

    def div_f(pts):
        return np.einsum("pii->p", field.jacobian(pts))

    def curl_f(pts):
        J = field.jacobian(pts)
        return np.stack(
            [J[:, 2, 1] - J[:, 1, 2], J[:, 0, 2] - J[:, 2, 0], J[:, 1, 0] - J[:, 0, 1]],
            axis=1,
        )

    div_mean = cell_means(div_f, mesh, degree)
    curl_mean = cell_means(curl_f, mesh, degree)

    res_div = np.abs(broken_divergence(interp, mesh) - div_mean).max()
    res_curl = np.abs(broken_curl(interp, mesh) - curl_mean).max()

    # Face-averaged normal fluxes of the field itself.
    fluxes = normal_flux(interp, mesh)
    div_flux = (
        np.einsum(
            "el,el,el->e",
            mesh.elem_face_sign,
            mesh.face_area[mesh.elem_faces],
            fluxes[mesh.elem_faces],
        )
        / mesh.elem_volume
    )
    res_flux = np.abs(div_flux - div_mean).max()

    return {"div": float(res_div), "curl": float(res_curl), "flux_div": float(res_flux)}


def orthogonality_residual(u: NDArrayF, field, mesh: Mesh, degree: int = 2) -> float:
    """Integral of grad_h u : grad_h(interp(field) - field) over the mesh.

    Vanishes for every dof field u because the face average of the
    interpolation error is zero on every face while grad_h u has constant
    normal derivative there.
    """
    Gu = broken_gradient(u, mesh)
    Gi = broken_gradient(interpolate_v(field, mesh, degree=degree), mesh)
    pts, w = elem_quad_points(mesh, degree)
    J = field.jacobian(pts.reshape(-1, 3)).reshape(pts.shape[0], -1, 3, 3)
    Gf = np.einsum("q,eqij->eij", w, J)
    return float(np.einsum("e,eij,eij->", mesh.elem_volume, Gu, Gi - Gf))


def interpolation_errors(field, mesh: Mesh, degree: int = 6) -> tuple[float, float]:
    """(L2 error, broken-H1 seminorm error) of the face-average interpolant."""
    interp = interpolate_v(field, mesh, degree=degree)
    coeff = p1_coefficients(mesh) @ interp[mesh.elem_faces]
    a, d = coeff[:, :3, :], coeff[:, 3, :]
    grad = a.transpose(0, 2, 1)                    # broken_gradient(interp, mesh)
    pts, w = elem_quad_points(mesh, degree)
    # Squared errors are summed per element, one block of elements at a time:
    # at high degree on fine meshes each (n_elems, nq, ...) array would be
    # tens of MB.
    l2_sq = np.empty(mesh.n_elems)
    h1_sq = np.empty(mesh.n_elems)
    for blk in quad_blocks(mesh.n_elems):
        p = pts[blk]
        flat = p.reshape(-1, 3)
        err = p @ a[blk]
        err += d[blk, None, :]
        err -= np.asarray(field(flat)).reshape(err.shape)
        l2_sq[blk] = np.einsum("q,eqi,eqi->e", w, err, err)
        # (J - G)^2 = (G - J)^2 bit for bit.
        dif = field.jacobian(flat).reshape(len(p), -1, 3, 3)
        dif -= grad[blk, None, :, :]
        h1_sq[blk] = np.einsum("q,eqij,eqij->e", w, dif, dif)
    vol = mesh.elem_volume
    return float(np.sqrt(np.sum(vol * l2_sq))), float(np.sqrt(np.sum(vol * h1_sq)))


# ---------------------------------------------------------------------------
# Smooth test fields with exact Jacobians.
#
# The quadratic fields use the monomial basis 1, x, y, z, x^2, y^2, z^2, xy,
# xz, yz.  Their derivatives are affine, d/dx_d = const_d + sum_k x_k lin_kd,
# and the two tables below read const and lin off the ten coefficients.


def _monomials(pts: NDArrayF) -> NDArrayF:
    """(npts, 10) values of the monomial basis at the points, as the
    transposed view of a row-per-monomial array."""
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    out = np.empty((10, len(pts)))
    out[0] = 1.0
    out[1:4] = pts.T
    for row, (i, j) in enumerate(((x, x), (y, y), (z, z), (x, y), (x, z), (y, z)), start=4):
        np.multiply(i, j, out=out[row])
    return out.T


# _GRAD_CONST[d, m]: constant part of d(monomial m)/dx_d.
_GRAD_CONST = np.zeros((3, 10))
_GRAD_CONST[[0, 1, 2], [1, 2, 3]] = 1.0
# _GRAD_LIN[k, d, m]: coefficient of x_k in d(monomial m)/dx_d.
_GRAD_LIN = np.zeros((3, 3, 10))
_GRAD_LIN[[0, 1, 2], [0, 1, 2], [4, 5, 6]] = 2.0
_GRAD_LIN[[1, 0, 2, 0, 2, 1], [0, 1, 0, 2, 1, 2], [7, 7, 8, 8, 9, 9]] = 1.0


@dataclass
class PolynomialField:
    """Vector field with trivariate polynomial components of degree <= 2.

    Coefficients are (3, 10) in the monomial basis
    1, x, y, z, x^2, y^2, z^2, xy, xz, yz.
    """

    coeffs: NDArrayF

    @classmethod
    def random(cls, rng: np.random.Generator, scale: float = 1.0) -> "PolynomialField":
        return cls(rng.uniform(-scale, scale, size=(3, 10)))

    def __call__(self, pts: NDArrayF) -> NDArrayF:
        return _monomials(np.atleast_2d(pts)) @ self.coeffs.T

    def jacobian(self, pts: NDArrayF) -> NDArrayF:
        pts = np.atleast_2d(pts)
        const = self.coeffs @ _GRAD_CONST.T                          # (3 comp, 3 deriv)
        lin = np.einsum("kdm,im->kid", _GRAD_LIN, self.coeffs).reshape(3, 9)
        return const + (pts @ lin).reshape(-1, 3, 3)


@dataclass
class SineField:
    """amplitude * (sin(k pi x) sin(k pi y) sin(k pi z)) in every component."""

    k: float = 1.0
    amplitude: float = 1.0

    def __call__(self, pts: NDArrayF) -> NDArrayF:
        pts = np.atleast_2d(pts)
        s = np.sin(self.k * np.pi * pts)
        val = self.amplitude * s.prod(axis=1)
        return np.repeat(val[:, None], 3, axis=1)

    def jacobian(self, pts: NDArrayF) -> NDArrayF:
        pts = np.atleast_2d(pts)
        kp = self.k * np.pi
        s = np.sin(kp * pts)
        c = np.cos(kp * pts)
        grad = self.amplitude * np.stack(
            [
                kp * c[:, 0] * s[:, 1] * s[:, 2],
                kp * s[:, 0] * c[:, 1] * s[:, 2],
                kp * s[:, 0] * s[:, 1] * c[:, 2],
            ],
            axis=1,
        )
        return np.repeat(grad[:, None, :], 3, axis=1)


@dataclass
class ScalarPolynomial:
    """Scalar trivariate polynomial of degree <= 2, same monomial basis."""

    coeffs: NDArrayF  # (10,)

    @classmethod
    def random(cls, rng: np.random.Generator, scale: float = 1.0) -> "ScalarPolynomial":
        return cls(rng.uniform(-scale, scale, size=10))

    def __call__(self, pts: NDArrayF) -> NDArrayF:
        return _monomials(np.atleast_2d(pts)) @ self.coeffs

    def gradient(self, pts: NDArrayF) -> NDArrayF:
        return _GRAD_CONST @ self.coeffs + np.atleast_2d(pts) @ (_GRAD_LIN @ self.coeffs)
