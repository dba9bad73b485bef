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

import itertools
from dataclasses import dataclass
from functools import cache

import numpy as np

from .mesh import Mesh, NDArrayF, cached

# ---------------------------------------------------------------------------
# Quadrature.
#
# Rules are returned in barycentric coordinates with weights summing to one:
# integral over a simplex S of f  ~=  |S| * sum_q w_q f(x_q).
# The degree-2 defaults are the 4-point tet rule and the edge-midpoint
# triangle rule; higher degrees use collapsed Gauss-Jacobi product rules.
# Each rule is computed once per degree and returned as read-only arrays.


def _read_only(rule):
    for arr in rule:
        arr.flags.writeable = False
    return rule


@cache
def tet_rule(degree: int) -> tuple[NDArrayF, NDArrayF]:
    if degree <= 1:
        return _read_only((np.full((1, 4), 0.25), np.array([1.0])))
    if degree == 2:
        a = (5.0 + 3.0 * np.sqrt(5.0)) / 20.0
        b = (5.0 - np.sqrt(5.0)) / 20.0
        bary = np.full((4, 4), b)
        np.fill_diagonal(bary, a)
        return _read_only((bary, np.full(4, 0.25)))
    return _collapsed_rule(3, degree)


@cache
def tri_rule(degree: int) -> tuple[NDArrayF, NDArrayF]:
    if degree <= 1:
        return _read_only((np.full((1, 3), 1.0 / 3.0), np.array([1.0])))
    if degree == 2:
        bary = 0.5 * (1.0 - np.eye(3))
        return _read_only((bary, np.full(3, 1.0 / 3.0)))
    return _collapsed_rule(2, degree)


def _collapsed_rule(dim: int, degree: int) -> tuple[NDArrayF, NDArrayF]:
    """Collapsed Gauss-Jacobi product rule on the dim-simplex, exact to
    `degree`.  Axis i takes the rule for the weight (1-t)^(dim-1-i), and its
    node is scaled by (1 - t_j) of every axis j before it."""
    n = (degree + 2) // 2
    axes = [list(zip(*_gauss01(n, alpha))) for alpha in range(dim - 1, -1, -1)]
    pts, wts = [], []
    for nodes in itertools.product(*axes):
        coords, weight = [], 1.0
        for i, (t, w) in enumerate(nodes):
            for s, _ in nodes[:i]:
                t = t * (1.0 - s)
            coords.append(t)
            weight *= w
        first = 1.0
        for x in coords:
            first -= x
        pts.append((first, *coords))
        wts.append(weight)
    w = np.array(wts)
    return _read_only((np.array(pts), w / w.sum()))


def _gauss01(n: int, alpha: int):
    """n-point Gauss rule for the weight (1-x)^alpha on [0, 1], weights summing
    to one: the Gauss-Jacobi rule for (1-t)^alpha on [-1, 1], by Golub-Welsch
    (Math. Comp. 23, 1969).  Its nodes are the eigenvalues of the symmetric
    tridiagonal Jacobi matrix of the monic recurrence, its weights the squared
    first components of the unit eigenvectors.  For n <= 8 and alpha <= 2 the
    weights are within 5.3e-15 relative of a 40-digit evaluation, those of
    scipy.special.roots_jacobi within 2.1e-14."""
    k = np.arange(1, n)
    s = 2.0 * k + alpha   # 2k + alpha + beta, beta = 0
    diag = np.empty(n)
    diag[0] = -alpha / (alpha + 2.0)
    diag[1:] = -alpha**2 / (s * (s + 2.0))
    off = 2.0 * k * (k + alpha) / (s * np.sqrt(s**2 - 1.0))
    t, vectors = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    w = vectors[0] ** 2
    return (t + 1.0) / 2.0, w / w.sum()


def elem_quad_points(mesh: Mesh, degree: int, block=slice(None)) -> tuple[NDArrayF, NDArrayF]:
    """Physical quadrature points (n, nq, 3) of the elements in `block` (all
    by default) and weights summing to 1."""
    bary, w = tet_rule(degree)
    return bary @ mesh.vertices[mesh.tets[block]], w


def face_quad_points(mesh: Mesh, degree: int, block=slice(None)) -> tuple[NDArrayF, NDArrayF]:
    bary, w = tri_rule(degree)
    return bary @ mesh.vertices[mesh.face_vertices[block]], w


# Elements (or faces) per block of every element and face mean
# (`element_means`, `face_means`): one (QUAD_BLOCK, nq, 3, 3) float64 array
# of the degree-6 rule (nq = 64) takes at most 2 MB, and a block's
# temporaries about three times that, so no array of points or values grows
# with the mesh.  Each block is reduced to per-element values.  A multiple
# of 64 starts every block at a multiple of 64 nq point rows, so BLAS
# kernels, whose results for a row can depend on its offset modulo their
# unrolling, treat each point as in one whole-mesh call, and no result
# depends on the blocking.
QUAD_BLOCK = (2 << 20) // (64 * 3 * 3 * 8) // 64 * 64


def quad_blocks(n: int) -> list[slice]:
    """Consecutive slices of at most QUAD_BLOCK rows covering range(n)."""
    return [slice(start, min(start + QUAD_BLOCK, n)) for start in range(0, n, QUAD_BLOCK)]


def element_means(fn, mesh: Mesh, degree: int) -> list[NDArrayF]:
    """Element quadrature means, one (n_elems, ...) array for each (nb, nq, ...)
    array that `fn(points, block)` returns at the (nb, nq, 3) points of the
    elements in `block`."""
    return _quad_means(fn, mesh, degree, mesh.n_elems, elem_quad_points)


def face_means(fn, mesh: Mesh, degree: int) -> list[NDArrayF]:
    """As `element_means`, over the faces: one (n_faces, ...) array each."""
    return _quad_means(fn, mesh, degree, mesh.n_faces, face_quad_points)


def _quad_means(fn, mesh: Mesh, degree: int, n: int, points) -> list[NDArrayF]:
    means = None
    for blk in quad_blocks(n):
        pts, w = points(mesh, degree, blk)
        vals = fn(pts, blk)
        if means is None:
            means = [np.empty((n,) + v.shape[2:]) for v in vals]
        for mean, v in zip(means, vals):
            mean[blk] = np.einsum("q,eq...->e...", w, v)
    return means


def at_points(f, pts: NDArrayF) -> NDArrayF:
    """f, which maps (npts, 3) points to (npts, ...) values, at the
    (nb, nq, 3) points `pts`, as an (nb, nq, ...) float array."""
    vals = np.asarray(f(pts.reshape(-1, 3)), dtype=float)
    return vals.reshape(pts.shape[:2] + vals.shape[1:])


# ---------------------------------------------------------------------------
# Interpolation.


def cell_means(f, mesh: Mesh, degree: int = 2) -> NDArrayF:
    """Elementwise means of a callable: (n_elems,) for scalar values,
    (n_elems, m) for (npts, m) values."""
    return element_means(lambda p, blk: (at_points(f, p),), mesh, degree)[0]


def interpolate_v(f, mesh: Mesh, degree: int = 2) -> NDArrayF:
    """(n_faces, 3) face averages of a vector function (no BC applied)."""
    return face_means(lambda p, blk: (at_points(f, p),), mesh, degree)[0]


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


@cached
def p1_coefficients(mesh: Mesh) -> NDArrayF:
    """(n_elems, 4, 4) maps 4 face values to [a1, a2, a3, d] with p = a.x + d.

    Rows of the inverted Vandermonde correspond to the element's local faces
    in `elem_faces` order; face values are imposed at face centroids, where a
    linear function attains its face average.
    """
    centroids = mesh.face_centroid[mesh.elem_faces]          # (ne, 4, 3)
    V = np.concatenate([centroids, np.ones(centroids.shape[:2] + (1,))], axis=2)
    return np.linalg.inv(V)


def basis_gradients(mesh: Mesh) -> NDArrayF:
    """(n_elems, 3, 4): constant gradient of the face-dof basis functions."""
    return p1_coefficients(mesh)[:, :3, :]


@cached
def flux_reconstruction_coefficients(mesh: Mesh) -> NDArrayF:
    """(n_elems, 4, 4) maps 4 face fluxes to [w1, w2, w3, s] with u = w + s*x.

    The normal component of w + s*x is constant on each face plane, so
    matching the four stored-orientation fluxes is a 4x4 solve per element.
    """
    nu = mesh.face_normal[mesh.elem_faces]                   # (ne, 4, 3)
    d = np.einsum("eli,eli->el", nu, mesh.face_centroid[mesh.elem_faces])
    V = np.concatenate([nu, d[:, :, None]], axis=2)
    return np.linalg.inv(V)


def broken_gradient(u: NDArrayF, mesh: Mesh) -> NDArrayF:
    """(n_elems, 3, 3) with G[e, i, j] = d u_i / d x_j, constant per element."""
    coeff = np.einsum("elk,eki->eli", p1_coefficients(mesh), u[mesh.elem_faces])
    return coeff[:, :3, :].transpose(0, 2, 1)


def broken_divergence(u: NDArrayF, mesh: Mesh) -> NDArrayF:
    """(n_elems,) trace of `broken_gradient`, forming only its diagonal: the
    same sums of products, added in the same order, so the same bits."""
    g = np.einsum("eik,eki->ei", p1_coefficients(mesh)[:, :3, :], u[mesh.elem_faces])
    return g[:, 0] + g[:, 1] + g[:, 2]


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

    def div_curl(p, blk):
        J = at_points(field.jacobian, p)
        curl = np.stack([J[..., 2, 1] - J[..., 1, 2], J[..., 0, 2] - J[..., 2, 0],
                         J[..., 1, 0] - J[..., 0, 1]], axis=-1)
        return np.einsum("eqii->eq", J), curl

    div_mean, curl_mean = element_means(div_curl, mesh, degree)

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
    (Gf,) = element_means(lambda p, blk: (at_points(field.jacobian, p),), mesh, degree)
    return float(np.einsum("e,eij,eij->", mesh.elem_volume, Gu, Gi - Gf))


def interpolation_errors(field, mesh: Mesh, degree: int = 6) -> tuple[float, float]:
    """(L2 error, broken-H1 seminorm error) of the face-average interpolant."""
    interp = interpolate_v(field, mesh, degree=degree)
    coeff = p1_coefficients(mesh) @ interp[mesh.elem_faces]
    a, d = coeff[:, :3, :], coeff[:, 3, :]
    grad = a.transpose(0, 2, 1)                    # broken_gradient(interp, mesh)

    def squared_errors(p, blk):
        err = p @ a[blk]
        err += d[blk, None, :]
        err -= at_points(field, p)
        dif = at_points(field.jacobian, p) - grad[blk, None, :, :]
        return np.einsum("eqi,eqi->eq", err, err), np.einsum("eqij,eqij->eq", dif, dif)

    l2_sq, h1_sq = element_means(squared_errors, mesh, degree)
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
    """amplitude * (sin(k pi x) sin(k pi y) sin(k pi z)) in every component.

    Values and Jacobians are read-only views that repeat one component."""

    k: float = 1.0
    amplitude: float = 1.0

    def _phase(self, pts: NDArrayF) -> NDArrayF:
        """k pi x as a (3, npts) array, one contiguous row per axis."""
        return np.multiply(self.k * np.pi, np.atleast_2d(pts).T, order="C")

    def __call__(self, pts: NDArrayF) -> NDArrayF:
        phase = self._phase(pts)
        s = np.sin(phase, out=phase)
        val = s[0] * s[1]
        val *= s[2]
        val *= self.amplitude
        return np.broadcast_to(val[:, None], (len(val), 3))

    def jacobian(self, pts: NDArrayF) -> NDArrayF:
        kp = self.k * np.pi
        phase = self._phase(pts)
        s = np.sin(phase)
        c = np.cos(phase, out=phase)
        # Column i is ((kp * f_0) * f_1) * f_2 with f_i = c_i and the other
        # two factors s.
        grad = np.empty((s.shape[1], 3))
        for i in range(3):
            f = [c[m] if m == i else s[m] for m in range(3)]
            col = np.multiply(kp, f[0], out=grad[:, i])
            col *= f[1]
            col *= f[2]
        grad *= self.amplitude
        return np.broadcast_to(grad[:, None, :], (len(grad), 3, 3))


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
