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
import scipy.sparse as sp

from .mesh import Mesh, NDArrayF, cached

# ---------------------------------------------------------------------------
# Quadrature.
#
# Rules are returned in barycentric coordinates with weights summing to one:
# integral over a simplex S of f  ~=  |S| * sum_q w_q f(x_q).
# The degree-2 defaults are the 4-point tet rule and the edge-midpoint
# triangle rule.  Above degree 2 the rules are fully symmetric, with positive
# weights and interior points: 14 tet points at degree 5 and 24 at degree 6
# (Keast, Comput. Methods Appl. Mech. Eng. 55, 1986), 6 triangle points at
# degree 4 and 12 at degree 6 (Dunavant, Int. J. Numer. Methods Eng. 21,
# 1985).  Each is stored by orbit, its parameters and per-point weight
# polished against the moment equations in 50-digit arithmetic and kept to
# 17 significant digits.  A requested degree gets the smallest rule at or
# above it.  Each rule is expanded on first request and returned as
# read-only arrays.

# The points of an orbit are the distinct permutations of its barycentric
# tuple; each coordinate has its own closed form, so that equal coordinates
# are equal in floating point and no orbit splits.
_ORBITS = {
    "S31": lambda a: (a, a, a, 1.0 - 3.0 * a),
    "S22": lambda a: (a, a, 0.5 - a, 0.5 - a),
    "S211": lambda a, b: (a, a, b, 1.0 - 2.0 * a - b),
    "S21": lambda a: (a, a, 1.0 - 2.0 * a),
    "S111": lambda a, b: (a, b, 1.0 - a - b),
}

# (degree, orbits) with orbits (kind, parameters, weight of each point).
_TET_RULES = (
    (5, (("S31", (0.092735250310891226,), 0.073493043116361950),
         ("S31", (0.31088591926330061,), 0.11268792571801585),
         ("S22", (0.45449629587435035,), 0.042546020777081466))),
    (6, (("S31", (0.21460287125915203,), 0.039922750258167492),
         ("S31", (0.040673958534611353,), 0.010077211055320643),
         ("S31", (0.32233789014227551,), 0.055357181543654722),
         ("S211", (0.063661001875017525, 0.60300566479164914), 27.0 / 560.0))),
)
_TRI_RULES = (
    (4, (("S21", (0.44594849091596489,), 0.22338158967801147),
         ("S21", (0.091576213509770743,), 0.10995174365532187))),
    (6, (("S21", (0.24928674517091042,), 0.11678627572637937),
         ("S21", (0.063089014491502228,), 0.050844906370206817),
         ("S111", (0.053145049844816947, 0.31035245103378441), 0.082851075618373575))),
)


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
    return _symmetric_rule(_TET_RULES, degree)


@cache
def tri_rule(degree: int) -> tuple[NDArrayF, NDArrayF]:
    if degree <= 1:
        return _read_only((np.full((1, 3), 1.0 / 3.0), np.array([1.0])))
    if degree == 2:
        bary = 0.5 * (1.0 - np.eye(3))
        return _read_only((bary, np.full(3, 1.0 / 3.0)))
    return _symmetric_rule(_TRI_RULES, degree)


def _symmetric_rule(rules, degree: int) -> tuple[NDArrayF, NDArrayF]:
    """The first of `rules` exact to `degree`, its orbits expanded."""
    orbits = next((o for exact, o in rules if exact >= degree), None)
    if orbits is None:
        raise ValueError(f"no quadrature rule of degree {degree}: the highest stored is "
                         f"{rules[-1][0]}")
    pts, wts = [], []
    for kind, params, weight in orbits:
        orbit = sorted(set(itertools.permutations(_ORBITS[kind](*params))))
        pts += orbit
        wts += [weight] * len(orbit)
    return _read_only((np.array(pts), np.array(wts)))


def elem_quad_points(mesh: Mesh, degree: int, block) -> tuple[NDArrayF, NDArrayF]:
    """Physical quadrature points (n, nq, 3) of the elements in `block` and
    weights summing to 1."""
    bary, w = tet_rule(degree)
    return bary @ mesh.vertices[mesh.tets[block]], w


def face_quad_points(mesh: Mesh, degree: int, block) -> tuple[NDArrayF, NDArrayF]:
    bary, w = tri_rule(degree)
    return bary @ mesh.vertices[mesh.face_vertices[block]], w


# Elements (or faces) per block of every element and face mean
# (`element_means`, `face_means`): one (QUAD_BLOCK, nq, 3, 3) float64 array
# of the degree-6 rule (nq = 24) takes at most 1 MB, and a block's
# temporaries about three times that, so no array of points or values grows
# with the mesh.  (At 2 MB, 1152 elements, the temporaries of a degree-6
# `cell_means` at n=8 outgrow one whole-mesh array of its points.)  Each
# block is reduced to per-element values.  A multiple of 64 starts every
# block at a multiple of 64 nq point rows, so BLAS kernels, whose results
# for a row can depend on its offset modulo their unrolling, treat each
# point as in one whole-mesh call, and no result depends on the blocking.
QUAD_BLOCK = (1 << 20) // (24 * 3 * 3 * 8) // 64 * 64


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


def cell_means(f, mesh: Mesh, degree: int) -> NDArrayF:
    """Elementwise means of a callable: (n_elems,) for scalar values,
    (n_elems, m) for (npts, m) values."""
    return element_means(lambda p, blk: (at_points(f, p),), mesh, degree)[0]


def interpolate_v(f, mesh: Mesh, degree: int) -> NDArrayF:
    """(n_faces, 3) face averages of a vector function (no BC applied)."""
    return face_means(lambda p, blk: (at_points(f, p),), mesh, degree)[0]


def apply_bc(u: NDArrayF, mesh: Mesh) -> NDArrayF:
    """A copy of the face dofs `u` with the no-slip (boundary) rows zeroed."""
    out = u.copy()
    out[mesh.is_boundary_face] = 0.0
    return out


@cached
def element_incidence(mesh: Mesh) -> sp.csr_matrix:
    """(n_elems, n_faces) matrix of ones whose row e holds the element's four
    faces in `elem_faces` order, built on first use and cached."""
    ef = mesh.elem_faces
    return sp.csr_matrix((np.ones(ef.size), ef.ravel(), np.arange(0, ef.size + 1, 4)),
                         shape=(mesh.n_elems, mesh.n_faces))


def element_average(u: NDArrayF, mesh: Mesh) -> NDArrayF:
    """Elementwise mean velocity: the mean of the element's four face dofs.

    For a piecewise-linear field the mean over the element equals its value at
    the barycenter, which is the average of the four face centroids.  Each
    row of `element_incidence` sums its four dofs in `elem_faces` order with
    unit weights, and the sum is scaled by 1/4 once, so the result is
    bitwise `u[mesh.elem_faces].mean(axis=1)`, subnormal values included
    (weights of 1/4 would round each term there); a sum of four -0.0 comes
    out +0.0.
    """
    return (element_incidence(mesh) @ u) * 0.25


def normal_flux(u: NDArrayF, mesh: Mesh) -> NDArrayF:
    """Normal flux per face, in the stored face-normal orientation; the dof
    being the face average makes this exact."""
    return np.einsum("fi,fi->f", u, mesh.face_normal)


# ---------------------------------------------------------------------------
# Per-element reconstructions (cached on the mesh).


@cached
def p1_coefficients(mesh: Mesh) -> NDArrayF:
    """(n_elems, 4, 4) maps 4 face values to [a1, a2, a3, d] with p = a.x + d.

    Column l, of local face l in `elem_faces` order, is the Crouzeix-Raviart
    basis function (RAIRO Anal. Numer. 7, 1973) with gradient
    sign_l |f_l| n_l / |E| and d_l = 1 - grad . x_l: it is 1 at its face
    centroid x_l, where a linear function attains its face average, and 0 at
    the other three.
    """
    ef = mesh.elem_faces
    scale = mesh.elem_face_sign * mesh.face_area[ef] / mesh.elem_volume[:, None]
    coeff = np.ones((mesh.n_elems, 4, 4))
    for i in range(3):          # one coordinate at a time: gathers of scalars
        grad = np.multiply(mesh.face_normal[ef, i], scale, out=coeff[:, i, :])
        coeff[:, 3, :] -= grad * mesh.face_centroid[ef, i]
    return coeff


def basis_gradients(mesh: Mesh) -> NDArrayF:
    """(n_elems, 3, 4): constant gradient of the face-dof basis functions."""
    return p1_coefficients(mesh)[:, :3, :]


def broken_gradient(u: NDArrayF, mesh: Mesh) -> NDArrayF:
    """(n_elems, 3, 3) with G[e, i, j] = d u_i / d x_j, constant per element."""
    return np.matmul(basis_gradients(mesh), np.take(u, mesh.elem_faces, axis=0)).transpose(0, 2, 1)


def broken_divergence(u: NDArrayF, mesh: Mesh) -> NDArrayF:
    """(n_elems,) trace of `broken_gradient`, by the divergence theorem
    sum_l sign_l |f_l| F_l / |E| with F = `normal_flux(u)`."""
    ef = mesh.elem_faces
    return (np.einsum("el,el,el->e", mesh.elem_face_sign, mesh.face_area[ef],
                      normal_flux(u, mesh)[ef]) / mesh.elem_volume)


def broken_curl(u: NDArrayF, mesh: Mesh) -> NDArrayF:
    G = broken_gradient(u, mesh)
    return np.stack(
        [G[:, 2, 1] - G[:, 1, 2], G[:, 0, 2] - G[:, 2, 0], G[:, 1, 0] - G[:, 0, 1]],
        axis=1,
    )


def flux_reconstruction(flux: NDArrayF, mesh: Mesh) -> tuple[NDArrayF, NDArrayF]:
    """Per-element (w, s) of the div-conforming field u = w + s*x matching the
    (n_faces,) normal fluxes `flux`.

    This is the lowest-order Raviart-Thomas field.  Its basis function of
    local face l, |f_l| (x - x_l) / (3 |E|) with x_l the vertex opposite the
    face, has outward normal component 1 on f_l and 0 on the other faces.
    With q_l = sign_l |f_l| F_l / (3 |E|), the field is sum_l q_l (x - x_l):
    s = sum_l q_l and w = -sum_l q_l x_l.
    """
    vol3 = 3.0 * mesh.elem_volume
    w = np.zeros((mesh.n_elems, 3))
    s = np.zeros(mesh.n_elems)
    for l in range(4):
        face = mesh.elem_faces[:, l]
        q = mesh.elem_face_sign[:, l] * mesh.face_area[face] * flux[face] / vol3
        s += q
        qx = np.take(mesh.vertices, mesh.tets[:, l], axis=0)   # rows, faster than mesh.vertices[...]
        qx *= q[:, None]
        w -= qx
    return w, s


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

    # The reconstruction w + s x of the field's face fluxes has divergence 3 s.
    _, s = flux_reconstruction(normal_flux(interp, mesh), mesh)
    res_flux = np.abs(3.0 * s - div_mean).max()

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


def interpolation_errors(field, mesh: Mesh, degree: int) -> tuple[float, float]:
    """(L2 error, broken-H1 seminorm error) of the face-average interpolant."""
    interp = interpolate_v(field, mesh, degree=degree)
    coeff = p1_coefficients(mesh) @ interp[mesh.elem_faces]
    a, d = coeff[:, :3, :], coeff[:, 3, :]          # a[e, j, i] = d u_i / d x_j

    def squared_errors(p, blk):
        val, jac = (x.reshape(p.shape[:2] + x.shape[1:])
                    for x in field.value_and_jacobian(p.reshape(-1, 3)))
        err = p @ a[blk]
        err += d[blk, None, :]
        err -= val
        h1 = sum(np.square(jac[..., i, j] - a[blk, None, j, i])     # one (nb, nq) entry at a time
                 for i, j in itertools.product(range(3), repeat=2))
        return np.einsum("eqi,eqi->eq", err, err), h1

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


def _combine(coeffs: NDArrayF, pts: NDArrayF) -> NDArrayF:
    """sum_m coeffs[..., m] * (monomial m), one (..., npts) array, added
    elementwise in monomial order: each point's value is then the same bits
    wherever it sits in `pts`, which a BLAS product does not guarantee."""
    rows = _monomials(np.atleast_2d(pts)).T
    out = coeffs[..., 0, None] * rows[0]
    for m in range(1, 10):
        out += coeffs[..., m, None] * rows[m]
    return out


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
    def random(cls, rng: np.random.Generator) -> "PolynomialField":
        return cls(rng.uniform(-1.0, 1.0, size=(3, 10)))

    def __call__(self, pts: NDArrayF) -> NDArrayF:
        return _combine(self.coeffs, pts).T

    def jacobian(self, pts: NDArrayF) -> NDArrayF:
        pts = np.atleast_2d(pts)
        const = self.coeffs @ _GRAD_CONST.T                          # (3 comp, 3 deriv)
        lin = np.einsum("kdm,im->kid", _GRAD_LIN, self.coeffs).reshape(3, 9)
        return const + (pts @ lin).reshape(-1, 3, 3)

    def value_and_jacobian(self, pts: NDArrayF) -> tuple[NDArrayF, NDArrayF]:
        return self(pts), self.jacobian(pts)


@dataclass
class SineField:
    """amplitude * (sin(k pi x) sin(k pi y) sin(k pi z)) in every component.

    Values and Jacobians are read-only views that repeat one component."""

    k: float = 1.0
    amplitude: float = 1.0

    def _phase(self, pts: NDArrayF) -> NDArrayF:
        """k pi x as a (3, npts) array, one contiguous row per axis."""
        return np.multiply(self.k * np.pi, np.atleast_2d(pts).T, order="C")

    def _value(self, s: NDArrayF) -> NDArrayF:
        """The field from the (3, npts) sines."""
        val = s[0] * s[1]
        val *= s[2]
        val *= self.amplitude
        return np.broadcast_to(val[:, None], (len(val), 3))

    def __call__(self, pts: NDArrayF) -> NDArrayF:
        return self._value(np.sin(self._phase(pts)))

    def jacobian(self, pts: NDArrayF) -> NDArrayF:
        return self.value_and_jacobian(pts)[1]

    def value_and_jacobian(self, pts: NDArrayF) -> tuple[NDArrayF, NDArrayF]:
        """`self(pts)` and `self.jacobian(pts)` from one sin and one cos pass."""
        kp = self.k * np.pi
        phase = self._phase(pts)
        s = np.sin(phase)
        c = np.cos(phase, out=phase)
        # Row i of grad, d/dx_i, is ((kp * f_0) * f_1) * f_2 with f_i = c_i
        # and the other two factors s.
        grad = np.empty_like(s)
        for i in range(3):
            f = [c[m] if m == i else s[m] for m in range(3)]
            row = np.multiply(kp, f[0], out=grad[i])
            row *= f[1]
            row *= f[2]
        grad *= self.amplitude
        return self._value(s), np.broadcast_to(grad.T[:, None, :], (s.shape[1], 3, 3))


@dataclass
class ScalarPolynomial:
    """Scalar trivariate polynomial of degree <= 2, same monomial basis."""

    coeffs: NDArrayF  # (10,)

    @classmethod
    def random(cls, rng: np.random.Generator) -> "ScalarPolynomial":
        return cls(rng.uniform(-1.0, 1.0, size=10))

    def __call__(self, pts: NDArrayF) -> NDArrayF:
        return _combine(self.coeffs, pts)

    def gradient(self, pts: NDArrayF) -> NDArrayF:
        return _GRAD_CONST @ self.coeffs + np.atleast_2d(pts) @ (_GRAD_LIN @ self.coeffs)


def polynomial_values(phi: ScalarPolynomial, v: PolynomialField,
                      pts: NDArrayF) -> tuple[NDArrayF, NDArrayF]:
    """`phi(pts)` and `v(pts)`, with their bits, from one monomial table."""
    out = _combine(np.vstack([phi.coeffs, v.coeffs]), pts)
    return out[0], out[1:].T
