"""Fully implicit coupled scheme for isentropic compressible Navier-Stokes.

Unknowns per time step are one density per element and one velocity vector
per interior face (no-slip walls fix boundary face dofs to zero).  The
density satisfies a finite-volume balance with upwind mass fluxes, the
velocity a nonconforming piecewise-linear momentum balance where convected
momentum is upwinded with the same mass flux and carried by elementwise mean
velocities.  Both equations add a face jump penalty on the density scaled by
h^(1-epsilon); the analysis behind the scheme needs epsilon > 1/6.

Continuity row of element E (residual form, interior faces only):

    |E| (rho_E - rho_E^prev) / dt
      + sum_faces |f| (outward upwind mass flux)
      - h^(1-eps) sum_faces |f| (rho_neighbor - rho_E)  = 0

Momentum rows are tested with the face-dof basis.  Because density and mean
velocity are elementwise constant, every volume term reduces exactly: the
integral of a constant against a basis function over an element is |E|/4
times the constant, so no quadrature appears anywhere in the assembly.

Every term is a face jump or an element average applied to a face or element
quantity, so both residual blocks are products of a few sparse operators
built once per mesh (`mesh_operators`) with the face fluxes of `fluxes.py`:

    continuity rows = |E| drho/dt + alpha jump^T (|f| (Up - h^(1-eps) [rho]))
    momentum rows   = avg^T (|E| d(rho uhat)/dt) + K u
                      + alpha (avg^T jump^T F - G p)

with [rho] = rho_neighbor - rho_owner, jump^T scattering a face value +owner
and -neighbor, avg the 1/4 element average of face dofs, K the broken-gradient
stiffness, G the |E|-weighted basis gradients, and F = |f| (UpM - h^(1-eps)
[rho] mean(uhat)) the momentum face flux.  The Jacobian is the same products
with diagonal scalings, so its sparsity pattern is fixed per mesh: the first
call on a mesh lists every path of those products once, and one sort of the
list gives the pattern and a linear map from the scalings to the matrix
values (`jacobian_map`); every call fills the whole pattern, zeros included,
with one sparse product.  The alpha = 0 matrix M_rho + dt K, the scalar
velocity block's mass and stiffness, has a map of its own on its own
smaller pattern (`alpha0_map`, `alpha0_matrix`).

`residual` and `jacobian` take a continuation weight alpha in [0, 1] that
scales convection, pressure and both stabilization terms; time terms and
viscous diffusion are never scaled.  alpha = 1 is the scheme itself, and the
residual is affine in alpha.  At alpha = 0 the equations decouple: the
density equation returns the previous density and the momentum equation is a
symmetric positive definite solve, which gives the solver an exactly
solvable start for continuation.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .fluxes import (stab_continuity, stab_momentum, stab_momentum_derivatives, upwind_momentum,
                     upwind_momentum_derivatives, upwind_scalar, upwind_scalar_derivatives)
from .mesh import Mesh, NDArrayF, NDArrayI, cached, interior_sides
from .spaces import (
    apply_bc,
    basis_gradients,
    cell_means,
    element_average,
    interpolate_v,
    normal_flux,
)


@dataclass(frozen=True)
class SchemeParams:
    """Physical and numerical parameters of the scheme.

    gamma is the pressure-law exponent, p = a rho^gamma; the compactness
    theory wants gamma > 3, smaller values only trigger a warning.  kappa is
    the mesh-dependent floor kappa*h added to the initial density; zero is
    accepted for strictly positive data.  dt = c * h is recomputed per mesh.
    """

    gamma: float = 3.5
    a: float = 1.0
    epsilon: float = 0.2
    kappa: float = 0.01
    c: float = 0.5
    newton_tol: float = 1e-9
    newton_max_iter: int = 50

    def __post_init__(self):
        if self.gamma <= 1.0:
            raise ValueError(f"gamma must be > 1, got {self.gamma}")
        if self.gamma <= 3.0:
            warnings.warn(
                f"gamma = {self.gamma} <= 3: outside the range covered by the "
                "convergence theory",
                stacklevel=3,   # past the dataclass-generated __init__, to its caller
            )
        if self.a <= 0.0:
            raise ValueError(f"pressure coefficient a must be > 0, got {self.a}")
        if self.epsilon <= 1.0 / 6.0:
            raise ValueError(
                f"epsilon must exceed 1/6 for the stabilization to control the "
                f"upwind error terms, got {self.epsilon}"
            )
        if self.epsilon >= 1.0:
            raise ValueError(f"epsilon must be < 1, got {self.epsilon}")
        if self.kappa < 0.0:
            raise ValueError(f"kappa must be >= 0, got {self.kappa}")
        if self.c <= 0.0:
            raise ValueError(f"time step factor c must be > 0, got {self.c}")
        if self.newton_tol <= 0.0 or self.newton_max_iter < 1:
            raise ValueError("invalid Newton settings")

    def dt(self, mesh: Mesh) -> float:
        return self.c * mesh.h

    def h_power(self, mesh: Mesh) -> float:
        return mesh.h ** (1.0 - self.epsilon)


@dataclass
class State:
    """Discrete state at time level `k`, which is at time k dt (`step_count`).

    `rho` holds the (n_elems,) element densities and `u` the (n_faces, 3)
    face-average velocities, no-slip dofs included (zero when admissible).
    """

    rho: NDArrayF
    u: NDArrayF
    k: int


@dataclass
class ResidualVector:
    """Residual split into continuity (per element) and momentum blocks.

    Momentum rows follow interior faces in face-index order, three components
    per face.  Summing the continuity block telescopes the flux and
    stabilization contributions away, leaving (mass - mass_prev) / dt.
    """

    continuity: NDArrayF          # (n_elems,)
    momentum: NDArrayF            # (n_interior_faces, 3)

    def ravel(self) -> NDArrayF:
        return np.concatenate([self.continuity, self.momentum.ravel()])


def pressure(rho, params: SchemeParams):
    """Isentropic pressure p = a rho^gamma."""
    return params.a * np.asarray(rho, dtype=float) ** params.gamma


def pressure_derivative(rho, params: SchemeParams):
    return params.a * params.gamma * np.asarray(rho, dtype=float) ** (params.gamma - 1.0)


_PROJECTION_DEGREE = 2   # quadrature degree of the initial projection


class InitialDataError(ValueError):
    """Initial data the scheme cannot start from."""


def initial_state(rho0: Callable, m0: Callable, mesh: Mesh, params: SchemeParams) -> State:
    """Project initial data: elementwise mean density plus the kappa*h floor,
    and face averages of m0 / (rho0 + kappa*h) with no-slip dofs zeroed.
    Raises InitialDataError if, at a quadrature point, rho0 is negative or
    rho0 + kappa*h is zero (the velocity would divide by it)."""
    floor = params.kappa * mesh.h

    def density(p):
        rho = np.asarray(rho0(p), dtype=float)
        if rho.min() < 0.0:
            raise InitialDataError("initial density is negative at a quadrature point")
        if rho.min() + floor <= 0.0:
            raise InitialDataError("initial density is zero at a quadrature point and "
                                   "kappa = 0 adds no floor, so m0 / rho0 is undefined there")
        return rho

    rho = cell_means(density, mesh, _PROJECTION_DEGREE) + floor

    def velocity(p):
        return np.asarray(m0(p), dtype=float) / (density(p) + floor)[:, None]

    u = apply_bc(interpolate_v(velocity, mesh, _PROJECTION_DEGREE), mesh)
    return State(rho=rho, u=u, k=0)


# ---------------------------------------------------------------------------
# Assembly.


def pack(state: State, mesh: Mesh) -> NDArrayF:
    int_f, _, _ = interior_sides(mesh)
    return np.concatenate([state.rho, state.u[int_f].ravel()])


def unpack(x: NDArrayF, mesh: Mesh, k: int) -> State:
    ne = mesh.n_elems
    u = np.zeros(3 * mesh.n_faces)
    u[mesh_operators(mesh).dofs] = x[ne:]
    return State(rho=x[:ne].copy(), u=u.reshape(-1, 3), k=k)


def interior_fluxes(state: State, mesh: Mesh) -> tuple[NDArrayF, NDArrayF]:
    """Normal velocity flux and upwind mass flux Up on the interior faces."""
    int_f, own, nbr = interior_sides(mesh)
    flux = normal_flux(state.u, mesh)[int_f]
    rho = state.rho
    return flux, upwind_scalar(rho[own], rho[nbr], flux)


@dataclass(frozen=True)
class MeshOperators:
    """Sparse operators the residual, Jacobian and alpha = 0 blocks are made
    of, and the positions `unpack` scatters the velocity unknowns to.

    Shapes use ne elements, nf faces and ni interior faces.  Face rows follow
    the interior faces in face-index order; momentum rows and velocity
    columns interleave the three components face by face, as `pack` does.
    """

    own: sp.csr_matrix          # (ni, ne) selects the owner element of a face
    nbr: sp.csr_matrix          # (ni, ne) selects the neighbor element
    jump_t: sp.csr_matrix       # (ne, ni) (own - nbr).T: scatters a face flux +owner/-neighbor
    avg: sp.csr_matrix          # (ne, ni) element average of the interior face dofs
    avg_t: sp.csr_matrix        # (ni, ne) avg.T, its products bitwise avg.T's (element order)
    face_test: sp.csr_matrix    # (ni, ni) avg.T jump.T: face fluxes tested with the face basis
    stiffness: sp.csr_matrix    # (ni, nf) broken-gradient stiffness on every face dof
    stiffness_int: sp.csr_matrix  # (ni, ni) its interior columns
    pressure: sp.csr_matrix     # (3 ni, ne) |E| times the basis gradients
    normal: sp.csr_matrix       # (ni, 3 ni) interior dofs to normal fluxes
    dofs: NDArrayI              # (3 ni,) where the velocity unknowns sit in a flat (nf, 3) velocity


@cached
def mesh_operators(mesh: Mesh) -> MeshOperators:
    """The scheme's operators on `mesh`, built on first use and cached."""
    int_f, own_e, nbr_e = interior_sides(mesh)
    ne, nf, ni = mesh.n_elems, mesh.n_faces, len(int_f)
    eye = sp.identity(ne, format="csr")
    own, nbr = eye[own_e], eye[nbr_e]
    jump = own - nbr

    ef = mesh.elem_faces
    avg = sp.csr_matrix((np.full(ef.size, 0.25), ef.ravel(), np.arange(0, ef.size + 1, 4)),
                        shape=(ne, nf))[:, int_f]
    face_test = (avg.T @ jump.T).tocsr()

    gb = basis_gradients(mesh)                                    # (ne, 3, 4)
    grad = sp.csr_matrix((gb.ravel(), np.repeat(ef, 3, axis=0).ravel(),
                          np.arange(0, gb.size + 1, 4)), shape=(3 * ne, nf))  # rows 3e+d
    weighted = sp.diags(np.repeat(mesh.elem_volume, 3)) @ grad
    stiffness = (grad.T @ weighted).tocsr()[int_f]
    # Pressure row 3i+d is column int_f[i] of the weighted rows 3e+d.
    pressure_op = sp.vstack([weighted[d::3].T for d in range(3)]).tocsr()[
        (np.arange(3) * nf + int_f[:, None]).ravel()]
    normal = sp.csr_matrix(
        (mesh.face_normal[int_f].ravel(), np.arange(3 * ni), np.arange(0, 3 * ni + 1, 3)),
        shape=(ni, 3 * ni),
    )

    return MeshOperators(
        own=own, nbr=nbr, jump_t=jump.T.tocsr(), avg=avg, avg_t=avg.T.tocsr(), face_test=face_test,
        stiffness=stiffness, stiffness_int=stiffness[:, int_f],
        pressure=pressure_op, normal=normal, dofs=(3 * int_f[:, None] + np.arange(3)).ravel(),
    )


def _sides(uhat: NDArrayF, own: NDArrayI, nbr: NDArrayI) -> tuple[NDArrayF, NDArrayF]:
    """The owner's and the neighbor's rows of `uhat` on the interior faces
    (np.take gathers rows about 3x faster than indexing)."""
    return np.take(uhat, own, axis=0), np.take(uhat, nbr, axis=0)


def residual(
    prev: State, guess: State, params: SchemeParams, mesh: Mesh, alpha: float = 1.0
) -> ResidualVector:
    """Scheme residual at `guess`, with continuation weight `alpha`."""
    ops = mesh_operators(mesh)
    dt = params.dt(mesh)
    int_f, own, nbr = interior_sides(mesh)
    vol, area = mesh.elem_volume, mesh.face_area[int_f]

    rho = guess.rho
    rho_prev = prev.rho
    uhat = element_average(guess.u, mesh)
    uhat_prev = element_average(prev.u, mesh)
    uhat_own, uhat_nbr = _sides(uhat, own, nbr)

    _, up = interior_fluxes(guess, mesh)
    jump, hp = rho[nbr] - rho[own], params.h_power(mesh)
    stab = stab_continuity(jump, hp, area)
    cont = vol * (rho - rho_prev) / dt + alpha * (ops.jump_t @ (area * up - stab))

    mom_flux = (area[:, None] * upwind_momentum(up, uhat_own, uhat_nbr)
                - stab_momentum(jump, uhat_own, uhat_nbr, hp, area))
    time = (vol / dt)[:, None] * (rho[:, None] * uhat - rho_prev[:, None] * uhat_prev)
    mom = (
        ops.avg_t @ time
        + ops.stiffness @ guess.u        # every face dof, no-slip ones included
        + alpha * (ops.face_test @ mom_flux
                   - (ops.pressure @ pressure(rho, params)).reshape(-1, 3))
    )
    return ResidualVector(continuity=cont, momentum=mom)


def _paths(left: sp.spmatrix, right: sp.spmatrix):
    """Every path i -> k -> j of left @ diag(c) @ right through stored
    nonzeros of left and right, in order of k, as the arrays
    (i, k, j, left[i, k] * right[k, j])."""
    left, right = sp.csc_matrix(left, copy=True), sp.csr_matrix(right, copy=True)
    left.eliminate_zeros()
    right.eliminate_zeros()
    # Each entry of left's column k pairs with the reps entries of right's
    # row k, the b-th of right's entries being the paths' second factor.
    k = np.repeat(np.arange(left.shape[1], dtype=np.int32), np.diff(left.indptr))
    reps = np.diff(right.indptr)[k]
    ends = np.cumsum(reps)
    b = np.repeat(right.indptr[k] + reps - ends, reps) + np.arange(reps.sum())
    return (np.repeat(left.indices, reps), np.repeat(k, reps), right.indices[b],
            np.repeat(left.data, reps) * right.data[b])


# A Jacobian term (left, right, row0, col0, width) is left @ diag(c) @ right
# placed at row row0 and column col0.  With width 1 it reads one coefficient
# per column k of `left`, and its entry (i, j) lands at (row0 + i, col0 + j).
# With width 3 it reads one per k and velocity component d, stored at
# d K + k for K columns of `left`, and lands at (row0 + 3 i + d, col0 + j)
# for each d.  The coefficient vector of a list of terms is the
# concatenation of theirs.


def _map(terms, shape, extra):
    """The canonical CSR pattern (indptr, indices) of the entries that the
    paths of `terms` and the `extra` (rows, cols) entries reach, and the
    matrix that takes the coefficient vector of `terms`, followed by one
    coefficient per extra entry of a group (the k-th entry of every group
    adds the k-th), to the pattern's values.  Its CSC layout is the list of
    paths and extra entries in coefficient order; two stable counting sorts
    of the list, by column and then by row, give each entry's position
    (Davis, Direct Methods for Sparse Linear Systems, SIAM, 2006, ch. 2), so
    a product with it sums each entry's terms in coefficient order."""
    rows, cols, weights, counts = [], [], [], []
    for left, right, row0, col0, width in terms:
        i, k, j, w = _paths(left, right)
        j += col0
        count = np.bincount(k, minlength=left.shape[1])
        for d in range(width):
            rows.append(width * i + (row0 + d))
            cols.append(j)
            weights.append(w)
            counts.append(count)
    groups = list(extra)
    if groups:   # popped, so that each group is freed once stacked
        rows.append(np.stack([group.pop(0) for group in groups], axis=1).ravel())
        cols.append(np.stack([group.pop(0) for group in groups], axis=1).ravel())
        weights.append(np.broadcast_to(1.0, cols[-1].size))
        counts.append(np.full(cols[-1].size // len(groups), len(groups)))
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    # By column: the transpose of the matrix with rows[p] at (p, cols[p]).
    # Its counter then takes the positions: made after the sorts' arrays,
    # this kept array left one n=16 bump step's peak resident memory ~5 MB
    # higher.
    positions = np.arange(rows.size + 1, dtype=np.int32)
    by_col = sp.csr_matrix((rows, cols, positions), shape=(rows.size, shape[1])).tocsc()
    del rows, cols
    # By row: in CSR form, each row lists its entries by column, and a
    # column's in order of p.
    by_row = sp.csc_matrix((by_col.indices, by_col.data, by_col.indptr), shape=shape).tocsr()
    col, order, starts = by_row.indices, by_row.data, by_row.indptr
    del by_col, by_row
    # A pattern entry starts at each row's first entry and at each change of
    # column; the flag past the end closes the last one.
    first = np.zeros(col.size + 1, dtype=bool)
    first[starts] = True
    first[1:-1] |= col[1:] != col[:-1]
    indices = col[first[:-1]]
    # The position of each sorted entry, and past the end the pattern's size.
    sorted_positions = np.cumsum(first, dtype=np.int32) - 1
    del col, first
    indptr = sorted_positions[starts]
    positions = positions[:-1]
    positions[order] = sorted_positions[:-1]
    del order, sorted_positions
    counts = np.concatenate(counts)
    values = sp.csc_matrix((np.concatenate(weights), positions,
                            np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)),
                           shape=(indices.size, counts.size))
    return indptr, indices, values


@dataclass(frozen=True)
class JacobianMap:
    """The Jacobian's fixed pattern on a mesh and the linear maps that fill it.

    J.data is `coefficients @ concatenate([c, scalar @ s])`, with c the
    coefficient vectors of `jacobian` concatenated and `scalar @ s` the
    scalar velocity block's values: `coefficients`' last columns, one per
    scalar-block entry (i, j), add that value at (3 i + d, 3 j + d) for each
    velocity component d, after every other term of the entry.  `_map`
    builds each map by one sort of its paths.  J stores the whole pattern:
    entries that come out zero (alpha = 0, rest, upwind kinks) stay zeros.
    """

    indptr: NDArrayI
    indices: NDArrayI
    coefficients: sp.csc_matrix   # (nnz, len(c) + nnz of the scalar block)
    scalar: sp.csc_matrix         # (nnz of the scalar block, len(s))


@cached
def jacobian_map(mesh: Mesh) -> JacobianMap:
    """`mesh`'s Jacobian pattern and coefficient maps, built on first use and cached."""
    ops = mesh_operators(mesh)
    ne, ni = mesh.n_elems, ops.avg.shape[1]
    n = ne + 3 * ni
    eye, avg_t = sp.identity(ne, format="csr"), ops.avg.T
    # Upwind terms read an owner and a neighbor coefficient per face, stored
    # in turn, so that every entry sums its faces in face order.
    twice = np.repeat(np.arange(ni), 2)
    sides = np.arange(2 * ni).reshape(2, ni).T.ravel()

    def upwind(left, own, nbr):
        return left[:, twice], sp.vstack([own, nbr]).tocsr()[sides]

    # Scalar velocity block: the weighted mass, the stiffness (coefficients 1)
    # and the convection of the owner's or the neighbor's mean velocity.
    scalar_terms = [
        (avg_t, ops.avg, 0, 0, 1),
        (ops.stiffness_int, sp.identity(ni, format="csr"), 0, 0, 1),
        (*upwind(ops.face_test, ops.own @ ops.avg, ops.nbr @ ops.avg), 0, 0, 1),
    ]
    # The rest, in the order of `jacobian`'s coefficient vectors.
    terms = [
        (*upwind(ops.jump_t, ops.own, ops.nbr), 0, 0, 1),   # A: flux and stabilization
        (eye, eye, 0, 0, 1),                                # A: time derivative
        (ops.jump_t, ops.normal, 0, ne, 1),                 # B
        (avg_t, eye, ne, 0, 3),                             # C: time derivative
        (ops.pressure, eye, ne, 0, 1),                      # C: pressure
        (*upwind(ops.face_test, ops.own, ops.nbr), ne, 0, 3),   # C: momentum flux
        (ops.face_test, ops.normal, ne, ne, 3),             # D: momentum flux
    ]
    block_indptr, block_indices, scalar = _map(scalar_terms, (ni, ni), ())
    del scalar_terms
    # The scalar block's entry (i, j) lands at (ne + 3 i + d, ne + 3 j + d)
    # for each component d: a generator, so that only `_map` holds each copy.
    rows = ne + 3 * np.repeat(np.arange(ni, dtype=np.int32), np.diff(block_indptr))
    copies = ([rows + d, ne + 3 * block_indices + d] for d in range(3))
    indptr, indices, coefficients = _map(terms, (n, n), copies)
    return JacobianMap(indptr=indptr, indices=indices, coefficients=coefficients, scalar=scalar)


def jacobian(
    prev: State, guess: State, params: SchemeParams, mesh: Mesh, alpha: float = 1.0
) -> sp.csr_matrix:
    """Exact Jacobian of `residual` in the packed unknown ordering.

    The flux derivatives are those of `fluxes`, whose docstring states the
    convention at upwind kinks.  The values fill the pattern fixed per mesh
    (`jacobian_map`), all of it: entries that come out exactly zero (at
    alpha = 0, at rest, at upwind kinks) are stored as zeros.  Each call
    returns a new matrix that still shares no array with the cache: its
    index arrays are copies, since scipy edits them in place (as
    `eliminate_zeros` does).  The coefficient vectors are written straight
    into their blocks of the one vector the map reads.
    """
    jm = jacobian_map(mesh)
    dt = params.dt(mesh)
    hp = params.h_power(mesh)
    int_f, own, nbr = interior_sides(mesh)
    vol, area = mesh.elem_volume, mesh.face_area[int_f]
    ne, ni = len(vol), len(area)

    rho = guess.rho
    uhat = element_average(guess.u, mesh)
    uhat_own, uhat_nbr = _sides(uhat, own, nbr)
    flux, up = interior_fluxes(guess, mesh)
    # Per unit area: Up in (rho own, rho nbr, flux), UpM in (Up, uhat own, uhat nbr)
    # and the momentum stabilization in ([rho], uhat).
    dup_own, dup_nbr, dup_dflux = upwind_scalar_derivatives(rho[own], rho[nbr], flux)
    dupm_dup, dupm_own, dupm_nbr = upwind_momentum_derivatives(up, uhat_own, uhat_nbr)
    dstab_djump, dstab_du = stab_momentum_derivatives(rho[nbr] - rho[own], uhat_own, uhat_nbr, hp)

    a = area[:, None]
    # The coefficient vectors, each written into its block of one vector.
    # An upwind block holds an owner and a neighbor coefficient per face in
    # turn, one velocity component after another, and a width-3 block one
    # component after another: (component, face, side) and (component, face).
    values = np.empty(jm.coefficients.shape[1])
    ends = list(accumulate([2 * ni, ne, ni, 3 * ne, ne, 6 * ni, 3 * ni]))
    a_up, a_time, b, c_time, c_p, c_up, d = (values[lo:hi] for lo, hi in zip([0, *ends], ends))
    a_up, c_up = a_up.reshape(ni, 2), c_up.reshape(3, ni, 2)
    np.multiply(alpha, area * (dup_own + hp), out=a_up[:, 0])
    np.multiply(alpha, area * (dup_nbr - hp), out=a_up[:, 1])
    np.divide(vol, dt, out=a_time)
    np.multiply(alpha, area * dup_dflux, out=b)
    np.multiply((vol / dt)[:, None], uhat, out=c_time.reshape(3, ne).T)
    np.multiply(-alpha, pressure_derivative(rho, params), out=c_p)
    np.multiply(alpha, a * (dup_own[:, None] * dupm_dup + dstab_djump), out=c_up[:, :, 0].T)
    np.multiply(alpha, a * (dup_nbr[:, None] * dupm_dup - dstab_djump), out=c_up[:, :, 1].T)
    np.multiply(alpha, a * dup_dflux[:, None] * dupm_dup, out=d.reshape(3, ni).T)
    s = np.empty(jm.scalar.shape[1])
    np.multiply(vol, rho / dt, out=s[:ne])
    s[ne:ne + ni] = 1.0
    s_up = s[ne + ni:].reshape(ni, 2)
    np.multiply(alpha, area * (dupm_own - dstab_du), out=s_up[:, 0])
    np.multiply(alpha, area * (dupm_nbr - dstab_du), out=s_up[:, 1])
    values[-jm.scalar.shape[0]:] = jm.scalar @ s
    data = jm.coefficients @ values
    n = len(jm.indptr) - 1
    return sp.csr_matrix((data, jm.indices.copy(), jm.indptr.copy()), shape=(n, n))


# ---------------------------------------------------------------------------
# SPD building blocks shared with the solver.


def interior_stiffness(mesh: Mesh) -> sp.csr_matrix:
    """Scalar broken-gradient stiffness on interior face dofs, cached."""
    return mesh_operators(mesh).stiffness_int


def interior_weighted_mass(mesh: Mesh, rho: NDArrayF) -> sp.csr_matrix:
    """Scalar matrix of sum_E |E| rho_E uhat_E vhat_E on interior face dofs."""
    avg = mesh_operators(mesh).avg
    return (avg.T @ sp.diags(mesh.elem_volume * rho) @ avg).tocsr()


@dataclass(frozen=True)
class Alpha0Map:
    """The alpha = 0 matrix's fixed pattern on a mesh, the scalar velocity
    block's mass and stiffness entries, and the map that fills it: its
    values in CSR order are `values @ concatenate([|E| rho, dt 1])`, 1 the
    ones of the interior faces."""

    indptr: NDArrayI
    indices: NDArrayI
    values: sp.csc_matrix   # (nnz, n_elems + n interior faces)


@cached
def alpha0_map(mesh: Mesh) -> Alpha0Map:
    """`mesh`'s Alpha0Map, built on first use and cached."""
    ops = mesh_operators(mesh)
    ni = ops.avg.shape[1]
    # Mass entries are the paths face i -> element k -> face j, with
    # coefficient k; the stiffness entry (i, j) takes coefficient n_elems + j.
    indptr, indices, values = _map([(ops.avg.T, ops.avg, 0, 0, 1),
                                    (ops.stiffness_int, sp.identity(ni, format="csr"), 0, 0, 1)],
                                   (ni, ni), ())
    return Alpha0Map(indptr=indptr, indices=indices, values=values)


def alpha0_matrix(mesh: Mesh, rho: NDArrayF, dt: float) -> sp.csr_matrix:
    """The alpha = 0 matrix interior_weighted_mass(mesh, rho) + dt
    interior_stiffness(mesh) on its fixed pattern (`alpha0_map`), bitwise
    that sum: each entry adds its element terms in element order, then dt
    times its stiffness, and the averages of 1/4 scale exactly.  The matrix
    shares no array with the cache."""
    am = alpha0_map(mesh)
    data = am.values @ np.concatenate([mesh.elem_volume * rho, np.full(len(am.indptr) - 1, dt)])
    n = len(am.indptr) - 1
    return sp.csr_matrix((data, am.indices.copy(), am.indptr.copy()), shape=(n, n))


# ---------------------------------------------------------------------------
# Time stepping and full runs.


def bump_data(rho_bar: float, amp: float, sigma: float, center):
    """Gaussian density bump at rest."""
    ctr = np.asarray(center, dtype=float)

    def rho0(p):
        p = np.atleast_2d(p)
        r2 = np.sum((p - ctr) ** 2, axis=1)
        with np.errstate(over="ignore"):   # a subnormal sigma**2: exp(-inf) = 0
            return rho_bar + amp * np.exp(-r2 / sigma**2)

    def m0(p):
        return np.zeros((np.atleast_2d(p).shape[0], 3))

    return rho0, m0


def bump_range(rho_bar: float, amp: float, sigma: float, box_lo, box_hi) -> tuple[float, float]:
    """Minimum and maximum over the box of `bump_data`'s density centred in
    the box, in closed form: its extrema are the centre and the box corners."""
    r2 = float(np.sum((0.5 * (np.asarray(box_hi) - np.asarray(box_lo))) ** 2))
    centre, corner = rho_bar + amp, rho_bar + amp * float(np.exp(-r2 / sigma**2))
    return min(centre, corner), max(centre, corner)


def shear_data(rho_bar: float, amp: float):
    """Uniform density with a sinusoidal shear momentum m_x = amp sin(2 pi y)."""

    def rho0(p):
        return np.full(np.atleast_2d(p).shape[0], rho_bar)

    def m0(p):
        p = np.atleast_2d(p)
        m = np.zeros((p.shape[0], 3))
        m[:, 0] = rho_bar * amp * np.sin(2.0 * np.pi * p[:, 1])
        return m

    return rho0, m0


# Each preset takes (rho_bar, amp, sigma, center) and returns (rho0, m0).  The
# stationary state is the bump at amplitude zero: rho_bar + 0 exp(...) is
# exactly rho_bar for every sigma that `cli.RunConfig.validate` admits, since
# exp(...) then lies in [0, 1].
PRESETS = {
    "stationary": lambda rho_bar, amp, sigma, center: bump_data(rho_bar, 0.0, sigma, center),
    "bump": bump_data,
    "shear": lambda rho_bar, amp, sigma, center: shear_data(rho_bar, amp),
}


@dataclass
class RunResult:
    mesh: Mesh
    params: SchemeParams
    dt: float
    rows: list          # one diagnostics dict per state, CSV column keys
    diagnostics: list   # per-step solver diagnostics (empty slot for step 0)


def make_initial_data(preset: str, rho_bar: float, amp: float, sigma: float, box_lo, box_hi):
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
    center = 0.5 * (np.asarray(box_lo, dtype=float) + np.asarray(box_hi, dtype=float))
    return PRESETS[preset](rho_bar, amp, sigma, center)


STEP_SLACK = 1e-9   # relative to dt, see step_count


def step_count(T: float, dt: float) -> int:
    """Steps of size dt whose piecewise-constant-in-time extension covers
    [0, T]: level k is at time k dt, and state k holds on ((k-1) dt, k dt].
    At least one; a T within STEP_SLACK dt above a level is that level."""
    return max(1, int(np.ceil(T / dt - STEP_SLACK)))


def run(
    mesh: Mesh,
    params: SchemeParams,
    rho0: Callable,
    m0: Callable,
    steps: int,
    on_state: Callable,
) -> RunResult:
    """Run the scheme from projected initial data for `steps` steps; a final
    time T takes `step_count(T, params.dt(mesh))` of them.  Each state k =
    0..steps goes to `on_state(state, row)` once known, and none is kept."""
    from . import diagnostics as diag
    from . import solver

    dt = params.dt(mesh)
    state = initial_state(rho0, m0, mesh, params)
    ledger0 = diag.energy_ledger(state, params, mesh)
    step_diags: list = [None]
    rows = [diag.csv_row(0, 0.0, ledger0, 0.0, 0.0, 0, 0)]
    on_state(state, rows[0])
    dissipation = 0.0
    e0 = ledger0.total

    for k in range(1, steps + 1):
        new, sd = solver.homotopy_newton_solve(state, params, mesh)
        ledger = diag.energy_ledger(new, params, mesh, prev=state)
        dissipation += dt * (ledger.grad_diss + ledger.d2 + ledger.d5)
        margin = e0 - (ledger.total + dissipation)
        slack = diag.positivity_slack(state, new, params, mesh)
        rows.append(
            diag.csv_row(k, k * dt, ledger, margin, slack,
                         sd.newton_iters, sd.alpha_nodes_used)
        )
        step_diags.append(sd)
        on_state(new, rows[-1])
        state = new

    return RunResult(mesh=mesh, params=params, dt=dt, rows=rows, diagnostics=step_diags)
