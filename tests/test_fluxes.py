"""Pointwise upwind and stabilization kernels against hand-computed values."""
import numpy as np
import pytest

from nsfemdg.fluxes import (
    stab_continuity,
    stab_momentum,
    stab_momentum_derivatives,
    upwind_momentum,
    upwind_momentum_derivatives,
    upwind_scalar,
    upwind_scalar_derivatives,
)


@pytest.mark.parametrize(
    "rho_m, rho_p, flux, expected",
    [
        (2.0, 1.0, 0.5, 1.0),     # outflow: upstream density is the minus side
        (1.0, 3.0, -2.0, -6.0),   # inflow: upstream density is the plus side
        (4.0, 7.0, 0.0, 0.0),
        (0.0, 5.0, 1.0, 0.0),
    ],
)
def test_upwind_scalar_values(rho_m, rho_p, flux, expected):
    assert upwind_scalar(rho_m, rho_p, flux) == expected


def test_upwind_scalar_conservative():
    rng = np.random.default_rng(0)
    for _ in range(20):
        rm, rp, f = rng.uniform(-2, 2, 3)
        assert np.isclose(
            upwind_scalar(rm, rp, f), -upwind_scalar(rp, rm, -f), atol=1e-15
        )


def test_upwind_scalar_vectorized():
    rm = np.array([2.0, 1.0])
    rp = np.array([1.0, 3.0])
    f = np.array([0.5, -2.0])
    assert np.allclose(upwind_scalar(rm, rp, f), [1.0, -6.0])


def test_upwind_momentum_values():
    up = 1.5
    out = upwind_momentum(up, np.array([1.0, 0.0, 0.0]), np.array([0.0, 2.0, 0.0]))
    assert np.allclose(out, [1.5, 0.0, 0.0])
    out = upwind_momentum(-1.0, np.array([1.0, 0.0, 0.0]), np.array([0.0, 2.0, 0.0]))
    assert np.allclose(out, [0.0, -2.0, 0.0])


def test_upwind_momentum_batched():
    up = np.array([1.5, -1.0])
    um = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    upl = np.array([[0.0, 2.0, 0.0], [0.0, 2.0, 0.0]])
    out = upwind_momentum(up, um, upl)
    assert np.allclose(out, [[1.5, 0.0, 0.0], [0.0, -2.0, 0.0]])


def test_stab_continuity_value():
    assert stab_continuity(0.3, h_power=1.0, area=0.5) == pytest.approx(0.15)


def test_stab_momentum_value():
    val = stab_momentum(
        jump_rho=1.0,
        uhat_minus=np.array([1.0, 0.0, 0.0]),
        uhat_plus=np.array([0.0, 1.0, 0.0]),
        h_power=1.2,
        area=0.5,
    )
    # mean = (0.5, 0.5, 0) -> 1.2 * 0.5 * 1 * mean; dotted with jump_v = (1, 1, 0): 0.6
    assert np.allclose(val, [0.3, 0.3, 0.0])
    assert val @ np.array([1.0, 1.0, 0.0]) == pytest.approx(0.6)


def test_stab_momentum_energy_pairing():
    """Tested with the velocity jump itself, the stabilization reproduces the
    continuity stabilization applied to the squared-speed difference."""
    rng = np.random.default_rng(1)
    for _ in range(10):
        um, up = rng.standard_normal(3), rng.standard_normal(3)
        jr, hp, area = rng.uniform(0.1, 2.0, 3)
        lhs = stab_momentum(jr, um, up, hp, area) @ (up - um)
        rhs = stab_continuity(jr, hp, area) * 0.5 * (up @ up - um @ um)
        assert np.isclose(lhs, rhs, atol=1e-13)


# ---------------------------------------------------------------------------
# Derivative kernels


def _faces(seed, n=8):
    """Traces of n faces, the first half with positive normal flux and upwind
    mass flux, the rest with negative, all at least 0.1 away from a kink."""
    rng = np.random.default_rng(seed)
    sign = np.where(np.arange(n) < n // 2, 1.0, -1.0)
    rho_m, rho_p = rng.uniform(0.5, 2.0, (2, n))
    return (rho_m, rho_p, sign * rng.uniform(0.1, 1.0, n), sign * rng.uniform(0.1, 1.0, n),
            rng.standard_normal((n, 3)), rng.standard_normal((n, 3)))


def _central(kernel, args, i, d=None, step=1e-6):
    """Central difference of `kernel` in argument i (its component d), face
    by face: every face's argument moves by the same step."""
    lo, hi = [np.array(a, dtype=float) for a in args], [np.array(a, dtype=float) for a in args]
    idx = (Ellipsis,) if d is None else (Ellipsis, d)
    lo[i][idx] -= step
    hi[i][idx] += step
    return (kernel(*hi) - kernel(*lo)) / (2.0 * step)


def test_upwind_scalar_derivatives_match_central_differences():
    rho_m, rho_p, flux, _, _, _ = _faces(10)
    args = (rho_m, rho_p, flux)
    for i, derivative in enumerate(upwind_scalar_derivatives(*args)):
        np.testing.assert_allclose(derivative, _central(upwind_scalar, args, i), rtol=1e-8)


def test_upwind_momentum_derivatives_match_central_differences():
    _, _, _, up, um, upl = _faces(11)
    args = (up, um, upl)
    d_up, d_um, d_upl = upwind_momentum_derivatives(*args)
    np.testing.assert_allclose(d_up, _central(upwind_momentum, args, 0), rtol=1e-8)
    for i, weight in ((1, d_um), (2, d_upl)):
        for d in range(3):
            expected = np.zeros((len(up), 3))
            expected[:, d] = weight   # a scalar per face times the identity
            np.testing.assert_allclose(_central(upwind_momentum, args, i, d), expected,
                                       rtol=1e-8, atol=1e-12)


def test_stab_momentum_derivatives_match_central_differences():
    rho_m, rho_p, _, _, um, upl = _faces(12)
    hp, area = 0.7, np.linspace(0.2, 1.0, len(um))
    args = (rho_p - rho_m, um, upl, hp, area)
    d_jump, d_u = stab_momentum_derivatives(*args[:4])
    np.testing.assert_allclose(area[:, None] * d_jump, _central(stab_momentum, args, 0),
                               rtol=1e-8)
    for i in (1, 2):   # the same scalar weight for both sides
        for d in range(3):
            expected = np.zeros((len(um), 3))
            expected[:, d] = area * d_u
            np.testing.assert_allclose(_central(stab_momentum, args, i, d), expected,
                                       rtol=1e-8, atol=1e-12)


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_upwind_derivatives_at_a_kink_are_one_sided(zero):
    """At a zero flux both parts x+ and x- have slope 0: every derivative of
    the upwind kernels vanishes, while just off the kink it is the upstream
    side's (stab_momentum has no kink)."""
    um, upl = np.array([1.0, -2.0, 3.0]), np.array([-4.0, 5.0, 6.0])
    assert upwind_scalar_derivatives(2.0, 3.0, zero) == (0.0, 0.0, 0.0)
    d_up, d_um, d_upl = upwind_momentum_derivatives(zero, um, upl)
    assert np.array_equal(d_up, np.zeros(3)) and d_um == 0.0 and d_upl == 0.0
    assert upwind_scalar_derivatives(2.0, 3.0, 1e-300)[2] == 2.0
    assert upwind_scalar_derivatives(2.0, 3.0, -1e-300)[2] == 3.0
    assert np.array_equal(upwind_momentum_derivatives(1e-300, um, upl)[0], um)
    assert np.array_equal(upwind_momentum_derivatives(-1e-300, um, upl)[0], upl)


def test_derivatives_broadcast_over_faces_as_their_kernels():
    """On arrays of faces, kinks included, each derivative is a 3-vector or a
    scalar per face, as its kernel's arguments are, and equals the
    face-by-face values bit for bit."""
    rho_m, rho_p, flux, up, um, upl = _faces(13)
    flux[0] = up[-1] = 0.0
    n = len(flux)
    cases = [
        (upwind_scalar_derivatives, (rho_m, rho_p, flux), [(n,), (n,), (n,)]),
        (upwind_momentum_derivatives, (up, um, upl), [(n, 3), (n,), (n,)]),
        (stab_momentum_derivatives, (rho_p - rho_m, um, upl, 0.7), [(n, 3), (n,)]),
    ]
    for derivatives, args, shapes in cases:
        batched = derivatives(*args)
        assert [np.shape(value) for value in batched] == shapes
        for k, value in enumerate(batched):
            for f in range(n):
                face_args = [a[f] if np.ndim(a) else a for a in args]
                assert np.array_equal(derivatives(*face_args)[k], value[f])
