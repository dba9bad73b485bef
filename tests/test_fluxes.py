"""Pointwise upwind and stabilization kernels against hand-computed values."""
import numpy as np
import pytest

from nsfemdg.fluxes import (
    FaceTraces,
    stab_continuity,
    stab_momentum,
    upwind_momentum,
    upwind_scalar,
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


def test_face_traces_methods_match_kernels():
    tr = FaceTraces(
        rho_minus=2.0, rho_plus=1.0,
        uhat_minus=np.array([1.0, 0.0, 0.0]),
        uhat_plus=np.array([0.0, 2.0, 0.0]),
        flux=0.5, area=0.25, h_power=1.1,
    )
    assert tr.mass_flux() == upwind_scalar(2.0, 1.0, 0.5)
    assert np.allclose(tr.momentum_flux(),
                       upwind_momentum(1.0, tr.uhat_minus, tr.uhat_plus))
    assert tr.continuity_stab() == pytest.approx(stab_continuity(-1.0, 1.1, 0.25))
