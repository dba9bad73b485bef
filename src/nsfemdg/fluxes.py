"""Pointwise face flux and stabilization kernels and their derivatives.

Kernels work in the stored face orientation: the minus side is the element
the face normal points away from, the plus side the one it points into.
`upwind_scalar` and `upwind_momentum` are per unit face area;
`stab_continuity` and `stab_momentum` take the face area and include it.
With x+ = max(x, 0) and x- = min(x, 0),

    upwind_scalar    = rho_minus * flux+  +  rho_plus * flux-
    upwind_momentum  = upwind+ * uhat_minus  +  upwind- * uhat_plus

so mass leaves with the upstream density and momentum is carried with the
upstream element-average velocity.  Swapping sides while negating the flux
negates `upwind_scalar` (conservativity).  The kernels accept scalars or
ndarrays of matching shape.

Each `*_derivatives` kernel returns the partial derivatives of its kernel,
one per argument it names, per unit face area.  The kinks of x+ and x- use
the one-sided convention d(x+)/dx = 1 for x > 0 else 0, and d(x-)/dx = 1 for
x < 0 else 0, so the derivative at a kink is zero.  Away from sign changes
of the fluxes they are the classical derivatives.
"""
from __future__ import annotations

import numpy as np


def upwind_scalar(rho_minus, rho_plus, flux):
    """Upwind mass flux density through a face."""
    return rho_minus * np.maximum(flux, 0.0) + rho_plus * np.minimum(flux, 0.0)


def upwind_scalar_derivatives(rho_minus, rho_plus, flux):
    """Derivatives of `upwind_scalar` in rho_minus, rho_plus and flux."""
    return (np.maximum(flux, 0.0), np.minimum(flux, 0.0),
            rho_minus * (flux > 0.0) + rho_plus * (flux < 0.0))


def upwind_momentum(upwind, uhat_minus, uhat_plus):
    """Momentum flux density: the mass flux times the upstream mean velocity."""
    up = np.asarray(upwind, dtype=float)[..., None]
    return np.maximum(up, 0.0) * np.asarray(uhat_minus) + np.minimum(up, 0.0) * np.asarray(uhat_plus)


def upwind_momentum_derivatives(upwind, uhat_minus, uhat_plus):
    """Derivatives of `upwind_momentum` in upwind, a 3-vector per face (the
    upstream mean velocity), and in uhat_minus and uhat_plus, each a scalar
    per face times the identity."""
    up = np.asarray(upwind, dtype=float)
    upstream = ((up > 0.0)[..., None] * np.asarray(uhat_minus)
                + (up < 0.0)[..., None] * np.asarray(uhat_plus))
    return upstream, np.maximum(up, 0.0), np.minimum(up, 0.0)


def stab_continuity(jump_rho, h_power, area):
    """Face term h^(1-eps) |face| [rho]; multiplies the test jump [q]."""
    return h_power * area * jump_rho


def stab_momentum(jump_rho, uhat_minus, uhat_plus, h_power, area):
    """Face flux h^(1-eps) |face| [rho] mean(uhat); multiplies the test jump [vhat].

    Tested with vhat = uhat this equals h^(1-eps) |face| [rho] [|uhat|^2/2],
    the continuity stabilization acting on the squared speed, which is what
    makes the kinetic-energy bookkeeping telescope.
    """
    mean = 0.5 * (np.asarray(uhat_minus) + np.asarray(uhat_plus))
    return np.asarray(stab_continuity(jump_rho, h_power, area))[..., None] * mean


def stab_momentum_derivatives(jump_rho, uhat_minus, uhat_plus, h_power):
    """Derivatives of `stab_momentum` per unit face area: in jump_rho, a
    3-vector per face, and in uhat_minus, which is also the one in uhat_plus,
    a scalar per face times the identity."""
    mean = 0.5 * (np.asarray(uhat_minus) + np.asarray(uhat_plus))
    return h_power * mean, 0.5 * h_power * jump_rho
