"""Pointwise face flux and stabilization kernels.

All kernels are written per unit face area in the stored face orientation:
the minus side is the element the face normal points away from, the plus
side the one it points into.  With x+ = max(x, 0) and x- = min(x, 0),

    upwind_scalar    = rho_minus * flux+  +  rho_plus * flux-
    upwind_momentum  = upwind+ * uhat_minus  +  upwind- * uhat_plus

so mass leaves with the upstream density and momentum is carried with the
upstream element-average velocity.  Swapping sides while negating the flux
negates `upwind_scalar` (conservativity).  The kernels accept scalars or
ndarrays of matching shape.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import NDArrayF


def upwind_scalar(rho_minus, rho_plus, flux):
    """Upwind mass flux density through a face."""
    return rho_minus * np.maximum(flux, 0.0) + rho_plus * np.minimum(flux, 0.0)


def upwind_momentum(upwind, uhat_minus, uhat_plus):
    """Momentum flux density: the mass flux times the upstream mean velocity."""
    up = np.asarray(upwind, dtype=float)[..., None]
    return np.maximum(up, 0.0) * np.asarray(uhat_minus) + np.minimum(up, 0.0) * np.asarray(uhat_plus)


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


@dataclass(frozen=True)
class FaceTraces:
    """Both-side traces and geometry of one interior face.

    Used by the slow reference (oracle) assembly paths; the vectorized
    assembly in `scheme` calls the same kernels on arrays of faces.
    """

    rho_minus: float
    rho_plus: float
    uhat_minus: NDArrayF
    uhat_plus: NDArrayF
    flux: float                  # mean normal velocity, stored orientation
    area: float
    h_power: float               # h^(1-eps)

    def mass_flux(self) -> float:
        return float(upwind_scalar(self.rho_minus, self.rho_plus, self.flux))

    def momentum_flux(self) -> NDArrayF:
        return upwind_momentum(self.mass_flux(), self.uhat_minus, self.uhat_plus)

    def continuity_stab(self) -> float:
        return float(stab_continuity(self.rho_plus - self.rho_minus, self.h_power, self.area))
