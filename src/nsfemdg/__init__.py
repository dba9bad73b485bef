"""Implicit FEM-DG solver for isentropic compressible Navier-Stokes flow.

Density lives in piecewise constants with upwind fluxes, velocity in the
nonconforming face-average (Crouzeix-Raviart) space, and each time step is a
fully implicit coupled solve with continuation in the convective terms.  The
package doubles as a verification harness: the discrete conservation,
positivity, energy and transport structure the method is built around is
checked numerically at desk scale.
"""

import os as _os

# Orchestration is single-threaded; the only parallelism is inside the BLAS
# behind numpy/scipy.  NSFEMDG_THREADS caps those worker pools, which works
# only if the variables are in place before the first numpy import, hence the
# placement above every submodule import.
_threads = _os.environ.get("NSFEMDG_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

from .mesh import Mesh, build_box_mesh, find_elements
from .scheme import (
    PRESETS,
    InitialDataError,
    RunResult,
    SchemeParams,
    State,
    initial_state,
    jacobian,
    make_initial_data,
    residual,
    run,
)
from .solver import SolverError, StepFailure, homotopy_newton_solve
from .spaces import (
    PolynomialField,
    ScalarPolynomial,
    SineField,
    apply_bc,
    interpolate_v,
)
from .diagnostics import EnergyLedger, energy_ledger, positivity_slack, renormalized_margin

__version__ = "0.1.0"

__all__ = [
    "EnergyLedger",
    "InitialDataError",
    "Mesh",
    "PRESETS",
    "PolynomialField",
    "RunResult",
    "ScalarPolynomial",
    "SchemeParams",
    "SineField",
    "SolverError",
    "State",
    "StepFailure",
    "apply_bc",
    "build_box_mesh",
    "energy_ledger",
    "find_elements",
    "homotopy_newton_solve",
    "initial_state",
    "interpolate_v",
    "jacobian",
    "make_initial_data",
    "positivity_slack",
    "renormalized_margin",
    "residual",
    "run",
    "__version__",
]
