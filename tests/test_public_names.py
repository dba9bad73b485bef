"""The package's exported names and the functions the benchmark times exist."""
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import nsfemdg

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_all_names_resolve():
    missing = [name for name in nsfemdg.__all__ if not hasattr(nsfemdg, name)]
    assert missing == []


def _missing(names) -> list[str]:
    """The `(module, name)` pairs that are not a callable `nsfemdg.<module>.<name>`."""
    return [f"{mod}.{fn}" for mod, fn in names
            if not callable(getattr(importlib.import_module(f"nsfemdg.{mod}"), fn, None))]


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_targets_exist():
    assert _missing(_spans().TARGETS) == []


def test_benchmark_patched_names_exist():
    """The names the benchmark's pass patches, to capture runs and to perturb
    the pdecay fields, and those its set-up timing calls; a missing one fails
    the pass with AttributeError, as a missing TARGETS name does."""
    names = (("scheme", "run"), ("diagnostics", "p_decay_study"), ("cli", "build_box_mesh"),
             ("scheme", "make_initial_data"), ("scheme", "initial_state"))
    assert _missing(names) == []


def test_jacobian_is_a_sparse_matrix_superlu_factors():
    """The benchmark reads J.nnz and factors J with SuperLU."""
    mesh = nsfemdg.build_box_mesh(1)
    params = nsfemdg.SchemeParams()
    state = nsfemdg.initial_state(*nsfemdg.PRESETS["bump"](1.0, 0.5, 0.15, (0.5, 0.5, 0.5)),
                                  mesh, params)
    J = nsfemdg.jacobian(state, state, params, mesh)
    assert sp.issparse(J)
    assert J.nnz > 0
    b = np.arange(1.0, J.shape[0] + 1.0)
    x = spla.splu(sp.csc_matrix(J)).solve(b)
    assert np.abs(J @ x - b).max() < 1e-10 * np.abs(b).max()
