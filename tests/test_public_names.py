"""The package's exported names and the functions the benchmark times exist,
and no parameter in the package has a default that only tests rely on."""
import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import nsfemdg

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"

# The only (module, function, parameter) defaults in the package.  Library
# functions take the values the command line decides; a default stays only
# where the package, the entry point or the benchmark omits the value, or
# where a public call needs none.
KEPT_DEFAULTS = {
    ("cli", "parse_config", "command"),          # the benchmark's set-up parses run configs
    ("cli", "main", "argv"),                     # the entry point passes none
    ("mesh", "build_box_mesh", "box_lo"),        # check and the benchmark's set-up build
    ("mesh", "build_box_mesh", "box_hi"),        # unit boxes
    ("scheme", "residual", "alpha"),             # check compares the scheme itself, at
    ("scheme", "jacobian", "alpha"),             # alpha = 1
    ("oracles", "jacobian_fd", "alpha"),
    ("spaces", "commuting_residual", "degree"),  # check uses the default degree
    ("spaces", "orthogonality_residual", "degree"),
    ("diagnostics", "energy_ledger", "prev"),    # run's step 0 has no previous state
    ("scheme", "_map", "extra"),                 # one of its two callers has none
}


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


def test_benchmark_setup_parses_every_workload(monkeypatch):
    """The benchmark's set-up timing parses each workload's keys, the study
    keys included, as a `run` configuration, then builds its meshes and
    initial states; a parse that rejects them fails every benchmark pass."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    for name in workloads.NAMES:
        assert workloads.setup_seconds(workloads.build(name, 0, smoke=True)) > 0.0, name


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


def _defaulted_parameters():
    """(module, function, parameter) of every parameter with a default in
    the package's functions and lambdas."""
    for path in sorted((ROOT / "src" / "nsfemdg").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):] + [
                arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None]
            for arg in defaulted:
                yield path.stem, getattr(node, "name", "<lambda>"), arg.arg


def test_only_the_kept_parameters_have_defaults():
    assert sorted(_defaulted_parameters()) == sorted(KEPT_DEFAULTS)
