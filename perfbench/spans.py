"""Spans and counts recorded from outside nsfemdg, around its public functions.

No file of the package is changed.  `patch` replaces a function at every place
the package binds it (its defining module and every module that imported it
by name), because callers look the name up in their own module.  `Tracer`
records one span per call (name, start, end, parent) in memory, plus counts
taken from public arguments and return values.
"""
from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict


def patch(module, name: str, make_wrapper):
    """Rebind every binding of ``module.name`` inside the package to
    ``make_wrapper(original)``; returns a callable that undoes it."""
    original = getattr(module, name)
    wrapper = make_wrapper(original)
    rebound = []
    for key, mod in list(sys.modules.items()):
        if key != "nsfemdg" and not key.startswith("nsfemdg."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                rebound.append((mod, attr))

    def undo():
        for mod, attr in rebound:
            setattr(mod, attr, original)

    return undo


# (module, function) pairs timed as layer spans.  `fluxes` has none: its
# kernels run only inside diagnostics spans, and scheme inlines its own copies.
TARGETS = (
    ("cli", "main"), ("cli", "parse_config"),
    ("mesh", "build_box_mesh"), ("mesh", "find_elements"),
    ("spaces", "elem_quad_points"), ("spaces", "face_quad_points"),
    ("spaces", "cell_means"), ("spaces", "interpolate_v"),
    ("spaces", "eval_flux_reconstruction"),
    ("scheme", "initial_state"), ("scheme", "residual"), ("scheme", "jacobian"),
    ("scheme", "interior_weighted_mass"), ("scheme", "interior_stiffness"),
    ("solver", "homotopy_newton_solve"), ("solver", "alpha0_solve"),
    ("solver", "linear_solve"),
    ("diagnostics", "energy_ledger"), ("diagnostics", "positivity_slack"),
    ("diagnostics", "continuity_transport"), ("diagnostics", "momentum_transport"),
    ("diagnostics", "interpolation_rate_study"), ("diagnostics", "p_decay_study"),
    ("diagnostics", "cauchy_differences"),
    ("oracles", "continuity_rows_reference"), ("oracles", "momentum_rows_reference"),
    ("oracles", "jacobian_fd"),
    ("io", "write_vtk"), ("io", "write_csv"), ("io", "write_table"),
)


# Counts taken from arguments and return values at the same boundaries.
COUNTS = (
    "solver.steps", "solver.newton_iters", "solver.backtracks", "solver.alpha_nodes",
    "solver.schedules_tried", "scheme.jacobian.nnz", "solver.linear_solve.unknowns",
    "mesh.find_elements.points", "io.write_vtk.bytes",
)


class Tracer:
    """In-memory span log for one traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self._open: list[int] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        # First Newton matrix of the largest size, for the LU fill count.
        self.newton_matrix = None

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            index = len(self.spans)
            self.spans.append([name, self.clock(), None, parent])
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][2] = self.clock()
                self._open.pop()
            self._count(name, args, result, parent)
            return result

        return traced

    def _count(self, name, args, result, parent):
        c = self.counts
        if name == "solver.homotopy_newton_solve":
            diag = result[1]
            c["solver.steps"] += 1
            c["solver.newton_iters"] += diag.newton_iters
            c["solver.backtracks"] += diag.linesearch_backtracks
            c["solver.alpha_nodes"] += diag.alpha_nodes_used
            c["solver.schedules_tried"] += diag.schedule_index + 1
        elif name == "scheme.jacobian":
            c["scheme.jacobian.nnz"] = max(c["scheme.jacobian.nnz"], result.nnz)
        elif name == "solver.linear_solve":
            c["solver.linear_solve.unknowns"] = max(c["solver.linear_solve.unknowns"],
                                                    len(args[1]))
            if (parent >= 0 and self.spans[parent][0] == "solver.homotopy_newton_solve"
                    and (self.newton_matrix is None
                         or args[0].shape[0] > self.newton_matrix.shape[0])):
                self.newton_matrix = args[0]
        elif name == "mesh.find_elements":
            c["mesh.find_elements.points"] += len(args[1])
        elif name == "io.write_vtk":
            c["io.write_vtk.bytes"] += os.path.getsize(args[0])

    def install(self, package_modules: dict):
        """Wrap every target; returns the undo callable."""
        undos = [
            patch(package_modules[mod], fn, functools.partial(self.wrap, f"{mod}.{fn}"))
            for mod, fn in TARGETS
        ]

        def undo():
            for u in reversed(undos):
                u()

        return undo

    def self_times(self) -> dict[str, float]:
        """Span duration minus the time covered by its direct children."""
        child = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def calls(self) -> Counter:
        return Counter(name for name, *_ in self.spans)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]
