"""Command-line entry point: time-stepping runs, invariant checks, studies.

    nsfemdg run    time-step a preset and write VTK/CSV output
    nsfemdg check  run the invariant suite on small fixed meshes
    nsfemdg study  refinement studies: rates, cauchy, pdecay

Configuration comes from a plain-text ``key = value`` file (``#`` starts a
comment) named by ``--config FILE`` and/or ``--key value`` (or
``--key=value``) flags; flags override file values.  Unknown keys are
rejected, and so are keys the command does not read.  Exit codes: 0 success,
1 configuration or usage error, 2 numerical failure (a failed invariant
check, or a failed time step: the solver reports every way a step fails, its
alpha = 0 solve included, as StepFailure, and a SolverError never leaves a
step).  A run whose step k fails also writes ``failure_step_k.npz`` (k in
four digits) to its outdir: the state that step starts from (``rho``, ``u``,
``k``), the mesh (``n``, ``box``) and the `scheme.SchemeParams` fields, so
that `solver.homotopy_newton_solve` repeats the failure.
"""
from __future__ import annotations

import math
import sys
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, get_args, get_origin, get_type_hints

import numpy as np

from . import diagnostics, oracles, scheme, solver
from .io import append_rows, write_csv, write_table, write_vtk
from .mesh import MAX_VERTS, build_box_mesh
from .spaces import (
    PolynomialField,
    ScalarPolynomial,
    SineField,
    apply_bc,
    commuting_residual,
    element_average,
    orthogonality_residual,
)


class ConfigError(ValueError):
    """Invalid configuration file, flag, or value."""


@dataclass
class RunConfig:
    """Validated settings for one invocation.

    The annotated fields up to `ns` are the non-physics keys; the physics
    keys are the fields of `scheme.SchemeParams`, which owns their types,
    defaults and bounds.  `parse_config` fills the time grid, and a Cauchy
    study's preset, from the task's entry in `_TASKS`.
    """

    n: int = 2
    box: tuple[float, ...] = (0.0, 0.0, 0.0, 1.0, 1.0, 1.0)
    T: float | None = None
    steps: int | None = None
    preset: str = "stationary"
    rho_bar: float = 1.0
    amp: float = 0.5
    sigma: float = 0.15
    outdir: str = "out"
    cadence: int = 1
    kind: str = "rates"
    ns: tuple[int, ...] = (2, 4, 8)
    physics: dict = field(default_factory=dict)   # the SchemeParams keys that were set
    given: tuple = ()                             # every key the file or the flags set

    def params(self) -> scheme.SchemeParams:
        try:
            return scheme.SchemeParams(**self.physics)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def initial_density_range(self) -> tuple[float, float]:
        """Minimum and maximum over the box of the initial density, in closed
        form; every preset but the bump is uniform."""
        if self.preset != "bump":
            return self.rho_bar, self.rho_bar
        return scheme.bump_range(self.rho_bar, self.amp, self.sigma, self.box[:3], self.box[3:])

    def validate(self, task: _Task) -> "RunConfig":
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if len(self.box) != 6 or any(self.box[i] >= self.box[i + 3] for i in range(3)):
            raise ConfigError(f"box must be x0 y0 z0 x1 y1 z1 with x0 < x1 etc, got {self.box}")
        if self.T is not None and self.T <= 0.0:
            raise ConfigError(f"T must be > 0, got {self.T}")
        if self.steps is not None and self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        if self.T is not None and self.steps is not None:
            raise ConfigError("give either T or steps, not both")
        if self.cadence < 1:
            raise ConfigError(f"cadence must be >= 1, got {self.cadence}")
        if self.preset not in scheme.PRESETS:
            raise ConfigError(f"unknown preset {self.preset!r}; choose from {sorted(scheme.PRESETS)}")
        if not self.ns or any(m < 1 for m in self.ns):
            raise ConfigError(f"ns must be positive integers, got {self.ns}")
        for m in (self.n, *self.ns):
            if (m + 1) ** 3 >= MAX_VERTS:
                raise ConfigError(f"a box mesh with n = {m} has {(m + 1) ** 3} vertices; "
                                  f"meshes need fewer than {MAX_VERTS}")
        extents = [hi - lo for lo, hi in zip(self.box[:3], self.box[3:])]
        spacings = (min(extents) / max(self.n, *self.ns), max(extents) / min(self.n, *self.ns))
        if spacings[0] < _SPACING[0] or spacings[1] > _SPACING[1]:
            raise ConfigError(f"box extents {extents} over n cells per axis give mesh spacings "
                              f"outside [{_SPACING[0]:.3g}, {_SPACING[1]:.3g}]: the mesh "
                              f"geometry does not fit in floats")
        if max(extents) > _MAX_ASPECT * min(extents):
            raise ConfigError(f"box extents {extents} differ by more than a factor "
                              f"{_MAX_ASPECT:.6g}: squared edge lengths would lose the shortest")
        corner = max(abs(x) for x in self.box)
        if spacings[0] * _MAX_ASPECT < corner:
            raise ConfigError(f"box {self.box} gives a mesh spacing {spacings[0]:.6g} below "
                              f"sqrt(eps) times its largest coordinate {corner:.6g}: the grid "
                              f"points would round together")
        if self.sigma <= 0.0:
            raise ConfigError(f"sigma must be > 0, got {self.sigma}")
        if self.sigma > _SQRT_MAX:
            raise ConfigError(f"sigma is too large: sigma**2 overflows, got {self.sigma}")
        if self.sigma**2 == 0.0:
            raise ConfigError(f"sigma is too small: sigma**2 underflows to 0, got {self.sigma}")
        rho_min = self.initial_density_range()[0]
        if rho_min < 0.0:
            raise ConfigError(f"initial density of preset {self.preset} is negative: "
                              f"its minimum over the box is {rho_min:.6g}")
        params = self.params()  # surfaces scheme parameter violations as config errors
        if self.T is not None and "T" in task.reads:
            n = max(self.ns) if "ns" in task.reads else self.n   # the task's finest mesh
            dt = params.c * math.hypot(*extents) / n   # c h, h the cell diagonal
            if self.T > _MAX_STEPS * dt:   # step_count(T, dt) > _MAX_STEPS, without overflow
                raise ConfigError(f"T = {self.T:g} takes more than {_MAX_STEPS} steps of "
                                  f"dt = c*h = {dt:.6g} on the n = {n} mesh")
        if self.steps is not None and self.steps > _MAX_STEPS:
            raise ConfigError(f"steps must be <= {_MAX_STEPS}, got {self.steps}")
        return self


_SQRT_MAX = math.sqrt(sys.float_info.max)
# Mesh spacings s whose geometry fits in normal floats: a face's cross
# product has components up to 2 s**2, so its squared norm reaches 12 s**4,
# and the smallest such square, s**4 on a cube face, must not underflow.
_SPACING = (sys.float_info.min ** 0.25, (sys.float_info.max / 12.0) ** 0.25)
_MAX_ASPECT = 1.0 / math.sqrt(sys.float_info.epsilon)
# The longest time grid a command may step: the rows and StepDiagnostics a
# run returns, and its wall time, grow with the step count.
_MAX_STEPS = 10_000

_PHYSICS = get_type_hints(scheme.SchemeParams)
_KEY_TYPES = {**{key: tp for key, tp in get_type_hints(RunConfig).items()
                 if key not in ("physics", "given")}, **_PHYSICS}


def _finite(raw: str) -> float:
    value = float(raw)
    if not np.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _parse(tp, raw: str):
    """`raw` as a value of type `tp`: int, float, str, X | None or tuple[X, ...]."""
    args = get_args(tp)
    if get_origin(tp) is tuple:
        return tuple(_parse(args[0], t) for t in raw.replace(",", " ").split())
    if args:
        return _parse(args[0], raw)
    return _finite(raw) if tp is float else tp(raw)


def _convert(key: str, raw: str, where: str):
    if key not in _KEY_TYPES:
        raise ConfigError(f"{where}: unknown key {key!r}")
    try:
        return _parse(_KEY_TYPES[key], raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: invalid value {raw!r} for {key}: {exc}") from exc


def parse_config(path, overrides, command: str = "run") -> RunConfig:
    """Build a RunConfig for `command` from an optional file plus
    ``(key, value)`` overrides, with its task's time grid and preset where
    they leave them unset."""
    values = {}
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, raw = line.partition("=")
            if not sep:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            values[key.strip()] = _convert(key.strip(), raw.strip(), f"{path}:{lineno}")
    for key, raw in overrides:
        values[key] = _convert(key, raw, f"--{key}")
    given = tuple(values)
    task = _task(command, values.get("kind", RunConfig.kind))
    if "T" not in values and "steps" not in values:
        values.update(task.grid)
    if task.preset is not None:
        values.setdefault("preset", task.preset)
    physics = {key: values.pop(key) for key in given if key in _PHYSICS}
    return RunConfig(**values, physics=physics, given=given).validate(task)


# ---------------------------------------------------------------------------
# run


def _run_args(cfg: RunConfig, n: int) -> tuple:
    """`scheme.run`'s arguments but its hook: the configured initial data on
    the n-per-axis mesh of the box, for `steps` steps or up to the final time
    T, whichever is set.  Initial data whose pressure, kappa*h floor
    included, or whose shear momentum flux rho_max*amp**2, or either of these
    on the largest face, reaches sqrt(float max) are a configuration error:
    GMRES takes 2-norms of vectors on that scale."""
    mesh = build_box_mesh(n, cfg.box[:3], cfg.box[3:])
    params = cfg.params()
    area = float(mesh.face_area.max())
    rho_max = cfg.initial_density_range()[1] + params.kappa * mesh.h
    with np.errstate(over="ignore"):
        p_max = float(scheme.pressure(rho_max, params))
    flux = rho_max * cfg.amp * cfg.amp if cfg.preset == "shear" else 0.0
    for name, formula, value in (("pressure", "a*rho_max**gamma", p_max),
                                 ("momentum flux", "rho_max*amp**2", flux)):
        if max(value, value * area) >= _SQRT_MAX:
            raise ConfigError(f"initial {name} of preset {cfg.preset} is too large: "
                              f"{formula} = {value:.6g}, or {value * area:.6g} on the "
                              f"largest face, reaches sqrt(float max)")
    rho0, m0 = scheme.make_initial_data(
        cfg.preset, cfg.rho_bar, cfg.amp, cfg.sigma, mesh.box_lo, mesh.box_hi
    )
    steps = cfg.steps if cfg.T is None else scheme.step_count(cfg.T, params.dt(mesh))
    return mesh, params, rho0, m0, steps


def _outdir(cfg: RunConfig) -> Path:
    """The output directory, made if missing; a path that cannot be one is a
    configuration error."""
    outdir = Path(cfg.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make the output directory {outdir}: {exc}") from exc
    return outdir


def _spent(failure: solver.StepFailure) -> str:
    """The linear work that a failed step spent, over every node it tried."""
    d = failure.diagnostics
    return f"{d.krylov_iters} Krylov iterations, {d.factorizations} preconditioner factorizations"


def cmd_run(cfg: RunConfig) -> int:
    args = _run_args(cfg, cfg.n)
    mesh, params, n_steps = args[0], args[1], args[-1]
    table = Path(cfg.outdir) / "diagnostics.csv"
    latest = None   # the latest state, which the next step starts from

    def write(state, row):
        # Each row and snapshot reach disk before the next step is solved; the
        # directory is made once the initial data have projected.
        nonlocal latest
        latest = state
        if state.k == 0:
            write_table(_outdir(cfg) / table.name, tuple(row), [])
        append_rows(table, [row.values()])
        if state.k % cfg.cadence == 0 or state.k == n_steps:
            write_vtk(table.with_name(f"state_{state.k:04d}.vtk"), mesh,
                      state.rho, element_average(state.u, mesh))

    try:
        result = scheme.run(*args, write)
    except solver.StepFailure as exc:
        print(f"run failed at step {exc.step}: {exc}; {_spent(exc)}", file=sys.stderr)
        snapshot = table.with_name(f"failure_step_{exc.step:04d}.npz")
        np.savez(snapshot, rho=latest.rho, u=latest.u, k=latest.k, n=cfg.n, box=cfg.box,
                 **asdict(params))
        print(f"run: wrote {snapshot}")
        return 2
    first, last = result.rows[0], result.rows[-1]
    drift = abs(last["mass"] - first["mass"]) / abs(first["mass"])
    print(f"run: {n_steps} steps on {mesh.n_elems} elements, dt={result.dt:.6g}")
    print(f"run: mass drift {drift:.3e}, final energy {last['kinetic'] + last['internal']:.9g}, "
          f"min_rho {last['min_rho']:.9g}")
    steps = result.diagnostics[1:]
    print(f"run: {sum(d.newton_iters for d in steps)} Newton iterations, "
          f"{sum(d.linesearch_backtracks for d in steps)} line-search backtracks, "
          f"{sum(d.krylov_iters for d in steps)} Krylov iterations, "
          f"{sum(d.krylov_cycles for d in steps)} Krylov cycles, "
          f"{sum(d.factorizations for d in steps)} preconditioner factorizations")
    print(f"run: wrote {table}")
    return 0


# ---------------------------------------------------------------------------
# check


def _probe_state(mesh, params, rng) -> tuple:
    """A previous/current state pair with nonuniform density and admissible
    u.  Physics under which the pressure, its derivative or the time scale
    rho/dt overflows at the probe are a configuration error: the checks
    would compare infinities."""
    rho0, m0 = scheme.bump_data(1.0, 0.4, 0.3, 0.5 * (mesh.box_lo + mesh.box_hi))
    prev = scheme.initial_state(rho0, m0, mesh, params)
    with np.errstate(over="ignore"):
        rho = prev.rho * (1.0 + 0.2 * rng.uniform(-1.0, 1.0, mesh.n_elems))
        rho_max = max(prev.rho.max(), rho.max())
        p, dp = scheme.pressure(rho_max, params), scheme.pressure_derivative(rho_max, params)
        rate = rho_max / params.dt(mesh)
    if not np.isfinite([p, dp, rate]).all():
        raise ConfigError(f"the check's probe state overflows: at its density {rho_max:.6g} the "
                          f"pressure a*rho**gamma is {p:.6g}, its derivative {dp:.6g}, and "
                          f"rho/dt is {rate:.6g}")
    u = apply_bc(0.3 * rng.standard_normal((mesh.n_faces, 3)), mesh)
    guess = scheme.State(rho=rho, u=u, k=1)
    return prev, guess


def cmd_check(cfg: RunConfig) -> int:
    """Run the invariant suite on small fixed meshes; exit 0 only if all pass."""
    params = cfg.params()
    rng = np.random.default_rng(20240831)
    results: list[tuple[str, float, float]] = []
    meshes = {n: build_box_mesh(n) for n in (1, 2)}
    mesh1, mesh2 = meshes[1], meshes[2]

    for n, mesh in meshes.items():
        worst = 0.0
        for _ in range(3):
            field = PolynomialField.random(rng)
            worst = max(worst, max(commuting_residual(field, mesh).values()))
        results.append((f"commuting identities n={n}", worst, 1e-12))

    u = apply_bc(rng.standard_normal((mesh2.n_faces, 3)), mesh2)
    worst = 0.0
    for _ in range(2):
        field = PolynomialField.random(rng)
        worst = max(worst, abs(orthogonality_residual(u, field, mesh2)))
    results.append(("gradient orthogonality n=2", worst, 1e-9))

    for n, mesh in meshes.items():
        prev, guess = _probe_state(mesh, params, rng)
        res = scheme.residual(prev, guess, params, mesh)
        ref_cont = oracles.continuity_rows_reference(prev, guess, params, mesh)
        ref_mom = oracles.momentum_rows_reference(prev, guess, params, mesh)
        scale_c = 1.0 + np.abs(ref_cont).max()
        scale_m = 1.0 + np.abs(ref_mom).max()
        results.append((f"continuity vs reference n={n}",
                        float(np.abs(res.continuity - ref_cont).max()) / scale_c, 1e-13))
        results.append((f"momentum vs reference n={n}",
                        float(np.abs(res.momentum - ref_mom).max()) / scale_m, 1e-12))

    # The draws before this probe have fixed sizes, so its u is the same under
    # every configuration, and its interior normal fluxes keep |u.n| >= 0.01,
    # away from the upwind kinks the finite differences would straddle.
    prev, guess = _probe_state(mesh1, params, rng)
    J = scheme.jacobian(prev, guess, params, mesh1).toarray()
    J_fd = oracles.jacobian_fd(prev, guess, params, mesh1)
    results.append(("jacobian vs finite differences n=1",
                    float(np.abs(J - J_fd).max() / np.abs(J_fd).max()), 1e-5))

    prev, guess = _probe_state(mesh1, params, rng)
    worst = 0.0
    for degree_coeffs in (1, 4, 10):
        phi = ScalarPolynomial(np.concatenate([rng.uniform(-1, 1, degree_coeffs),
                                               np.zeros(10 - degree_coeffs)]))
        v = PolynomialField(np.concatenate([rng.uniform(-1, 1, (3, degree_coeffs)),
                                            np.zeros((3, 10 - degree_coeffs))], axis=1))
        res = diagnostics.transport_identity_residuals(guess, mesh1, phi, v)
        worst = max(worst, res["continuity"], res["momentum"])
    results.append(("transport identities n=1", worst, 1e-10))

    ok = True
    for name, value, tol in results:
        passed = value <= tol
        ok = ok and passed
        print(f"check {name:<34} residual {value:9.3e}  tol {tol:7.1e}  "
              f"{'ok' if passed else 'FAIL'}")
    print(f"check: {'all passed' if ok else 'FAILURES detected'}")
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# study


def _write_study(cfg: RunConfig, rows: list[dict], summary: list[str]) -> int:
    """Write a study's rows, keyed by CSV column, to <kind>.csv and print
    them and its summary lines."""
    path = _outdir(cfg) / f"{cfg.kind}.csv"   # made here: a failed study leaves none
    write_csv(path, rows)
    shown = [" ".join(f"{key}={value}" if isinstance(value, int) else f"{key}={value:.6e}"
                      for key, value in row.items()) for row in rows]
    for line in [*shown, *summary, f"wrote {path}"]:
        print(f"study {cfg.kind}: {line}")
    return 0


def _rates(cfg: RunConfig) -> int:
    if len(set(cfg.ns)) < 2:
        raise ConfigError(f"rates fits an order, so it needs at least two distinct ns, "
                          f"got {cfg.ns}")
    study = diagnostics.interpolation_rate_study(SineField(), cfg.ns, cfg.box[:3], cfg.box[3:])
    rows = [{"n": n, "h": h, "l2_error": l2, "h1_error": h1}
            for n, h, l2, h1 in zip(cfg.ns, study["h"], study["l2"], study["h1"])]
    return _write_study(cfg, rows, [f"l2 order {study['l2_order']:.3f}, "
                                    f"h1 order {study['h1_order']:.3f}"])


def _pdecay(cfg: RunConfig) -> int:
    rng = np.random.default_rng(7)
    phi, v = ScalarPolynomial.random(rng), PolynomialField.random(rng)
    data = diagnostics.bump_flow_data(cfg.box[:3], cfg.box[3:])
    study = diagnostics.p_decay_study(cfg.ns, data, phi, v, T=cfg.T, params=cfg.params(),
                                      box_lo=cfg.box[:3], box_hi=cfg.box[3:])
    return _write_study(cfg, study["rows"], [   # one mesh has no rate
        f"{key} log2 rates {' '.join(f'{x:.2f}' for x in rates)}"
        for key, rates in study["rates"].items() if rates])


def _cauchy(cfg: RunConfig) -> int:
    # build_box_mesh nests n and k n meshes for integer k >= 2 only.
    if len(cfg.ns) < 2 or any(b <= a or b % a for a, b in zip(cfg.ns, cfg.ns[1:])):
        raise ConfigError(f"cauchy needs at least two ns, each a larger multiple of "
                          f"the one before, got {cfg.ns}")
    runs = []   # (mesh, dt, densities) per mesh: the study needs no more of a state
    for n in cfg.ns:
        densities = []
        try:
            result = scheme.run(*_run_args(cfg, n), lambda state, row: densities.append(state.rho))
        except solver.StepFailure as exc:
            print(f"study failed at step {exc.step} on the n = {n} mesh: {exc}; {_spent(exc)}",
                  file=sys.stderr)
            return 2
        runs.append((result.mesh, result.dt, densities))
    diffs = diagnostics.cauchy_differences(runs, cfg.T)
    return _write_study(cfg, [{"n_coarse": a, "n_fine": b, "l2_spacetime_diff": d}
                              for a, b, d in zip(cfg.ns, cfg.ns[1:], diffs)], [])


# ---------------------------------------------------------------------------
# the task table


class _Task(NamedTuple):
    """The keys a task reads (all take outdir), the function that runs it,
    and its defaults: the time grid when neither T nor steps is set, and
    the preset."""

    reads: set[str]
    run: Callable[[RunConfig], int]
    grid: dict
    preset: str | None


_INITIAL_DATA = {"preset", "rho_bar", "amp", "sigma"}
# `run` steps 10 times by default.  The defect-decay study's T = 0.5 is a
# window in which even the coarsest mesh sees several time samples, and the
# Cauchy study's T = 0.25 a short horizon that bounds the fine-mesh cost; at
# rest the stationary default has no dynamics to refine, so the Cauchy study
# starts from the bump.  check solves nothing, so takes no Newton settings;
# pdecay solves nothing, and c sets its time grid.
_TASKS = {
    "run": _Task({"n", "box", "T", "steps", "cadence", *_INITIAL_DATA, *_PHYSICS},
                 cmd_run, {"steps": 10}, None),
    "check": _Task({"gamma", "a", "epsilon", "kappa", "c"}, cmd_check, {}, None),
    "rates": _Task({"kind", "ns", "box"}, _rates, {}, None),
    "cauchy": _Task({"kind", "ns", "box", "T", *_INITIAL_DATA, *_PHYSICS},
                    _cauchy, {"T": 0.25}, "bump"),
    "pdecay": _Task({"kind", "ns", "box", "T", "c"}, _pdecay, {"T": 0.5}, None),
}
# The study kinds, the tasks that read `kind`: `study` runs the one it names,
# and every other command the task of its name.
_KINDS = tuple(name for name, task in _TASKS.items() if "kind" in task.reads)


def _task(command: str, kind: str) -> _Task:
    """The task `command` runs; `kind` must name a study even where unused."""
    if kind not in _KINDS:
        raise ConfigError(f"unknown study kind {kind!r}; choose from {_KINDS}")
    return _TASKS[kind if command == "study" else command]


# ---------------------------------------------------------------------------
# argument handling


def _override_pairs(tokens: list[str]) -> list[tuple[str, str]]:
    pairs, rest = [], iter(tokens)
    for tok in rest:
        if not tok.startswith("--"):
            raise ConfigError(f"expected --key value, got {tok!r}")
        key, sep, value = tok[2:].partition("=")
        if not sep:
            value = next(rest, None)
            if value is None:
                raise ConfigError(f"flag --{key} is missing a value")
        pairs.append((key, value))
    return pairs


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if {"-h", "--help"} & set(argv[:2]):
        print("usage: nsfemdg {run,check,study} [--config FILE] [--key value | --key=value ...]",
              __doc__, sep="\n")
        return 0
    command = argv[0] if argv else ""
    commands = [*(name for name in _TASKS if name not in _KINDS), "study"]
    try:
        if command not in commands:
            raise ConfigError(f"expected a command, one of {', '.join(commands)}"
                              + (f", got {command!r}" if command else ""))
        pairs = _override_pairs(argv[1:])
        with warnings.catch_warnings(record=True) as theory:   # gamma <= 3, from SchemeParams
            cfg = parse_config(dict(pairs).get("config"),
                               [(key, value) for key, value in pairs if key != "config"], command)
        for w in theory:
            print(f"warning: {w.message}", file=sys.stderr)
        task = _task(command, cfg.kind)
        unused = [key for key in cfg.given if key != "outdir" and key not in task.reads]
        if unused:
            raise ConfigError(f"{command} does not use {' or '.join(unused)}")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)   # shown above, once per command
            return task.run(cfg)
    except (ConfigError, scheme.InitialDataError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
