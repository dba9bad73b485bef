"""Command-line entry point: time-stepping runs, invariant checks, studies.

    nsfemdg run    time-step a preset and write VTK/CSV output
    nsfemdg check  run the invariant suite on small fixed meshes
    nsfemdg study  refinement studies: rates, cauchy, pdecay

Configuration comes from a plain-text ``key = value`` file (``#`` starts a
comment) named by ``--config FILE`` and/or ``--key value`` (or
``--key=value``) flags; flags override file values.  Unknown keys are
rejected, and so are keys the command does not read.  Exit codes: 0 success,
1 configuration or usage error, 2 numerical failure (a step that would not
converge, or a failed invariant check).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import diagnostics, oracles, scheme, solver
from .io import write_csv, write_vtk
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
    defaults and bounds.
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

    @property
    def initial_preset(self) -> str:
        """The preset whose initial data a run starts from.  At rest the
        stationary default has no dynamics to refine, so a Cauchy study
        starts from the bump unless a preset is given."""
        if self.kind == "cauchy" and "preset" not in self.given:
            return "bump"
        return self.preset

    def initial_density_range(self) -> tuple[float, float]:
        """Minimum and maximum over the box of the initial density, in closed
        form; every preset but the bump is uniform."""
        if self.initial_preset != "bump":
            return self.rho_bar, self.rho_bar
        return scheme.bump_range(self.rho_bar, self.amp, self.sigma, self.box[:3], self.box[3:])

    def validate(self) -> "RunConfig":
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
        if self.kind not in _STUDY_READS:
            raise ConfigError(f"unknown study kind {self.kind!r}; choose from {tuple(_STUDY_READS)}")
        if not self.ns or any(m < 1 for m in self.ns):
            raise ConfigError(f"ns must be positive integers, got {self.ns}")
        for m in (self.n, *self.ns):
            if (m + 1) ** 3 >= MAX_VERTS:
                raise ConfigError(f"a box mesh with n = {m} has {(m + 1) ** 3} vertices; "
                                  f"meshes need fewer than {MAX_VERTS}")
        if self.kind == "cauchy" and not _nested(self.ns):
            raise ConfigError(f"cauchy needs at least two ns, each a larger multiple of "
                              f"the one before, got {self.ns}")
        if self.kind == "rates" and len(set(self.ns)) < 2:
            raise ConfigError(f"rates fits an order, so it needs at least two distinct ns, "
                              f"got {self.ns}")
        if self.sigma <= 0.0:
            raise ConfigError(f"sigma must be > 0, got {self.sigma}")
        if self.sigma > _SQRT_MAX:
            raise ConfigError(f"sigma is too large: sigma**2 overflows, got {self.sigma}")
        if self.sigma**2 == 0.0:
            raise ConfigError(f"sigma is too small: sigma**2 underflows to 0, got {self.sigma}")
        rho_min = self.initial_density_range()[0]
        if rho_min < 0.0:
            raise ConfigError(f"initial density of preset {self.initial_preset} is negative: "
                              f"its minimum over the box is {rho_min:.6g}")
        self.params()  # surfaces scheme parameter violations as config errors
        return self


_SQRT_MAX = math.sqrt(sys.float_info.max)


def _nested(ns: tuple[int, ...]) -> bool:
    """Whether each mesh of the family refines the one before: n -> k n for
    an integer k >= 2, the only case in which build_box_mesh nests them."""
    return len(ns) >= 2 and all(b > a and b % a == 0 for a, b in zip(ns, ns[1:]))


_PHYSICS = get_type_hints(scheme.SchemeParams)
_KEY_TYPES = {**{key: tp for key, tp in get_type_hints(RunConfig).items()
                 if key not in ("physics", "given")}, **_PHYSICS}
_INITIAL_DATA = {"preset", "rho_bar", "amp", "sigma"}
# The keys each command reads, and for `study` each kind; all take outdir.
_READS = {
    "run": {"n", "box", "T", "steps", "cadence", *_INITIAL_DATA, *_PHYSICS},
    "check": {"gamma", "a", "epsilon", "kappa", "c"},   # no Newton solve
}
_STUDY_READS = {
    "rates": {"kind", "ns", "box"},
    "cauchy": {"kind", "ns", "box", "T", *_INITIAL_DATA, *_PHYSICS},
    "pdecay": {"kind", "ns", "box", "T", "c"},   # c sets the time grid; nothing is solved
}


def _reject_unused(cfg: RunConfig, command: str) -> None:
    """Raise ConfigError if `cfg` sets a key that `command` would ignore."""
    reads = _STUDY_READS[cfg.kind] if command == "study" else _READS[command]
    unused = [key for key in cfg.given if key != "outdir" and key not in reads]
    if unused:
        raise ConfigError(f"{command} does not use {' or '.join(unused)}")


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


def parse_config(path=None, overrides=()) -> RunConfig:
    """Build a RunConfig from an optional file plus ``(key, value)`` overrides."""
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
    physics = {key: values.pop(key) for key in given if key in _PHYSICS}
    return RunConfig(**values, physics=physics, given=given).validate()


# ---------------------------------------------------------------------------
# run


def _run(cfg: RunConfig, n: int, T: float | None = None,
         steps: int | None = None) -> scheme.RunResult:
    """`scheme.run` from the configured initial data on the n-per-axis mesh
    of the box.  Initial data whose pressure, kappa*h floor included, reaches
    sqrt(float max) are a configuration error: GMRES takes 2-norms of vectors
    on that scale."""
    mesh = build_box_mesh(n, cfg.box[:3], cfg.box[3:])
    params = cfg.params()
    with np.errstate(over="ignore"):
        p_max = float(scheme.pressure(cfg.initial_density_range()[1] + params.kappa * mesh.h,
                                      params))
    if p_max >= _SQRT_MAX:
        raise ConfigError(f"initial pressure of preset {cfg.initial_preset} is too large: "
                          f"a*rho_max**gamma = {p_max:.6g} reaches sqrt(float max)")
    rho0, m0 = scheme.make_initial_data(
        cfg.initial_preset, cfg.rho_bar, cfg.amp, cfg.sigma, mesh.box_lo, mesh.box_hi
    )
    return scheme.run(mesh, params, rho0, m0, T=T, steps=steps)


def cmd_run(cfg: RunConfig) -> int:
    steps = 10 if cfg.T is None and cfg.steps is None else cfg.steps
    result = _run(cfg, cfg.n, cfg.T, steps)
    mesh = result.mesh
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_csv(outdir / "diagnostics.csv", result.rows)
    for state in result.states:
        if state.k % cfg.cadence == 0 or state.k == len(result.states) - 1:
            write_vtk(outdir / f"state_{state.k:04d}.vtk", mesh,
                      state.rho, element_average(state.u, mesh))
    first, last = result.rows[0], result.rows[-1]
    drift = abs(last["mass"] - first["mass"]) / abs(first["mass"])
    print(f"run: {len(result.states) - 1} steps on {mesh.n_elems} elements, dt={result.dt:.6g}")
    print(f"run: mass drift {drift:.3e}, final energy {last['kinetic'] + last['internal']:.9g}, "
          f"min_rho {last['min_rho']:.9g}")
    steps = result.diagnostics[1:]
    print(f"run: {sum(d.newton_iters for d in steps)} Newton iterations, "
          f"{sum(d.linesearch_backtracks for d in steps)} line-search backtracks, "
          f"{sum(d.krylov_iters for d in steps)} Krylov iterations, "
          f"{sum(d.krylov_cycles for d in steps)} Krylov cycles, "
          f"{sum(d.factorizations for d in steps)} preconditioner factorizations")
    print(f"run: wrote {outdir / 'diagnostics.csv'}")
    return 0


# ---------------------------------------------------------------------------
# check


def _probe_state(mesh, params, rng) -> tuple:
    """A previous/current state pair with nonuniform density and admissible u."""
    rho0, m0 = scheme.bump_data(1.0, 0.4, 0.3, 0.5 * (mesh.box_lo + mesh.box_hi))
    prev = scheme.initial_state(rho0, m0, mesh, params)
    rho = prev.rho * (1.0 + 0.2 * rng.uniform(-1.0, 1.0, mesh.n_elems))
    u = apply_bc(0.3 * rng.standard_normal((mesh.n_faces, 3)), mesh)
    guess = scheme.State(rho=rho, u=u, k=1, t=params.dt(mesh))
    return prev, guess


def _safe_jacobian_state(mesh, params, rng):
    """Probe pair whose interior normal fluxes all sit away from upwind kinks."""
    prev, guess = _probe_state(mesh, params, rng)
    u = guess.u.copy()
    for f in mesh.interior_faces:
        nu = mesh.face_normal[f]
        flux = float(u[f] @ nu)
        if abs(flux) < 0.01:
            target = 0.01 if flux >= 0.0 else -0.01
            u[f] += (target - flux) * nu
    return prev, scheme.State(rho=guess.rho, u=u, k=guess.k, t=guess.t)


def cmd_check(cfg: RunConfig) -> int:
    """Run the invariant suite on small fixed meshes; exit 0 only if all pass.

    Of the configuration only gamma, a, epsilon, kappa and c apply; nothing
    is solved, so the Newton settings do not.
    """
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

    prev, guess = _safe_jacobian_state(mesh1, params, rng)
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
        res = diagnostics.transport_identity_residuals(guess, mesh1, phi, v, degree=2)
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


def _rates(cfg: RunConfig, T: float) -> tuple[list[dict], list[str]]:
    study = diagnostics.interpolation_rate_study(SineField(), cfg.ns, cfg.box[:3], cfg.box[3:])
    rows = [{"n": n, "h": h, "l2_error": l2, "h1_error": h1}
            for n, h, l2, h1 in zip(cfg.ns, study["h"], study["l2"], study["h1"])]
    return rows, [f"l2 order {study['l2_order']:.3f}, h1 order {study['h1_order']:.3f}"]


def _pdecay(cfg: RunConfig, T: float) -> tuple[list[dict], list[str]]:
    rng = np.random.default_rng(7)
    phi, v = ScalarPolynomial.random(rng), PolynomialField.random(rng)
    data = diagnostics.bump_flow_data(box_lo=cfg.box[:3], box_hi=cfg.box[3:])
    study = diagnostics.p_decay_study(cfg.ns, data, phi, v, T=T, params=cfg.params(),
                                      box_lo=cfg.box[:3], box_hi=cfg.box[3:])
    return study["rows"], [f"{key} log2 rates {' '.join(f'{x:.2f}' for x in rates)}"
                           for key, rates in study["rates"].items()]


def _cauchy(cfg: RunConfig, T: float) -> tuple[list[dict], list[str]]:
    diffs = diagnostics.cauchy_differences([_run(cfg, n, T) for n in cfg.ns], T)
    return [{"n_coarse": a, "n_fine": b, "l2_spacetime_diff": d}
            for a, b, d in zip(cfg.ns, cfg.ns[1:], diffs)], []


# Each study kind's rows, keyed by CSV column, and its summary lines.
_STUDIES = {"rates": _rates, "cauchy": _cauchy, "pdecay": _pdecay}


def cmd_study(cfg: RunConfig) -> int:
    # The defect-decay study needs a longer window so even the coarsest mesh
    # sees several time samples; the Cauchy study keeps a short horizon to
    # bound the fine-mesh cost.
    T = cfg.T if cfg.T is not None else (0.5 if cfg.kind == "pdecay" else 0.25)
    rows, summary = _STUDIES[cfg.kind](cfg, T)
    path = Path(cfg.outdir) / f"{cfg.kind}.csv"   # made by write_csv: a failed study leaves none
    write_csv(path, rows)
    shown = [" ".join(f"{key}={value}" if isinstance(value, int) else f"{key}={value:.6e}"
                      for key, value in row.items()) for row in rows]
    for line in [*shown, *summary, f"wrote {path}"]:
        print(f"study {cfg.kind}: {line}")
    return 0


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


_COMMANDS = {"run": cmd_run, "check": cmd_check, "study": cmd_study}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if {"-h", "--help"} & set(argv[:2]):
        print("usage: nsfemdg {run,check,study} [--config FILE] [--key value | --key=value ...]",
              __doc__, sep="\n")
        return 0
    command = argv[0] if argv else ""
    try:
        if command not in _COMMANDS:
            raise ConfigError(f"expected a command, one of {', '.join(_COMMANDS)}"
                              + (f", got {command!r}" if command else ""))
        pairs = _override_pairs(argv[1:])
        cfg = parse_config(dict(pairs).get("config"),
                           [(key, value) for key, value in pairs if key != "config"])
        _reject_unused(cfg, command)
        return _COMMANDS[command](cfg)
    except (ConfigError, scheme.InitialDataError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except solver.StepFailure as exc:
        print(f"{command} failed at step {exc.step}: alpha={exc.alpha:g}, "
              f"{exc.iterations} iterations, residual {exc.residual_norm:.3e}",
              file=sys.stderr)
        return 2
    except solver.SolverError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
