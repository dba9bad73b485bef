"""The benchmark's workloads, the pass that runs one, and its correctness gate.

A workload is a list of `nsfemdg` command lines, run in this process through
`nsfemdg.cli.main`.  The seed perturbs the inputs only: `amp` and `sigma` of
the stepping runs, and the coefficients of the pdecay test fields phi and v
(at the `diagnostics.p_decay_study` boundary), each by a factor drawn from
[0.97, 1.03].  Seed 0 runs the nominal commands.  Import this module only
after `nsfemdg` is importable.
"""
from __future__ import annotations

import contextlib
import csv
import math
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from nsfemdg import cli, diagnostics, scheme
from nsfemdg.spaces import PolynomialField, ScalarPolynomial

from spans import patch

SEED_SPREAD = 0.03


@dataclass
class Command:
    sub: str                                     # run | check | study
    flags: dict = field(default_factory=dict)    # passed as --key value
    config: dict = field(default_factory=dict)   # passed in a config file

    def argv(self, outdir: Path) -> list[str]:
        argv = [self.sub]
        if self.config:
            path = outdir / "bench.conf"
            path.write_text("".join(f"{k} = {v}\n" for k, v in self.config.items()))
            argv += ["--config", str(path)]
        for key, value in {**self.flags, "outdir": str(outdir)}.items():
            argv += [f"--{key}", str(value)]
        return argv


@dataclass
class Workload:
    name: str
    commands: list[Command]
    # n of every build_box_mesh call the commands make, for the set-up timing.
    meshes: list[int]
    seed: int
    # Step 1 must need the fallback continuation schedule.
    fallback_step1: bool = False

    @property
    def stepping(self) -> bool:
        first = self.commands[0]
        return first.sub == "run" or first.flags.get("kind") == "cauchy"


def _perturb(seed: int, **nominal: float) -> dict[str, str]:
    """Scale each value by 1 + u, u uniform in [-SEED_SPREAD, SEED_SPREAD]."""
    if seed == 0:
        return {k: repr(v) for k, v in nominal.items()}
    rng = np.random.default_rng(seed)
    return {k: repr(v * (1.0 + SEED_SPREAD * rng.uniform(-1.0, 1.0)))
            for k, v in nominal.items()}


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    """The named workload; `smoke` shrinks it to n <= 2 for the self-test."""
    if name == "run_bump_n4":
        n, steps = (2, 3) if smoke else (4, 20)
        flags = {"preset": "bump", "n": n, "steps": steps, "cadence": 5,
                 **_perturb(seed, amp=0.5, sigma=0.15)}
        return Workload(name, [Command("run", flags)], [n], seed)
    if name == "cauchy_n3_n6":
        ns = (1, 2) if smoke else (3, 6)
        flags = {"kind": "cauchy", "preset": "bump", "ns": " ".join(map(str, ns)),
                 "T": 0.14, **_perturb(seed, amp=0.5, sigma=0.15)}
        return Workload(name, [Command("study", flags)], list(ns), seed)
    if name == "stress_bump_n4":
        # At n=2 the default schedule copes with amp=30; amp=200 is needed
        # there to reach the fallback schedule.
        n, steps, amp = (2, 2, 200.0) if smoke else (4, 4, 30.0)
        flags = {"preset": "bump", "n": n, "gamma": 6, "steps": steps,
                 **_perturb(seed, amp=amp, sigma=0.15)}
        # `--c 4` would open a config file named "4": argparse's prefix
        # matching reads --c as --config.  The config file sets c instead.
        return Workload(name, [Command("run", flags, {"c": 4})], [n], seed,
                        fallback_step1=True)
    if name == "verify_n16":
        ns = (2, 4) if smoke else (2, 4, 8, 16)
        family = " ".join(map(str, ns))
        commands = [
            Command("check"),
            Command("study", {"kind": "rates", "ns": family}),
            Command("study", {"kind": "pdecay", "ns": family, "T": 0.15}),
        ]
        # check builds n=1,2 twice plus one n=2 and one n=1 mesh.
        return Workload(name, commands, [1, 2, 2, 1, 2, 1, *ns, *ns], seed)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("run_bump_n4", "cauchy_n3_n6", "stress_bump_n4", "verify_n16")


def setup_seconds(workload: Workload) -> float:
    """Config parsing, every mesh the workload builds, and, for the stepping
    workloads, the initial state on each of those meshes."""
    start = time.perf_counter()
    configs = [cli.parse_config(None, [(k, str(v)) for k, v in {**c.config, **c.flags}.items()])
               for c in workload.commands]
    meshes = [cli.build_box_mesh(n) for n in workload.meshes]
    cfg = configs[0]
    if workload.stepping:
        for mesh in meshes:
            rho0, m0 = scheme.make_initial_data(
                cfg.preset, cfg.rho_bar, cfg.amp, cfg.sigma, mesh.box_lo, mesh.box_hi)
            scheme.initial_state(rho0, m0, mesh, cfg.params())
    return time.perf_counter() - start


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    newton_iters: int
    failures: list[str]


def run_pass(workload: Workload, workdir: Path, before_commands=None,
             probe=None) -> PassResult:
    """Run every command once and gate the outputs.

    `before_commands()` may install wrappers and return their undo callable;
    it is called after the seed wrappers are in place.  A `probe`
    (speed.SpeedProbe) samples the machine's speed during the commands; the
    time it takes is left out of the pass's times.
    """
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    runs = []   # (rows, step diagnostics, newton_tol) of every scheme.run

    def capture_run(run):
        def wrapped(*args, **kwargs):
            result = run(*args, **kwargs)
            runs.append((result.rows, result.diagnostics[1:], result.params.newton_tol))
            return result
        return wrapped

    undos = [patch(scheme, "run", capture_run)]
    if workload.seed != 0:
        def seeded_fields(study):
            def wrapped(ns, data, phi, v, *args, **kwargs):
                rng = np.random.default_rng(workload.seed)
                phi = ScalarPolynomial(phi.coeffs * (1.0 + SEED_SPREAD * rng.uniform(
                    -1.0, 1.0, phi.coeffs.shape)))
                v = PolynomialField(v.coeffs * (1.0 + SEED_SPREAD * rng.uniform(
                    -1.0, 1.0, v.coeffs.shape)))
                return study(ns, data, phi, v, *args, **kwargs)
            return wrapped

        undos.append(patch(diagnostics, "p_decay_study", seeded_fields))
    if before_commands is not None:
        undos.append(before_commands())

    failures = []
    outdirs = []
    if probe is not None:
        probe.start()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        for i, command in enumerate(workload.commands):
            outdir = workdir / f"{i}-{command.sub}"
            outdir.mkdir()
            outdirs.append(outdir)
            with open(outdir / "stdout.log", "w") as log, \
                    contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                code = cli.main(command.argv(outdir))
            if code != 0:
                failures.append(f"{command.sub} #{i} exited with code {code}")
                break
    except Exception:
        # A crash inside the program fails the pass; the run goes on.
        failures.append(traceback.format_exc())
    finally:
        if probe is not None:
            probe.stop()
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if probe is not None:
            wall, cpu = wall - probe.paused_wall, cpu - probe.paused_cpu
        for undo in reversed(undos):
            undo()
    if not failures:
        try:
            failures += gate(workload, outdirs, runs)
        except (OSError, KeyError, ValueError, IndexError):
            failures.append(traceback.format_exc())
    iters = sum(d.newton_iters for _, diags, _ in runs for d in diags)
    return PassResult(wall, cpu, iters, failures)


# ---------------------------------------------------------------------------
# Correctness gate, at the acceptance-suite bounds.


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(f)]


def check_rows(rows: list[dict], label: str) -> list[str]:
    """Mass drift, energy inequality and positivity bound of one trajectory."""
    out = []
    mass0 = rows[0]["mass"]
    drift = max(abs(r["mass"] - mass0) / mass0 for r in rows)
    if not drift <= 1e-12:
        out.append(f"{label}: mass drift {drift:.3e} > 1e-12")
    e0 = rows[0]["kinetic"] + rows[0]["internal"]
    worst = min((r["energy_margin"] for r in rows[1:]), default=0.0)
    if not worst >= -1e-10 * e0:
        out.append(f"{label}: energy margin {worst:.3e} below -1e-10 * E0")
    slack = min((r["positivity_slack"] for r in rows[1:]), default=0.0)
    if not slack >= -1e-12:
        out.append(f"{label}: positivity slack {slack:.3e} < -1e-12")
    return out


def check_steps(step_diags, tol: float, label: str) -> list[str]:
    return [f"{label}: step {k} residual {d.residual_norm:.3e} > newton_tol {tol:g}"
            for k, d in enumerate(step_diags, start=1) if not d.residual_norm <= tol]


def check_rates(rows: list[dict]) -> list[str]:
    h = np.log([r["h"] for r in rows])
    out = []
    for col, lo, hi in (("l2_error", 1.8, 2.2), ("h1_error", 0.8, 1.2)):
        order = float(np.polyfit(h, np.log([r[col] for r in rows]), 1)[0])
        if not lo <= order <= hi:
            out.append(f"rates: {col} order {order:.3f} outside [{lo}, {hi}]")
    return out


def check_pdecay(rows: list[dict]) -> list[str]:
    return [f"pdecay: {key} does not decrease from n={a['n']:g} to n={b['n']:g}"
            for key in ("P1", "P2", "P3", "P4")
            for a, b in zip(rows[:-1], rows[1:]) if not a[key] > b[key] > 0.0]


def check_cauchy(rows: list[dict]) -> list[str]:
    return [f"cauchy: difference {r['l2_spacetime_diff']!r} not finite and positive"
            for r in rows
            if not (math.isfinite(r["l2_spacetime_diff"]) and r["l2_spacetime_diff"] > 0.0)]


def gate(workload: Workload, outdirs: list[Path], runs: list) -> list[str]:
    """Every failed check of one pass, as messages; empty when it passed."""
    failures = []
    for command, outdir in zip(workload.commands, outdirs):
        kind = command.flags.get("kind")
        if command.sub == "run":
            failures += check_rows(read_csv(outdir / "diagnostics.csv"), "run")
        elif kind == "cauchy":
            failures += check_cauchy(read_csv(outdir / "cauchy.csv"))
            for i, (rows, _, _) in enumerate(runs):
                failures += check_rows(rows, f"cauchy trajectory {i}")
        elif kind == "rates":
            failures += check_rates(read_csv(outdir / "rates.csv"))
        elif kind == "pdecay":
            failures += check_pdecay(read_csv(outdir / "pdecay.csv"))
    for i, (_, step_diags, tol) in enumerate(runs):
        failures += check_steps(step_diags, tol, f"trajectory {i}")
    if workload.fallback_step1 and not (runs and runs[0][1][0].schedule_index >= 1):
        failures.append(
            "step 1 converged on the default schedule, so the fallback path this "
            "workload exists for went unmeasured")
    return failures
