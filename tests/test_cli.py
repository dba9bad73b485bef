"""Tests for configuration parsing, commands, and exit codes."""

import contextlib
import io
import os
import re
import subprocess
import sys
import time
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nsfemdg import cli, oracles, scheme, solver
from nsfemdg.cli import ConfigError, RunConfig, parse_config


# ---------------------------------------------------------------------------
# config parsing


def test_defaults_without_file():
    """run's time grid is its task default of 10 steps."""
    cfg = parse_config(None, ())
    assert cfg.n == 2
    assert cfg.preset == "stationary"
    assert cfg.T is None and cfg.steps == 10
    assert cfg.ns == (2, 4, 8)
    assert cfg.box == (0.0, 0.0, 0.0, 1.0, 1.0, 1.0)


def test_parse_file_with_comments(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text(
        "# time stepping\n"
        "n = 4\n"
        "T = 0.5   # horizon\n"
        "\n"
        "preset = bump\n"
        "box = 0 0 0 2 2 2\n"
        "ns = 2, 4\n"
    )
    cfg = parse_config(conf, ())
    assert cfg.n == 4
    assert cfg.T == 0.5
    assert cfg.preset == "bump"
    assert cfg.box == (0.0, 0.0, 0.0, 2.0, 2.0, 2.0)
    assert cfg.ns == (2, 4)


def test_overrides_beat_file(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("n = 4\ngamma = 2.5\n")
    with pytest.warns(UserWarning, match="gamma"):
        cfg = parse_config(conf, [("n", "8"), ("kappa", "0")])
        params = cfg.params()
    assert cfg.n == 8
    assert params.gamma == 2.5
    assert params.kappa == 0.0


def test_unknown_key_names_location(tmp_path, capsys):
    """An unknown key, in a file or as a flag, exits 1 with its location;
    `homotopy_steps` is one since the continuation chooses its own nodes."""
    conf = tmp_path / "run.conf"
    conf.write_text("n = 2\nbogus = 1\n")
    with pytest.raises(ConfigError, match=r"run\.conf:2.*bogus"):
        parse_config(conf, ())
    conf.write_text("homotopy_steps = 10\n")
    for argv in (["--config", str(conf)], ["--homotopy_steps", "10"]):
        assert cli.main(["run", *argv, "--outdir", str(tmp_path / "out")]) == 1
        assert "unknown key 'homotopy_steps'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_malformed_line_reports_line_number(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("n 2\n")
    with pytest.raises(ConfigError, match=r"run\.conf:1"):
        parse_config(conf, ())


def test_bad_value_reports_key(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("n = abc\n")
    with pytest.raises(ConfigError, match="invalid value 'abc' for n"):
        parse_config(conf, ())


def test_missing_file_is_config_error():
    with pytest.raises(ConfigError, match="cannot read config file"):
        parse_config("/nonexistent/path.conf", ())


def test_box_needs_six_numbers():
    with pytest.raises(ConfigError, match="box"):
        parse_config(None, [("box", "0 0 0 1 1")])


@pytest.mark.parametrize("key,value,match", [
    ("n", "0", "n must be >= 1"),
    ("box", "0 0 0 0 1 1", "box"),
    ("T", "-1", "T must be > 0"),
    ("steps", "0", "steps must be >= 1"),
    ("cadence", "0", "cadence"),
    ("preset", "vortex", "unknown preset"),
    ("kind", "spectra", "unknown study kind"),
    ("ns", "2 0 8", "ns"),
    ("gamma", "1.0", "gamma"),
    ("epsilon", "0.1", "epsilon"),
    ("T", "inf", "not a finite number"),
    ("T", "nan", "not a finite number"),
    ("gamma", "nan", "not a finite number"),
    ("sigma", "0", "sigma must be > 0"),
    ("sigma", "-0.1", "sigma must be > 0"),
    ("n", "127", "n = 127 has 2097152 vertices"),
    ("ns", "2 4 200", "n = 200 has"),
    ("steps", "10001", "steps must be <= 10000"),
    ("T", "5000", "T = 5000 takes more than 10000 steps"),
])
def test_validation_rejects(key, value, match):
    with pytest.raises(ConfigError, match=match):
        parse_config(None, [(key, value)])


def test_readme_key_table_matches_parser():
    """The README key table lists exactly the accepted keys, each with its
    default and the commands (study kinds) that read it."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("### Configuration keys", 1)[1].split("###", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| (.*?) \| (.*?) \|", table, re.M)
    assert sorted(key for key, _, _ in rows) == sorted(cli._KEY_TYPES)
    readers = {name: task.reads for name, task in cli._TASKS.items()}
    run_defaults = replace(RunConfig(), steps=cli._TASKS["run"].grid["steps"])
    for key, default, read_by in rows:
        if default != "—":
            cfg = parse_config(None, [(key, default.strip("`"))])
            assert cfg.params() == scheme.SchemeParams(), key
            assert replace(cfg, physics={}, given=()) == run_defaults, key
        expected = sorted(name for name, reads in readers.items()
                          if key in reads or key == "outdir")
        listed = sorted(readers) if read_by == "all" else sorted(read_by.replace("`", "").split(", "))
        assert listed == expected, key


def test_T_with_steps_exits_one(tmp_path, capsys):
    rc = cli.main(["run", "--preset", "bump", "--n", "1", "--T", "0.05", "--steps", "3",
                   "--outdir", str(tmp_path)])
    assert rc == 1
    assert "not both" in capsys.readouterr().err
    assert not (tmp_path / "diagnostics.csv").exists()


@pytest.mark.parametrize("argv,code", [
    (["runn"], 1), ([], 1), (["run", "--config"], 1), (["--help"], 0), (["run", "--help"], 0),
])
def test_usage_errors_exit_one_and_help_exits_zero(argv, code, capsys):
    """A misspelt or missing command, or --config without its value, exits 1
    with the one configuration-error line; --help as the first or second
    token prints the usage line and the module docstring and exits 0."""
    assert cli.main(argv) == code
    out = capsys.readouterr()
    if code:
        assert out.err.startswith("configuration error: ") and out.err.count("\n") == 1
        assert not out.out
    else:
        assert out.out.startswith("usage: nsfemdg") and cli.__doc__ in out.out and not out.err


def test_override_pairs_forms():
    pairs = cli._override_pairs(["--n", "4", "--preset=bump", "--T", "0.25"])
    assert pairs == [("n", "4"), ("preset", "bump"), ("T", "0.25")]


def test_override_pairs_rejects_bare_token():
    with pytest.raises(ConfigError, match="expected --key value"):
        cli._override_pairs(["n", "4"])


def test_override_pairs_rejects_missing_value():
    with pytest.raises(ConfigError, match="missing a value"):
        cli._override_pairs(["--n"])


# ---------------------------------------------------------------------------
# run command


def test_run_writes_outputs_and_summary(tmp_path, capsys):
    rc = cli.main(["run", "--preset", "bump", "--n", "1", "--steps", "3",
                   "--outdir", str(tmp_path / "out")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mass drift" in out
    assert re.search(r"^run: \d+ Newton iterations, \d+ line-search backtracks, "
                     r"\d+ Krylov iterations, \d+ Krylov cycles, "
                     r"\d+ preconditioner factorizations$", out, re.M)
    outdir = tmp_path / "out"
    assert (outdir / "diagnostics.csv").exists()
    for k in range(4):
        assert (outdir / f"state_{k:04d}.vtk").exists()
    lines = (outdir / "diagnostics.csv").read_text().strip().splitlines()
    assert len(lines) == 5  # header + initial state + 3 steps


def test_run_cadence_thins_snapshots(tmp_path):
    outdir = tmp_path / "out"
    rc = cli.main(["run", "--preset", "bump", "--n", "1", "--steps", "4",
                   "--cadence", "2", "--outdir", str(outdir)])
    assert rc == 0
    names = sorted(p.name for p in outdir.glob("state_*.vtk"))
    assert names == ["state_0000.vtk", "state_0002.vtk", "state_0004.vtk"]


def test_run_repeat_is_byte_identical(tmp_path):
    args = ["run", "--preset", "bump", "--n", "1", "--steps", "2"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(args + ["--outdir", str(a)]) == 0
    assert cli.main(args + ["--outdir", str(b)]) == 0
    assert (a / "diagnostics.csv").read_bytes() == (b / "diagnostics.csv").read_bytes()
    assert (a / "state_0002.vtk").read_bytes() == (b / "state_0002.vtk").read_bytes()


def test_run_defaults_to_ten_steps(tmp_path):
    outdir = tmp_path / "out"
    rc = cli.main(["run", "--preset", "bump", "--n", "4", "--outdir", str(outdir)])
    assert rc == 0
    lines = (outdir / "diagnostics.csv").read_text().strip().splitlines()
    assert len(lines) == 12  # header + 11 states
    # Level k is at k dt bit for bit; a running sum of dt first differs at k = 6.
    dt = parse_config(None, ()).params().dt(cli.build_box_mesh(4))
    steps_and_times = [tuple(line.split(",")[:2]) for line in lines[1:]]
    assert all(float(t) == int(k) * dt for k, t in steps_and_times)


def test_run_failing_midway_keeps_its_completed_steps(tmp_path, monkeypatch, capsys):
    """A run whose step 3 fails exits 2 and leaves the rows and snapshots of
    steps 0-2, byte for byte those of the same run stopped after step 2."""
    args = ["run", "--preset", "bump", "--n", "1", "--cadence", "2"]
    whole = tmp_path / "whole"
    assert cli.main([*args, "--steps", "2", "--outdir", str(whole)]) == 0

    def failing_at_step_3(prev, *rest, _solve=solver.homotopy_newton_solve):
        if prev.k == 2:
            raise solver.StepFailure("injected", alpha=1.0,
                                     diagnostics=solver.StepDiagnostics(krylov_iters=7),
                                     step=3)
        return _solve(prev, *rest)

    monkeypatch.setattr(solver, "homotopy_newton_solve", failing_at_step_3)
    cut = tmp_path / "cut"
    capsys.readouterr()
    assert cli.main([*args, "--steps", "5", "--outdir", str(cut)]) == 2
    assert capsys.readouterr().err == ("run failed at step 3: injected; 7 Krylov iterations, "
                                       "0 preconditioner factorizations\n")
    names = ["diagnostics.csv", "state_0000.vtk", "state_0002.vtk"]
    assert sorted(p.name for p in cut.iterdir()) == sorted([*names, "failure_step_0003.npz"])
    for name in names:
        assert (cut / name).read_bytes() == (whole / name).read_bytes(), name
    assert int(np.load(cut / "failure_step_0003.npz")["k"]) == 2


@pytest.mark.parametrize("command", ["run", "rates"])
@pytest.mark.parametrize("under_a_file", [False, True])
def test_outdir_that_cannot_be_a_directory_exits_one(command, under_a_file, tmp_path,
                                                     monkeypatch, capsys):
    """An outdir naming a file, or a path under one, is one configuration
    error line; a run says so before it solves a step."""
    blocker = tmp_path / "taken"
    blocker.write_text("a file\n")
    outdir = blocker / "out" if under_a_file else blocker

    def unsolved(*args):
        raise AssertionError("a step was solved")

    monkeypatch.setattr(solver, "homotopy_newton_solve", unsolved)
    rc = cli.main([*_SMALLEST[command], "--outdir", str(outdir)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: cannot make the output directory {outdir}: ")
    assert err.count("\n") == 1
    assert blocker.read_text() == "a file\n"


def test_config_error_exits_one(tmp_path, capsys):
    rc = cli.main(["run", "--gamma", "0.5", "--outdir", str(tmp_path)])
    assert rc == 1
    assert "configuration error" in capsys.readouterr().err


def test_non_finite_flag_exits_one(tmp_path, capsys):
    rc = cli.main(["run", "--T", "inf", "--outdir", str(tmp_path)])
    assert rc == 1
    assert "not a finite number" in capsys.readouterr().err


def test_short_key_is_not_an_abbreviation(tmp_path):
    """--c sets the time step factor c; it is not a prefix of --config."""
    outdir = tmp_path / "out"
    rc = cli.main(["run", "--c", "4", "--n", "1", "--steps", "1", "--outdir", str(outdir)])
    assert rc == 0
    header, _, row1 = (outdir / "diagnostics.csv").read_text().strip().splitlines()
    t = float(row1.split(",")[header.split(",").index("t")])
    assert t == pytest.approx(4.0 * cli.build_box_mesh(1).h, rel=1e-12)


@pytest.mark.parametrize("argv", [
    ["run", "--rho_bar", "-1"],
    ["run", "--preset", "bump", "--amp", "-2", "--n", "4"],
    ["study", "--kind", "cauchy", "--preset", "bump", "--amp", "-3", "--ns", "1 2"],
    # At n=2 no quadrature point of the projection lies near the bump's
    # centre, where rho0 = 1 - 2 < 0; the closed-form minimum sees it.
    ["run", "--preset", "bump", "--amp", "-2"],
    ["run", "--preset", "bump", "--amp", "-1.05", "--n", "4"],
    # A Cauchy study starts from the bump when no preset is given.
    ["study", "--kind", "cauchy", "--amp", "-1.05", "--ns", "1 2"],
])
def test_negative_initial_density_exits_one(argv, tmp_path, capsys):
    rc = cli.main([*argv, "--outdir", str(tmp_path / "out")])
    assert rc == 1
    preset = "stationary" if "--rho_bar" in argv else "bump"
    assert capsys.readouterr().err.startswith(
        f"configuration error: initial density of preset {preset} is negative: "
        f"its minimum over the box is -")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["run", "--rho_bar", "0", "--kappa", "0"],
    ["run", "--preset", "shear", "--rho_bar", "0", "--kappa", "0"],
    ["study", "--kind", "cauchy", "--preset", "stationary", "--rho_bar", "0",
     "--kappa", "0", "--ns", "1 2"],
])
def test_zero_initial_density_without_floor_exits_one(argv, tmp_path, capsys):
    """rho0 = 0 with kappa = 0 leaves m0 / (rho0 + kappa h) undefined: a
    configuration error, not a failed linear solve."""
    rc = cli.main([*argv, "--outdir", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: initial density is zero at a quadrature point")
    assert "Warning" not in err
    assert not (tmp_path / "out").exists()


def test_initial_density_minimum_is_over_the_box():
    """A positive bump on a negative background is admissible when it lifts
    the box corners above zero, and only then."""
    wide = [("preset", "bump"), ("rho_bar", "-0.1"), ("amp", "1"), ("sigma", "10")]
    assert parse_config(None, wide).initial_density_range()[0] == pytest.approx(
        -0.1 + np.exp(-0.75 / 100.0))
    with pytest.raises(ConfigError, match="minimum over the box is -0.1$"):
        parse_config(None, [*wide[:3], ("sigma", "0.15")])
    bump = [("preset", "bump"), ("amp", "-1.05")]
    with pytest.raises(ConfigError, match="minimum over the box is -0.05$"):
        parse_config(None, bump)
    # A Cauchy study starts from the bump when no preset is given.
    with pytest.raises(ConfigError, match="preset bump is negative"):
        parse_config(None, [("kind", "cauchy"), ("ns", "1 2"), ("amp", "-1.05")], "study")
    # The shear amplitude is a momentum, not a density.
    assert parse_config(None, [("preset", "shear"), ("amp", "-5")]).initial_density_range() == (
        1.0, 1.0)


def test_time_grid_bound_is_inclusive():
    """steps and the step count T implies may reach the bound, on the
    command's finest mesh: n for run, the largest of ns for a study."""
    assert parse_config(None, [("steps", "10000")]).steps == 10000
    dt = 0.5 * 3**0.5 / 2                        # c h on the n = 2 unit-box mesh
    assert parse_config(None, [("T", repr(10000 * dt))]).T == 10000 * dt
    with pytest.raises(ConfigError, match="on the n = 4 mesh"):
        parse_config(None, [("kind", "cauchy"), ("ns", "2 4"), ("T", repr(10000 * dt))],
                     "study")
    with pytest.raises(ConfigError, match="T = 0.25 takes more than 10000 steps"):
        parse_config(None, [("kind", "cauchy"), ("ns", "1 2"), ("c", "1e-300")], "study")
    # rates and check do not step
    parse_config(None, [("kind", "rates"), ("ns", "1 2"), ("T", "1e300")], "study")
    parse_config(None, [("c", "1e-300")], "check")


def test_long_time_grid_exits_one_at_once(tmp_path, capsys):
    """A box so small that dt = c h on the n = 2 mesh asks for ~115,000
    steps exits 1 before any mesh is built."""
    start = time.perf_counter()
    rc = cli.main(["study", "--kind", "pdecay", "--ns", "1 2", "--T", "0.05",
                   "--box", "0 0 0 1e-6 1e-6 1e-6", "--outdir", str(tmp_path / "out")])
    assert time.perf_counter() - start < 1.0
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: T = 0.05 takes more than 10000 steps")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["run", "--preset", "bump", "--n", "1", "--steps", "1", "--c", "1e-300"],
    ["study", "--kind", "cauchy", "--ns", "1 2", "--c", "1e-300", "--T", "1e-300"],
])
def test_singular_alpha0_solve_exits_two_in_one_line(argv, tmp_path, capsys):
    """At c = 1e-300 the alpha = 0 system of step 1 is singular: the command
    reports it as that step's failure, with the reason, in one line.  The
    study's T keeps its time grid to two steps."""
    rc = cli.main([*argv, "--outdir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    where = " on the n = 1 mesh" if argv[0] == "study" else ""
    assert err.startswith(f"{argv[0]} failed at step 1{where}: alpha=0, 0 iterations, ")
    assert "singular" in err and err.count("\n") == 1


def test_unconverged_run_exits_two(tmp_path, capsys):
    """At n=2 the bump's elements differ in density, so the entry residual
    is far above 1e-30 (at n=1 the six tets are alike and it can be 0)."""
    rc = cli.main(["run", "--preset", "bump", "--n", "2", "--steps", "1",
                   "--newton_tol", "1e-30", "--newton_max_iter", "1",
                   "--outdir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"run failed at step 1: alpha=\S+, \d+ iterations, residual \S+; "
                        r"\d+ Krylov iterations, \d+ preconditioner factorizations\n", err)


def test_failed_step_reports_its_linear_work(tmp_path, monkeypatch, capsys):
    """At rho_bar 1e3 the n=2 bump's step 1 gives up at alpha = 1/64.  Its
    stderr line ends with the Krylov iterations and density factorizations
    of every linear solve the step made, the failed nodes' included: one
    factorization per solve."""
    krylov = []
    linear_solve = solver.linear_solve

    def counted(J, b, **kwargs):
        before = kwargs["stats"].krylov_iters
        try:
            return linear_solve(J, b, **kwargs)
        finally:
            krylov.append(kwargs["stats"].krylov_iters - before)

    monkeypatch.setattr(solver, "linear_solve", counted)
    rc = cli.main(["run", "--preset", "bump", "--n", "2", "--steps", "2", "--rho_bar", "1e3",
                   "--outdir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("run failed at step 1: alpha=0.015625, ")
    assert err.endswith(f"; {sum(krylov)} Krylov iterations, "
                        f"{len(krylov)} preconditioner factorizations\n")
    assert sum(krylov) > 0


def test_failure_snapshot_repeats_the_failed_step(tmp_path, monkeypatch, capsys):
    """The n=2 bump at rho_bar 1e3 fails step 1, and the run writes the
    state it started from, the mesh and the parameters to
    failure_step_0001.npz.  From that file alone, `homotopy_newton_solve`
    fails the same way: alpha = 1/64, the same message, and the same counts,
    Newton and Krylov iterations and factorizations included."""
    failures = []
    solve = solver.homotopy_newton_solve

    def recorded(*args):
        try:
            return solve(*args)
        except solver.StepFailure as exc:
            failures.append(exc)
            raise

    monkeypatch.setattr(solver, "homotopy_newton_solve", recorded)
    outdir = tmp_path / "out"
    rc = cli.main(["run", "--preset", "bump", "--n", "2", "--steps", "2", "--rho_bar", "1e3",
                   "--outdir", str(outdir)])
    assert rc == 2
    snapshot = outdir / "failure_step_0001.npz"
    assert capsys.readouterr().out == f"run: wrote {snapshot}\n"
    monkeypatch.undo()

    data = np.load(snapshot)
    params = scheme.SchemeParams(**{f.name: data[f.name].item()
                                    for f in fields(scheme.SchemeParams)})
    assert params == parse_config(None, [("rho_bar", "1e3")]).params()
    box = data["box"]
    prev = scheme.State(rho=data["rho"], u=data["u"], k=int(data["k"]))
    assert prev.k == 0
    with pytest.raises(solver.StepFailure) as again:
        solver.homotopy_newton_solve(prev, params, cli.build_box_mesh(int(data["n"]), box[:3],
                                                                      box[3:]))
    (first,) = failures
    assert again.value.alpha == first.alpha == 1.0 / 64
    assert (again.value.step, str(again.value)) == (first.step, str(first))
    assert vars(again.value.diagnostics) == vars(first.diagnostics)
    assert first.diagnostics.newton_iters > 0 and first.diagnostics.krylov_iters > 0


def test_dense_bump_runs_without_rescue_flags(tmp_path):
    """At rho_bar 100 the acoustic Courant number is ~300.  The n=3 bump
    still runs two steps on the default continuation and Newton budget, and every row
    keeps the mass of row 0 to rounding."""
    outdir = tmp_path / "out"
    rc = cli.main(["run", "--preset", "bump", "--n", "3", "--steps", "2",
                   "--rho_bar", "100", "--outdir", str(outdir)])
    assert rc == 0
    lines = (outdir / "diagnostics.csv").read_text().strip().splitlines()
    column = lines[0].split(",").index("mass")
    mass = np.array([float(line.split(",")[column]) for line in lines[1:]])
    assert len(mass) == 3
    assert np.abs(mass - mass[0]).max() <= 1e-12 * mass[0]


def test_underflowing_sigma_exits_one(tmp_path, capsys):
    """sigma > 0 whose square underflows to 0 would divide by zero in the
    bump's closed-form minimum: a configuration error, one line."""
    rc = cli.main(["run", "--preset", "bump", "--n", "1", "--steps", "1",
                   "--sigma", "1e-200", "--outdir", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "configuration error: sigma is too small: sigma**2 underflows to 0, got 1e-200\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("amp", ["1e100", "1e150", "-1e100"])
def test_overflowing_shear_momentum_exits_one(amp, tmp_path, capsys):
    """Shear data whose momentum flux rho_max*amp**2 reaches sqrt(float max)
    are rejected before the first step, in one line."""
    rc = cli.main(["run", "--preset", "shear", "--n", "1", "--steps", "1", "--amp", amp,
                   "--outdir", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: initial momentum flux of preset shear ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags", [["--a", "1e308"], ["--preset", "bump", "--amp", "1e308"],
                                   ["--kappa", "1e300"]])
def test_overflowing_initial_pressure_exits_one(flags, tmp_path, capsys):
    """Initial data whose pressure, kappa*h floor included, reaches
    sqrt(float max) are rejected before the first step, in one line and
    without a numpy warning."""
    rc = cli.main(["run", "--n", "1", "--steps", "1", *flags,
                   "--outdir", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: initial pressure of preset ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def _assert_exits_cleanly(argv, tmp_path_factory):
    """`argv` exits 0, 1 or 2, raises nothing (a RuntimeWarning is an error
    here), and a failure says why in exactly one stderr line.  A gamma <= 3
    also warns that the theory does not cover it, in one stderr line before
    any other; no warning leaves the command through the warnings module."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        rc = cli.main([*argv, "--outdir", str(tmp_path_factory.mktemp("out"))])
    assert rc in (0, 1, 2)
    warned = err.getvalue().startswith("warning: gamma = ")
    if warned:
        assert err.getvalue().splitlines()[0].endswith("convergence theory"), err.getvalue()
    assert err.getvalue().count("\n") == warned + (rc != 0), err.getvalue()
    assert caught == []


# The smallest run and studies over a box.
_SMALLEST = {"run": ["run", "--preset", "bump", "--n", "1", "--steps", "1"],
             "rates": ["study", "--kind", "rates", "--ns", "1 2"],
             "cauchy": ["study", "--kind", "cauchy", "--ns", "1 2"],
             "pdecay": ["study", "--kind", "pdecay", "--ns", "1 2"]}
# Box extents whose mesh geometry does not fit in floats: the squared norms
# of face cross products overflow (1e200, 1e100) or underflow to a zero face
# area (1e-100), or tet volumes underflow to zero (1e-120).
_MISFIT_EXTENTS = [1e200, 1e100, 1e-100, 1e-120]
_FLOATS = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)


_RUN_KEYS = ["amp", "rho_bar", "sigma", "a", "gamma", "kappa", "c", "epsilon"]


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(preset=st.sampled_from(["bump", "shear"]), key=st.sampled_from(_RUN_KEYS), x=_FLOATS)
@example(preset="bump", key="sigma", x=1e200)
@example(preset="bump", key="amp", x=1e100)
@example(preset="bump", key="amp", x=1e308)
@example(preset="bump", key="amp", x=5.13e63)
@example(preset="bump", key="amp", x=1.85e82)
@example(preset="bump", key="sigma", x=2.718447203509172e-158)   # r2 / sigma**2 overflows
@example(preset="shear", key="amp", x=1e150)   # energy ledger and GMRES overflow
@example(preset="shear", key="amp", x=1e100)   # GMRES norms overflow
@example(preset="bump", key="c", x=1e-300)     # singular alpha = 0 system: exit 2
@example(preset="bump", key="gamma", x=2.0)    # the theory warning
def test_extreme_initial_data_exit_cleanly(preset, key, x, tmp_path_factory):
    """Over the whole float range of each initial-data and physics key, a
    bump or shear run exits as `_assert_exits_cleanly` asks."""
    _assert_exits_cleanly(["run", "--preset", preset, "--n", "1", "--steps", "1",
                           f"--{key}", repr(x)], tmp_path_factory)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(preset=st.sampled_from(["bump", "shear"]),
       keys=st.lists(st.sampled_from(_RUN_KEYS), min_size=2, max_size=2, unique=True),
       xs=st.tuples(_FLOATS, _FLOATS))
@example(preset="shear", keys=["amp", "gamma"], xs=(1e30, 1000.0))   # a trial pressure overflows
def test_two_extreme_keys_exit_cleanly(preset, keys, xs, tmp_path_factory):
    """Two initial-data or physics keys drawn at once, each over the whole
    float range, let a bump or shear run exit as `_assert_exits_cleanly`
    asks."""
    flags = [token for key, x in zip(keys, xs) for token in (f"--{key}", repr(x))]
    _assert_exits_cleanly(["run", "--preset", preset, "--n", "1", "--steps", "1", *flags],
                          tmp_path_factory)


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(key=st.sampled_from(["gamma", "a", "epsilon", "kappa", "c"]), x=_FLOATS)
@example(key="gamma", x=1e300)   # the probe state's pressure overflows
@example(key="kappa", x=1e300)
@example(key="a", x=1e300)       # exits 0
@example(key="c", x=5e-324)      # rho/dt overflows
def test_check_over_extreme_physics_exits_cleanly(key, x, tmp_path_factory):
    """Over the whole float range of each physics key, `check` exits as
    `_assert_exits_cleanly` asks."""
    _assert_exits_cleanly(["check", f"--{key}", repr(x)], tmp_path_factory)


def test_theory_warning_is_one_line(tmp_path):
    """Under the CLI the gamma <= 3 warning is one stderr line, printed once
    and before the failure it precedes."""
    out = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "nsfemdg.cli", "run",
         "--gamma", "2", "--n", "1", "--steps", "1", "--c", "1e-300",
         "--outdir", str(tmp_path / "out")],
        env=_child_env(), capture_output=True, text=True,
    )
    assert out.returncode == 2
    lines = out.stderr.splitlines()
    assert lines[0] == ("warning: gamma = 2.0 <= 3: outside the range covered by the "
                        "convergence theory")
    assert lines[1].startswith("run failed at step 1: ")
    assert len(lines) == 2


@pytest.mark.parametrize("extent", _MISFIT_EXTENTS)
@pytest.mark.parametrize("command", sorted(_SMALLEST))
def test_box_geometry_outside_floats_exits_one(command, extent, tmp_path, capsys):
    rc = cli.main([*_SMALLEST[command], "--box", f"0 0 0 {extent} {extent} {extent}",
                   "--outdir", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: box extents ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", sorted(_SMALLEST))
def test_box_far_from_origin_exits_one(command, tmp_path, capsys):
    """A box whose mesh spacing is below sqrt(eps) times its corners'
    magnitude would round its grid points together."""
    rc = cli.main([*_SMALLEST[command], "--box", "1e16 0 0 10000000000000002 1 1",
                   "--outdir", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: box (1e+16, ")
    assert "below sqrt(eps) times its largest coordinate" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(command=st.sampled_from(sorted(_SMALLEST)),
       lo=st.tuples(_FLOATS, _FLOATS, _FLOATS), extents=st.tuples(_FLOATS, _FLOATS, _FLOATS))
@example(command="run", lo=(0.0,) * 3, extents=(1e200,) * 3)
@example(command="run", lo=(0.0,) * 3, extents=(1e100,) * 3)
@example(command="run", lo=(0.0,) * 3, extents=(1e-100,) * 3)
@example(command="run", lo=(0.0,) * 3, extents=(1e-120,) * 3)
@example(command="rates", lo=(0.0,) * 3, extents=(1e200,) * 3)
@example(command="rates", lo=(0.0,) * 3, extents=(1e100,) * 3)
@example(command="rates", lo=(0.0,) * 3, extents=(1e-100,) * 3)
@example(command="rates", lo=(0.0,) * 3, extents=(1e-120,) * 3)
@example(command="run", lo=(0.0,) * 3, extents=(2.0**53, 2.0**53, 2.3e-45))   # aspect 4e60
@example(command="run", lo=(0.0,) * 3, extents=(1e42, 1e46, 1e44))   # face force 1e245
@example(command="rates", lo=(0.0,) * 3, extents=(1e-60,) * 3)   # errors underflow to 0
@example(command="run", lo=(1e16, 0.0, 0.0), extents=(2.0, 1.0, 1.0))   # grid rounds together
@example(command="pdecay", lo=(0.0,) * 3, extents=(1e-6,) * 3)   # 1.15M time steps
@example(command="cauchy", lo=(-1.0, 2.0, 0.5), extents=(1.0, 2.0, 0.5))   # exit 0
@example(command="pdecay", lo=(-1.0, 2.0, 0.5), extents=(1.0, 2.0, 0.5))   # exit 0
def test_extreme_box_exits_cleanly(command, lo, extents, tmp_path_factory):
    """Over the whole float range of the box corner and extents, the
    smallest run and studies exit as `_assert_exits_cleanly` asks."""
    box = " ".join(repr(x) for x in (*lo, *(a + e for a, e in zip(lo, extents))))
    _assert_exits_cleanly([*_SMALLEST[command], "--box", box], tmp_path_factory)


def test_unconverged_study_exits_two_and_leaves_no_outdir(tmp_path, capsys):
    outdir = tmp_path / "out"
    rc = cli.main(["study", "--kind", "cauchy", "--ns", "1 2", "--T", "0.1",
                   "--newton_tol", "1e-30", "--newton_max_iter", "1",
                   "--outdir", str(outdir)])
    assert rc == 2
    assert "study failed at step 1" in capsys.readouterr().err
    assert not outdir.exists()


def test_failed_cauchy_study_names_its_mesh(tmp_path, monkeypatch, capsys):
    """A step that fails on the second mesh of the family is reported with
    that mesh's n, and the study writes nothing."""
    def failing_on_n2(prev, params, mesh, *rest, _solve=solver.homotopy_newton_solve):
        if mesh.n_elems == 6 * 2**3:
            raise solver.StepFailure("injected", alpha=0.5,
                                     diagnostics=solver.StepDiagnostics(factorizations=2),
                                     step=prev.k + 1)
        return _solve(prev, params, mesh, *rest)

    monkeypatch.setattr(solver, "homotopy_newton_solve", failing_on_n2)
    outdir = tmp_path / "out"
    rc = cli.main(["study", "--kind", "cauchy", "--ns", "1 2", "--T", "0.3",
                   "--outdir", str(outdir)])
    assert rc == 2
    out = capsys.readouterr()
    assert out.err == ("study failed at step 1 on the n = 2 mesh: injected; "
                       "0 Krylov iterations, 2 preconditioner factorizations\n")
    assert not out.out
    assert not outdir.exists()


# ---------------------------------------------------------------------------
# check command


def test_check_passes(capsys):
    rc = cli.main(["check"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "all passed" in out
    assert out.count(" ok") >= 8
    assert "FAIL" not in out


@pytest.mark.parametrize("flags", [["--steps", "3"], ["--T", "0.5"]])
def test_check_rejects_time_keys(flags, tmp_path, capsys):
    rc = cli.main(["check", *flags, "--outdir", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"configuration error: check does not use {flags[0][2:]}" in err


def test_check_accepts_outdir_and_physics_keys(tmp_path, capsys):
    rc = cli.main(["check", "--outdir", str(tmp_path), "--gamma", "4", "--epsilon", "0.3"])
    assert rc == 0
    assert "all passed" in capsys.readouterr().out


@pytest.mark.parametrize("argv,message", [
    (["check", "--n", "7", "--preset", "shear", "--kind", "pdecay"],
     "check does not use n or preset or kind"),
    (["study", "--kind", "rates", "--T", "5", "--gamma", "4", "--n", "9", "--cadence", "3"],
     "study does not use T or gamma or n or cadence"),
    (["run", "--kind", "pdecay", "--ns", "3 4"], "run does not use kind or ns"),
    (["study", "--kind", "pdecay", "--gamma", "4"], "study does not use gamma"),
    (["check", "--newton_tol", "1e-3"], "check does not use newton_tol"),
])
def test_command_rejects_keys_it_ignores(argv, message, tmp_path, capsys):
    outdir = tmp_path / "out"
    rc = cli.main([*argv, "--outdir", str(outdir)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"configuration error: {message}\n"
    assert not outdir.exists()


def test_check_detects_corrupted_reference(monkeypatch, capsys):
    """Reference assemblies handed the velocity with its sign flipped must
    fail the equivalence checks."""
    for name in ("continuity_rows_reference", "momentum_rows_reference"):
        def flipped(prev, guess, *rest, _reference=getattr(oracles, name)):
            return _reference(prev, replace(guess, u=-guess.u), *rest)
        monkeypatch.setattr(oracles, name, flipped)
    rc = cli.cmd_check(RunConfig())
    assert rc == 2
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "FAILURES detected" in out


@pytest.mark.parametrize("flags", [[], ["--gamma", "6", "--c", "4"], ["--kappa", "0"]])
def test_check_jacobian_probe_is_away_from_upwind_kinks(flags, monkeypatch):
    """check compares the Jacobian with finite differences at a probe whose
    velocity comes from fixed draws alone.  Every interior |u.n| of it is at
    least 0.01 (0.0137 today), so the differences do not straddle an upwind
    kink; a change to the draws that moves the probe onto one fails here."""
    probes = []

    def recording(prev, guess, params, mesh, *rest, _jacobian=scheme.jacobian):
        probes.append((guess, mesh))
        return _jacobian(prev, guess, params, mesh, *rest)

    monkeypatch.setattr(scheme, "jacobian", recording)
    assert cli.main(["check", *flags]) == 0
    ((guess, mesh),) = probes
    int_f = mesh.interior_faces
    flux = np.einsum("fi,fi->f", guess.u[int_f], mesh.face_normal[int_f])
    assert np.abs(flux).min() >= 0.01


# ---------------------------------------------------------------------------
# study command


def test_study_rates(tmp_path, capsys):
    outdir = tmp_path / "study"
    rc = cli.main(["study", "--kind", "rates", "--ns", "2 4",
                   "--outdir", str(outdir)])
    assert rc == 0
    assert "l2 order" in capsys.readouterr().out
    lines = (outdir / "rates.csv").read_text().strip().splitlines()
    assert lines[0] == "n,h,l2_error,h1_error"
    assert len(lines) == 3


def test_study_cauchy(tmp_path, capsys):
    outdir = tmp_path / "study"
    rc = cli.main(["study", "--kind", "cauchy", "--ns", "1 2", "--T", "0.5",
                   "--preset", "bump", "--outdir", str(outdir)])
    assert rc == 0
    lines = (outdir / "cauchy.csv").read_text().strip().splitlines()
    assert lines[0] == "n_coarse,n_fine,l2_spacetime_diff"
    assert len(lines) == 2
    assert float(lines[1].split(",")[2]) > 0.0


def test_study_cauchy_preset(tmp_path):
    """Without a preset the study refines the bump; an explicit stationary
    preset is honoured, and only the kappa*h density floor then differs."""
    def diff(*flags):
        outdir = tmp_path / (flags[-1] if flags else "default")
        assert cli.main(["study", "--kind", "cauchy", "--ns", "1 2", "--T", "0.1",
                         *flags, "--outdir", str(outdir)]) == 0
        return float((outdir / "cauchy.csv").read_text().splitlines()[1].split(",")[2])

    assert diff() == diff("--preset", "bump")
    h1, h2 = (cli.build_box_mesh(n).h for n in (1, 2))
    kappa = scheme.SchemeParams().kappa
    assert diff("--preset", "stationary") == pytest.approx(kappa * (h1 - h2) * np.sqrt(0.1))


@pytest.mark.parametrize("ns", ["2", "4 2", "2 3", "3 3"])
def test_study_cauchy_needs_nested_meshes(ns, tmp_path, capsys):
    """Each mesh of a Cauchy family must refine the one before: n -> k n."""
    outdir = tmp_path / "study"
    rc = cli.main(["study", "--kind", "cauchy", "--ns", ns, "--outdir", str(outdir)])
    assert rc == 1
    assert "configuration error: cauchy needs at least two ns" in capsys.readouterr().err
    assert not outdir.exists()


def test_rates_family_need_not_nest():
    assert parse_config(None, [("kind", "rates"), ("ns", "4 2 3")]).ns == (4, 2, 3)


@pytest.mark.parametrize("ns", ["2", "3 3"])
def test_study_rates_needs_two_mesh_sizes(ns, tmp_path, capsys):
    """An order fitted through one mesh size is no measurement."""
    outdir = tmp_path / "study"
    rc = cli.main(["study", "--kind", "rates", "--ns", ns, "--outdir", str(outdir)])
    assert rc == 1
    assert "configuration error: rates fits an order, so it needs at least two distinct ns" in (
        capsys.readouterr().err)
    assert not outdir.exists()


def test_study_pdecay_accepts_one_mesh(tmp_path, capsys):
    """One mesh gives one row and no rate, so no rate line is printed."""
    outdir = tmp_path / "study"
    assert cli.main(["study", "--kind", "pdecay", "--ns", "1", "--T", "0.2",
                     "--outdir", str(outdir)]) == 0
    assert len((outdir / "pdecay.csv").read_text().strip().splitlines()) == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("study pdecay: n=1 h=")
    assert lines[1] == f"study pdecay: wrote {outdir / 'pdecay.csv'}"


def test_study_rejects_steps(tmp_path, capsys):
    """Every run of a study ends at T; steps used to be ignored silently."""
    outdir = tmp_path / "study"
    rc = cli.main(["study", "--kind", "cauchy", "--ns", "1 2", "--steps", "3",
                   "--outdir", str(outdir)])
    assert rc == 1
    assert "configuration error: study does not use steps" in capsys.readouterr().err
    assert not outdir.exists()


def _child_env(**overrides):
    """The environment with `overrides`, importing the package under test."""
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **overrides)


def test_thread_cap_env_var():
    env = _child_env(NSFEMDG_THREADS="1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env.pop(var, None)
    out = subprocess.run(
        [sys.executable, "-c",
         "import nsfemdg, os; print(os.environ['OMP_NUM_THREADS'], "
         "os.environ['OPENBLAS_NUM_THREADS'])"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.split() == ["1", "1"]


def test_thread_cap_does_not_override_explicit_setting():
    env = _child_env(NSFEMDG_THREADS="1", OMP_NUM_THREADS="4")
    out = subprocess.run(
        [sys.executable, "-c", "import nsfemdg, os; print(os.environ['OMP_NUM_THREADS'])"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "4"


def test_import_leaves_out_scipy_special():
    """The quadrature rules need no scipy.special, so the package does not
    import it."""
    out = subprocess.run(
        [sys.executable, "-c", "import sys, nsfemdg.cli; print('scipy.special' in sys.modules)"],
        env=_child_env(), capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


def test_study_pdecay(tmp_path, capsys):
    outdir = tmp_path / "study"
    rc = cli.main(["study", "--kind", "pdecay", "--ns", "1 2", "--T", "0.5",
                   "--outdir", str(outdir)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "log2 rates" in out
    lines = (outdir / "pdecay.csv").read_text().strip().splitlines()
    assert lines[0] == "n,h,P1,P2,P3,P4"
    assert len(lines) == 3
    vals = np.array([[float(t) for t in ln.split(",")] for ln in lines[1:]])
    assert np.all(vals[:, 2:] > 0.0)
