#!/usr/bin/env python3
"""nsfemdg benchmark: one workload per call, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src/`.
One process drives everything, single-threaded: NSFEMDG_THREADS=1 is set
before numpy is imported, and the workload's `nsfemdg` commands run in this
process through `nsfemdg.cli.main`.

--trace 0 times passes of the workload with tracing off, repeating while
fewer than S seconds have passed (always at least one pass), and reports the
end-to-end metrics of BENCHMARK.json.  --trace 1 runs one untraced and one
traced pass and reports the per-layer metrics of BENCHMARK.json from the
traced one.  Every pass goes through the correctness gate in workloads.py.

Times are seconds at a reference machine speed: raw seconds scaled by the
speed that speed.SpeedProbe measures meanwhile, since on a shared host raw
times can drift by a third between runs.  The exception is the
import part of setup_s, timed in child interpreters (median of three).  Raw
times and the probe's samples are kept in the run's record.  peak_rss_mb is
the process's peak resident set, including about 26 MB of probe arrays.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it gives the provenance.  A
fuller record, and the spans of a traced pass, are written under
`.bench_work/` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def git_commit() -> str:
    """HEAD of the checkout, read without starting git; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_package():
    """Pin threads, then import nsfemdg from the checkout."""
    if not (ROOT / "src" / "nsfemdg" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no nsfemdg sources under {ROOT / 'src'}")
    for var in THREAD_VARS:
        os.environ.pop(var, None)
    os.environ["NSFEMDG_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import nsfemdg.cli  # noqa: F401  (pulls in every package module)
    if Path(nsfemdg.__file__).resolve().parent != ROOT / "src" / "nsfemdg":
        raise SystemExit(f"benchmark: imported nsfemdg from {nsfemdg.__file__}, "
                         f"not from {ROOT / 'src'}")


def child_import_seconds() -> float:
    """Time a fresh interpreter takes to import nsfemdg.cli, as the CLI does."""
    code = ("import time; t = time.perf_counter(); import nsfemdg.cli; "
            "print(time.perf_counter() - t)")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return float(out.stdout)


def provenance() -> dict:
    import numpy
    import scipy

    return {
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "NSFEMDG_THREADS": os.environ.get("NSFEMDG_THREADS"),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def lu_fill(matrix) -> int:
    """L.nnz + U.nnz of one SuperLU factorization, computed outside any timing."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    if matrix is None:
        return 0
    lu = spla.splu(sp.csc_matrix(matrix))
    return int(lu.L.nnz + lu.U.nnz)


def layer_values(tracer, scale: float, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics of a traced pass; times in seconds at the reference
    speed, with `scale` the traced pass's speed factor."""
    from spans import TARGETS

    own = tracer.self_times()
    calls = tracer.calls()
    values = dict(tracer.counts)
    for mod, fn in TARGETS:
        values[f"{mod}.{fn}.s"] = own.get(f"{mod}.{fn}", 0.0) * scale
        values[f"{mod}.{fn}.calls"] = calls[f"{mod}.{fn}"]
    values["oracles.s"] = sum(values[f"oracles.{fn}.s"] for fn in (
        "continuity_rows_reference", "momentum_rows_reference", "jacobian_fd"))
    tried = values["solver.schedules_tried"]
    values["solver.schedule_yield"] = values["solver.steps"] / tried if tried else 0.0
    step_s = [d * scale for d in tracer.durations("solver.homotopy_newton_solve")]
    values["solver.step_s_p50"] = statistics.median(step_s) if step_s else 0.0
    values["solver.step_s_max"] = max(step_s, default=0.0)
    values["solver.linear_solve.share"] = values["solver.linear_solve.s"] / traced_wall
    values["solver.lu_fill_nnz"] = lu_fill(tracer.newton_matrix)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.spans"] = len(tracer.spans)
    return values


def one_pass(workload, passes: list, before_commands=None, probe=None):
    """Run and gate one pass; failures go to stderr, the pass to `passes`."""
    import workloads

    result = workloads.run_pass(workload, WORK / f"{workload.name}-run", before_commands,
                                probe)
    for failure in result.failures:
        print(f"benchmark: {workload.name} seed {workload.seed}: {failure}", file=sys.stderr)
    passes.append(vars(result))
    return result


def measure(workload, seconds: float, record: dict) -> dict:
    """End-to-end values with tracing off, in seconds at the reference speed.

    In-process set-up is scaled by the speed measured while it runs.  The
    import is timed in child interpreters, which may run on another core than
    the probe, so it stays in raw seconds.
    """
    import workloads
    from speed import SpeedProbe

    probe = SpeedProbe()
    setups = []
    for _ in range(SETUP_REPEATS):
        probe.start()
        seconds_raw = workloads.setup_seconds(workload)
        probe.stop()
        setups.append(seconds_raw - probe.paused_wall)
    setup_samples = list(probe.samples)
    setup_scale = probe.take_scale()
    imports = [child_import_seconds() for _ in range(SETUP_REPEATS)]
    passes = record["passes"]
    start = time.perf_counter()
    while True:
        one_pass(workload, passes, probe=probe)
        if time.perf_counter() - start >= seconds:
            break
    samples = list(probe.samples)
    scale = probe.take_scale()
    raw = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "setup_s": statistics.median(imports) + statistics.median(setups),
    }
    record.update(raw_seconds=raw, import_s=imports, setup_repeats_s=setups,
                  speed_samples_s={"setup": setup_samples, "passes": samples})
    return {
        "wall_s": raw["wall_s"] * scale,
        "cpu_s": raw["cpu_s"] * scale,
        "setup_s": statistics.median(imports) + statistics.median(setups) * setup_scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def trace(workload, passes: list) -> tuple[dict, list]:
    """Per-layer values: one untraced pass, then one traced pass."""
    from spans import Tracer
    from speed import SpeedProbe

    probe = SpeedProbe()
    untraced = one_pass(workload, passes, probe=probe)
    untraced_wall = untraced.wall_s * probe.take_scale()
    # Span times leave out the probe's interruptions, as pass times do.
    tracer = Tracer(clock=lambda: time.perf_counter() - probe.paused_wall)
    modules = {name: sys.modules[f"nsfemdg.{name}"] for name in
               ("cli", "mesh", "spaces", "scheme", "solver", "diagnostics", "oracles", "io")}
    traced = one_pass(workload, passes, lambda: tracer.install(modules), probe)
    scale = probe.take_scale()
    return layer_values(tracer, scale, traced.wall_s * scale, untraced_wall), tracer.spans


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_package()
    import workloads

    if args.workload not in workloads.NAMES:
        raise SystemExit(f"benchmark: unknown workload {args.workload!r}; "
                         f"choose from {workloads.NAMES}")
    workload = workloads.build(args.workload, args.seed)
    stem = WORK / f"{args.workload}-seed{args.seed}"
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "provenance": provenance(), "passes": []}
    if args.trace:
        values, spans = trace(workload, record["passes"])
        with open(f"{stem}.spans.jsonl", "w") as f:
            for name, start, end, parent in spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent}) + "\n")
        record["solver.lu_fill_nnz"] = ("computed: one splu, after the passes, of the "
                                        "first Newton Jacobian of the largest size")
    else:
        values = measure(workload, args.seconds, record)

    failed = sum(1 for p in record["passes"] if p["failures"])
    record["fail_frac"] = failed / len(record["passes"])
    section = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}
    record["provenance"]["loadavg_end"] = os.getloadavg()
    record["metrics"] = metrics
    with open(f"{stem}-trace{args.trace}.json", "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({"provenance": record["provenance"]}))
    print(json.dumps({"correct": failed == 0, "attempted": len(record["passes"]),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
