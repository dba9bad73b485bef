#!/usr/bin/env python3
"""Self-test of the benchmark, at smoke sizes (n <= 2); takes under a minute.

    python3 perfbench/selftest.py

Runs every workload's code path, untraced and traced, on seeds 0 and 1;
checks that a traced pass yields every per-layer metric BENCHMARK.json
names; and checks that the correctness gate rejects an injected mass drift
and a command that exits with a non-zero code.  Exits 0 when all hold.
"""
from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.import_package()
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []

    for name in workloads.NAMES:
        for seed in (0, 1):
            passes = []
            values, _ = run.trace(workloads.build(name, seed, smoke=True), passes)
            for p in passes:
                problems += [f"{name} seed {seed}: {f}" for f in p["failures"]]
            missing = [m["name"] for m in spec["per_layer"] if m["name"] not in values]
            if missing:
                problems.append(f"{name}: traced pass lacks {missing}")

    bump = workloads.build("run_bump_n4", 0, smoke=True)
    values = run.measure(bump, 0.0, {"passes": []})
    missing = [m["name"] for m in spec["end_to_end"] if m["name"] not in values]
    if missing:
        problems.append(f"untraced pass lacks {missing}")
    rows = workloads.read_csv(run.WORK / "run_bump_n4-run" / "0-run" / "diagnostics.csv")
    rows[-1]["mass"] *= 1.0 + 1e-9
    if not any("mass drift" in f for f in workloads.check_rows(rows, "injected")):
        problems.append("gate accepted a mass drift of 1e-9")

    broken = workloads.Workload("broken", [workloads.Command("run", {"preset": "vortex"})],
                                [], seed=0)
    failures = workloads.run_pass(broken, run.WORK / "broken-run").failures
    if not any("exited with code 1" in f for f in failures):
        problems.append(f"gate accepted a non-zero exit code: {failures}")

    for problem in problems:
        print(f"selftest: {problem}", file=sys.stderr)
    print(f"selftest: {'FAILED' if problems else 'all passed'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
