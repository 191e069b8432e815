#!/usr/bin/env python3
"""Self-test of the benchmark, at smoke scale (tiny MCMC settings).

    python3 perfbench/selftest.py

Checks, for every workload:
  * an untraced run emits exactly the end_to_end metrics of BENCHMARK.json
    and a traced run exactly the per_layer metrics, with their units,
    finite values and every output check passing;
  * two untraced runs with the same seed print identical exact counts;
and that run.py, copied into a directory that holds only BENCHMARK.json
and perfbench/, exits non-zero without printing a result.
Exits 0 when everything holds, 1 otherwise.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"


def run(workload, seed, trace, cwd=ROOT, script=RUN):
    command = [sys.executable, str(script), "--workload", workload,
               "--seed", str(seed), "--seconds", "2", "--trace", str(trace),
               "--smoke"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def counts_of(stdout):
    return [line for line in stdout.splitlines() if line.startswith("count ")]


def check_result(label, stdout, expected):
    """Returns the problems with one run's result line."""
    lines = stdout.strip().splitlines()
    if not lines:
        return [f"{label}: no output"]
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return [f"{label}: last line is not JSON"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{label}: output checks failed")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        problems.append(f"{label}: missing {missing} extra {extra}")
    for name, unit in expected.items():
        entry = metrics.get(name)
        if entry is None:
            continue
        if entry.get("unit") != unit:
            problems.append(f"{label}: {name} unit {entry.get('unit')} != {unit}")
        if not isinstance(entry.get("value"), (int, float)) or \
                not math.isfinite(entry["value"]):
            problems.append(f"{label}: {name} value {entry.get('value')}")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    # serve_zipf is not in BENCHMARK.json (see NOTES.md) but is still part
    # of the benchmark program, so it is tested too.
    for workload in ("paper_sweep", "cli_fleet", "serve_zipf"):
        first = run(workload, 7, 0)
        second = run(workload, 7, 0)
        traced = run(workload, 7, 1)
        for label, result, expected in (
                (f"{workload} untraced", first, end_to_end),
                (f"{workload} untraced again", second, end_to_end),
                (f"{workload} traced", traced, per_layer)):
            if result.returncode != 0:
                problems.append(f"{label}: exit code {result.returncode}")
            problems += check_result(label, result.stdout, expected)
        if counts_of(first.stdout) != counts_of(second.stdout):
            problems.append(f"{workload}: counts differ between same-seed runs")
        if not counts_of(first.stdout):
            problems.append(f"{workload}: no counts printed")
        print(f"selftest: {workload} done", flush=True)

    scratch = ROOT / ".bench_build"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench")
        result = run("cli_fleet", 7, 0, cwd=bare,
                     script=bare / "perfbench" / "run.py")
        if result.returncode == 0 or result.stdout.strip():
            problems.append("run.py without the sources did not fail cleanly")

    for problem in problems:
        print("selftest: FAILED " + problem)
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
