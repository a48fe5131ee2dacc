"""Self-test of the benchmark: every workload at a tiny size, untraced and traced.

    python3 perfbench/selftest.py

Checks that each run exits 0, that its last line is the result object with
exactly the keys of the result format, that the outputs passed their checks, and
that every metric BENCHMARK.json names is present with its unit (end-to-end
metrics untraced, per-layer metrics traced). It also checks that a directory
holding only BENCHMARK.json and the benchmark's own files makes the
benchmark fail without printing a result. Exits 1 if any check fails.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(cwd, workload, trace):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace)]
    if cwd == ROOT:
        cmd += ["--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_run(workload, trace):
    proc = _run(ROOT, workload, trace)
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"outputs failed their checks: {proc.stdout[-1500:]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted = {result.get('attempted')!r}")
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(
            f"metrics missing {sorted(set(expected) - set(metrics))}, "
            f"unexpected {sorted(set(metrics) - set(expected))}"
        )
    for name, unit in expected.items():
        entry = metrics.get(name, {})
        if entry.get("unit") != unit or not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{name}: {entry!r}, expected a number in {unit}")
    return problems


def check_bare_directory():
    """Only BENCHMARK.json and the benchmark's paths: must fail, no result."""
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    if proc.returncode == 0 or last.startswith("{"):
        return [f"bare directory: exit {proc.returncode}, last line {last[:200]!r}"]
    return []


def main():
    failed = False
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            problems = check_run(workload, trace)
            print(f"{'FAIL' if problems else 'ok  '} {workload} --trace {trace}")
            for p in problems:
                print(f"     {p}")
            failed |= bool(problems)
    problems = check_bare_directory()
    print(f"{'FAIL' if problems else 'ok  '} bare directory fails without a result")
    for p in problems:
        print(f"     {p}")
    failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
