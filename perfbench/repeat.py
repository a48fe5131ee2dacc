"""Run the benchmark on several seeds and summarise each end-to-end metric.

    python3 perfbench/repeat.py --workload retrieve --seeds 1-10 --out runs.json

Runs `run.py` once per seed, one at a time, with BENCHMARK.json's
run_seconds, and prints per metric the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread: the distance between
the quartiles as a share of the median, next to the metric's bound.
`--out` keeps every result and the summary as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(results):
    """{metric: {median, q1, q3, spread, bound, values}} over the given results."""
    out = {}
    for metric in SPEC["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[metric["name"]] = {
            "unit": metric["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"),
            "bound": metric["bound"],
            "values": values,
        }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    results = []
    for seed in _seeds(args.seeds):
        cmd = [*SPEC["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: outputs failed their checks\n{proc.stdout[-2000:]}", file=sys.stderr)
            return 1
        results.append(result)
        line = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: {line}", flush=True)

    summary = summarise(results)
    for name, s in summary.items():
        flag = "ok" if s["spread"] <= s["bound"] / 3 else ("WIDE" if s["spread"] > s["bound"] else "near")
        print(f"{name:>12}: median {s['median']:.4g} {s['unit']}  "
              f"spread {s['spread']:.3f} (bound {s['bound']})  {flag}")
    if args.out:
        Path(args.out).write_text(
            json.dumps({"workload": args.workload, "seeds": args.seeds,
                        "summary": summary, "results": results}, indent=1) + "\n",
            encoding="utf-8",
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
