"""mdrnet benchmark: training, extraction and retrieval throughput.

    python3 perfbench/run.py --workload train-full --seed 1 --seconds 20 --trace 0

Run it from anywhere; it imports `mdrnet` from the `src` directory next to
this one and fails (exit 2, no result) when that is missing. Workloads are
described in workloads.py. Each runs closed loop with one caller, in this
one process, with BLAS threads no more than the cores this process may use
(OPENBLAS_NUM_THREADS and friends default to that count).

A run sets the workload up SETUP_REPEATS times (the median is `setup_s`),
runs the workload's untimed warm-up operations, then starts its operation
again and again until `--seconds` have passed, checking each output; the
last operation runs to its end.

--trace 0 prints the end-to-end metrics:
  items_per_s   shapes trained or extracted, or queries answered, per second:
                the median over operations.
  op_p50_s      median seconds of one d+g step at the full batch size
                (train-*), or of one operation (extract, retrieve).
  setup_s       median set-up time, without the time spent writing the
                generated inputs to disk (workloads.SetupClock).
  peak_rss_mb   peak resident memory of the process over set-up and the
                first operation, as one CLI invocation would see it (later
                operations only add allocator noise to the high-water mark).
--trace 1 alternates an untraced and a traced operation and prints the
per-layer metrics of spans.layer_metrics, per traced operation, plus the
tracing overhead: the traced operation's wall time over the untraced one's.

The lines before the last one are a report: the platform, the named metrics
with sample counts, output fingerprints, failed checks and (traced) the self
time of every wrapped call. The last line is the JSON result. Working files
go under .perfbench/ in the checkout; the spans of a traced run are written
to .perfbench/spans/ when it ends.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train-full", "train-cnn_adv", "extract", "retrieve")
SETUP_REPEATS = 5
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class SetupError(RuntimeError):
    """The checkout does not hold an importable mdrnet."""


def _import_mdrnet():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import mdrnet
    except ImportError as e:
        raise SetupError(f"cannot import mdrnet from {src}: {e}") from e
    where = Path(mdrnet.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SetupError(f"mdrnet was imported from {where}, not from {src}")


def _blas_threads():
    """Threads the loaded OpenBLAS will use, or None when it cannot be asked."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for lib in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def platform_info(nproc):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = _blas_threads()
    env = {var: os.environ.get(var) for var in BLAS_ENV}
    declared = [int(v) for v in env.values() if v and v.isdigit()]
    most = max([threads or 0, *declared])
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "nproc": nproc,
        "blas_threads": threads,
        "blas_env": env,
        "blas_threads_exceed_nproc": most > nproc,
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(name, seed, seconds, trace, size_name):
    import spans
    import workloads

    wl = workloads.WORKLOADS[name]
    size = workloads.SIZES[size_name]
    work = ROOT / ".perfbench" / f"{name}-seed{seed}-pid{os.getpid()}"
    recorder = spans.Recorder()
    steps = []
    ops = []  # {"s", "items", "traced", "steps"} per completed operation
    failures = {}  # attempt number -> problems
    attempted = 0
    peak_rss = _peak_rss_mb()
    try:
        with contextlib.ExitStack() as stack:
            if trace:
                stack.enter_context(recorder.instrument())
            stack.enter_context(wl.clock(steps))
            setup_times = []
            state = None
            for i in range(SETUP_REPEATS):
                state = None
                shutil.rmtree(work, ignore_errors=True)
                clock = workloads.SetupClock()
                state = wl.setup(seed, work / f"setup{i}", size, clock)
                setup_times.append(clock.elapsed())

            kinds = (False, True) if trace else (False,)
            start = None
            stop = False
            while not stop:
                warmup = len(ops) < wl.warmup_ops
                if not warmup and start is None:
                    start = time.perf_counter()
                for traced in (False,) if warmup else kinds:
                    attempted += 1
                    steps.clear()
                    recorder.enabled = traced
                    t0 = time.perf_counter()
                    try:
                        with recorder.span("bench.op"):
                            out = wl.op(state)
                    except Exception as e:  # a failed operation is counted, not fatal
                        failures[attempted] = [f"{type(e).__name__}: {e}"]
                        stop = True
                        break
                    finally:
                        recorder.enabled = False
                    dt = time.perf_counter() - t0
                    ops.append({"attempt": attempted, "s": dt, "items": wl.items(state, out),
                                "traced": traced, "warmup": warmup, "steps": list(steps)})
                    if len(ops) == 1:
                        peak_rss = _peak_rss_mb()
                    problems = wl.check(state, out)
                    if problems:
                        failures[attempted] = problems
                    out = None
                if not warmup:
                    stop = stop or time.perf_counter() - start >= seconds
            for k, problem in wl.final_check(state).items():
                failures.setdefault(ops[k]["attempt"], []).append(problem)
            fingerprints = wl.fingerprints(state)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = len(failures)

    timed = [o for o in ops if not o["warmup"]]
    untraced = [o for o in timed if not o["traced"]]
    op_s = [o["s"] for o in untraced]
    step_s = [s for o in untraced for _, s in o["steps"]]
    if step_s:
        full = max(n for o in untraced for n, _ in o["steps"])
        step_s = [s for o in untraced for n, s in o["steps"] if n == full]
    p50_samples = step_s or op_s
    items_per_s = _median([o["items"] / o["s"] for o in untraced])
    end_to_end = {
        "items_per_s": (items_per_s, "1/s"),
        "op_p50_s": (_median(p50_samples), "s"),
        "setup_s": (_median(setup_times), "s"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    named = {
        wl.rate_name: {"value": items_per_s, "unit": "1/s", "operations": len(op_s)},
        "setup_s": {"value": _median(setup_times), "unit": "s", "samples": len(setup_times)},
        "peak_rss_mb": {"value": peak_rss, "unit": "MB"},
        "failed_ratio": {"value": failed / attempted, "unit": "ratio",
                         "failed": failed, "attempted": attempted},
    }
    if step_s:
        named["train_step_s_p50"] = {"value": _median(step_s), "unit": "s", "samples": len(step_s)}
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "size": size_name,
        "named_metrics": named,
        "fingerprints": fingerprints,
        "failures": {f"operation {k}": v for k, v in failures.items()},
        "operation_s": op_s,
    }
    if trace:
        traced = [o["s"] for o in timed if o["traced"]]
        n_traced = max(1, len(traced))
        metrics = spans.layer_metrics(recorder.spans, n_traced)
        overhead_s = _median(traced) - _median(op_s)
        metrics["trace.overhead_s"] = (overhead_s, "s")
        metrics["trace.overhead_ratio"] = (overhead_s / _median(op_s) if op_s else 0.0, "ratio")
        report["traced_operation_s"] = traced
        report["self_time_per_op_s"] = {
            k: {"calls": v["calls"] / n_traced, "self_s": v["self_s"] / n_traced,
                "incl_s": v["incl_s"] / n_traced}
            for k, v in sorted(spans.by_name(recorder.spans).items(),
                               key=lambda kv: -kv[1]["self_s"])
        }
        report["spans_file"] = str(
            Path(".perfbench") / "spans" / f"{name}-seed{seed}.json"
        )
        recorder.dump(ROOT / report["spans_file"])
    else:
        metrics = end_to_end
    result = {
        "correct": not failures and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return report, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: every code path in seconds, for selftest.py")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        os.environ.setdefault(var, str(nproc))
    try:
        _import_mdrnet()
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    info = platform_info(nproc)
    if info["blas_threads_exceed_nproc"]:
        print(f"warning: BLAS may use more threads than the {nproc} cores", file=sys.stderr)
    report, result = run(args.workload, args.seed, args.seconds, args.trace, args.size)
    report["platform"] = info
    print(json.dumps(report, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
