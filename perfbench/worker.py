"""One benchmark process: set up, then run a timed closed loop or a traced pass.

Started by run.py with the environment pinned.  It prints ``READY`` once
set-up is done (imports, input generation, reference loading and one warm-up
call), then one JSON line with its results.  Every verdict is one in-process
call of ``semid.cli.main``; the next call starts only when the previous one
has returned.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import semid  # noqa: E402
import semid.cli  # noqa: E402

import workloads  # noqa: E402

OUT_DIR = ROOT / ".perfbench_out"
# Each graph's latency is the median over the passes of a run, which drops
# the passes a busy machine slowed; the percentiles and throughput are taken
# over those per-graph medians, so every pool graph weighs the same.  With at
# least 3 passes over pools of 40 or more graphs, at least 12 verdicts lie
# beyond p90; a fixed percentile stays comparable between commits.
TAIL_PERCENTILE = 90
MIN_PASSES = 3
# The program's module-level memo tables.  They are emptied before every
# verdict so each one starts as cold as a fresh `semid identify` process,
# however often the pool repeats.
CACHES = [
    obj
    for name, module in list(sys.modules.items())
    if name == "semid" or name.startswith("semid.")
    for obj in vars(module).values()
    if callable(getattr(obj, "cache_clear", None))
]


class Verdicts:
    """Outputs of a run, kept once per distinct (code, exit code, output)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.crashes: list[str] = []
        self.outputs: dict[tuple[str, int, str], list] = {}

    def call(self, code: str, invoke) -> float:
        """Run one verdict and return its latency in seconds."""
        for cache in CACHES:
            cache.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                exit_code = invoke()
            except Exception:  # a crash is a failed verdict, reported below
                exit_code = None
            t1 = time.perf_counter()
        self.attempted += 1
        if exit_code is None:
            self.crashes.append(f"{code}: {traceback.format_exc(limit=3)}")
        else:
            text = out.getvalue()
            key = (code, exit_code, hashlib.sha256(text.encode()).hexdigest())
            self.outputs.setdefault(key, [text, 0])[1] += 1
        return t1 - t0

    def failures(self, reference: dict[str, tuple[int, str]]) -> tuple[int, list[str]]:
        failed = len(self.crashes)
        reasons = list(self.crashes)
        for (code, exit_code, _), (text, count) in self.outputs.items():
            expected = reference.get(code)
            reason = "no reference" if expected is None else workloads.check_verdict(expected, exit_code, text)
            if reason is not None:
                failed += count
                reasons.append(f"{code}: {reason}")
        return failed, reasons


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, when it is OpenBLAS."""
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "semid_max_set_size": os.environ.get("SEMID_MAX_SET_SIZE"),
    }


def timed_loop(workload, order, reference, seconds: float, min_passes: int) -> dict:
    """Whole passes over the ordered pool until both time and pass count are reached."""
    verdicts = Verdicts()
    latencies: list[list[float]] = [[] for _ in order]
    main = semid.cli.main
    passes = 0
    t_start = time.perf_counter()
    while True:
        for code, samples in zip(order, latencies):
            argv = workload.argv(code)
            samples.append(verdicts.call(code, lambda: main(argv)))
        passes += 1
        elapsed = time.perf_counter() - t_start
        if elapsed >= seconds and passes >= min_passes:
            break
    failed, reasons = verdicts.failures(reference)
    per_graph_s = np.median(np.array(latencies), axis=1)
    return {
        "attempted": verdicts.attempted,
        "failed": failed,
        "failures": reasons[:10],
        "passes": passes,
        "elapsed_s": elapsed,
        "loop_graphs_per_s": verdicts.attempted / elapsed,
        "tail_percentile": TAIL_PERCENTILE,
        "metrics": {
            "graphs_per_s": len(order) / float(per_graph_s.sum()),
            "verdict_ms_p50": float(np.percentile(per_graph_s, 50)) * 1e3,
            "verdict_ms_tail": float(np.percentile(per_graph_s, TAIL_PERCENTILE)) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
    }


def traced_run(workload, order, reference, spans_path: Path) -> dict:
    """One pass over the ordered pool, each graph run untraced and then traced.

    Running the two calls of a graph back to back keeps a slow stretch of the
    machine from landing on one side only, so their difference is the tracing
    overhead.  The traced wall time is the sum of the traced calls, each from
    installing the wrappers to removing them.
    """
    import tracing

    main = semid.cli.main
    verdicts = Verdicts()
    tracer = tracing.Tracer()
    untraced_s = traced_s = 0.0
    for i, code in enumerate(order):
        argv = workload.argv(code)
        t0 = time.perf_counter()
        verdicts.call(code, lambda: main(argv))
        t1 = time.perf_counter()
        tracer.install()
        try:
            verdicts.call(code, lambda: tracer.call_cli(main, argv, i))
        finally:
            tracer.uninstall()
        t2 = time.perf_counter()
        untraced_s += t1 - t0
        traced_s += t2 - t1
    tracer.write(spans_path)
    counters = {
        "flow_distinct": tracer.flow_distinct,
        "tsid_flow_calls": tracer.tsid_flow_calls,
        "tsid_solved": tracer.tsid_solved,
        "verify_seeds": tracer.verify_seeds,
    }
    with np.load(spans_path) as spans:
        metrics = tracing.layer_metrics(spans, counters, traced_s, len(order))
    metrics["trace.wall_s"] = traced_s
    metrics["trace.untraced_wall_s"] = untraced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    failed, reasons = verdicts.failures(reference)
    return {
        "attempted": verdicts.attempted,
        "failed": failed,
        "failures": reasons[:10],
        "spans": len(tracer.start),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--limit", type=int, default=None,
                        help="visit only the first LIMIT pool graphs, in one pass (self-test)")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    source = Path(semid.__file__).resolve()
    if not source.is_relative_to(ROOT / "src"):
        print(f"semid imported from {source}, not from {ROOT / 'src'}", file=sys.stderr)
        return 1
    workload = workloads.WORKLOADS[args.workload]
    order = workloads.run_order(workload, args.seed, args.limit)
    reference = workloads.load_reference(workload)
    warmup = Verdicts()
    warmup.call(workloads.WARMUP_CODE, lambda: semid.cli.main(workload.argv(workloads.WARMUP_CODE)))
    if warmup.crashes:
        print(warmup.crashes[0], file=sys.stderr)
        return 1
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}.npz"  # latest traced run only
        result = traced_run(workload, order, reference, spans_path)
    else:
        min_passes = 1 if args.limit else MIN_PASSES
        result = timed_loop(workload, order, reference, args.seconds, min_passes)
    result["environment"] = environment()
    result["pool_size"] = len(order)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
