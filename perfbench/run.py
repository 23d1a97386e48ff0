"""Benchmark entry point for semid: one workload, one seed, one result line.

    python3 perfbench/run.py --workload corpus_n5 --seed 1 --seconds 15 --trace 0

Run from the repository root.  Workloads (see NOTES.md): corpus_n5,
random_n7, acyclic_verify.  With ``--trace 0`` it reports the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` the per-layer metrics of a
traced pass and the tracing overhead.  Each measurement runs in a fresh
worker process with BLAS pinned to one thread and SEMID_MAX_SET_SIZE
cleared.  Set-up time is measured from outside, from process spawn to the
worker's ready line, over several fresh processes.  The last line of
standard output is the JSON result; detailed results and the environment go
to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchmarkError(Exception):
    pass


def pinned_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in PINNED_THREADS})
    env.pop("SEMID_MAX_SET_SIZE", None)
    env["PYTHONHASHSEED"] = "0"
    return env


class Worker:
    """A worker process, started and timed up to its ready line."""

    def __init__(self, argv: list[str], deadline: float):
        self.deadline = deadline
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER), *argv],
            stdout=subprocess.PIPE, text=True, env=pinned_env(),
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], self.remaining())
            line = self.proc.stdout.readline() if ready else ""
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - t0
        if line.strip() != "READY":
            self.kill()
            raise BenchmarkError(f"worker did not get ready (exit code {self.proc.returncode})")

    def remaining(self) -> float:
        return max(self.deadline - time.monotonic(), 0.0)

    def kill(self) -> None:
        self.proc.kill()
        self.proc.communicate()

    def finish(self) -> str:
        try:
            out, _ = self.proc.communicate(timeout=self.remaining())
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchmarkError(f"worker ran past the {DEADLINE_S:.0f} s deadline") from None
        except BaseException:
            self.kill()
            raise
        if self.proc.returncode != 0:
            raise BenchmarkError(f"worker exited with code {self.proc.returncode}")
        return out


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads(Path("BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure(args: argparse.Namespace) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.limit:
        argv += ["--limit", str(args.limit)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            probe = Worker(argv + ["--setup-only"], deadline)
            probe.finish()
            setups.append(probe.setup_s)
    worker = Worker(argv, deadline)
    setups.append(worker.setup_s)
    result = json.loads(worker.finish().splitlines()[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = statistics.median(setups)
        result["setup_samples_s"] = setups
    return result


def report(args: argparse.Namespace, result: dict, units: dict[str, str]) -> None:
    env = result["environment"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 caller, pool of {result['pool_size']} graphs")
    print("environment " + "  ".join(f"{k}={v}" for k, v in env.items()))
    if args.trace:
        print(f"spans {result['spans']} written to {result['spans_file']}")
        samples = f"{result['pool_size']} traced verdicts"
    else:
        samples = f"{result['attempted']} verdicts, {result['passes']} passes"
        print(f"verdict_ms_tail is p{result['tail_percentile']}; "
              f"setup_s is the median of {len(result['setup_samples_s'])} fresh processes")
    for name, unit in units.items():
        print(f"{name:34s} {result['metrics'][name]:14.6g} {unit:8s} ({samples})")
    share = result["failed"] / result["attempted"]
    print(f"{'failed_share':34s} {share:14.6g} {'share':8s} "
          f"({result['failed']} of {result['attempted']} verdicts)")
    for reason in result["failures"]:
        print(f"FAILED {reason}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--limit", type=int, default=None,
                        help="visit only the first LIMIT pool graphs, in one pass (self-test)")
    args = parser.parse_args()
    # SIGTERM unwinds through the handlers that kill a running worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (Path("src/semid/cli.py").is_file() and Path("BENCHMARK.json").is_file()):
        print("run from the root of a semid checkout (src/semid and BENCHMARK.json)", file=sys.stderr)
        return 2
    units = declared_metrics(args.trace)
    try:
        result = measure(args)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    missing = sorted(set(units) - set(result["metrics"]))
    if missing:
        print(f"benchmark failed: metrics {missing} were not measured", file=sys.stderr)
        return 1
    out_dir = Path(".perfbench_out")
    out_dir.mkdir(exist_ok=True)
    result_path = out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(result, indent=1) + "\n")
    report(args, result, units)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
