"""Record the reference outputs every benchmark run is checked against.

Run from the repository root at the commit whose outputs define "correct":

    python3 perfbench/record.py

It runs each workload's pool once through ``semid.cli.main`` and writes, per
graph, the exit code and the SHA-256 of the canonical certify JSON (replay
errors removed) to ``perfbench/reference.json``.  It refuses to record a
verdict that is not one: an exception, an error exit code, or a replay error
above the 1e-6 gate.
"""

from __future__ import annotations

import json
import os
import sys

import run

# Same pinning as a benchmark worker, set before numpy is first imported.
os.environ.update({var: "1" for var in run.PINNED_THREADS})
os.environ.pop("SEMID_MAX_SET_SIZE", None)

import worker  # noqa: E402  (puts the checkout's src first on sys.path)
import workloads  # noqa: E402

import semid.cli  # noqa: E402


def record(workload: workloads.Workload) -> dict:
    verdicts = worker.Verdicts()
    rows = []
    for code in workload.pool():
        verdicts.call(code, lambda: semid.cli.main(workload.argv(code)))
        if verdicts.crashes:
            raise SystemExit(f"{workload.name}: {verdicts.crashes[0]}")
        (_, exit_code, _), (text, _) = verdicts.outputs.popitem()
        digest, _ = workloads.canonical(text)
        reason = workloads.check_verdict((exit_code, digest), exit_code, text)
        if reason is not None:
            raise SystemExit(f"{workload.name} {code}: {reason}")
        rows.append([code, exit_code, digest])
    return {"flags": list(workload.flags), "pool_seed": workload.pool_seed, "verdicts": rows}


def main() -> int:
    reference = {}
    for name, workload in workloads.WORKLOADS.items():
        reference[name] = record(workload)
        print(f"{name}: {len(reference[name]['verdicts'])} verdicts", file=sys.stderr)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
