"""Self-test of the benchmark; run from the repository root:

    python3 perfbench/selftest.py

Runs every workload at a tiny size in both modes and checks that the result
line carries every metric BENCHMARK.json declares, then checks that the
reference check rejects one altered certificate.
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

import worker  # noqa: F401  (puts the checkout's src first on sys.path)
import workloads

import semid.cli

RUN = Path(__file__).resolve().parent / "run.py"


class SelfTest(unittest.TestCase):
    def test_tiny_runs_report_every_declared_metric(self):
        spec = json.loads(Path("BENCHMARK.json").read_text())
        for name in workloads.WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    proc = subprocess.run(
                        [sys.executable, str(RUN), "--workload", name, "--seed", "3",
                         "--seconds", "0", "--trace", str(trace), "--limit", "2"],
                        capture_output=True, text=True, timeout=170,
                    )
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(set(result["metrics"]), {m["name"] for m in spec[kind]})
                    for metric in spec[kind]:
                        self.assertEqual(result["metrics"][metric["name"]]["unit"], metric["unit"])

    def test_reference_check_rejects_one_altered_certificate(self):
        workload = workloads.WORKLOADS["acyclic_verify"]
        code = workloads.run_order(workload, 0, 1)[0]
        expected = workloads.load_reference(workload)[code]
        verdicts = worker.Verdicts()
        verdicts.call(code, lambda: semid.cli.main(workload.argv(code)))
        (_, exit_code, _), (text, _) = verdicts.outputs.popitem()
        self.assertIsNone(workloads.check_verdict(expected, exit_code, text))

        report = json.loads(text)
        cert = next(c for c in report["certificates"] if c["status"] == "identifiable")
        cert["witness"]["prerequisites"].append([1, 2])
        altered = json.dumps(report, indent=2)
        self.assertIn("differ", workloads.check_verdict(expected, exit_code, altered))

        report = json.loads(text)
        cert = next(c for c in report["certificates"] if c.get("verification"))
        cert["verification"]["max_rel_err"] = 1e-3
        self.assertIn("exceed", workloads.check_verdict(expected, exit_code, json.dumps(report)))

        self.assertIn("exit code", workloads.check_verdict(expected, 1, text))


if __name__ == "__main__":
    unittest.main()
