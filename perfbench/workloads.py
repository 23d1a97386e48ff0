"""Benchmark workloads: fixed graph pools, their CLI arguments and the reference check.

Every workload is a pool of ``n:d:b`` codes.  The pools are drawn once from
fixed pool seeds, and the outputs of the program on each pool graph are
recorded in ``reference.json`` (see ``record.py``).  A run's ``--seed`` only
fixes the order in which the pool is visited: the reference must cover every
input a run can see, and a heavy-tailed workload whose graph set changed with
the seed would measure the seed instead of the program (two 100-graph draws of
``random_n7`` took 22 s and 38 s).

The generators below are the benchmark's own copies; the program only ever
receives the codes.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
CORPUS_PATH = Path("src") / "semid" / "data" / "corpus_inconclusive_n5.txt"

# Replay gate of the program, checked again on every reported error.
MAX_REL_ERR = 1e-6
# Exit codes of `semid identify` that are verdicts; 1 is an input or certificate error.
VERDICT_EXIT_CODES = (0, 2, 3)
# First corpus graph; every set-up ends with one call on it.
WARMUP_CODE = "5:4456:113"


def encode(n: int, directed: set, bidirected: set) -> str:
    """The little-endian ``n:d:b`` code of a mixed graph on vertices 1..n."""
    directed_order = [(v, w) for v in range(1, n + 1) for w in range(1, n + 1) if w != v]
    bidirected_order = [(v, w) for v in range(1, n) for w in range(v + 1, n + 1)]
    d = sum(1 << i for i, pair in enumerate(directed_order) if pair in directed)
    b = sum(1 << i for i, pair in enumerate(bidirected_order) if pair in bidirected)
    return f"{n}:{d}:{b}"


def random_mixed_graph(
    rng: random.Random,
    n: int,
    p_directed: float = 0.35,
    p_bidirected: float = 0.3,
    acyclic: bool = False,
) -> str:
    """Same draws, in the same order, as the test suite's ``random_mixed_graph``."""
    directed = set()
    for u in range(1, n + 1):
        for w in range(1, n + 1):
            if u == w or (acyclic and u > w):
                continue
            if rng.random() < p_directed:
                directed.add((u, w))
    bidirected = set()
    for u in range(1, n):
        for w in range(u + 1, n + 1):
            if rng.random() < p_bidirected:
                bidirected.add((u, w))
    return encode(n, directed, bidirected)


def corpus_codes(seed: int, count: int) -> list[str]:
    """The shipped inconclusive corpus; it is fixed, so ``seed`` is unused."""
    codes = []
    for raw in CORPUS_PATH.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            codes.append(line)
    return codes[:count]


def random_n7_codes(seed: int, count: int) -> list[str]:
    """7-vertex mixed graphs, cyclic allowed, from one seeded stream."""
    rng = random.Random(seed)
    return [random_mixed_graph(rng, 7) for _ in range(count)]


def acyclic_codes(seed: int, count: int) -> list[str]:
    """Acyclic mixed graphs on 12..20 vertices, sparse in both edge kinds."""
    rng = random.Random(seed)
    codes = []
    for _ in range(count):
        n = rng.randint(12, 20)
        codes.append(random_mixed_graph(rng, n, 0.25, 0.1, acyclic=True))
    return codes


@dataclass(frozen=True)
class Workload:
    name: str
    generator: Callable[[int, int], list[str]]
    pool_seed: int
    pool_size: int
    flags: tuple[str, ...]

    def pool(self) -> list[str]:
        return self.generator(self.pool_seed, self.pool_size)

    def argv(self, code: str) -> list[str]:
        return ["identify", code, *self.flags, "--format", "json"]


# Pool sizes keep one pass of each generated pool near 10 s on a 2-CPU x86-64
# machine, so a run of at least 3 whole passes stays well under a minute.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("corpus_n5", corpus_codes, 0, 55, ("--max-set-size", "5")),
        Workload("random_n7", random_n7_codes, 1, 40, ()),
        Workload("acyclic_verify", acyclic_codes, 1, 50, ("--max-set-size", "1", "--seeds", "100")),
    )
}


def run_order(workload: Workload, seed: int, limit: int | None = None) -> list[str]:
    """The pool in the order a run with this seed visits it."""
    codes = workload.pool()
    random.Random(seed).shuffle(codes)
    return codes[:limit] if limit else codes


def canonical(stdout: str) -> tuple[str, list[float]]:
    """Digest of the certify JSON without its replay errors, and those errors.

    The replay errors are floating-point results that may differ in the last
    digits between BLAS builds, so they are checked against the gate instead
    of being compared exactly.
    """
    report = json.loads(stdout)
    errors = []
    for cert in report["certificates"]:
        verification = cert.get("verification")
        if verification is not None:
            errors.append(verification.pop("max_rel_err"))
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest(), errors


def check_verdict(expected: tuple[int, str], exit_code: int, stdout: str) -> str | None:
    """Why one verdict disagrees with the reference, or None when it agrees."""
    ref_code, ref_digest = expected
    if exit_code != ref_code:
        return f"exit code {exit_code}, reference {ref_code}"
    if exit_code not in VERDICT_EXIT_CODES:
        return f"exit code {exit_code} is not a verdict"
    try:
        digest, errors = canonical(stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    if digest != ref_digest:
        return "certificates differ from the reference"
    bad = [e for e in errors if not (isinstance(e, float) and math.isfinite(e) and 0 <= e <= MAX_REL_ERR)]
    if bad:
        return f"replay errors {bad} exceed {MAX_REL_ERR:g}"
    return None


def load_reference(workload: Workload) -> dict[str, tuple[int, str]]:
    """Recorded (exit code, digest) per pool code; the recording must match the workload."""
    entry = json.loads(REFERENCE_PATH.read_text())[workload.name]
    if entry["flags"] != list(workload.flags) or entry["pool_seed"] != workload.pool_seed:
        raise ValueError(f"reference for {workload.name} was recorded with other settings")
    return {code: (rc, digest) for code, rc, digest in entry["verdicts"]}
