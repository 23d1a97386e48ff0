"""Spans and counters around the public calls into each semid module.

The tracer wraps module and class attributes from the outside, so the
program itself carries no tracing code.  Each span records its name, start,
end, parent span and verdict id in flat in-memory arrays; self times are
computed from those arrays once the traced pass is over.  Counters that need
arguments or results (distinct max-flow queries, TSID-certified edges,
replay seeds) are taken inside the same wrappers.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path

import numpy as np

import semid.flow
import semid.graph
import semid.identify
import semid.oracle

# Span name -> the attributes it wraps.  The identify module imports the flow
# builders by name, so wrapping them there measures the builds identify makes.
TARGETS = {
    "identify.certify": [(semid.identify, "certify")],
    "identify.eid": [(semid.identify, "eid_identify")],
    "identify.tsid": [(semid.identify, "tsid_identify")],
    "identify.htsys": [(semid.identify, "half_trek_system_exists")],
    "identify.verify": [(semid.identify, "verify_certificates")],
    "flow.build": [
        (semid.identify, "build_flow_graph"),
        (semid.identify, "build_restricted_flow_graph"),
    ],
    "flow.max_flow": [(semid.flow.FlowNetwork, "max_flow")],
    "oracle.sample": [(semid.oracle, "sample_parameters")],
    "oracle.covariance": [(semid.oracle, "covariance")],
    "oracle.recover": [
        (semid.oracle, "solve_recovery_system"),
        (semid.oracle, "recover_edge_ratio"),
    ],
    "oracle.jacobian": [(semid.oracle, "jacobian_rank")],
    "oracle.i2o": [
        (semid.identify, "edge_infinite_to_one"),
        (semid.oracle, "alternative_parameters"),
    ],
    "graph.reach": [
        (semid.graph.MixedGraph, name)
        for name in ("parents", "siblings", "descendants", "trek_reachable", "half_trek_reachable")
    ],
}
CLI_SPAN = "cli.main"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = [CLI_SPAN, *TARGETS]
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.verdict = array("q")
        self.stack = [-1]
        self.verdict_id = -1
        self.flow_keys: set = set()
        self.flow_distinct = 0
        # id(network) -> (network, small id of its node count and arcs); the
        # network is kept so its id is not reused within a verdict.
        self.networks: dict[int, tuple[object, int]] = {}
        self.arc_sets: dict = {}
        self.tsid_active = 0
        self.tsid_flow_calls = 0
        self.tsid_solved = 0
        self.verify_seeds = 0
        self._saved: list[tuple[object, str, object]] = []

    def _span(self, name_id: int, fn, args, kwargs):
        idx = len(self.start)
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(self.stack[-1])
        self.name.append(name_id)
        self.verdict.append(self.verdict_id)
        self.stack.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            self.start[idx] = t0
            self.stack.pop()

    def _wrapper(self, span: str, fn):
        name_id = self.names.index(span)
        hook = getattr(self, "_hook_" + span.replace(".", "_"), None)

        def call(*args, **kwargs):
            return self._span(name_id, fn, args, kwargs)

        if hook is None:
            return call
        return lambda *args, **kwargs: hook(call, args, kwargs)

    def _hook_flow_max_flow(self, call, args, kwargs):
        net, sources, sinks = args
        sources, sinks = list(sources), list(sinks)
        known = self.networks.get(id(net))
        if known is None:
            arcs_id = self.arc_sets.setdefault((net.n_nodes, net.arcs), len(self.arc_sets))
            known = self.networks[id(net)] = (net, arcs_id)
        self.flow_keys.add((known[1], tuple(sorted(set(sources))), tuple(sorted(set(sinks)))))
        if self.tsid_active:
            self.tsid_flow_calls += 1
        return call(net, sources, sinks, **kwargs)

    def _hook_identify_tsid(self, call, args, kwargs):
        state = args[1] if len(args) > 1 else kwargs.get("state")
        before = len(state.certificates) if state else 0
        self.tsid_active += 1
        try:
            result = call(*args, **kwargs)
        finally:
            self.tsid_active -= 1
        self.tsid_solved += len(result.certificates) - before
        return result

    def _hook_identify_verify(self, call, args, kwargs):
        g, certificates, seeds, *rest = args
        seeds = list(seeds)
        self.verify_seeds += len(seeds)
        return call(g, certificates, seeds, *rest, **kwargs)

    def install(self) -> None:
        for span, targets in TARGETS.items():
            for owner, attr in targets:
                if attr not in vars(owner):
                    raise AttributeError(f"trace target {owner.__name__}.{attr} is missing")
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrapper(span, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def call_cli(self, main, argv, verdict_id: int) -> int:
        """One traced verdict: the root span of everything the call does."""
        self.verdict_id = verdict_id
        try:
            return self._span(0, main, (argv,), {})
        finally:
            self.flow_distinct += len(self.flow_keys)
            self.flow_keys, self.networks, self.arc_sets = set(), {}, {}

    def write(self, path: Path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            name=np.frombuffer(self.name, dtype=np.int64),
            verdict=np.frombuffer(self.verdict, dtype=np.int64),
        )


def layer_metrics(spans: dict, counters: dict, wall_s: float, verdicts: int) -> dict[str, float]:
    """Per-layer metrics from written spans plus the counters of the same pass.

    A span's self time is its duration minus the durations of its direct
    children; spans nest because the program is single-threaded.  Time
    outside every ``cli.main`` span is the benchmark's own remainder, so the
    self times and the remainder add up to the traced wall time.
    """
    names = list(spans["names"])
    name = spans["name"]
    parent = spans["parent"]
    dur = spans["end"] - spans["start"]
    nested = parent >= 0
    children = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    self_time = dur - children
    if len(self_time) and self_time.min() < -1e-9:
        raise ValueError("a span is shorter than its children")
    calls = np.bincount(name, minlength=len(names))
    self_s = np.bincount(name, weights=self_time, minlength=len(names))
    total_s = np.bincount(name, weights=dur, minlength=len(names))
    remainder = wall_s - float(dur[~nested].sum())
    if abs(float(self_time.sum()) + remainder - wall_s) > 1e-6 * max(wall_s, 1.0):
        raise ValueError("layer self times and remainder do not add up to the traced wall time")

    def get(table, span):
        return float(table[names.index(span)])

    def per(numerator, denominator, scale):
        return scale * numerator / denominator if denominator else 0.0

    flow_calls = get(calls, "flow.max_flow")
    return {
        "flow.max_flow.calls": flow_calls,
        "flow.max_flow.repeat_share": per(flow_calls - counters["flow_distinct"], flow_calls, 1.0),
        "flow.max_flow.us_per_call": per(get(total_s, "flow.max_flow"), flow_calls, 1e6),
        "flow.max_flow.self_s": get(self_s, "flow.max_flow"),
        "flow.build.calls": get(calls, "flow.build"),
        "flow.build.self_s": get(self_s, "flow.build"),
        "identify.certify.self_s": get(self_s, "identify.certify"),
        "identify.tsid.calls": get(calls, "identify.tsid"),
        "identify.tsid.self_s": get(self_s, "identify.tsid"),
        "identify.tsid.solved_per_kflow": per(counters["tsid_solved"], counters["tsid_flow_calls"], 1e3),
        "identify.eid.calls": get(calls, "identify.eid"),
        "identify.eid.self_s": get(self_s, "identify.eid"),
        "identify.htsys.calls": get(calls, "identify.htsys"),
        "identify.htsys.us_per_call": per(get(total_s, "identify.htsys"), get(calls, "identify.htsys"), 1e6),
        "identify.verify.self_s": get(self_s, "identify.verify"),
        "identify.verify.ms_per_seed": per(get(total_s, "identify.verify"), counters["verify_seeds"], 1e3),
        "oracle.sample.calls": get(calls, "oracle.sample"),
        "oracle.sample.self_s": get(self_s, "oracle.sample"),
        "oracle.covariance.self_s": get(self_s, "oracle.covariance"),
        "oracle.recover.self_s": get(self_s, "oracle.recover"),
        "oracle.jacobian.ms_per_call": per(get(total_s, "oracle.jacobian"), get(calls, "oracle.jacobian"), 1e3),
        "oracle.i2o.self_s": get(self_s, "oracle.i2o"),
        "graph.reach.calls": get(calls, "graph.reach"),
        "graph.reach.self_s": get(self_s, "graph.reach"),
        "cli.self_ms_per_op": per(get(self_s, CLI_SPAN), verdicts, 1e3),
        "bench.remainder_s": remainder,
    }
