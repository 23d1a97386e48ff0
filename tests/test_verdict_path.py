"""Work the verdict path skips or shares must not change a verdict.

``eid_tsid_identify`` stops after a TSID round that adds nothing,
``verify_certificates`` replays ``covariance`` of the stack it samples, and
``certify`` takes an unproved Jacobian rank at the point of verification
seed 0.  The references below are the two-round loop the early stop
replaced, ``covariance`` of a fresh draw of the stack, and both the
one-seed draw and slice 0 of the verification stack.  ``certify`` also
reads every reach set from the graph's bitmasks, so no verdict calls a
frozenset query.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from semid import (
    GraphId,
    MixedGraph,
    certify,
    covariance,
    decode_id,
    identify,
    oracle,
    sample_parameters,
    verify_certificates,
)
from semid.identify import SolverState, eid_identify, eid_tsid_identify, tsid_identify

from conftest import random_mixed_graph
from test_golden import SAMPLE_GRAPHS, SAMPLE_SEEDS
from test_stacked_sampling import _seeded_graphs


def _two_round_eid_tsid(g, max_set_size=None) -> tuple[SolverState, int]:
    """The loop before the early stop, and how many EID + TSID rounds it ran."""
    state = SolverState()
    rounds = 0
    while True:
        rounds += 1
        before = len(state.certificates)
        state = eid_identify(g, state)
        state = tsid_identify(g, state, max_set_size)
        if len(state.certificates) == before:
            return state, rounds


def _discovery_json(state: SolverState) -> list[dict]:
    return [cert.to_json_dict() for cert in state.certificates.values()]


def test_early_stop_equals_the_two_round_loop(monkeypatch):
    """Certificates match in discovery order on 300 seeded graphs, n = 3..7.

    Two of them need three rounds of the old loop, where a TSID certificate
    lets the next EID round solve more; every other graph needs one or two.
    """
    tsid_calls = 0

    def counting_tsid(*args):
        nonlocal tsid_calls
        tsid_calls += 1
        return tsid_identify(*args)

    rng = random.Random(2026)
    rounds = []
    old_tsid_calls = 0
    for i in range(300):
        g = random_mixed_graph(rng, 3 + i % 5, acyclic=i % 2 == 0)
        expected, old_rounds = _two_round_eid_tsid(g)
        rounds.append(old_rounds)
        old_tsid_calls += old_rounds
        with monkeypatch.context() as m:
            m.setattr(identify, "tsid_identify", counting_tsid)
            got = eid_tsid_identify(g)
        assert _discovery_json(got) == _discovery_json(expected), g
    assert sum(r >= 3 for r in rounds) == 2
    assert tsid_calls < old_tsid_calls  # the early stop was taken


def test_sampler_rejection_bound_implies_the_singularity_guard():
    assert oracle.REJECTION_TOLERANCE > oracle.SINGULAR_TOL


@pytest.mark.parametrize("entry", ["verify_certificates", "certify"])
def test_replayed_stack_equals_guarded_covariance(monkeypatch, entry):
    """The sigma stack replayed is covariance(sample_parameters(g, seeds)), byte for byte."""
    replayed = []
    replay = identify.replay_certificates

    def recording_replay(certificates, sigma):
        replayed.append(sigma)
        return replay(certificates, sigma)

    monkeypatch.setattr(identify, "replay_certificates", recording_replay)
    graphs = list(SAMPLE_GRAPHS.values()) + _seeded_graphs(30, 3, 8)
    assert {g.is_acyclic() for g in graphs} == {True, False}
    if entry == "certify":
        seeds = identify._verification_seeds(11, 12)
    else:
        # SAMPLE_SEEDS holds seed 139, whose first draw the rejecting graph rejects.
        seeds = SAMPLE_SEEDS + [7919 * i for i in range(1, 13)]
    checked = 0
    for g in graphs:
        replayed.clear()
        if entry == "certify":
            certify(g, max_set_size=1, seed=11, seeds=12)
        else:
            verify_certificates(g, eid_tsid_identify(g, 1).certificates.values(), seeds)
        if not replayed:  # only graphs with an identifiable edge replay
            continue
        (sigma,) = replayed
        assert sigma.shape == (len(seeds), g.n, g.n)
        assert sigma.tobytes() == covariance(sample_parameters(g, seeds)).tobytes()
        checked += 1
    assert checked > len(graphs) // 2


@pytest.mark.parametrize("verify", [True, False])
def test_unproved_rank_is_taken_at_the_seed_point(monkeypatch, verify):
    """The Jacobian rank point is sample_parameters(g, seed), byte for byte.

    With ``verify`` it is also slice 0 of the verification stack.
    """
    points = []
    rank = oracle.jacobian_rank

    def recording_rank(g, p):
        points.append(p)
        return rank(g, p)

    monkeypatch.setattr(oracle, "jacobian_rank", recording_rank)
    graphs = _seeded_graphs(40, 3, 8)
    reached = set()
    for g in graphs:
        points.clear()
        certify(g, max_set_size=1, verify=verify, seed=5, seeds=4)
        if not points:  # full rank, certified or proved mod P
            continue
        (p,) = points
        alone = sample_parameters(g, 5)
        stack = sample_parameters(g, identify._verification_seeds(5, 4))
        assert p.lam.tobytes() == alone.lam.tobytes() == stack.lam[0].tobytes()
        assert p.omega.tobytes() == alone.omega.tobytes() == stack.omega[0].tobytes()
        reached.add(g.is_acyclic())
    assert reached == {True, False}


def test_certify_reads_reach_sets_from_the_masks(monkeypatch):
    """No verdict on the three benchmark pools calls a frozenset query of MixedGraph.

    The solvers and the star screen read ``graph._reach_masks``; a query
    builds a fresh frozenset on every call.
    """
    def refuse(self, v):
        raise AssertionError("the verdict path called a frozenset query")

    for name in ("parents", "children", "siblings", "descendants", "trek_reachable", "half_trek_reachable"):
        monkeypatch.setattr(MixedGraph, name, refuse)
    root = Path(__file__).resolve().parents[1]
    monkeypatch.chdir(root)  # the corpus path of the workloads is relative
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    import workloads
    for workload in workloads.WORKLOADS.values():
        flags = dict(zip(workload.flags[::2], workload.flags[1::2]))
        max_set_size = int(flags.get("--max-set-size", 0)) or None  # None: exhaustive
        for code in workload.pool():
            certify(decode_id(GraphId.parse(code)), max_set_size=max_set_size, verify=False)
