"""Work the verdict path skips must not change a verdict.

``eid_tsid_identify`` stops after a TSID round that adds nothing, and
``verify_certificates`` replays the sampled stack without the singularity
guard of ``covariance``.  The references below are the two-round loop the
early stop replaced and the guarded ``covariance`` itself.
"""

from __future__ import annotations

import random

import pytest

from semid import certify, covariance, identify, oracle, sample_parameters, verify_certificates
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
    """The sigma stack replayed without the guard is covariance(stack), byte for byte."""
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
        if not replayed:  # certify replays only graphs with an identifiable edge
            continue
        (sigma,) = replayed
        assert sigma.shape == (len(seeds), g.n, g.n)
        assert sigma.tobytes() == covariance(sample_parameters(g, seeds)).tobytes()
        checked += 1
    assert checked > len(graphs) // 2
