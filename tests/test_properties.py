"""Cross-module invariants not already pinned by the acceptance suite."""

import json
import random

import numpy as np
import pytest

from semid import (
    EdgeCertificate,
    GraphId,
    MixedGraph,
    certify,
    covariance,
    decode_id,
    eid_identify,
    eid_tsid_identify,
    htc_identify,
    oracle,
    replay_certificates,
    sample_parameters,
    tsid_identify,
    verify_certificates,
)
from semid.identify import IDENTIFIABLE, INFINITE_TO_ONE

from conftest import INCONCLUSIVE_ACYCLIC_GRAPH, IV_GRAPH, ONE_EDGE_NONID_GRAPH, random_mixed_graph


def test_prerequisite_order_is_topological():
    rng = random.Random(201)
    for _ in range(60):
        g = random_mixed_graph(rng, rng.randint(2, 5))
        state = eid_tsid_identify(g)
        seen = set()
        for edge, cert in state.certificates.items():
            assert set(cert.prerequisites) <= seen | {edge}
            assert edge not in cert.prerequisites
            seen.add(edge)


def test_solved_sets_grow_under_passes():
    rng = random.Random(203)
    for _ in range(40):
        g = random_mixed_graph(rng, rng.randint(2, 5))
        state = eid_identify(g)
        after_tsid = tsid_identify(g, state)
        assert state.solved_edges <= after_tsid.solved_edges
        again = eid_identify(g, after_tsid)
        assert after_tsid.solved_edges <= again.solved_edges


def test_alternation_order_stays_sound():
    # The fixpoint could in principle depend on which solver starts; both
    # orders must at least replay soundly (set equality is not asserted).
    rng = random.Random(207)
    for _ in range(25):
        g = random_mixed_graph(rng, rng.randint(2, 5))
        eid_first = eid_tsid_identify(g)
        state = tsid_identify(g)
        while True:
            before = len(state.certificates)
            state = eid_identify(g, state)
            state = tsid_identify(g, state)
            if len(state.certificates) == before:
                break
        for solved in (eid_first, state):
            if solved.certificates:
                errors = verify_certificates(g, list(solved.certificates.values()), seeds=[11])
                assert all(err < 1e-6 for err in errors.values())


def test_solved_sets_invariant_under_relabeling():
    # The solvers search in label order, so relabeling can change which
    # certificate is found first, but must not change which edges are solved.
    rng = random.Random(223)
    solvers = (htc_identify, eid_identify, eid_tsid_identify)
    for _ in range(300):
        n = rng.randint(3, 6)
        g = random_mixed_graph(rng, n, acyclic=rng.random() < 0.5)
        label = dict(zip(g.vertices, rng.sample(g.vertices, n)))
        h = MixedGraph(
            n,
            [(label[u], label[w]) for u, w in g.directed],
            [(label[u], label[w]) for u, w in g.bidirected],
        )
        for solve in solvers:
            mapped = {(label[u], label[w]) for u, w in solve(g).solved_edges}
            assert mapped == solve(h).solved_edges, (solve.__name__, g, label)


def test_certificates_survive_json_round_trip():
    rng = random.Random(211)
    for _ in range(25):
        g = random_mixed_graph(rng, rng.randint(2, 5))
        state = eid_tsid_identify(g)
        if not state.certificates:
            continue
        rebuilt = []
        for cert in state.certificates.values():
            payload = json.loads(json.dumps(cert.to_json_dict()))
            witness = dict(payload["witness"])
            prereqs = tuple(tuple(e) for e in witness.pop("prerequisites"))
            if "H" in witness:
                witness["H"] = {int(y): hs for y, hs in witness["H"].items()}
            if "rows" in witness:
                witness["rows"] = [(s, t) for s, t in witness["rows"]]
            rebuilt.append(
                EdgeCertificate(
                    edge=tuple(payload["edge"]),
                    status=payload["status"],
                    method=payload["method"],
                    witness=witness,
                    prerequisites=prereqs,
                )
            )
        p = sample_parameters(g, seed=5)
        sigma = covariance(p)
        direct = replay_certificates(list(state.certificates.values()), sigma)
        via_json = replay_certificates(rebuilt, sigma)
        assert direct.keys() == via_json.keys()
        for edge in direct:
            assert np.isclose(direct[edge], via_json[edge], rtol=1e-12)


def test_certify_seed_changes_only_verification():
    rng = random.Random(213)
    for _ in range(15):
        g = random_mixed_graph(rng, rng.randint(2, 5))
        a = certify(g, seed=0, verify=False)
        b = certify(g, seed=1, verify=False)
        assert {e: c.status for e, c in a.certificates.items()} == {
            e: c.status for e, c in b.certificates.items()
        }


def test_identifiable_statuses_have_methods():
    rng = random.Random(217)
    for _ in range(30):
        g = random_mixed_graph(rng, rng.randint(2, 5))
        report = certify(g, seed=0, verify=False)
        for cert in report.certificates.values():
            if cert.status == IDENTIFIABLE:
                assert cert.method in ("HTC", "EID", "TSID", "JOINT")
            else:
                assert cert.method is None


def test_jacobian_rank_agrees_with_edge_verdicts():
    # An infinite-to-one edge makes the whole parameterization infinite-to-one,
    # so the Jacobian loses rank; a fully identified graph keeps full rank.
    # certify takes that full rank from the certificates, so the float rank
    # at the same point checks them independently.
    rng = random.Random(219)
    infinite, full = 0, 0
    for i in range(150):
        g = random_mixed_graph(rng, rng.randint(2, 6), acyclic=i % 2 == 0)
        report = certify(g, seed=i, verify=False)
        statuses = {c.status for c in report.certificates.values()}
        if INFINITE_TO_ONE in statuses:
            infinite += 1
            assert report.jacobian_rank < report.n_parameters
        if report.fully_identifiable():
            full += 1
            assert report.jacobian_rank == report.n_parameters
            assert oracle.jacobian_rank(g, sample_parameters(g, i)) == report.n_parameters
    assert infinite and full


@pytest.mark.parametrize("code", ["6:873995428:10400", "5:262577:312"])
def test_fully_identifiable_report_is_finite_to_one(code):
    # Every edge is certified and replayed, so the parameterization is
    # generically one-to-one, and the report says so.  The float SVD rank at
    # seed 0 would find only 20 of 21 on the first graph and 5 of 15 on the
    # second: the sample is ill-conditioned.
    report = certify(decode_id(GraphId.parse(code)))
    if not (report.fully_identifiable()
            and all(c.verification for c in report.certificates.values())):
        pytest.fail(f"{code} is no longer certified and replayed in full")
    assert not report.parameterization_infinite_to_one
    assert report.jacobian_rank == report.n_parameters


def test_certify_takes_only_an_uncertified_graph_to_the_float_rank(monkeypatch):
    def forbidden(*args):
        raise AssertionError("float Jacobian rank of a fully certified graph")

    def no_sample(*args):
        raise AssertionError("sample drawn for a fully certified graph")

    monkeypatch.setattr(oracle, "jacobian_rank", forbidden)
    fully_certified = (IV_GRAPH, MixedGraph(3))
    for g in fully_certified:
        report = certify(g)
        assert report.fully_identifiable()
        assert report.jacobian_rank == report.n_parameters
    # One graph with unknown edges, one with an infinite-to-one edge.
    for g in (INCONCLUSIVE_ACYCLIC_GRAPH, ONE_EDGE_NONID_GRAPH):
        with pytest.raises(AssertionError, match="fully certified"):
            certify(g)
    # Without a replay nothing reads a sample of a fully certified graph,
    # so none is drawn: a degenerate draw cannot fail such a report.
    monkeypatch.setattr(oracle, "sample_parameters", no_sample)
    for g in fully_certified:
        report = certify(g, verify=False)
        assert report.fully_identifiable()
        assert report.jacobian_rank == report.n_parameters
