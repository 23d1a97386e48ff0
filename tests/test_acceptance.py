"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines as they pass).  Criterion 7's randomized property suites
share a time budget that the final test enforces.
"""

import itertools
import os
import random
import time

import numpy as np
import pytest

from semid import (
    GraphId,
    alternative_parameters,
    bidirected_subdivision,
    build_flow_graph,
    build_restricted_flow_graph,
    certify,
    covariance,
    decode_id,
    edge_infinite_to_one,
    eid_identify,
    eid_tsid_identify,
    encode_id,
    enumerate_treks,
    half_trek_system_exists,
    htc_identify,
    jacobian_rank,
    recover_edge_ratio,
    sample_parameters,
    solve_determinantal_system,
    subdeterminant,
    trek_monomial,
    tsep_accepts,
    tsid_identify,
)
from semid.identify import IDENTIFIABLE, INFINITE_TO_ONE
from semid.oracle import numeric_rank, restricted_covariance, sigma_jacobian

from conftest import (
    DESCENDANT_SOURCE_GRAPH,
    HTC_FAIL_GRAPH,
    INCONCLUSIVE_ACYCLIC_GRAPH,
    JOINT_SYSTEM_GRAPH,
    ONE_EDGE_NONID_GRAPH,
    corpus_codes,
    random_mixed_graph,
)

_SUITE_SECONDS: dict[str, float] = {}


def _passed(tag: str, message: str) -> None:
    print(f"ACCEPTANCE {tag}: PASS - {message}", flush=True)


def test_criterion_1_ratio_graph_replication():
    started = time.perf_counter()
    g = HTC_FAIL_GRAPH

    assert htc_identify(g).solved_edges == set()

    net = build_flow_graph(g)
    witness = net.max_flow([1, 2, 4], [net.primed(t) for t in (1, 3, 5)])
    assert witness.value == 3
    assert witness.endpoints() == {(1, net.primed(3)), (2, net.primed(1)), (4, net.primed(5))}

    assert tsid_identify(g).solved_edges == {(4, 5), (1, 2), (1, 3)}

    worst = 0.0
    for seed in range(100):
        p = sample_parameters(g, seed)
        sigma = covariance(p)
        value = recover_edge_ratio(sigma, [1, 2, 4], [1, 3], 5, 4)
        worst = max(worst, abs(value - p.lam[3, 4]) / abs(p.lam[3, 4]))
    assert worst < 1e-6

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _passed("1", f"ratio-graph replication (max rel err {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_2_descendant_source_replication():
    g = DESCENDANT_SOURCE_GRAPH
    assert tsep_accepts(g, 2, 1, [], [3, 5], [4], strict=False)
    assert not tsep_accepts(g, 2, 1, [], [3, 5], [4], strict=True)
    worst = 0.0
    for seed in range(100):
        p = sample_parameters(g, seed)
        sigma = covariance(p)
        value = recover_edge_ratio(sigma, [3, 5], [4], 2, 1)
        worst = max(worst, abs(value - p.lam[0, 1]) / abs(p.lam[0, 1]))
    assert worst < 1e-6
    _passed("2", f"descendant-source acceptance split (max rel err {worst:.2e})")


def test_criterion_3_nonidentifiable_edge_replication():
    g = ONE_EDGE_NONID_GRAPH
    fires, _ = edge_infinite_to_one(g, (2, 3))
    assert fires
    assert eid_identify(g).solved_edges == set(g.directed) - {(2, 3)}

    p = sample_parameters(g, seed=0)
    n_params = len(g.directed) + len(g.bidirected) + g.n
    assert jacobian_rank(g, p) < n_params

    sigma = covariance(p)
    alt = alternative_parameters(g, p, (2, 3), p.lam[1, 2] + 1.0)
    gap = np.max(np.abs(covariance(alt) - sigma))
    assert gap < 1e-9
    _passed("3", f"per-edge infinite-to-one replication (covariance gap {gap:.2e})")


def test_criterion_4_joint_system_replication():
    g = JOINT_SYSTEM_GRAPH
    rows = [([3, 5], [1]), ([2, 4], [1])]
    worst = 0.0
    for seed in range(100):
        p = sample_parameters(g, seed)
        sigma = covariance(p)
        matrix = np.array(
            [[subdeterminant(sigma, s, t + [w]) for w in (4, 5)] for s, t in rows]
        )
        assert abs(np.linalg.det(matrix)) > 1e-10
        values = solve_determinantal_system(sigma, rows, 6, [4, 5])
        worst = max(
            worst,
            abs(values[(4, 6)] - p.lam[3, 5]) / abs(p.lam[3, 5]),
            abs(values[(5, 6)] - p.lam[4, 5]) / abs(p.lam[4, 5]),
        )
    assert worst < 1e-6
    _passed("4", f"joint 2x2 determinantal recovery (max rel err {worst:.2e})")


def test_criterion_5_inconclusive_corpus():
    started = time.perf_counter()
    codes = corpus_codes()
    assert len(codes) == 55
    fully_solved = []
    for code in codes:
        g = decode_id(GraphId.parse(code))
        state = eid_tsid_identify(g, max_set_size=5)
        if len(state.solved_edges) == len(g.directed):
            fully_solved.append(code)
    elapsed = time.perf_counter() - started
    assert fully_solved == []
    assert elapsed < 60.0
    _passed("5", f"all 55 corpus graphs stay inconclusive ({elapsed:.1f}s)")


def _corpus_counts(path: str, max_set_size: int = 5) -> dict[str, int]:
    counts = {"eid": 0, "tsid": 0, "eid+tsid": 0}
    with open(path) as handle:
        for raw in handle:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            g = decode_id(GraphId.parse(line))
            total = len(g.directed)
            if len(eid_identify(g).solved_edges) == total:
                counts["eid"] += 1
            if len(tsid_identify(g, max_set_size=max_set_size).solved_edges) == total:
                counts["tsid"] += 1
            if len(eid_tsid_identify(g, max_set_size).solved_edges) == total:
                counts["eid+tsid"] += 1
    return counts


@pytest.mark.skipif(
    "SEMID_SUPPLEMENT_ACYCLIC" not in os.environ,
    reason="external supplement corpus not provided; conditional path documented in README",
)
def test_criterion_6_supplement_acyclic_counts():
    counts = _corpus_counts(os.environ["SEMID_SUPPLEMENT_ACYCLIC"])
    assert counts == {"eid": 23, "tsid": 0, "eid+tsid": 98}
    _passed("6a", f"supplement acyclic counts {counts}")


@pytest.mark.skipif(
    "SEMID_SUPPLEMENT_CYCLIC" not in os.environ,
    reason="external supplement corpus not provided; conditional path documented in README",
)
def test_criterion_6_supplement_cyclic_counts():
    counts = _corpus_counts(os.environ["SEMID_SUPPLEMENT_CYCLIC"])
    assert counts == {"eid": 4, "tsid": 0, "eid+tsid": 34}
    _passed("6b", f"supplement cyclic counts {counts}")


def _timed_suite(name):
    class _Timer:
        def __enter__(self):
            self.start = time.perf_counter()
            return self

        def __exit__(self, *exc):
            if exc[0] is None:
                _SUITE_SECONDS[name] = time.perf_counter() - self.start

    return _Timer()


def test_criterion_7a_trek_rule():
    with _timed_suite("trek rule"):
        rng = random.Random(101)
        for _ in range(200):
            g = random_mixed_graph(rng, rng.randint(2, 5), acyclic=True)
            p = sample_parameters(g, seed=rng.randint(0, 10**6))
            sigma = covariance(p)
            for v in g.vertices:
                for w in g.vertices:
                    total = sum(trek_monomial(t, p) for t in enumerate_treks(g, v, w))
                    scale = max(1.0, abs(sigma[v - 1, w - 1]))
                    assert abs(total - sigma[v - 1, w - 1]) < 1e-9 * scale
    _passed("7a", "trek-monomial sums match covariance entries (200 acyclic graphs)")


def test_criterion_7b_rank_equals_flow():
    with _timed_suite("rank-flow"):
        rng = random.Random(103)
        cases = 0
        for _ in range(12):
            g = random_mixed_graph(rng, rng.randint(3, 6))
            p = sample_parameters(g, seed=rng.randint(0, 10**6))
            sigma = covariance(p)
            net = build_flow_graph(g)
            subsets = [
                list(c)
                for size in (1, 2, 3)
                for c in itertools.combinations(g.vertices, min(size, g.n))
            ]
            for S in subsets:
                for T in subsets:
                    flow = net.max_flow(S, [net.primed(t) for t in T]).value
                    sub = sigma[np.ix_([s - 1 for s in S], [t - 1 for t in T])]
                    assert numeric_rank(sub) == flow, (g, S, T)
                    cases += 1
        assert cases >= 200
    _passed("7b", f"numeric rank equals flow rank ({cases} (S,T) cases)")


def test_criterion_7c_restricted_flow_vanishing():
    with _timed_suite("restricted flow"):
        rng = random.Random(107)
        triggered = 0
        for _ in range(250):
            g = random_mixed_graph(rng, rng.randint(2, 6), p_bidirected=0.2)
            edges = sorted(g.directed)
            left = [e for e in edges if rng.random() < 0.4]
            right = [e for e in edges if rng.random() < 0.4]
            k = rng.randint(1, min(3, g.n))
            S = sorted(rng.sample(list(g.vertices), k))
            T = sorted(rng.sample(list(g.vertices), k))
            net = build_restricted_flow_graph(g, left, right)
            flow = net.max_flow(S, [net.primed(t) for t in T]).value
            if flow >= k:
                continue
            triggered += 1
            p = sample_parameters(g, seed=rng.randint(0, 10**6))
            gamma = restricted_covariance(p, left, right)
            sub = gamma[np.ix_([s - 1 for s in S], [t - 1 for t in T])]
            svals = np.linalg.svd(sub, compute_uv=False)
            scale = max(1.0, float(svals[0])) ** k
            assert abs(np.linalg.det(sub)) < 1e-9 * scale
        assert triggered >= 60  # implication must fire on a fair share
    _passed("7c", f"restricted flow < k forces vanishing determinants ({triggered} triggers)")


def test_criterion_7d_subdivision_preserves_flows():
    with _timed_suite("subdivision"):
        rng = random.Random(109)
        for _ in range(200):
            g = random_mixed_graph(rng, rng.randint(2, 6))
            sub, vmap = bidirected_subdivision(g)
            new_edges = {(x, i) for x, (i, j) in vmap.items()} | {
                (x, j) for x, (i, j) in vmap.items()
            }
            edges = sorted(g.directed)
            left = {e for e in edges if rng.random() < 0.6}
            right = {e for e in edges if rng.random() < 0.6}
            k = rng.randint(1, min(3, g.n))
            S = sorted(rng.sample(list(g.vertices), k))
            T = sorted(rng.sample(list(g.vertices), k))
            net = build_restricted_flow_graph(g, left, right)
            net_sub = build_restricted_flow_graph(sub, left | new_edges, right | new_edges)
            flow = net.max_flow(S, [net.primed(t) for t in T]).value
            flow_sub = net_sub.max_flow(S, [net_sub.primed(t) for t in T]).value
            assert flow == flow_sub, (g, sorted(left), sorted(right), S, T)
    _passed("7d", "bidirected subdivision preserves restricted max-flows (200 cases)")


def test_criterion_7e_certified_system_invertible():
    with _timed_suite("system det"):
        rng = random.Random(113)
        certified = 0
        for _ in range(200):
            g = random_mixed_graph(rng, rng.randint(2, 6))
            k = rng.randint(1, min(3, g.n))
            Y = sorted(rng.sample(list(g.vertices), k))
            targets = sorted(rng.sample(list(g.vertices), k))
            exists, _ = half_trek_system_exists(g, Y, targets)
            if not exists:
                continue
            certified += 1
            p = sample_parameters(g, seed=rng.randint(0, 10**6))
            sigma = covariance(p)
            a = np.empty((k, k))
            for i, y in enumerate(Y):
                hs = [h for h in sorted(g.parents(y)) if rng.random() < 0.5]
                for j, t in enumerate(targets):
                    a[i, j] = sigma[y - 1, t - 1] - sum(
                        sigma[h - 1, t - 1] * p.lam[h - 1, y - 1] for h in hs
                    )
            assert abs(np.linalg.det(a)) > 1e-10, (g, Y, targets)
        assert certified >= 60
    _passed("7e", f"flow-certified half-trek systems give invertible systems ({certified} systems)")


def test_criterion_7f_containments():
    with _timed_suite("containments"):
        rng = random.Random(127)
        for code in corpus_codes():
            g = decode_id(GraphId.parse(code))
            assert htc_identify(g).solved_edges <= eid_identify(g).solved_edges
        for _ in range(200):
            g = random_mixed_graph(rng, rng.randint(2, 6))
            assert htc_identify(g).solved_edges <= eid_identify(g).solved_edges
        accepted = 0
        for _ in range(300):
            g = random_mixed_graph(rng, rng.randint(2, 6))
            if not g.directed:
                continue
            w0, v = sorted(g.directed)[rng.randrange(len(g.directed))]
            solved = [p for p in g.parents(v) if p != w0 and rng.random() < 0.5]
            k = rng.randint(1, min(3, g.n))
            pool = [t for t in g.vertices if t not in (v, w0)]
            if len(pool) < k - 1:
                continue
            S = sorted(rng.sample(list(g.vertices), k))
            T = sorted(rng.sample(pool, k - 1))
            if tsep_accepts(g, v, w0, solved, S, T, strict=True):
                accepted += 1
                assert tsep_accepts(g, v, w0, solved, S, T, strict=False)
        assert accepted >= 10
    _passed("7f", f"solver and acceptance containments hold ({accepted} strict acceptances)")


def test_criterion_7g_certificate_soundness():
    with _timed_suite("soundness"):
        rng = random.Random(131)
        inf_edges = 0
        for _ in range(200):
            g = random_mixed_graph(rng, rng.randint(2, 5))
            seed = rng.randint(0, 10**6)
            report = certify(g, verify=True, seed=seed, seeds=2)
            for edge, cert in report.certificates.items():
                if cert.status == IDENTIFIABLE:
                    if cert.verification is not None:
                        assert cert.verification["max_rel_err"] < 1e-6
                    assert not (
                        edge_infinite_to_one(g, edge)[0]
                        and cert.status == INFINITE_TO_ONE
                    )
                elif cert.status == INFINITE_TO_ONE:
                    inf_edges += 1
                    p = sample_parameters(g, seed=seed + 1)
                    alt = alternative_parameters(g, p, edge, p.lam[edge[0] - 1, edge[1] - 1] + 0.5)
                    assert np.max(np.abs(covariance(alt) - covariance(p))) < 1e-9
    _passed("7g", f"certificates replay soundly; {inf_edges} infinite-to-one edges re-verified")


def test_criterion_7h_jacobian_agreement():
    with _timed_suite("jacobian"):
        rng = random.Random(137)
        for _ in range(200):
            g = random_mixed_graph(rng, rng.randint(1, 5))
            p = sample_parameters(g, seed=rng.randint(0, 10**6))
            analytic = sigma_jacobian(g, p)
            fd = _central_difference_jacobian(g, p)
            scale = max(1.0, float(np.max(np.abs(analytic))))
            assert np.max(np.abs(analytic - fd)) < 1e-6 * scale
    _passed("7h", "analytic Jacobian matches central differences (200 graphs)")


def _central_difference_jacobian(g, p, h=1e-6):
    from semid.oracle import Parameters, _free_parameters

    coords = _free_parameters(g)
    tri = [(i, j) for i in range(g.n) for j in range(i, g.n)]
    out = np.empty((len(tri), len(coords)))
    for c, (kind, u, w) in enumerate(coords):
        def shifted(delta):
            lam, om = p.lam.copy(), p.omega.copy()
            target = lam if kind == "lam" else om
            target[u - 1, w - 1] += delta
            if kind == "omega" and u != w:
                target[w - 1, u - 1] += delta
            return covariance(Parameters(lam=lam, omega=om))

        d = (shifted(h) - shifted(-h)) / (2 * h)
        out[:, c] = [d[i, j] for i, j in tri]
    return out


def test_criterion_7_total_runtime():
    assert len(_SUITE_SECONDS) == 8, f"suites missing from {_SUITE_SECONDS}"
    total = sum(_SUITE_SECONDS.values())
    assert total < 120.0, _SUITE_SECONDS
    _passed("7", f"all property suites in {total:.1f}s (budget 120s)")


def test_criterion_8_codec():
    for d in range(64):
        for b in range(8):
            gid = GraphId(3, d, b)
            assert encode_id(decode_id(gid)) == gid
    rng = random.Random(139)
    for _ in range(300):
        gid = GraphId(5, rng.randrange(1 << 20), rng.randrange(1 << 10))
        assert encode_id(decode_id(gid)) == gid
        g = random_mixed_graph(rng, 5)
        assert decode_id(encode_id(g)) == g
    assert decode_id(GraphId.parse("5:4456:113")) == INCONCLUSIVE_ACYCLIC_GRAPH
    _passed("8", "codec round-trips (exhaustive n=3, randomized n=5)")
