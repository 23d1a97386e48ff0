"""GF(P) arithmetic and the star-minor filter of the TSID search.

The residual sweep is the oracle: the filter may skip a pair only when the
sweep would reject it, and every pair it skips must be a star failure.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from semid import GraphId, MixedGraph, certify, decode_id, identify, modp, tsid_identify
from semid.flow import build_flow_graph, build_restricted_flow_graph
from semid.identify import _star_vanishing_pairs, _tsep_probe, _tsep_sweep

from conftest import INCONCLUSIVE_CYCLIC_GRAPH, corpus_codes, random_mixed_graph

P = modp.P


def _det_mod_p(m):
    """Laplace expansion along the first row, in Python integers."""
    if len(m) == 1:
        return m[0][0] % P
    return sum(
        (-1) ** j * m[0][j] * _det_mod_p([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
    ) % P


def test_prime_fits_int64_products():
    assert all(P % d for d in range(2, int(P ** 0.5) + 1))
    assert 2 * (P - 1) ** 2 < 2 ** 63


def test_nonzero_minors_matches_exact_determinants():
    rng = random.Random(5)
    for k in range(1, 6):
        stack = []
        for _ in range(150):
            m = [[rng.randrange(P) if rng.random() < 0.6 else 0 for _ in range(k)] for _ in range(k)]
            if k > 1 and rng.random() < 0.3:
                m[-1] = [x * 7 % P for x in m[0]]  # dependent rows, zero determinant
            stack.append(m)
        got = modp.nonzero_minors(np.array(stack, dtype=np.int64))
        expected = [_det_mod_p(m) != 0 for m in stack]
        assert got.tolist() == expected
        assert 0 < sum(expected) < len(expected)


def test_field_point_solves_the_covariance_equation():
    # (I - lambda)^T sigma (I - lambda) = omega, with omega on the graph's support.
    g = MixedGraph(4, [(1, 2), (2, 3), (3, 1), (3, 4)], [(1, 4), (2, 3)])
    sigma, lam = modp.field_point(g)
    m = (np.eye(4, dtype=np.int64) - lam) % P
    omega = modp._matmul(modp._matmul(m.T, sigma), m)
    support = {(x, x) for x in g.vertices} | g.bidirected | {(w, u) for u, w in g.bidirected}
    for u, w in itertools.product(g.vertices, repeat=2):
        assert (omega[u - 1, w - 1] != 0) == ((u, w) in support)
    assert np.array_equal(sigma, sigma.T)
    assert all((lam[u - 1, w - 1] != 0) == ((u, w) in g.directed) for u, w in itertools.product(g.vertices, repeat=2))
    assert modp.field_point(g)[0].tobytes() == sigma.tobytes()  # the point is fixed


def test_inverse_is_none_when_singular_mod_p():
    assert modp._inverse(np.array([[2, 1], [P - 1, (P - 1) // 2]], dtype=np.int64)) is None
    m = np.array([[2, 1], [0, 3]], dtype=np.int64)
    assert np.array_equal(modp._matmul(m, modp._inverse(m)), np.eye(2, dtype=np.int64))


def test_star_filter_rejects_only_star_failures():
    # One random edge per graph whose head is off every cycle, with a random
    # subset of its other parents as solved siblings, and one random level
    # |S| in {2, 3}: every pair (S, T) that the filter skips must fail the
    # sweep probe, and must be a star failure: S links fully to T' + v' once
    # the stripped arcs into v' are removed.
    rng = random.Random(43)
    graphs = cyclic = pairs = rejected = accepted = 0
    for i in range(660):
        g = random_mixed_graph(rng, 3 + i % 5, acyclic=i % 2 == 0)
        edges = [(w0, v) for w0, v in sorted(g.directed) if v not in g.descendants(v)]
        if not edges:
            continue
        graphs += 1
        cyclic += not g.is_acyclic()
        w0, v = rng.choice(edges)
        solved = [p for p in sorted(g.parents(v) - {w0}) if rng.random() < 0.5]
        full = build_flow_graph(g)
        accepts = _tsep_probe(g, full, v, w0, solved)
        star = build_restricted_flow_graph(g, g.directed, g.directed - {(w, v) for w in [w0, *solved]})
        t_candidates = [t for t in g.vertices if t not in (v, w0) and t not in g.descendants(v)]
        k = rng.choice((2, 3))
        star_minors = modp.star_matrix(modp.field_point(g), v, [w0, *solved], t_candidates)
        kept = set(_star_vanishing_pairs(g, star_minors, t_candidates, k))
        for S in itertools.combinations(g.vertices, k):
            for T in itertools.combinations(t_candidates, k - 1):
                pairs += 1
                if accepts(_tsep_sweep(full, S, T)):
                    accepted += 1
                    assert (S, T) in kept, (g, w0, v, solved, S, T)
                elif (S, T) not in kept:
                    rejected += 1
                    assert star.max_flow(S, [star.primed(t) for t in T + (v,)]).value == k, (g, w0, v, solved, S, T)
    assert graphs >= 500 and cyclic >= 100
    assert rejected >= pairs // 2 and accepted >= 100


def test_filtered_search_matches_the_unfiltered_one(monkeypatch):
    # Same certificates with and without the filter, and with blocks so small
    # that every level spans several, on cyclic and acyclic graphs.
    rng = random.Random(17)
    graphs = [random_mixed_graph(rng, 5 + i % 3, acyclic=i % 2 == 0) for i in range(30)]
    graphs.append(INCONCLUSIVE_CYCLIC_GRAPH)
    filtered = [tsid_identify(g).certificates for g in graphs]
    monkeypatch.setattr(identify, "FILTER_BLOCK", 5)
    assert [tsid_identify(g).certificates for g in graphs] == filtered
    monkeypatch.setattr(modp, "field_point", lambda g: None)
    assert [tsid_identify(MixedGraph(g.n, g.directed, g.bidirected)).certificates for g in graphs] == filtered
    assert sum(len(c) for c in filtered) >= 30


def test_search_limited_to_singletons_never_builds_the_point():
    g = decode_id(GraphId.parse(corpus_codes()[0]))
    certify(g, max_set_size=1)
    assert (modp.field_point,) not in g._memo
    certify(g, max_set_size=2)
    assert (modp.field_point,) in g._memo
