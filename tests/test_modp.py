"""GF(P) arithmetic and the star-minor filter of the TSID search.

The residual sweep is the oracle: the filter may skip a pair only when the
sweep would reject it, and every pair it skips must be a star failure.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from pathlib import Path

import numpy as np

from semid import GraphId, MixedGraph, decode_id, modp, tsid_identify
from semid.flow import build_flow_graph, build_restricted_flow_graph
from semid.identify import _tsep_probe, _tsep_sweep

from conftest import HTC_FAIL_GRAPH, INCONCLUSIVE_ACYCLIC_GRAPH, INCONCLUSIVE_CYCLIC_GRAPH, corpus_codes, random_mixed_graph

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


def test_matmul_matches_python_integer_products():
    rng = random.Random(11)
    for n in (1, 2, 5, 20):
        x, y = (
            [[rng.choice((0, 1, P - 1, rng.randrange(P))) for _ in range(n)] for _ in range(n)] for _ in range(2)
        )
        expected = [[sum(a * b for a, b in zip(row, col)) % P for col in zip(*y)] for row in x]
        got = modp._matmul(np.array(x, dtype=np.int64), np.array(y, dtype=np.int64))
        assert got.dtype == np.int64 and got.tolist() == expected
    top = np.full((64, 64), P - 1, dtype=np.int64)  # the largest sums of the largest products
    assert (modp._matmul(top, top) == 64 * (P - 1) ** 2 % P).all()


# SHA-256 of sigma and lambda of field_point over every benchmark pool graph,
# pools in the order corpus_n5, random_n7, acyclic_verify.
POOL_FIELD_POINT_DIGEST = "e66cadc2f24e17943bccd09d421c98c29babcbf1c7b831408229e7e68f4fdcd4"


def test_field_points_of_the_benchmark_pools_unchanged(monkeypatch):
    root = Path(__file__).resolve().parents[1]
    monkeypatch.chdir(root)  # the corpus path of the workloads is relative
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    import workloads
    digest = hashlib.sha256()
    for name in ("corpus_n5", "random_n7", "acyclic_verify"):
        for code in workloads.WORKLOADS[name].pool():
            sigma, lam = modp.field_point(decode_id(GraphId.parse(code)))
            digest.update(sigma.tobytes())
            digest.update(lam.tobytes())
    assert digest.hexdigest() == POOL_FIELD_POINT_DIGEST


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


def test_scaled_inverse_is_zero_when_singular_mod_p():
    m = np.array([[2, 1], [P - 1, (P - 1) // 2]], dtype=np.int64)
    assert not modp._scaled_inverse(m).any()
    # R m is diagonal, also when a zero pivot forces a row swap; its diagonal
    # is nonzero exactly when m is invertible mod P, and R is the zero matrix
    # when m is singular mod P.  The exact determinant decides which.
    rng = random.Random(11)
    swapped = singular = 0
    for _ in range(200):
        n = rng.randint(1, 6)
        m = np.array([[rng.randrange(P) if rng.random() < 0.7 else 0 for _ in range(n)] for _ in range(n)], dtype=np.int64)
        if n > 1 and rng.random() < 0.2:
            m[-1] = m[0] * 3 % P  # dependent rows
        r = modp._scaled_inverse(m)
        assert r.shape == (n, n) and r.dtype == np.int64
        d = modp._matmul(r, m)
        assert np.array_equal(d, np.diag(np.diag(d)))
        if _det_mod_p(m.tolist()) == 0:
            assert not r.any()
            singular += 1
            continue
        assert np.all(np.diag(d) != 0)
        swapped += m[0, 0] == 0
    assert singular >= 20 and swapped >= 20


def test_field_point_is_zero_when_i_minus_lambda_is_singular(monkeypatch):
    # A singular I - lambda mod P leaves sigma = 0, so every star minor
    # vanishes and the search sweeps every pair in the unfiltered order.
    g, (w0, v) = INCONCLUSIVE_ACYCLIC_GRAPH, (1, 5)
    unfiltered = list(_unfiltered_order(g, v, w0, g.n))
    assert len(list(modp.star_vanishing_pairs(g, v, w0, [], g.n))) < len(unfiltered)
    g = MixedGraph(g.n, g.directed, g.bidirected)  # nothing memoized
    monkeypatch.setattr(modp, "_scaled_inverse", lambda m: np.zeros_like(m))
    sigma, lam = modp.field_point(g)
    assert not sigma.any() and lam.any()
    assert list(modp.star_vanishing_pairs(g, v, w0, [], g.n)) == unfiltered


def test_star_filter_rejects_only_star_failures():
    # One random edge per graph whose head is off every cycle, with a random
    # subset of its other parents as solved siblings, at level |S| = 1 and at
    # one random level |S| in {2, 3}: every pair (S, T) that the filter skips
    # must fail the sweep probe, and must be a star failure: S links fully to
    # T' + v' once the stripped arcs into v' are removed.  Index 0 of each
    # tally counts the singletons, index 1 the larger level.
    rng = random.Random(43)
    graphs = cyclic = 0
    pairs, rejected, accepted = [0, 0], [0, 0], [0, 0]
    for i in range(660):
        g = random_mixed_graph(rng, 3 + i % 5, acyclic=i % 2 == 0)
        edges = [(w0, v) for w0, v in sorted(g.directed) if v not in g.descendants(v)]
        if not edges:
            continue
        graphs += 1
        cyclic += not g.is_acyclic()
        w0, v = rng.choice(edges)
        solved = [p for p in sorted(g.parents(v) - {w0}) if rng.random() < 0.5]
        accepts = _tsep_probe(g, v, w0, solved)
        star = build_restricted_flow_graph(g, g.directed, g.directed - {(w, v) for w in [w0, *solved]})
        t_candidates = [t for t in g.vertices if t not in (v, w0) and t not in g.descendants(v)]
        levels = (1, rng.choice((2, 3)))
        kept = set(modp.star_vanishing_pairs(g, v, w0, solved, levels[1]))
        for k in levels:
            level = int(k > 1)
            for S in itertools.combinations(g.vertices, k):
                for T in itertools.combinations(t_candidates, k - 1):
                    pairs[level] += 1
                    if accepts(_tsep_sweep(g, S, T)):
                        accepted[level] += 1
                        assert (S, T) in kept, (g, w0, v, solved, S, T)
                    elif (S, T) not in kept:
                        rejected[level] += 1
                        assert star.max_flow(S, [star.primed(t) for t in T + (v,)]).value == k, (g, w0, v, solved, S, T)
    assert graphs >= 500 and cyclic >= 100
    assert rejected[0] >= pairs[0] // 2 and accepted[0] >= 100
    assert rejected[1] >= pairs[1] // 2 and accepted[1] >= 100


def test_screen_yields_exactly_the_vanishing_star_minors_in_search_order(monkeypatch):
    # Oracle: every (S, T) of the search order whose star minor
    # det [sigma[S, T] | star[S]] is 0 mod P, the determinant taken in Python
    # integers, with star = sigma[:, v] - sum over the stripped w of
    # lambda[w, v] * sigma[:, w].  Blocks of 3 pairs split every level.
    rng = random.Random(61)
    cases = []
    for i in range(40):
        g = random_mixed_graph(rng, 4 + i % 4, acyclic=i % 2 == 0)
        edges = [(w0, v) for w0, v in sorted(g.directed) if v not in g.descendants(v)]
        if not edges:
            continue
        w0, v = rng.choice(edges)
        solved = [p for p in sorted(g.parents(v) - {w0}) if rng.random() < 0.5]
        sigma, lam = (x.tolist() for x in modp.field_point(g))
        star = [(row[v - 1] - sum(lam[w - 1][v - 1] * row[w - 1] for w in [w0, *solved])) % P for row in sigma]
        expected = [
            (S, T) for S, T in _unfiltered_order(g, v, w0, g.n)
            if _det_mod_p([[sigma[s - 1][t - 1] for t in T] + [star[s - 1]] for s in S]) == 0
        ]
        cases.append((g, v, w0, solved, expected))
    for block in (1024, 3):
        monkeypatch.setattr(modp, "FILTER_BLOCK", block)
        for g, v, w0, solved, expected in cases:
            assert list(modp.star_vanishing_pairs(g, v, w0, solved, g.n)) == expected, (g, w0, v, solved)
    assert len(cases) >= 30 and sum(bool(solved) for _, _, _, solved, _ in cases) >= 5
    kept = [pair for *_, expected in cases for pair in expected]
    total = sum(len(list(_unfiltered_order(g, v, w0, g.n))) for g, v, w0, _, _ in cases)
    assert 0 < len(kept) < total // 2 and max(len(S) for S, _ in kept) >= 4


def _unfiltered_order(g, v, w0, max_set_size):
    """Every (S, T) pair the search may try for w0 -> v, by |S| and then lexicographic."""
    t_candidates = [t for t in g.vertices if t not in (v, w0) and t not in g.descendants(v)]
    for k in range(1, min(max_set_size, len(t_candidates) + 1) + 1):
        yield from itertools.product(itertools.combinations(g.vertices, k), itertools.combinations(t_candidates, k - 1))


def test_filtered_search_matches_the_unfiltered_one(monkeypatch):
    # Same certificates as a search over every pair, with blocks so small
    # that every level spans several, and at a zero sigma, where no minor
    # rejects anything, on cyclic and acyclic graphs.
    rng = random.Random(17)
    graphs = [random_mixed_graph(rng, 5 + i % 3, acyclic=i % 2 == 0) for i in range(30)]
    graphs.append(INCONCLUSIVE_CYCLIC_GRAPH)
    fresh = lambda: [MixedGraph(g.n, g.directed, g.bidirected) for g in graphs]  # nothing memoized
    filtered = [tsid_identify(g).certificates for g in fresh()]
    monkeypatch.setattr(modp, "FILTER_BLOCK", 5)
    assert [tsid_identify(g).certificates for g in fresh()] == filtered
    monkeypatch.setattr(modp, "field_point", lambda g: (np.zeros((g.n, g.n), dtype=np.int64),) * 2)
    assert [tsid_identify(g).certificates for g in fresh()] == filtered
    monkeypatch.setattr(
        modp, "star_vanishing_pairs", lambda g, v, w0, solved, max_set_size: _unfiltered_order(g, v, w0, max_set_size)
    )
    assert [tsid_identify(g).certificates for g in fresh()] == filtered
    assert sum(len(c) for c in filtered) >= 30


def test_flow_network_is_built_only_for_a_pair_that_survives_the_screen():
    # Every level, |S| = 1 included, is screened before any sweep, so a
    # search that screens out every pair builds the point but no network.
    g = decode_id(GraphId.parse(corpus_codes()[0]))
    assert not tsid_identify(g).certificates
    assert (modp.field_point,) in g._memo and (build_flow_graph,) not in g._memo
    g = MixedGraph(HTC_FAIL_GRAPH.n, HTC_FAIL_GRAPH.directed, HTC_FAIL_GRAPH.bidirected)  # nothing memoized
    assert tsid_identify(g).certificates
    assert (build_flow_graph,) in g._memo
