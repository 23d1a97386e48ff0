"""GF(P) arithmetic and the star-minor filter of the TSID search.

The residual sweep is the oracle: the filter may skip a pair only when the
sweep would reject it, and every pair it skips must be a star failure.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from semid import GraphId, MixedGraph, certify, decode_id, eid_tsid_identify, modp, oracle, seeding, tsid_identify
from semid.flow import build_flow_graph, build_restricted_flow_graph
from semid.identify import IDENTIFIABLE, INFINITE_TO_ONE, _tsep_probe, _tsep_sweep

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


def _rank_mod_p(m):
    """Gaussian elimination with inverses mod P, in Python integers."""
    rows, rank = [list(r) for r in m], 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c] % P), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = pow(rows[rank][c], P - 2, P)
        for r in range(rank + 1, len(rows)):
            f = rows[r][c] * inverse % P
            rows[r] = [(x - f * y) % P for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_prime_fits_int64_products():
    assert all(P % d for d in range(2, int(P ** 0.5) + 1))
    assert 2 * (P - 1) ** 2 < 2 ** 63


def test_minor_levels_match_exact_determinants(monkeypatch):
    # Oracle: each level table of _minor_levels, entry by entry, against the
    # determinant in Python integers.  Its columns are the k-subsets of all
    # but the last column (below the top level), then each (k - 1)-subset
    # followed by the last column, so with top = the column count the
    # levels hold every k-minor, k = 1..5.  Entries are 0 with probability
    # 0.4, and some matrices repeat a row as a multiple of another.
    rng = random.Random(5)
    values = []
    for n, c, top in ((5, 5, 5), (7, 5, 5), (6, 4, 4), (6, 7, 3)):
        for _ in range(8):
            a = [[rng.randrange(P) if rng.random() < 0.6 else 0 for _ in range(c)] for _ in range(n)]
            if rng.random() < 0.5:
                a[rng.randrange(1, n)] = [x * 7 % P for x in a[0]]  # dependent rows
            expected = {}
            for k in range(1, top + 1):
                cols = list(itertools.combinations(range(c - 1), k)) if k < top else []
                cols += [t + (c - 1,) for t in itertools.combinations(range(c - 1), k - 1)]
                expected[k] = [
                    [_det_mod_p([[a[r][x] for x in C] for r in R]) for C in cols]
                    for R in itertools.combinations(range(n), k)
                ]
                values += [x for row in expected[k] for x in row]
            for block_size in (1024, 3):
                monkeypatch.setattr(modp, "FILTER_BLOCK", block_size)
                rows_got, got = {k: [] for k in expected}, {k: [] for k in expected}
                for rows, ts, block in modp._minor_levels(MixedGraph(n, [], []), np.array(a, dtype=np.int64), top):
                    k = rows.shape[1]
                    assert ts == list(itertools.combinations(range(c - 1), k - 1))
                    rows_got[k] += map(tuple, rows.tolist())
                    got[k] += block.tolist()
                for k in expected:
                    assert rows_got[k] == list(itertools.combinations(range(n), k))
                    assert got[k] == expected[k], (a, k, block_size)
    assert values.count(0) >= 2500 and len(values) - values.count(0) >= 5000


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


@pytest.mark.parametrize("length", [40_000, 70_000])
def test_matmul_sums_a_long_contraction_in_blocks(length):
    # A residue times a 16-bit half is below 2**47, so 70,000 of the largest
    # such products overflow int64 when summed in one block.
    rng = random.Random(length)
    x = [rng.randrange(P) for _ in range(length)]
    y = [rng.randrange(P) for _ in range(length)]
    for row, col in ((x, y), ([P - 1] * length, [P - 1] * length)):
        got = modp._matmul(np.array([row], dtype=np.int64), np.array(col, dtype=np.int64)[:, None])
        assert got.tolist() == [[sum(a * b for a, b in zip(row, col)) % P]]


# SHA-256 of sigma and lambda of field_point over every benchmark pool graph,
# pools in the order corpus_n5, random_n7, acyclic_verify.
POOL_FIELD_POINT_DIGEST = "6bf5870bb9f292f368f65c059d7827f0328a66ca4797793d3c5dabd57bef55ed"


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
    # The coefficients are numpy's raw PCG64 outputs of POINT_SEED mod P - 1, plus 1.
    g = decode_id(GraphId.parse(workloads.WORKLOADS["acyclic_verify"].pool()[0]))
    tails, heads = oracle._sampling_layout(g)[:2]
    raw = np.random.default_rng(modp.POINT_SEED).bit_generator.random_raw(len(tails))
    assert modp.field_point(g)[1][tails, heads].tolist() == (raw % (P - 1) + 1).tolist()


def test_report_does_not_depend_on_the_field_point(monkeypatch):
    # The star screen and the full-rank proof are one-sided, so another
    # point may change which pairs are swept but no certificate or rank.
    def reports():
        rng = random.Random(23)
        return [
            certify(random_mixed_graph(rng, rng.randint(4, 8), acyclic=i % 2 == 1), verify=False).to_json()
            for i in range(60)
        ]

    shipped = reports()
    monkeypatch.setattr(modp, "_POINT_WORDS", seeding.seed_words([4242])[0].tolist())
    assert reports() == shipped


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


def _beside_identity(m):
    """[m | I] in int64, the form field_point hands to _reduce."""
    n = len(m)
    return np.concatenate([np.array(m, dtype=np.int64).reshape(n, n) % P, np.eye(n, dtype=np.int64)], axis=1)


def _forward_mod_p(m):
    """The upper triangle of fraction-free forward elimination in Python integers, or None when a column has no pivot.

    The pivot of column j is the first nonzero entry from row j down, and
    row r below it becomes p * r - c * (row j) mod P.
    """
    rows = [list(r) for r in m]
    for j in range(len(rows)):
        pivot = next((r for r in range(j, len(rows)) if rows[r][j]), None)
        if pivot is None:
            return None
        rows[j], rows[pivot] = rows[pivot], rows[j]
        for r in range(j + 1, len(rows)):
            rows[r] = [(rows[j][j] * x - rows[r][j] * y) % P for x, y in zip(rows[r], rows[j])]
    return [[x if c >= r else 0 for c, x in enumerate(row)] for r, row in enumerate(rows)]


def test_reduce_is_none_when_singular_mod_p():
    m = np.array([[2, 1], [P - 1, (P - 1) // 2]], dtype=np.int64)
    assert modp._reduce(_beside_identity(m), 2) is None
    # R m is diagonal, also when a zero pivot forces a row swap; its diagonal
    # is nonzero exactly when m is invertible mod P, and there is no R when
    # m is singular mod P.  The exact determinant decides which.
    rng = random.Random(11)
    swapped = singular = 0
    for _ in range(200):
        n = rng.randint(1, 6)
        m = np.array([[rng.randrange(P) if rng.random() < 0.7 else 0 for _ in range(n)] for _ in range(n)], dtype=np.int64)
        if n > 1 and rng.random() < 0.2:
            m[-1] = m[0] * 3 % P  # dependent rows
        r = modp._reduce(_beside_identity(m), n)
        if _det_mod_p(m.tolist()) == 0:
            assert r is None
            singular += 1
            continue
        assert r.shape == (n, n) and r.dtype == np.int64
        d = modp._matmul(r, m)
        assert np.array_equal(d, np.diag(np.diag(d)))
        assert np.all(np.diag(d) != 0)
        swapped += m[0, 0] == 0
    assert singular >= 20 and swapped >= 20


def test_reduce_beside_the_identity_matches_python_integer_oracles():
    # Oracle: R m in Python integers is diagonal, with a nonzero diagonal,
    # exactly when det m != 0 mod P (Laplace) and m has full rank mod P
    # (elimination with inverses); else _reduce finds no pivot.  Row swaps,
    # singular matrices and the zero matrix are all among the cases.
    rng = random.Random(23)
    cases = [[[0] * 3 for _ in range(3)], [[0, 1], [1, 0]], [[0, 0, 5], [0, 7, 0], [P - 1, 0, 0]]]
    for _ in range(150):
        n = rng.randint(1, 5)
        m = [[rng.randrange(P) if rng.random() < 0.5 else 0 for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.3:
            m[rng.randrange(1, n)] = [x * 7 % P for x in m[0]]  # dependent rows
        cases.append(m)
    swapped = singular = 0
    for m in cases:
        n = len(m)
        full = _det_mod_p(m) != 0
        assert full == (_rank_mod_p(m) == n)
        r = modp._reduce(_beside_identity(m), n)
        assert (r is not None) == full, m
        if not full:
            singular += 1
            continue
        r = r.tolist()
        d = [[sum(r[i][x] * m[x][j] for x in range(n)) % P for j in range(n)] for i in range(n)]
        assert all((d[i][j] != 0) == (i == j) for i in range(n) for j in range(n)), m
        swapped += m[0][0] == 0
    assert singular >= 60 and swapped >= 15


def test_reduce_matches_python_integer_rank():
    rng = random.Random(17)
    invertible = singular = 0
    for _ in range(200):
        n = rng.randint(0, 7)
        m = [[rng.randrange(P) if rng.random() < 0.6 else 0 for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.2:
            for row in m:
                row[-1] = (row[0] * 5 + row[1]) % P  # dependent columns
        a = np.array(m, dtype=np.int64).reshape(n, n)
        got = modp._reduce(a, n) is not None
        assert got == (_rank_mod_p(m) == n)
        # On a square matrix it is forward elimination: the rows above each
        # pivot are never written, so the upper triangle is the echelon form.
        forward = _forward_mod_p(m)
        assert (forward is not None) == got
        if got:
            assert np.array_equal(np.triu(a), np.array(forward, dtype=np.int64).reshape(n, n))
        invertible += got
        singular += not got
    assert invertible >= 40 and singular >= 40


def test_full_rank_proof_matches_the_rank_of_b():
    # Oracle: B_U written out entry by entry from its definition, one row
    # per pair i < j without i <-> j, and its rank in Python integers.
    rng = random.Random(19)
    held = failed = 0
    for i in range(150):
        g = random_mixed_graph(rng, rng.randint(2, 7), acyclic=i % 2 == 1)
        sigma, lam = (m.tolist() for m in modp.field_point(g))
        # A = (I - lambda)^T sigma
        a = [[(sigma[x][z] - sum(lam[y][x] * sigma[y][z] for y in range(g.n))) % P for z in range(g.n)]
             for x in range(g.n)]
        edges = sorted(g.directed)
        uncertified = rng.sample(edges, rng.randint(0, len(edges)))
        b = [
            [a[x - 1][u - 1] * (w == y) + a[y - 1][u - 1] * (w == x) for u, w in uncertified]
            for x, y in itertools.combinations(g.vertices, 2) if not g.has_bidirected(x, y)
        ]
        proved = _rank_mod_p(b) == len(uncertified)
        assert modp.proves_full_rank(g, uncertified) == proved
        held += proved
        failed += not proved
    assert held >= 30 and failed >= 30


def _proved_rank(report):
    """|Omega| + |certified| + rank of B_U mod P at field_point, with B_U written out in Python integers.

    A rank taken at one point never exceeds the generic rank, so the
    Jacobian rank of the parameterization is at least this.
    """
    g = report.graph
    sigma, lam = (m.tolist() for m in modp.field_point(g))
    a = [[(sigma[x][z] - sum(lam[y][x] * sigma[y][z] for y in range(g.n))) % P for z in range(g.n)]
         for x in range(g.n)]
    uncertified = [e for e, cert in report.certificates.items() if cert.status != IDENTIFIABLE]
    b = [
        [a[x - 1][u - 1] * (w == y) + a[y - 1][u - 1] * (w == x) for u, w in uncertified]
        for x, y in itertools.combinations(g.vertices, 2) if not g.has_bidirected(x, y)
    ]
    omega = g.n + len(g.bidirected)
    return omega + len(report.certificates) - len(uncertified) + _rank_mod_p(b)


def _pool_reports(name, monkeypatch):
    """The certify reports, without replay, of a benchmark pool at its workload's --max-set-size."""
    root = Path(__file__).resolve().parents[1]
    monkeypatch.chdir(root)  # the corpus path of the workloads is relative
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    import workloads
    workload = workloads.WORKLOADS[name]
    flags = list(workload.flags)
    max_set_size = int(flags[flags.index("--max-set-size") + 1]) if "--max-set-size" in flags else None
    return {code: certify(decode_id(GraphId.parse(code)), max_set_size, verify=False) for code in workload.pool()}


# The one pool graph whose float rank at seed 0 falls below the rank proved
# mod P: 25 against 11 + 0 + 15 = 26 of 28.
FLOAT_RANK_SHORT_CODE = "7:2244371191841:47104"


@pytest.mark.parametrize("name", ["corpus_n5", "random_n7", "acyclic_verify"])
def test_reported_rank_is_at_least_the_rank_proved_mod_p(name, monkeypatch):
    ranks = [
        (code, report.jacobian_rank, _proved_rank(report))
        for code, report in _pool_reports(name, monkeypatch).items() if code != FLOAT_RANK_SHORT_CODE
    ]
    assert [r for r in ranks if r[1] < r[2]] == []


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the float rank at seed 0 undercounts; the GF(P) rank would not")
def test_reported_rank_of_the_float_rank_outlier_is_at_least_the_rank_proved_mod_p():
    report = certify(decode_id(GraphId.parse(FLOAT_RANK_SHORT_CODE)), verify=False)  # random_n7 has no flags
    assert report.jacobian_rank >= _proved_rank(report)


def test_field_point_is_zero_when_i_minus_lambda_is_singular(monkeypatch):
    # A singular I - lambda mod P leaves sigma = 0, so every star minor
    # vanishes and the search sweeps every pair in the unfiltered order.
    g, (w0, v) = INCONCLUSIVE_ACYCLIC_GRAPH, (1, 5)
    unfiltered = list(_unfiltered_order(g, v, w0, g.n))
    assert len(list(modp.star_vanishing_pairs(g, v, w0, [], g.n))) < len(unfiltered)
    g = MixedGraph(g.n, g.directed, g.bidirected)  # nothing memoized
    monkeypatch.setattr(modp, "_reduce", lambda a, k: None)
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


def test_screen_memory_stays_bounded_on_a_twelve_vertex_graph():
    # The level tables of one search, and one chunk of rows at a time, bound
    # the screen's memory.  This cyclic graph makes two searches with 10 T
    # candidates each, screens all 11 levels of both and sweeps no pair.
    g = decode_id(GraphId.parse("12:1617100291799222499177275938454076687201:19030008821969428992"))
    tracemalloc.start()
    try:
        state = eid_tsid_identify(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not any(c.method == "TSID" for c in state.certificates.values())
    assert peak <= 12 * 2**20, peak


def test_full_rank_proof_is_sound_on_seeded_graphs(monkeypatch):
    # The proof never holds with an infinite-to-one edge, holds only where
    # the float rank is full at one of three seeds, and reads the same on
    # the uncertified columns of B as on all of them.
    rng = random.Random(13)
    held = infinite = 0
    for i in range(300):
        g = random_mixed_graph(rng, rng.randint(4, 8), acyclic=i % 2 == 1)
        statuses = {e: c.status for e, c in certify(g, verify=False).certificates.items()}
        uncertified = [e for e, status in statuses.items() if status != IDENTIFIABLE]
        proved = modp.proves_full_rank(g, uncertified)
        assert proved == modp.proves_full_rank(g, sorted(g.directed))
        if INFINITE_TO_ONE in statuses.values():
            infinite += 1
            assert not proved
        if proved and uncertified:
            held += 1
            ranks = [oracle.jacobian_rank(g, oracle.sample_parameters(g, seed)) for seed in range(3)]
            assert oracle.n_free_parameters(g) in ranks
    assert held >= 10 and infinite >= 50
    # A zero proves nothing: at a singular I - lambda mod P sigma is 0.
    g = INCONCLUSIVE_ACYCLIC_GRAPH
    assert modp.proves_full_rank(g, sorted(g.directed))
    g = MixedGraph(g.n, g.directed, g.bidirected)  # nothing memoized
    monkeypatch.setattr(modp, "field_point", lambda g: (np.zeros((g.n, g.n), dtype=np.int64),) * 2)
    assert not modp.proves_full_rank(g, sorted(g.directed))
