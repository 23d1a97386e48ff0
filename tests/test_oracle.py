import random
import re

import numpy as np
import pytest

from semid import (
    DegenerateSampleError,
    GraphId,
    InfeasibleEdgeError,
    MixedGraph,
    Parameters,
    alternative_parameters,
    certify,
    covariance,
    decode_id,
    enumerate_treks,
    jacobian_rank,
    oracle,
    recover_edge_ratio,
    sample_parameters,
    solve_determinantal_system,
    solve_recovery_system,
    subdeterminant,
    trek_monomial,
)
from semid.oracle import (
    n_free_parameters,
    numeric_rank,
    restricted_covariance,
    sigma_jacobian,
)

from conftest import (
    HTC_FAIL_GRAPH,
    IV_GRAPH,
    JOINT_SYSTEM_GRAPH,
    ONE_EDGE_NONID_GRAPH,
    random_mixed_graph,
)


def validate_parameters(g: MixedGraph, p: Parameters, tol: float = 1e-12) -> list[str]:
    """Check the Parameters invariants against the graph supports.

    Every non-finite entry is named, and the checks of the whole matrices
    (symmetry, definiteness, singularity) run only when there is none.
    Every check is written so that a NaN fails it.
    """
    n = g.n
    if p.lam.shape != (n, n) or p.omega.shape != (n, n):
        return [f"matrix shapes {p.lam.shape}, {p.omega.shape} do not match n={n}"]
    problems = [
        f"{name}[{v + 1},{w + 1}] is not finite"
        for name, m in (("lambda", p.lam), ("omega", p.omega))
        for v, w in np.argwhere(~np.isfinite(m)).tolist()
    ]
    if not problems:  # eigvalsh need not converge on a non-finite matrix
        if not np.max(np.abs(p.omega - p.omega.T)) <= tol:
            problems.append("omega is not symmetric")
        if not np.min(np.linalg.eigvalsh((p.omega + p.omega.T) / 2)) > 0:
            problems.append("omega is not positive definite")
        if not abs(np.linalg.det(np.eye(n) - p.lam)) > tol:
            problems.append("I - lambda is numerically singular")
    for v in range(1, n + 1):
        for w in range(1, n + 1):
            if v != w and not abs(p.lam[v - 1, w - 1]) <= tol and (v, w) not in g.directed:
                problems.append(f"lambda[{v},{w}] nonzero without edge {v}->{w}")
            if v == w and not abs(p.lam[v - 1, w - 1]) <= tol:
                problems.append(f"lambda[{v},{v}] nonzero on the diagonal")
            if v < w and not abs(p.omega[v - 1, w - 1]) <= tol and not g.has_bidirected(v, w):
                problems.append(f"omega[{v},{w}] nonzero without edge {v}<->{w}")
    return problems


@pytest.mark.parametrize("matrix, entries, value, problems", [
    ("lam", [(0, 1)], np.nan, ["lambda[1,2] is not finite"]),
    ("lam", [(0, 1)], np.inf, ["lambda[1,2] is not finite"]),
    ("omega", [(1, 2), (2, 1)], np.nan, ["omega[2,3] is not finite", "omega[3,2] is not finite"]),
    ("omega", [(0, 0)], -np.inf, ["omega[1,1] is not finite"]),
    ("lam", [(0, 2)], np.nan, ["lambda[1,3] is not finite", "lambda[1,3] nonzero without edge 1->3"]),
], ids=["nan-lambda", "inf-lambda", "nan-omega-pair", "inf-omega-diagonal", "nan-off-support"])
def test_validate_parameters_names_non_finite_entries(matrix, entries, value, problems):
    g = MixedGraph(3, [(1, 2), (2, 3)], [(2, 3)])
    p = sample_parameters(g, 0)
    assert validate_parameters(g, p) == []
    changed = {"lam": p.lam.copy(), "omega": p.omega.copy()}
    for entry in entries:
        changed[matrix][entry] = value
    assert validate_parameters(g, Parameters(**changed)) == problems


def test_validate_parameters_checks_finite_matrices_whole():
    # All entries finite: an asymmetric, indefinite omega and a singular
    # I - lambda each fail their check.
    g = MixedGraph(2, [(1, 2), (2, 1)], [(1, 2)])
    lam = np.array([[0.0, 1.0], [1.0, 0.0]])
    omega = np.array([[1.0, 2.0], [3.0, 1.0]])
    assert validate_parameters(g, Parameters(lam, omega)) == [
        "omega is not symmetric", "omega is not positive definite", "I - lambda is numerically singular",
    ]


def test_sampling_respects_supports_and_determinism():
    p = sample_parameters(IV_GRAPH, seed=4)
    assert validate_parameters(IV_GRAPH, p) == []
    again = sample_parameters(IV_GRAPH, seed=4)
    assert np.array_equal(p.lam, again.lam) and np.array_equal(p.omega, again.omega)
    assert not np.array_equal(p.lam, sample_parameters(IV_GRAPH, seed=5).lam)


@pytest.mark.parametrize("seed, bad", [
    (1.5, 1.5), ("3", "3"), (-1, -1), (np.int64(-1), np.int64(-1)), (None, None), ([0, -2], -2), ((4, "3"), "3"),
])
def test_sampling_names_a_bad_seed(seed, bad):
    with pytest.raises(ValueError, match=f"seed must be an integer >= 0, got {re.escape(repr(bad))}$"):
        sample_parameters(IV_GRAPH, seed)


@pytest.mark.parametrize("seed, verify", [("0", True), (-1, True), (2.0, True), ([0], True), ("x", False)])
def test_certify_names_a_bad_seed(seed, verify):
    # IV_GRAPH is fully certified, so without a replay nothing would draw.
    with pytest.raises(ValueError, match=f"seed must be an integer >= 0, got {re.escape(repr(seed))}$"):
        certify(IV_GRAPH, verify=verify, seed=seed)


@pytest.mark.parametrize("seed, same", [(np.int64(3), 3), (np.uint8(3), 3), (True, 1), (False, 0), (2**70, 2**70)])
def test_integer_seeds_draw_the_bytes_of_the_int(seed, same):
    got, expected = sample_parameters(HTC_FAIL_GRAPH, seed), sample_parameters(HTC_FAIL_GRAPH, same)
    assert got.lam.tobytes() == expected.lam.tobytes() and got.omega.tobytes() == expected.omega.tobytes()
    assert certify(IV_GRAPH, seed=seed, seeds=1).seed == seed


def test_sampling_empty_graph():
    p = sample_parameters(MixedGraph(3), seed=0)
    assert np.all(p.lam == 0)
    assert np.array_equal(p.omega, np.diag(np.diag(p.omega)))
    assert np.all(np.diag(p.omega) > 0)


def test_sampling_iv_omega_pattern():
    p = sample_parameters(IV_GRAPH, seed=1)
    off = p.omega - np.diag(np.diag(p.omega))
    nonzero = {(i + 1, j + 1) for i, j in zip(*np.nonzero(off))}
    assert nonzero == {(2, 3), (3, 2)}


def test_sampling_cyclic_rejection():
    cyclic = MixedGraph(3, [(1, 2), (2, 3), (3, 1)], [])
    for seed in range(10):
        p = sample_parameters(cyclic, seed)
        assert abs(np.linalg.det(np.eye(3) - p.lam)) > 1e-3


def test_covariance_iv_entries():
    p = sample_parameters(IV_GRAPH, seed=2)
    sig = covariance(p)
    lam, om = p.lam, p.omega
    assert sig[0, 2] == pytest.approx(lam[0, 1] * lam[1, 2] * om[0, 0], rel=1e-12)
    assert sig[1, 2] == pytest.approx(
        lam[1, 2] * (lam[0, 1] ** 2 * om[0, 0] + om[1, 1]) + om[1, 2], rel=1e-12
    )
    # diagonal entry from the walk expansion, not any printed formula
    assert sig[2, 2] == pytest.approx(
        om[2, 2] + 2 * om[1, 2] * lam[1, 2] + lam[1, 2] ** 2 * sig[1, 1], rel=1e-12
    )


def test_covariance_without_directed_part_is_omega():
    g = MixedGraph(3, [], [(1, 2)])
    p = sample_parameters(g, seed=0)
    assert np.allclose(covariance(p), p.omega)


def test_covariance_symmetric_pd():
    rng = random.Random(7)
    for _ in range(30):
        g = random_mixed_graph(rng, rng.randint(1, 6))
        p = sample_parameters(g, seed=rng.randint(0, 10**6))
        sig = covariance(p)
        assert np.max(np.abs(sig - sig.T)) < 1e-12
        assert np.min(np.linalg.eigvalsh(sig)) > 0


def test_covariance_singular_guard():
    lam = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(DegenerateSampleError):
        covariance(Parameters(lam=lam, omega=np.eye(2)))


def test_covariance_guard_rejects_a_nan_coefficient():
    # det(I - lambda) is NaN, which no `<=` comparison with a tolerance catches.
    p = sample_parameters(IV_GRAPH, seed=0)
    p.lam[0, 1] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(DegenerateSampleError):
        covariance(p)


def test_enumerate_treks_iv():
    treks = enumerate_treks(IV_GRAPH, 1, 3)
    assert len(treks) == 1
    assert treks[0].left == (1,) and treks[0].right == (1, 2, 3)

    treks_23 = enumerate_treks(IV_GRAPH, 2, 3)
    assert len(treks_23) == 3
    p = sample_parameters(IV_GRAPH, seed=3)
    total = sum(trek_monomial(t, p) for t in treks_23)
    assert total == pytest.approx(covariance(p)[1, 2], rel=1e-12)


def test_enumerate_treks_empty_trek():
    g = MixedGraph(2)
    treks = enumerate_treks(g, 1, 1)
    assert len(treks) == 1 and treks[0].left == treks[0].right == (1,)
    p = sample_parameters(g, seed=0)
    assert trek_monomial(treks[0], p) == pytest.approx(p.omega[0, 0])


def test_enumerate_treks_rejects_cyclic():
    with pytest.raises(ValueError):
        enumerate_treks(MixedGraph(2, [(1, 2), (2, 1)], []), 1, 2)


def test_trek_rule_on_fixtures():
    for g in (IV_GRAPH, HTC_FAIL_GRAPH, ONE_EDGE_NONID_GRAPH, JOINT_SYSTEM_GRAPH):
        p = sample_parameters(g, seed=9)
        sig = covariance(p)
        for v in g.vertices:
            for w in g.vertices:
                total = sum(trek_monomial(t, p) for t in enumerate_treks(g, v, w))
                scale = max(1.0, abs(sig[v - 1, w - 1]))
                assert abs(total - sig[v - 1, w - 1]) < 1e-9 * scale


def test_subdeterminant_examples():
    p = sample_parameters(HTC_FAIL_GRAPH, seed=11)
    sig = covariance(p)
    assert abs(subdeterminant(sig, [1, 2, 4], [1, 3, 5])) > 1e-6
    bar = MixedGraph(5, [(1, 2), (1, 3), (1, 4)], HTC_FAIL_GRAPH.bidirected)
    pbar = sample_parameters(bar, seed=11)
    sbar = covariance(pbar)
    det = subdeterminant(sbar, [1, 2, 4], [1, 3, 5])
    assert abs(det) < 1e-9 * max(1.0, abs(subdeterminant(sbar, [1, 2, 4], [1, 2, 4])))
    assert subdeterminant(sig, [3], [3]) > 0
    with pytest.raises(ValueError):
        subdeterminant(sig, [1, 2], [1])


def test_subdeterminant_column_order_sign():
    p = sample_parameters(HTC_FAIL_GRAPH, seed=13)
    sig = covariance(p)
    a = subdeterminant(sig, [1, 2], [3, 4])
    b = subdeterminant(sig, [1, 2], [4, 3])
    assert a == pytest.approx(-b, rel=1e-12)


def test_recover_edge_ratio_examples():
    p = sample_parameters(HTC_FAIL_GRAPH, seed=17)
    sig = covariance(p)
    lam45 = recover_edge_ratio(sig, [1, 2, 4], [1, 3], 5, 4)
    assert lam45 == pytest.approx(p.lam[3, 4], rel=1e-9)

    from conftest import DESCENDANT_SOURCE_GRAPH

    pd_ = sample_parameters(DESCENDANT_SOURCE_GRAPH, seed=17)
    sd = covariance(pd_)
    assert recover_edge_ratio(sd, [3, 5], [4], 2, 1) == pytest.approx(pd_.lam[0, 1], rel=1e-9)

    piv = sample_parameters(IV_GRAPH, seed=17)
    siv = covariance(piv)
    assert recover_edge_ratio(siv, [1], [], 3, 2) == pytest.approx(
        siv[0, 2] / siv[0, 1], rel=1e-12
    )


def test_recover_edge_ratio_known_subtraction():
    # strip a solved sibling edge: recover 1->4 on the ratio graph by hand
    p = sample_parameters(HTC_FAIL_GRAPH, seed=19)
    sig = covariance(p)
    # lambda45 known; recover via a system in which it is a prerequisite
    lam45 = p.lam[3, 4]
    got = recover_edge_ratio(sig, [1, 2, 4], [1, 3], 5, 4, known={})
    assert got == pytest.approx(lam45, rel=1e-9)


def test_recover_edge_ratio_degenerate_denominator():
    sig = np.eye(4)
    with pytest.raises(DegenerateSampleError):
        recover_edge_ratio(sig, [1, 2], [3], 4, 3)


# Edge 4 -> 5 with its two siblings 2 -> 5 and 3 -> 5; vertex 5 has no sibling.
SIBLING_ROW_GRAPH = MixedGraph(5, [(1, 2), (1, 3), (2, 5), (3, 5), (4, 5)], [(1, 4), (2, 3), (2, 4)])


@pytest.mark.parametrize("g, rows, v, targets, known_edges", [
    (JOINT_SYSTEM_GRAPH, [([3, 5], [1])], 6, [4], [(5, 6)]),
    (JOINT_SYSTEM_GRAPH, [([3, 5], [1]), ([2, 4], [1])], 6, [4, 5], []),
    (JOINT_SYSTEM_GRAPH, [([1], [])], 4, [2], []),
    (SIBLING_ROW_GRAPH, [([2, 3], [1])], 5, [4], [(2, 5), (3, 5)]),
], ids=["tsid", "joint", "empty-T", "two-siblings"])
def test_recover_edge_ratio_is_the_explicit_quotient_bit_for_bit(g, rows, v, targets, known_edges):
    # Replay solves a k x k system of minors; the golden digests rest on its
    # bytes being those of one subdeterminant per entry, and for k = 1 those
    # of the explicit quotient (num - sum known * det) / den.
    p = sample_parameters(g, range(100))
    sigma = covariance(p)
    known = {(w, u): p.lam[:, w - 1, u - 1] for w, u in known_edges}
    a = np.stack([
        np.stack([subdeterminant(sigma, s, t + [w]) for w in targets], axis=-1) for s, t in rows
    ], axis=-2)
    rhs = []
    for s, t in rows:
        num = subdeterminant(sigma, s, t + [v])
        for (w, _), x in known.items():
            num = num - x * subdeterminant(sigma, s, t + [w])
        rhs.append(num)
    rhs = np.stack(rhs, axis=-1)
    if len(targets) == 1:
        [(s, t)] = rows
        got = {(targets[0], v): recover_edge_ratio(sigma, s, t, v, targets[0], known)}
        expected = rhs / a[..., 0]
    else:
        got = solve_determinantal_system(sigma, rows, v, targets, known)
        expected = np.linalg.solve(a, rhs[..., None])[..., 0]
    for j, w in enumerate(targets):
        assert got[(w, v)].tobytes() == expected[..., j].tobytes()
        assert np.allclose(got[(w, v)], p.lam[:, w - 1, v - 1], rtol=1e-9, atol=0)


@pytest.mark.parametrize("message, call", [
    ("row ([2], [1]) must have |S| = |T| + 1",
     lambda sig: solve_determinantal_system(sig, [([0, 5], [1]), ([2], [1])], 6, [4, 5])),
    ("need |Y| = |E|, got 2 and 1",
     lambda sig: solve_recovery_system(sig, 3, [2], [], [1, 2], [[9], []])),
], ids=["short-row-and-vertex", "sources-and-parent"])
def test_oracle_checks_lengths_before_vertices(message, call):
    sig = covariance(sample_parameters(JOINT_SYSTEM_GRAPH, seed=0))
    with pytest.raises(ValueError, match=re.escape(message)):
        call(sig)


@pytest.mark.parametrize("vertex, call", [
    (0, lambda sig: subdeterminant(sig, [0], [1])),
    (4, lambda sig: subdeterminant(sig, [1], [4])),
    (0, lambda sig: recover_edge_ratio(sig, [0], [], 3, 2)),
    (0, lambda sig: solve_recovery_system(sig, 3, [2], [], [0], [[]])),
    (4, lambda sig: solve_recovery_system(sig, 3, [2], [], [1], [[4]])),
    (0, lambda sig: solve_recovery_system(sig, 0, [2], [], [1], [[]])),
], ids=["subdet-row", "subdet-col", "ratio-source", "system-source", "system-parent", "system-head"])
def test_oracle_rejects_a_vertex_outside_the_graph(vertex, call):
    sig = covariance(sample_parameters(IV_GRAPH, seed=0))
    with pytest.raises(ValueError, match=rf"vertex {vertex} outside 1\.\.3"):
        call(sig)


def test_solve_recovery_system_iv():
    p = sample_parameters(IV_GRAPH, seed=23)
    sig = covariance(p)
    values = solve_recovery_system(sig, 3, [2], [], [1], [[]])
    assert values[(2, 3)] == pytest.approx(p.lam[1, 2], rel=1e-9)
    assert solve_recovery_system(sig, 3, [], [], [], []) == {}


def test_solve_recovery_system_with_corrections():
    # recover 1 -> 4 on the ratio graph: source 2 needs its parent 1 stripped
    g = HTC_FAIL_GRAPH
    p = sample_parameters(g, seed=29)
    sig = covariance(p)
    known = {(1, 2): p.lam[0, 1]}
    values = solve_recovery_system(sig, 4, [1], [], [2], [[1]], known)
    assert values[(1, 4)] == pytest.approx(p.lam[0, 3], rel=1e-9)


def test_jacobian_against_finite_differences():
    rng = random.Random(37)
    for _ in range(20):
        g = random_mixed_graph(rng, rng.randint(1, 5))
        p = sample_parameters(g, seed=rng.randint(0, 10**6))
        analytic = sigma_jacobian(g, p)
        fd = _finite_difference_jacobian(g, p)
        scale = max(1.0, np.max(np.abs(analytic)))
        assert np.max(np.abs(analytic - fd)) < 1e-6 * scale


def _finite_difference_jacobian(g, p, h=1e-6):
    from semid.oracle import _free_parameters

    coords = _free_parameters(g)
    n = g.n
    tri = [(i, j) for i in range(n) for j in range(i, n)]
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


def test_jacobian_rank_identifiable_vs_not():
    piv = sample_parameters(IV_GRAPH, seed=41)
    assert jacobian_rank(IV_GRAPH, piv) == n_free_parameters(IV_GRAPH) == 6

    pn = sample_parameters(ONE_EDGE_NONID_GRAPH, seed=41)
    assert jacobian_rank(ONE_EDGE_NONID_GRAPH, pn) < n_free_parameters(ONE_EDGE_NONID_GRAPH)


@pytest.mark.xfail(
    strict=True, reason="the float SVD rank counts too few columns at an ill-conditioned sample; an exact rank would not",
)
def test_jacobian_rank_does_not_depend_on_the_seed():
    # A corpus_n5 graph with an uncertified edge: 14 of 14 at seed 0, but 5
    # of 14 at seed 2000006, where det(I - L) = -0.005 (just past the
    # rejection tolerance), cond(sigma) is about 2.3e6 and the largest
    # singular value 3.8e8 sets a cutoff of 3.8.  certify no longer reads
    # the float rank here: it proves full rank mod P at a fixed point
    # (modp.proves_full_rank).  The float function itself is unchanged.
    g = decode_id(GraphId.parse("5:74883:522"))
    assert jacobian_rank(g, sample_parameters(g, 0)) == jacobian_rank(g, sample_parameters(g, 2000006))


def test_alternative_parameters_nonid_edge():
    g = ONE_EDGE_NONID_GRAPH
    p = sample_parameters(g, seed=43)
    sig = covariance(p)
    alt = alternative_parameters(g, p, (2, 3), p.lam[1, 2] + 1.0)
    assert np.max(np.abs(covariance(alt) - sig)) < 1e-9
    assert validate_parameters(g, alt, tol=1e-9) == []
    assert alt.lam[1, 2] == pytest.approx(p.lam[1, 2] + 1.0)

    same = alternative_parameters(g, p, (2, 3), p.lam[1, 2])
    assert np.allclose(same.omega, p.omega)


def test_alternative_parameters_infeasible():
    p = sample_parameters(IV_GRAPH, seed=43)
    with pytest.raises(InfeasibleEdgeError):
        alternative_parameters(IV_GRAPH, p, (2, 3), 0.5)


def test_alternative_parameters_rejects_nan_off_the_support():
    g = MixedGraph(3, [(1, 2)], [(1, 2)])
    p = sample_parameters(g, seed=0)
    with pytest.raises(DegenerateSampleError, match="support outside the graph"):
        alternative_parameters(g, p, (1, 2), float("nan"))


def test_alternative_parameters_rejects_a_nan_error_covariance():
    # Every other vertex is a sibling of the head, so no support is checked.
    g = MixedGraph(2, [(1, 2)], [(1, 2)])
    p = sample_parameters(g, seed=0)
    with pytest.raises(DegenerateSampleError, match="not positive definite"):
        alternative_parameters(g, p, (1, 2), float("nan"))


def test_alternative_parameters_rejects_a_nan_covariance_gap(monkeypatch):
    g = ONE_EDGE_NONID_GRAPH
    p = sample_parameters(g, seed=43)

    def nan_at_the_alternative(q):
        sigma = covariance(q)
        return sigma if q is p else np.full_like(sigma, np.nan)

    monkeypatch.setattr(oracle, "covariance", nan_at_the_alternative)
    with pytest.raises(DegenerateSampleError, match="do not reproduce"):
        alternative_parameters(g, p, (2, 3), p.lam[1, 2] + 1.0)


def test_alternative_parameters_boundary_construction_fails():
    tiny = MixedGraph(2, [(1, 2)], [])
    p = sample_parameters(tiny, seed=0)
    with pytest.raises(DegenerateSampleError):
        alternative_parameters(tiny, p, (1, 2), p.lam[0, 1] + 1.0)


def test_solve_determinantal_system_joint_graph():
    g = JOINT_SYSTEM_GRAPH
    p = sample_parameters(g, seed=47)
    sig = covariance(p)
    values = solve_determinantal_system(sig, [([3, 5], [1]), ([2, 4], [1])], 6, [4, 5])
    assert values[(4, 6)] == pytest.approx(p.lam[3, 5], rel=1e-9)
    assert values[(5, 6)] == pytest.approx(p.lam[4, 5], rel=1e-9)


def test_solve_determinantal_system_k1_matches_ratio():
    p = sample_parameters(HTC_FAIL_GRAPH, seed=53)
    sig = covariance(p)
    joint = solve_determinantal_system(sig, [([1, 2, 4], [1, 3])], 5, [4])
    ratio = recover_edge_ratio(sig, [1, 2, 4], [1, 3], 5, 4)
    assert joint[(4, 5)] == pytest.approx(ratio, rel=1e-12)
    assert solve_determinantal_system(sig, [], 5, []) == {}


def test_recovered_values_are_sample_independent():
    g = JOINT_SYSTEM_GRAPH
    results = []
    for seed in (61, 62):
        p = sample_parameters(g, seed=seed)
        sig = covariance(p)
        vals = solve_determinantal_system(sig, [([3, 5], [1]), ([2, 4], [1])], 6, [4, 5])
        results.append((vals[(4, 6)] / p.lam[3, 5], vals[(5, 6)] / p.lam[4, 5]))
    for r in results:
        assert r == pytest.approx((1.0, 1.0), rel=1e-6)


def test_restricted_covariance_full_sides_match():
    p = sample_parameters(IV_GRAPH, seed=67)
    full = restricted_covariance(p, IV_GRAPH.directed, IV_GRAPH.directed)
    assert np.allclose(full, covariance(p))


def test_numeric_rank_thresholding():
    assert numeric_rank(np.zeros((3, 3))) == 0
    assert numeric_rank(np.diag([1.0, 1e-12, 0.5])) == 2


def test_sampling_rejection_budget_exhausted(monkeypatch):
    cyclic = MixedGraph(2, [(1, 2), (2, 1)], [])
    monkeypatch.setattr(oracle, "REJECTION_TOLERANCE", 1e9)
    monkeypatch.setattr(oracle, "MAX_REJECTIONS", 3)
    with pytest.raises(DegenerateSampleError):
        sample_parameters(cyclic, seed=0)


def test_solve_recovery_system_degenerate():
    sigma = np.ones((3, 3))
    with pytest.raises(DegenerateSampleError) as exc:
        solve_recovery_system(sigma, 3, [1, 2], [], [1, 2], [[], []])
    assert exc.value.slices == [0]


def test_solve_determinantal_system_degenerate():
    p = sample_parameters(JOINT_SYSTEM_GRAPH, seed=71)
    sig = covariance(p)
    rows = [([3, 5], [1]), ([3, 5], [1])]  # identical rows force det 0
    with pytest.raises(DegenerateSampleError):
        solve_determinantal_system(sig, rows, 6, [4, 5])


def test_oracle_functions_accept_a_stack():
    """Each slice of a result on a 3-stack equals the result on that slice alone."""
    g = JOINT_SYSTEM_GRAPH
    sigmas = [covariance(sample_parameters(g, seed)) for seed in (3, 4, 5)]
    stack = np.stack(sigmas)
    known = np.array([0.4, -0.8, 0.6])
    rows = [([3, 5], [1]), ([2, 4], [1])]
    for case in (
        lambda s, k: subdeterminant(s, [1, 2, 3], [4, 6, 5]),
        lambda s, k: subdeterminant(s, [], []),
        lambda s, k: recover_edge_ratio(s, [3, 5], [1], 6, 4, known={(5, 6): k}),
        lambda s, k: solve_determinantal_system(s, rows, 6, [4, 5])[(4, 6)],
        lambda s, k: solve_determinantal_system(s, rows, 6, [4, 5])[(5, 6)],
        lambda s, k: solve_recovery_system(s, 6, [4, 5], [], [2, 3], [[1], [1]],
                                           known={(1, 2): k, (1, 3): -k})[(5, 6)],
    ):
        batched = case(stack, known)
        assert batched.shape == (3,)
        assert list(batched) == [case(s, k) for s, k in zip(sigmas, known)]


def test_stacked_degeneracy_in_one_slice_raises():
    sigma = covariance(sample_parameters(JOINT_SYSTEM_GRAPH, seed=3))
    stack = np.stack([sigma, np.ones_like(sigma), sigma])
    for solve in (
        lambda: solve_determinantal_system(stack, [([3, 5], [1]), ([2, 4], [1])], 6, [4, 5]),
        lambda: recover_edge_ratio(stack, [3, 5], [1], 6, 4),
        lambda: solve_recovery_system(stack, 6, [4, 5], [], [2, 3], [[], []]),
    ):
        with pytest.raises(DegenerateSampleError) as exc:
            solve()
        assert exc.value.slices == [1]
