"""Stacked sampling and covariance equal the per-seed calls byte for byte.

``sample_parameters`` and ``covariance`` take a list of seeds or a stack of
parameters; every slice must match what the 2-D call returns for that seed
alone.  A single seed draws from ``seeding.PCG64Stream`` and a long stack
from numpy Generators seeded by the vectorized SeedSequence hash, so the
slice tests compare the two.  The reference implementations below are the
per-seed rejection loop, the per-entry Jacobian row loop, and the Jacobian
from 0/1 basis matrices that the closed-form columns replaced.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from semid import (
    DegenerateSampleError,
    GraphId,
    MixedGraph,
    Parameters,
    covariance,
    decode_id,
    oracle,
    sample_parameters,
    seeding,
)
from semid.identify import _verification_seeds
from semid.oracle import _free_parameters, n_free_parameters, numeric_rank, sigma_jacobian

from conftest import random_mixed_graph
from test_golden import SAMPLE_GRAPHS, SAMPLE_SEEDS


def _seeded_graphs(count: int, n_min: int, n_max: int) -> list[MixedGraph]:
    rng = random.Random(1009)
    return [
        random_mixed_graph(rng, rng.randint(n_min, n_max), acyclic=i % 2 == 0)
        for i in range(count)
    ]


def _shuffled_acyclic(rng: random.Random, n: int) -> MixedGraph:
    """A seeded acyclic graph with relabeled vertices, so lambda is not triangular."""
    g = random_mixed_graph(rng, n, acyclic=True)
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    label = dict(zip(range(1, n + 1), perm))
    return MixedGraph(
        n,
        [(label[u], label[w]) for u, w in g.directed],
        [(label[u], label[w]) for u, w in g.bidirected],
    )


def _rejection_loop_sample(g: MixedGraph, seed: int) -> Parameters:
    """Per-seed sampling that checks det(I - lambda) on every graph."""
    rng = np.random.default_rng(seed)
    n = g.n
    directed = sorted(g.directed)
    tails, heads = [a - 1 for a, _ in directed], [b - 1 for _, b in directed]
    span = oracle.COEFF_MAX - oracle.COEFF_MIN
    lam = np.zeros((n, n))
    for _ in range(oracle.MAX_REJECTIONS):
        u = rng.random(2 * len(tails))
        lam[tails, heads] = np.where(u[1::2] < 0.5, 1.0, -1.0) * (oracle.COEFF_MIN + span * u[0::2])
        if abs(np.linalg.det(np.eye(n) - lam)) > oracle.REJECTION_TOLERANCE:
            break
    else:
        raise DegenerateSampleError(f"no invertible I - lambda (seed {seed})")
    omega = np.zeros((n, n))
    bidirected = sorted(g.bidirected)
    ends_a, ends_b = [a - 1 for a, _ in bidirected], [b - 1 for _, b in bidirected]
    values = rng.uniform(-oracle.OMEGA_OFFDIAG, oracle.OMEGA_OFFDIAG, size=len(ends_a))
    omega[ends_a, ends_b] = values
    omega[ends_b, ends_a] = values
    row_sums = np.sum(np.abs(omega), axis=1)
    pads = rng.uniform(oracle.DIAG_PAD_MIN, oracle.DIAG_PAD_MAX, size=n)
    omega[np.diag_indices(n)] = row_sums + pads
    return Parameters(lam=lam, omega=omega)


def _row_loop_jacobian(g: MixedGraph, p: Parameters) -> np.ndarray:
    """sigma_jacobian with one Python loop over the upper-triangle entries, column by column."""
    n = g.n
    r = np.linalg.inv(np.eye(n) - p.lam)
    sigma = r.T @ p.omega @ r
    tri = [(i, j) for i in range(n) for j in range(i, n)]
    coords = _free_parameters(g)
    jac = np.empty((len(tri), len(coords)))
    for c, (kind, u, w) in enumerate(coords):
        x, y = (r[w - 1], sigma[u - 1]) if kind == "lam" else (r[u - 1], r[w - 1])
        column = [x[i] * y[j] + x[j] * y[i] for i, j in tri]
        if kind == "omega" and u == w:
            column = [value / 2 for value in column]
        jac[:, c] = column
    return jac


def _basis_sandwich_jacobian(g: MixedGraph, p: Parameters) -> np.ndarray:
    """The Jacobian from 0/1 basis matrices, with sigma from ``covariance``.

    With M = I - lambda: d sigma = M^-T E_wu sigma + sigma E_uw M^-1 for
    the edge u -> w, and M^-T (E_uw + E_wu [u != w]) M^-1 for omega[u, w].
    """
    n = g.n
    m_inv = np.linalg.inv(np.eye(n) - p.lam)
    sigma = covariance(p)
    upper = ~np.tri(n, k=-1, dtype=bool)
    columns = []
    for kind, u, w in _free_parameters(g):
        basis = np.zeros((n, n))
        basis[u - 1, w - 1] = 1.0
        if kind == "lam":
            d = m_inv.T @ basis.T @ sigma + sigma @ basis @ m_inv
        else:
            basis[w - 1, u - 1] = 1.0
            d = m_inv.T @ basis @ m_inv
        columns.append(d[upper])
    return np.array(columns).reshape(-1, n * (n + 1) // 2).T


def _assert_slices_match(g: MixedGraph, seeds: list[int]) -> None:
    stack = sample_parameters(g, seeds)
    assert stack.lam.shape == stack.omega.shape == (len(seeds), g.n, g.n)
    sigma = covariance(stack)
    assert sigma.shape == stack.lam.shape
    for i, seed in enumerate(seeds):
        alone = sample_parameters(g, seed)
        assert stack.lam[i].tobytes() == alone.lam.tobytes()
        assert stack.omega[i].tobytes() == alone.omega.tobytes()
        assert sigma[i].tobytes() == covariance(alone).tobytes()


@pytest.mark.parametrize("name", sorted(SAMPLE_GRAPHS))
def test_stack_slices_equal_single_seed_draws(name):
    # SAMPLE_GRAPHS holds the seven fixtures, the cyclic graph whose seed 139
    # takes the rejection loop, and a graph without bidirected edges.
    _assert_slices_match(SAMPLE_GRAPHS[name], SAMPLE_SEEDS + [7919 * i for i in range(1, 20)])


def test_stack_slices_equal_single_seed_draws_on_seeded_graphs():
    graphs = _seeded_graphs(30, 3, 8)
    assert {g.is_acyclic() for g in graphs} == {True, False}
    for g in graphs:
        _assert_slices_match(g, [7919 * i for i in range(12)])


def test_stack_of_one_and_empty_stack():
    g = SAMPLE_GRAPHS["iv"]
    one = sample_parameters(g, [5])
    assert one.lam.shape == (1, 3, 3)
    assert np.array_equal(one.omega[0], sample_parameters(g, 5).omega)
    assert sample_parameters(g, []).lam.shape == (0, 3, 3)


def test_stack_raises_for_first_degenerate_seed(monkeypatch):
    cyclic = MixedGraph(2, [(1, 2), (2, 1)], [])
    monkeypatch.setattr(oracle, "REJECTION_TOLERANCE", 1e9)
    monkeypatch.setattr(oracle, "MAX_REJECTIONS", 3)
    with pytest.raises(DegenerateSampleError, match=r"\(seed 7\)"):
        sample_parameters(cyclic, [7, 8])


def test_stacked_covariance_checks_every_slice():
    g = SAMPLE_GRAPHS["iv"]
    stack = sample_parameters(g, [0, 1, 2])
    lam = stack.lam.copy()
    lam[1] = np.eye(3)  # I - lambda = 0 in slice 1
    with pytest.raises(DegenerateSampleError, match="numerically singular"):
        covariance(Parameters(lam=lam, omega=stack.omega))


def test_acyclic_draws_equal_the_rejection_loop():
    """Skipping det(I - lambda) on acyclic graphs leaves every draw unchanged."""
    rng = random.Random(2027)
    seen_non_triangular = False
    for n in range(2, 21):
        for _ in range(2):
            g = _shuffled_acyclic(rng, n)
            assert g.is_acyclic()
            seeds = [rng.randrange(10**6) for _ in range(4)]
            stack = sample_parameters(g, seeds)
            for i, seed in enumerate(seeds):
                oracle = _rejection_loop_sample(g, seed)
                seen_non_triangular |= bool(np.any(np.tril(oracle.lam, -1)))
                for got in (sample_parameters(g, seed), Parameters(stack.lam[i], stack.omega[i])):
                    assert got.lam.tobytes() == oracle.lam.tobytes()
                    assert got.omega.tobytes() == oracle.omega.tobytes()
    assert seen_non_triangular


def test_cyclic_draws_equal_the_rejection_loop():
    for name in ("rejecting_cyclic", "inconclusive_cyclic"):
        g = SAMPLE_GRAPHS[name]
        for seed in SAMPLE_SEEDS:
            oracle = _rejection_loop_sample(g, seed)
            got = sample_parameters(g, seed)
            assert got.lam.tobytes() == oracle.lam.tobytes()
            assert got.omega.tobytes() == oracle.omega.tobytes()


def test_jacobian_equals_the_row_loop():
    graphs = list(SAMPLE_GRAPHS.values()) + _seeded_graphs(20, 2, 8)
    for k, g in enumerate(graphs):
        p = sample_parameters(g, k)
        assert sigma_jacobian(g, p).tobytes() == _row_loop_jacobian(g, p).tobytes()


# Graphs whose seed-0 point is ill-conditioned enough that the float rank
# drops: 20 of 21 and 5 of 15 columns.
ILL_CONDITIONED_CODES = ["6:873995428:10400", "5:262577:312"]


def test_jacobian_matches_the_basis_sandwich():
    points = [(g, k) for k, g in enumerate(SAMPLE_GRAPHS.values())]
    points += [(g, seed) for g in _seeded_graphs(60, 3, 12) for seed in (0, 7919)]
    ill = [decode_id(GraphId.parse(code)) for code in ILL_CONDITIONED_CODES]
    points += [(g, seed) for g in ill for seed in range(4)]
    assert [numeric_rank(sigma_jacobian(g, sample_parameters(g, 0))) for g in ill] == [20, 5]
    for g, seed in points:
        p = sample_parameters(g, seed)
        got, reference = sigma_jacobian(g, p), _basis_sandwich_jacobian(g, p)
        assert got.shape == reference.shape == (g.n * (g.n + 1) // 2, n_free_parameters(g))
        assert np.max(np.abs(got - reference)) <= 1e-12 * np.max(np.abs(reference))
        assert numeric_rank(got) == numeric_rank(reference)


# Seeds at the 32-bit word boundaries of SeedSequence's entropy; 2**128 has
# five words and takes default_rng.
WORD_BOUNDARY_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96 + 5, 2**128]


def test_seed_words_equal_seed_sequence():
    seeds = WORD_BOUNDARY_SEEDS[:-1] + [2**128 - 1] + _verification_seeds(0, 100)
    words = seeding.seed_words(seeds)
    assert words.shape == (len(seeds), 4) and words.dtype == np.uint64
    for s, w in zip(seeds, words):
        assert w.tobytes() == np.random.SeedSequence(s).generate_state(4, np.uint64).tobytes()


@pytest.mark.parametrize("name", ["htc_fail", "rejecting_cyclic"])
def test_vectorized_seeding_equals_single_seed_draws(monkeypatch, name):
    g = SAMPLE_GRAPHS[name]
    hashed = []
    original = seeding.seed_words
    monkeypatch.setattr(seeding, "seed_words", lambda seeds: hashed.append(len(seeds)) or original(seeds))
    in_range = WORD_BOUNDARY_SEEDS[:-1] + _verification_seeds(0, 100) + [139]
    for seeds, numpy_generator in ((in_range, True), (WORD_BOUNDARY_SEEDS, True),
                                   (in_range[:seeding.VECTOR_SEEDING_MIN - 1], False),
                                   (in_range[:seeding.VECTOR_SEEDING_MIN], True)):
        hashed.clear()
        _assert_slices_match(g, seeds)
        # Seeds below 2**128 are hashed by seed_words, the stack in one call
        # and every seed alone in its own; a stack with a larger seed is not.
        hashable = [s for s in seeds if s < 2**128]
        assert hashed == [len(seeds)] * (hashable == seeds) + [1] * len(hashable)
        assert isinstance(next(seeding.generators(seeds)), np.random.Generator) == numpy_generator
    stack = sample_parameters(g, np.array(in_range[7:-1], dtype=np.uint64))
    assert stack.lam.tobytes() == sample_parameters(g, in_range[7:-1]).lam.tobytes()


def test_pcg64_stream_equals_numpy():
    # Raw outputs, and doubles filled in two pieces as the cyclic rejection
    # loop fills a row, at the word-boundary seeds and the verification seeds.
    for seed in WORD_BOUNDARY_SEEDS[:-1] + [2**128 - 1] + _verification_seeds(0, 20):
        stream, rng = seeding.PCG64Stream(seeding.seed_words([seed])[0].tolist()), np.random.default_rng(seed)
        assert stream.random_raw(40) == rng.bit_generator.random_raw(40).tolist()
        got, want = np.empty(57), np.empty(57)
        for piece in (slice(0, 14), slice(14, None)):
            stream.random(got[piece])
            rng.random(out=want[piece])
        assert got.tobytes() == want.tobytes()


def test_vectorized_seeding_falls_back_for_seeds_default_rng_rejects():
    g = SAMPLE_GRAPHS["iv"]
    with pytest.raises(ValueError, match="got -1$"):
        sample_parameters(g, list(range(20)) + [-1])
    with pytest.raises(ValueError, match="got 1.5$"):
        sample_parameters(g, list(range(20)) + [1.5])
