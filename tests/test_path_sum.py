"""The acyclic covariance kernel against the two-solve formula it replaced.

On an acyclic support of lambda, ``covariance`` forms (I - lambda)^-1 as the
finite path sum (I + lambda)(I + lambda^2)(I + lambda^4)...  The reference
below is the two batched linear solves that every support used before, and
that cyclic supports still use byte for byte.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from semid import Parameters, covariance, oracle, sample_parameters

from test_golden import SAMPLE_GRAPHS, SAMPLE_SEEDS
from test_stacked_sampling import _seeded_graphs, _shuffled_acyclic


def _two_solve_covariance(p: Parameters) -> np.ndarray:
    """(I - lambda)^-T omega (I - lambda)^-1 by two solves, then symmetrized."""
    m_t = np.swapaxes(np.eye(p.n) - p.lam, -1, -2)
    half = np.linalg.solve(m_t, p.omega)
    sigma = np.swapaxes(np.linalg.solve(m_t, np.swapaxes(half, -1, -2)), -1, -2)
    out = sigma + np.swapaxes(sigma, -1, -2)
    out /= 2
    return out


def _graphs(acyclic: bool) -> list:
    graphs = [g for g in SAMPLE_GRAPHS.values() if g.is_acyclic() == acyclic]
    graphs += [g for g in _seeded_graphs(40, 2, 20) if g.is_acyclic() == acyclic]
    if acyclic:
        rng = random.Random(77)
        graphs += [_shuffled_acyclic(rng, n) for n in range(2, 21)]
    return graphs


def _points(graphs: list) -> list[Parameters]:
    """One single point and one stack per graph."""
    points = []
    for g in graphs:
        points.append(sample_parameters(g, 5))
        points.append(sample_parameters(g, SAMPLE_SEEDS))
    return points


ACYCLIC = _graphs(acyclic=True)
CYCLIC = _graphs(acyclic=False)


def test_both_kinds_of_graph_are_covered():
    assert len(ACYCLIC) > 30 and len(CYCLIC) > 15
    assert all(g.is_acyclic() for g in ACYCLIC)
    assert not any(g.is_acyclic() for g in CYCLIC)
    # Some shuffled graphs have a lambda that is not upper triangular.
    assert any(np.tril(sample_parameters(g, 0).lam).any() for g in ACYCLIC)


def test_path_sum_matches_the_two_solves_on_acyclic_graphs():
    for p in _points(ACYCLIC):
        expected = _two_solve_covariance(p)
        got = covariance(p)
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
        assert oracle._covariance_solve(p).tobytes() == got.tobytes()


def test_cyclic_graphs_keep_the_two_solves_byte_for_byte():
    for p in _points(CYCLIC):
        expected = _two_solve_covariance(p).tobytes()
        assert covariance(p).tobytes() == expected
        assert oracle._covariance_solve(p).tobytes() == expected


def test_acyclic_covariance_runs_no_solve_or_det(monkeypatch):
    points = _points(ACYCLIC)

    def forbidden(*args, **kwargs):
        raise AssertionError("LU routine called on an acyclic support")

    monkeypatch.setattr(np.linalg, "solve", forbidden)
    monkeypatch.setattr(np.linalg, "det", forbidden)
    for p in points:
        covariance(p)
        oracle._covariance_solve(p)


@pytest.mark.parametrize("lam", [
    [[0.5, 0.4, 0.0], [0.0, 0.0, 0.3], [0.0, 0.0, 0.0]],  # self-loop at 1
    [[0.0, 0.5, 0.0], [0.4, 0.0, 0.3], [0.0, 0.0, 0.0]],  # 1 -> 2 -> 1
    # lambda^3 = 0 although 1 -> 2 -> 1 is a cycle: the support decides.
    [[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
], ids=["self_loop", "two_cycle", "nilpotent_cycle"])
def test_cyclic_supports_take_the_lu_branch(monkeypatch, lam):
    p = Parameters(lam=np.array(lam), omega=np.diag([1.0, 2.0, 3.0]))
    assert oracle._path_sum_inverse(p.lam) is None
    expected = _two_solve_covariance(p).tobytes()
    solves = []
    solve = np.linalg.solve

    def counting_solve(*args):
        solves.append(1)
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    assert covariance(p).tobytes() == expected
    assert len(solves) == 2


def test_stack_uses_the_union_of_the_supports():
    # Neither slice alone is cyclic; together they hold the cycle 1 -> 2 -> 1.
    lam = np.zeros((2, 3, 3))
    lam[0, 0, 1] = 0.5
    lam[1, 1, 0] = 0.4
    assert oracle._path_sum_inverse(lam[0]) is not None
    assert oracle._path_sum_inverse(lam) is None
    p = Parameters(lam=lam, omega=np.broadcast_to(np.eye(3), lam.shape))
    assert covariance(p).tobytes() == _two_solve_covariance(p).tobytes()


@pytest.mark.parametrize("shape", [(3, 3), (2, 3, 3)])
def test_nan_on_an_acyclic_support_returns(shape):
    # NaN * 0 = NaN, so no power of lambda vanishes; the bounded loop gives up.
    lam = np.zeros(shape)
    lam[..., 0, 1] = np.nan
    lam[..., 1, 2] = 0.5
    p = Parameters(lam=lam, omega=np.broadcast_to(np.eye(3), shape))
    assert oracle._path_sum_inverse(lam) is None
    with np.errstate(invalid="ignore"):
        sigma = oracle._covariance_solve(p)
    assert sigma.shape == shape and np.isnan(sigma).all()
