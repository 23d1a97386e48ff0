"""Linear algebra modulo a fixed prime: a covariance point and batched minor tests.

The TSID search uses this module to reject source/target pairs before any
flow runs (see ``identify``).  A minor that is nonzero mod P at some point
is not the zero polynomial, so its submatrix has full generic rank; a
minor that is zero at the point proves nothing.  The prime and the point's
seed are fixed, so the same inputs always do the same work.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .graph import MixedGraph

# A prime below 2**31, so a product of two residues fits in int64.
P = 2147483629
# Seed of the point at which field_point evaluates the covariance.
POINT_SEED = 1702


def field_point(g: MixedGraph) -> tuple[NDArray, NDArray] | None:
    """Sigma and lambda mod P at the graph's fixed point, or None if I - lambda is singular mod P.

    Each directed edge, bidirected edge and vertex gets one draw in 1..P-1
    from ``POINT_SEED``: the coefficient lambda[u, w] of u -> w, the error
    covariance omega[u, w] = omega[w, u] of u <-> w, and the diagonal of
    omega.  Then sigma = (I - lambda)^-T omega (I - lambda)^-1 mod P, as in
    ``oracle.covariance``.  Memoize it with ``graph._cached``.
    """
    n = g.n
    directed, bidirected = sorted(g.directed), sorted(g.bidirected)
    draws = iter(np.random.default_rng(POINT_SEED).integers(1, P, len(directed) + len(bidirected) + n).tolist())
    lam = np.zeros((n, n), dtype=np.int64)
    omega = np.zeros((n, n), dtype=np.int64)
    for u, w in directed:
        lam[u - 1, w - 1] = next(draws)
    for u, w in bidirected:
        omega[u - 1, w - 1] = omega[w - 1, u - 1] = next(draws)
    for x in range(n):
        omega[x, x] = next(draws)
    inverse = _inverse(np.eye(n, dtype=np.int64) - lam)
    if inverse is None:
        return None
    return _matmul(_matmul(inverse.T, omega), inverse), lam


def star_matrix(point: tuple[NDArray, NDArray], v: int, stripped: list[int], columns: list[int]) -> NDArray:
    """The given columns of sigma, then the star column of v, mod P.

    ``point`` is ``field_point(g)``.  The star column is sigma[:, v] minus
    lambda[w, v] * sigma[:, w] for each w in ``stripped``.
    """
    sigma, lam = point
    star = sigma[:, v - 1]
    for w in stripped:
        star = (star - lam[w - 1, v - 1] * sigma[:, w - 1]) % P
    return np.column_stack([sigma[:, [c - 1 for c in columns]], star])


def nonzero_minors(m: NDArray) -> NDArray:
    """Whether each matrix of the stack ``m``, shape (b, k, k) with entries in 0..P-1, is invertible mod P.

    Fraction-free Gaussian elimination, overwriting ``m``: a row swap brings
    a nonzero entry a of column j to row j, then each row r below it becomes
    a * r - c * (row j) mod P, where c is r's entry in column j.  A step
    scales the determinant by a power of a, which is nonzero mod P, so no
    modular inverse is needed and every product of two residues fits in int64.
    """
    b, k, _ = m.shape
    invertible = np.ones(b, dtype=bool)
    for j in range(k):
        column = m[:, j:, j] != 0
        invertible &= column.any(axis=1)
        if j + 1 == k:
            break
        below = column.argmax(axis=1)  # how far below row j the first nonzero entry lies
        if below.any():
            swapped = np.flatnonzero(below)
            pivot_rows = j + below[swapped]
            top = m[swapped, pivot_rows]
            m[swapped, pivot_rows] = m[swapped, j]
            m[swapped, j] = top
        m[:, j + 1:, j + 1:] = (
            m[:, j, j, None, None] * m[:, j + 1:, j + 1:] - m[:, j + 1:, j, None] * m[:, j, None, j + 1:]
        ) % P
    return invertible


def _inverse(m: NDArray) -> NDArray | None:
    """m^-1 mod P by Gauss-Jordan elimination, or None when m is singular mod P."""
    n = len(m)
    a = np.concatenate([m % P, np.eye(n, dtype=np.int64)], axis=1)
    for j in range(n):
        nonzero = np.flatnonzero(a[j:, j])
        if not len(nonzero):
            return None
        i = j + nonzero[0]
        a[[j, i]] = a[[i, j]]
        a[j] = a[j] * pow(int(a[j, j]), P - 2, P) % P
        factors = a[:, j].copy()
        factors[j] = 0
        a = (a - factors[:, None] * a[j]) % P
    return a[:, n:]


def _matmul(x: NDArray, y: NDArray) -> NDArray:
    """x @ y mod P, summed in Python integers, which cannot overflow."""
    return (x.astype(object) @ y.astype(object) % P).astype(np.int64)
