"""Linear algebra modulo a fixed prime: a covariance point and the TSID star screen.

Most TSID pairs (S, T) for an edge w0 -> v fail the "star" condition: S
links fully to T' and v' once the arcs of w0 -> v and of the solved
siblings' edges into v' are removed.  By trek separation (Sullivant,
Talaska and Draisma 2010) that happens exactly when det star[S, T + v] is
not the zero polynomial, where star = (I - lambda)^-T omega
(I - lambda*)^-1 and lambda* is lambda without those stripped edges.  As v
lies on no directed cycle and T avoids des(v) + {v, w0}, star[:, T] =
sigma[:, T], and star[:, v] is sigma[:, v] minus lambda[w, v] * sigma[:, w]
for each stripped w: one sigma mod P per graph (``field_point``) serves
every edge.

A star minor that is nonzero mod P is not the zero polynomial (Schwartz
1980, Zippel 1979), so its pair fails and is skipped without a sweep.  A
zero minor proves nothing, and the pair is swept.  So the screen removes
only pairs the sweep would reject, and every certificate is the same at
any point; the fixed prime and seed make the same inputs do the same work.
"""

from __future__ import annotations

import itertools
from typing import Iterator

import numpy as np
from numpy.typing import NDArray

from .graph import MixedGraph, _cached

# A prime below 2**31, so a product of two residues fits in int64.
P = 2147483629
# Seed of the point at which field_point evaluates the covariance.
POINT_SEED = 1702
# Pairs whose star minors are tested as one stack, which bounds the screen's
# memory.  On the n=11 graphs of the tests 1024 runs as fast as 4096 with
# about 4 MB less peak RSS.
FILTER_BLOCK = 1024


def field_point(g: MixedGraph) -> tuple[NDArray, NDArray]:
    """Sigma and lambda mod P at the graph's fixed point.

    Each directed edge, bidirected edge and vertex gets one draw in 1..P-1
    from ``POINT_SEED``: the coefficient lambda[u, w] of u -> w, the error
    covariance omega[u, w] = omega[w, u] of u <-> w, and the diagonal of
    omega.  With R = D (I - lambda)^-1 from ``_scaled_inverse``, sigma =
    R^T omega R mod P is the covariance (as in ``oracle.covariance``) at
    (lambda, D omega D).  That point has the support of (lambda, omega), so
    a minor that is nonzero there is still not the zero polynomial.  When
    I - lambda is singular mod P, D is 0 and so is sigma: every minor
    vanishes and proves nothing.  Memoize it with ``graph._cached``.
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
    r = _scaled_inverse(np.eye(n, dtype=np.int64) - lam)
    return _matmul(_matmul(r.T, omega), r), lam


def star_vanishing_pairs(
    g: MixedGraph, v: int, w0: int, solved: list[int], max_set_size: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The TSID search's (S, T) pairs for w0 -> v whose star minor is 0 mod P, in search order.

    The order is by |S| = 1..``max_set_size``, then S and T lexicographic,
    with |T| = |S| - 1 and T outside des(v) + {v, w0}; v must lie on no
    directed cycle, and the edges into v from w0 and ``solved`` are
    stripped.  Each block of at most ``FILTER_BLOCK`` pairs is gathered
    through combination index arrays and tested as one stack; the pairs
    left out fail the sweep for certain.
    """
    t_candidates = [t for t in g.vertices if t not in (v, w0) and t not in g.descendants(v)]
    sigma, lam = _cached(g, field_point)
    star = sigma[:, v - 1]
    for w in [w0, *solved]:
        star = (star - lam[w - 1, v - 1] * sigma[:, w - 1]) % P
    star = np.column_stack([sigma[:, [c - 1 for c in t_candidates]], star])
    m = len(t_candidates)
    for k in range(1, min(max_set_size, m + 1) + 1):
        s_rows = _cached(g, _combinations, g.n, k)
        cols = _cached(g, _combinations, m, k - 1, m)  # T's columns, then the star column
        total = len(s_rows) * len(cols)
        for lo in range(0, total, FILTER_BLOCK):
            s_index, t_index = np.divmod(np.arange(lo, min(lo + FILTER_BLOCK, total)), len(cols))
            vanishing = ~nonzero_minors(star[s_rows[s_index][:, :, None], cols[t_index][:, None, :]])
            for s, t in zip(s_index[vanishing].tolist(), t_index[vanishing].tolist()):
                yield (
                    tuple(x + 1 for x in s_rows[s].tolist()),
                    tuple(t_candidates[x] for x in cols[t, :-1].tolist()),
                )


def _combinations(g: MixedGraph, m: int, k: int, *tail: int) -> NDArray:
    """The k-subsets of range(m) in lexicographic order, one per row, each followed by ``tail``.

    Memoized on g with ``_cached``, so the arrays are freed with it.
    """
    rows = [c + tail for c in itertools.combinations(range(m), k)]
    return np.array(rows, dtype=np.intp).reshape(-1, k + len(tail))


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


def _scaled_inverse(m: NDArray) -> NDArray:
    """D m^-1 mod P for some invertible diagonal D, or the zero matrix when m is singular mod P.

    Fraction-free Gauss-Jordan elimination on [m | I]: rows are swapped only
    when the pivot a of column j is 0, then each row r other than j becomes
    a * r - c * (row j) mod P, c being r's entry in column j.  The left
    block ends diagonal, D, so the right block R satisfies R m = D.  With
    m singular, R = 0 satisfies it with D = 0.
    """
    n = len(m)
    a = np.concatenate([m % P, np.eye(n, dtype=np.int64)], axis=1)
    for j in range(n):
        if not a[j, j]:
            below = np.flatnonzero(a[j + 1:, j])
            if not len(below):
                return np.zeros((n, n), dtype=np.int64)
            a[[j, j + 1 + below[0]]] = a[[j + 1 + below[0], j]]
        pivot = a[j].copy()
        a = (pivot[j] * a - a[:, j, None] * pivot) % P
        a[j] = pivot
    return a[:, n:]


def _matmul(x: NDArray, y: NDArray) -> NDArray:
    """x @ y mod P for residues in 0..P-1, exact in int64.

    y splits into 16-bit halves, y = hi * 2**16 + lo.  A product of a residue
    and a half is below 2**47, so a sum of up to 2**15 of them fits in int64.
    """
    hi, lo = np.divmod(y, 1 << 16)
    return ((x @ hi % P << 16) + x @ lo) % P
