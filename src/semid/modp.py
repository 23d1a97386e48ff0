"""Linear algebra modulo a fixed prime: a covariance point, the TSID star screen and a full-rank proof.

Most TSID pairs (S, T) for an edge w0 -> v fail the "star" condition: S
links fully to T' and v' once the arcs of w0 -> v and of the solved
siblings' edges into v' are removed.  By trek separation (Sullivant,
Talaska and Draisma 2010) that happens exactly when det star[S, T + v] is
not the zero polynomial, where star = (I - lambda)^-T omega
(I - lambda*)^-1 and lambda* is lambda without those stripped edges.  As v
lies on no directed cycle and T avoids des(v) + {v, w0}, star[:, T] =
sigma[:, T], and star[:, v] is sigma[:, v] minus lambda[w, v] * sigma[:, w]
for each stripped w: one sigma mod P per graph (``field_point``) serves
every edge.  Each search builds its minors level by level, each k-minor
from k of the (k - 1)-minors below it (``_minor_levels``).

A star minor that is nonzero mod P is not the zero polynomial (Schwartz
1980, Zippel 1979), so its pair fails and is skipped without a sweep.  A
zero minor proves nothing, and the pair is swept.  So the screen removes
only pairs the sweep would reject, and every certificate is the same at
any point; the fixed prime and seed make the same inputs do the same work.
The same point proves, by one nonzero determinant, that the
parameterization's Jacobian has full rank (``proves_full_rank``).  The
point and the proof run the same fraction-free elimination, ``_reduce``.
"""

from __future__ import annotations

import itertools
from typing import Iterator

import numpy as np
from numpy.typing import NDArray

from .graph import DirectedEdge, MixedGraph, _cached, _reach_masks
from .oracle import _sampling_layout
from .seeding import raw_words, seed_words

# A prime below 2**31, so a product of two residues fits in int64.
P = 2147483629
# Seed of the point at which field_point evaluates the covariance, and its
# PCG64 seed words as a one-row seed_words array.
POINT_SEED = 1702
_POINT_WORDS = seed_words([POINT_SEED])
# Entries of a level table that the star screen computes as one chunk of
# rows, which bounds its temporaries.  On the n=12 and n=13 scaling graphs
# (README) 4096 runs as fast as 16384 with 1-3 MB less peak RSS, and about
# 20% faster than 1024.
FILTER_BLOCK = 4096


def field_point(g: MixedGraph) -> tuple[NDArray, NDArray]:
    """Sigma and lambda mod P at the graph's fixed point.

    Each directed edge, bidirected edge and vertex gets one value in
    1..P-1 from ``POINT_SEED``: x % (P - 1) + 1 for x the raw 64-bit outputs
    of ``np.random.default_rng(POINT_SEED).bit_generator``, drawn by
    ``seeding.raw_words`` as every sample is, in the order of
    ``oracle._sampling_layout``: the coefficient lambda[u, w] of u -> w, the
    error covariance omega[u, w] = omega[w, u] of u <-> w, and the diagonal
    of omega.  With R = D (I - lambda)^-1 from ``_reduce`` on
    [I - lambda | I], sigma = R^T omega R mod P is the covariance (as in
    ``oracle.covariance``) at (lambda, D omega D).  That point has the
    support of (lambda, omega), so a minor that is nonzero there is still
    not the zero polynomial.  When I - lambda is singular mod P, sigma is 0:
    every minor vanishes and proves nothing.  Memoize it with ``graph._cached``.
    """
    n = g.n
    tails, heads, ends_a, ends_b, _ = _cached(g, _sampling_layout)
    e, b = len(tails), len(ends_a)
    draws = [x % (P - 1) + 1 for x in raw_words(_POINT_WORDS, 0, e + b + n)[0].tolist()]
    lam = np.zeros((n, n), dtype=np.int64)
    omega = np.zeros((n, n), dtype=np.int64)
    lam[tails, heads] = draws[:e]
    omega[ends_a, ends_b] = omega[ends_b, ends_a] = draws[e:e + b]
    omega.flat[::n + 1] = draws[e + b:]
    eye = np.eye(n, dtype=np.int64)
    r = _reduce(np.concatenate([(eye - lam) % P, eye], axis=1), n)
    if r is None:
        return np.zeros((n, n), dtype=np.int64), lam
    return _matmul(_matmul(r.T, omega), r), lam


def proves_full_rank(g: MixedGraph, uncertified: list[DirectedEdge]) -> bool:
    """Whether B_U below has full column rank mod P, which proves the Jacobian generically full rank.

    ``uncertified`` lists the directed edges u -> w no certificate recovers.
    With M = I - lambda and A = M^T sigma, the Jacobian J of (lambda, omega)
    -> sigma satisfies dsigma = M^-T (A dlambda + (A dlambda)^T + domega)
    M^-1.  Congruence by M^-1 is invertible, and each omega coordinate (a
    diagonal entry or a bidirected pair) is a unit vector on its own entry,
    so rank J = |omega| + rank B.  B has one row per non-adjacent pair
    i < j (no i <-> j) and one column per directed edge u -> w, with entry
    A[i, u] [w = j] + A[j, u] [w = i] (Foygel, Draisma and Drton 2012).  A
    certified coefficient is a rational function of sigma, so its unit row
    lies in the row space of J and its column is independent of all the
    others: generic rank J = |omega| + |certified| + rank B_U, B_U being
    B's uncertified columns.  So J is generically full rank exactly when
    B_U is.

    Column u -> w of B is A[x, u] on the pair {x, w}, for each x open to w.
    So G = B_U^T B_U needs no B: for columns c = (t, h) and d = (t', h'),
    G[c, d] is sum over x open to h of A[x, t] A[x, t'] when h = h', and
    A[h', t] A[h, t'] when the pair {h, h'} is open.  G, taken mod P at
    ``field_point``, is reduced by ``_reduce``.  A full rank makes
    some |U|-minor of B_U nonzero mod P (Cauchy-Binet), so that minor is not
    the zero polynomial (Schwartz 1980, Zippel 1979).  A deficient rank mod
    P proves nothing, and returns False: so does a graph with fewer open
    pairs than uncertified edges, or with I - lambda singular mod P
    (sigma = 0).
    """
    sigma, lam = _cached(g, field_point)
    a = (sigma - _matmul(lam.T, sigma)) % P
    closed = np.eye(g.n, dtype=bool)
    for u, w in g.bidirected:
        closed[u - 1, w - 1] = closed[w - 1, u - 1] = True
    tails, heads = np.array(uncertified, dtype=np.intp).reshape(-1, 2).T - 1
    at_tails = a[:, tails]  # column c of B_U, spread over the pairs {x, heads[c]}
    q = at_tails[heads]  # q[c, d] = A[heads[c], tails[d]]
    same_head = _matmul((at_tails * ~closed[:, heads]).T, at_tails) * (heads[:, None] == heads)
    across = q.T * q % P * ~closed[heads[:, None], heads]
    return _reduce((same_head + across) % P, len(uncertified)) is not None


def star_vanishing_pairs(
    g: MixedGraph, v: int, w0: int, solved: list[int], max_set_size: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The TSID search's (S, T) pairs for w0 -> v whose star minor is 0 mod P, in search order.

    The order is by |S| = 1..``max_set_size``, then S and T lexicographic,
    with |T| = |S| - 1 and T outside des(v) + {v, w0}; v must lie on no
    directed cycle, and the edges into v from w0 and ``solved`` are
    stripped.  The minors come from ``_minor_levels`` of
    [sigma[:, T candidates] | star], so a search that accepts a pair builds
    no level after it.  The pairs left out fail the sweep for certain.
    """
    des_v = _cached(g, _reach_masks).des[v]
    t_candidates = [t for t in g.vertices if t not in (v, w0) and not des_v >> t & 1]
    sigma, lam = _cached(g, field_point)
    a = sigma[:, [c - 1 for c in t_candidates] + [v - 1]]
    for w in [w0, *solved]:
        a[:, -1] = (a[:, -1] - lam[w - 1, v - 1] * sigma[:, w - 1]) % P  # the star column
    m = len(t_candidates)
    for s_sets, t_sets, block in _minor_levels(g, a, min(max_set_size, m + 1)):
        for s, t in zip(*np.nonzero(block[:, -len(t_sets):] == 0)):
            yield tuple(x + 1 for x in s_sets[s].tolist()), tuple(t_candidates[x] for x in t_sets[t])


def _minor_levels(g: MixedGraph, a: NDArray, top: int) -> Iterator[tuple[NDArray, list[tuple[int, ...]], NDArray]]:
    """The k-minors of ``a`` mod P that end in its last column, or that level k + 1 needs, for k = 1..``top``.

    Yields (rows, ts, block), level by level in chunks of rows of at most
    about ``FILTER_BLOCK`` entries.  Row i of ``block`` is the k-subset
    R = rows[i] of a's rows.  Its columns are det a[R, C] for C each k-subset
    of a's other columns in lexicographic order (only for k < ``top``), then
    for C = T + (last,), T each (k - 1)-subset of those columns in ``ts``,
    which is in lexicographic order too.  The chunks of a level run through
    the k-subsets in lexicographic order.

    Each minor is expanded along its last column c, from the level below:
    det a[R, C] = sum over i of (-1)^(i + k - 1) a[r_i, c] det a[R - r_i, C - c].
    Each product of two residues is reduced mod P before the k terms are
    summed, so int64 holds the sum.  Only the minors without the last
    column are kept for the next level, as int32 since P < 2**31.
    """
    # Level 1: the 1-minors are the entries of a.
    yield _cached(g, _subsets, 1)[0], [()], a if top > 1 else a[:, -1:]
    minors = a[:, :-1]
    for rows, row_drops, sign, last, drop, kept_count, ts in _cached(g, _level_plan, a.shape[1] - 1, top):
        kept = np.empty((len(rows), kept_count), dtype=np.int32)
        a_last = a[:, last]
        step = max(1, FILTER_BLOCK // len(last))
        for lo in range(0, len(rows), step):
            terms = a_last[rows[lo:lo + step]]
            terms *= minors[row_drops[lo:lo + step]].take(drop, axis=2)
            terms %= P
            block = sign @ terms % P
            kept[lo:lo + step] = block[:, :kept_count]
            yield rows[lo:lo + step], ts, block
        minors = kept


def _level_plan(g: MixedGraph, m: int, top: int) -> list[tuple]:
    """What ``_minor_levels`` needs at each level k = 2..top, for g.n rows and m + 1 columns.

    Per level: the k-subsets of the rows and their deletion ranks
    (``_subsets``), the signs (-1)^(i + k - 1), then for each column of the
    level its last column and the rank of its other columns among the kept
    columns of level k - 1, the number of kept columns, and the kept
    columns T of level k - 1 as tuples.  Memoized on g with ``_cached``.
    """
    plan, ts = [], [(x,) for x in range(m)]
    for k in range(2, top + 1):
        # In lexicographic order the k-subsets run by their first k - 1
        # elements, then by the last one.
        kept = [(j, x) for j, t in enumerate(ts) for x in range(t[-1] + 1, m)] if k < top else []
        last = np.array([x for _, x in kept] + [m] * len(ts), dtype=np.intp)
        drop = np.array([j for j, _ in kept] + list(range(len(ts))), dtype=np.intp)
        sign = np.array([(-1) ** (i + k - 1) for i in range(k)])
        plan.append((*_cached(g, _subsets, k), sign, last, drop, len(kept), ts))
        ts = [ts[j] + (x,) for j, x in kept]
    return plan


def _subsets(g: MixedGraph, k: int) -> tuple[NDArray, NDArray]:
    """The k-subsets of range(g.n) in lexicographic order, one per row, and the rank of each one-element deletion.

    Entry [j, i] of the second array is the rank, among the (k - 1)-subsets
    in lexicographic order, of subset j without its i-th element.
    Memoized on g with ``_cached``, so the arrays are freed with it.
    """
    rank = {c: r for r, c in enumerate(itertools.combinations(range(g.n), k - 1))}
    subsets = list(itertools.combinations(range(g.n), k))
    # combinations(c, k - 1) drops the last element first.
    drops = [rank[d] for c in subsets for d in itertools.combinations(c, k - 1)]
    shape = (len(subsets), k)
    return (
        np.fromiter(itertools.chain.from_iterable(subsets), np.intp, len(subsets) * k).reshape(shape),
        np.array(drops, dtype=np.intp).reshape(shape)[:, ::-1],
    )


def _reduce(a: NDArray, k: int) -> NDArray | None:
    """Fraction-free Gauss-Jordan on the first k columns of ``a``, in place: columns k.., or None without a pivot.

    ``a`` holds residues mod P in int64.  Rows are swapped only when the
    pivot p of column j is 0; then each row r other than j becomes
    p * r - c * (row j) mod P, c being r's entry in column j, which clears
    column j off the pivot.  Scaling a row by a nonzero residue keeps the
    rank, so the first k columns have full rank exactly when every column
    finds a pivot.  On [m | I] the left block ends diagonal, D, so the right
    block R satisfies R m = D (``field_point``).  With no columns past k,
    step j writes only the block below and right of its pivot, the one part
    a later step reads: forward elimination, about k^3 / 3 products on a
    k x k matrix against k^3 / 2 (``proves_full_rank``).
    """
    wide = a.shape[1] > k
    for j in range(k):
        if not a[j, j]:
            below = np.flatnonzero(a[j + 1:, j])
            if not len(below):
                return None
            a[[j, j + 1 + below[0]]] = a[[j + 1 + below[0], j]]
        top = 0 if wide else j + 1
        block, pivot = a[top:, top:], a[j, top:]
        update = (a[j, j] * block - a[top:, j, None] * pivot) % P
        if wide:
            update[j] = pivot
        block[...] = update
    return a[:, k:]


def _matmul(x: NDArray, y: NDArray) -> NDArray:
    """x @ y mod P for residues in 0..P-1, exact in int64.

    y splits into 16-bit halves, y = hi * 2**16 + lo.  A product of a residue
    and a half is below 2**47, so a sum of up to 2**15 of them fits in int64:
    a longer contraction is summed in blocks of 2**15, each reduced mod P.
    """
    if x.shape[1] > 1 << 15:
        return sum(_matmul(x[:, k:k + (1 << 15)], y[k:k + (1 << 15)]) for k in range(0, x.shape[1], 1 << 15)) % P
    hi, lo = np.divmod(y, 1 << 16)
    return ((x @ hi % P << 16) + x @ lo) % P
