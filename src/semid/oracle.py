"""Numeric oracle: parameter sampling, covariances, treks, and recovery formulas.

Everything here works at a generic parameter point: coefficients are sampled
away from zero, identities that hold as rational functions are checked in
64-bit floating point, and tolerance-triggered degeneracies are reported via
DegenerateSampleError so callers can resample.  All operations are pure
functions of (graph, parameters, seed); there is no global RNG state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np
from numpy.typing import NDArray

from .graph import DirectedEdge, MixedGraph, Trek, _cached, infinite_to_one_record
from .seeding import raw_words, seed_words

# Singular values below RANK_RTOL times the largest one count as zero.
RANK_RTOL = 1e-8
# Recovery system determinants below this are treated as non-generic.
DEGENERACY_TOL = 1e-10
# covariance rejects an I - lambda whose |det| is at most this.
SINGULAR_TOL = 1e-12
# alternative_parameters' bound on off-support error covariance (relative to
# its largest entry) and on the change in the covariance.
ALTERNATIVE_TOL = 1e-9

# The ranges and rejection budget of sample_parameters, read at call time.
COEFF_MIN = 0.3
COEFF_MAX = 1.0
OMEGA_OFFDIAG = 0.5
DIAG_PAD_MIN = 0.5
DIAG_PAD_MAX = 1.5
REJECTION_TOLERANCE = 1e-3
MAX_REJECTIONS = 100


class DegenerateSampleError(RuntimeError):
    """A determinant fell below tolerance at the sampled point, or a sampled point failed a check.

    A degenerate recovery reports ``system determinant <value> below
    tolerance`` whatever its certificate's method, and ``slices`` lists the
    stack indices whose determinant is at or below tolerance ([0] for a
    single matrix); every other error has ``slices`` None.
    """

    def __init__(self, message: str, slices: list[int] | None = None):
        super().__init__(message)
        self.slices = slices


class InfeasibleEdgeError(ValueError):
    """The hypothesis of the infinite-to-one construction does not hold."""


@dataclass(frozen=True)
class Parameters:
    """Edge coefficients and error covariance matching a graph's supports.

    ``lam[v-1, w-1]`` is the coefficient of edge v -> w; ``omega`` is
    symmetric positive definite with off-diagonal support on the bidirected
    edges.  Both may be stacks of shape (..., n, n), one point per slice.
    """

    lam: NDArray
    omega: NDArray

    @property
    def n(self) -> int:
        return self.lam.shape[-1]


def _check_seed(value: object, name: str, bound: int) -> None:
    """Raise ValueError, naming ``name`` and ``value``, unless it is a Python or numpy integer >= bound (a bool counts)."""
    if not isinstance(value, (int, np.integer)) or value < bound:
        raise ValueError(f"{name} must be an integer >= {bound}, got {value!r}")


def _sampling_layout(g: MixedGraph) -> tuple[NDArray, NDArray, NDArray, NDArray, bool]:
    """Zero-based sorted directed and bidirected endpoint arrays, and acyclicity."""
    e = len(g.directed)
    ends = np.array(sorted(g.directed) + sorted(g.bidirected), dtype=np.intp).reshape(-1, 2) - 1
    return ends[:e, 0], ends[:e, 1], ends[e:, 0], ends[e:, 1], g.is_acyclic()


def _unit_doubles(words: NDArray) -> NDArray:
    """The doubles in [0, 1) that ``Generator.random`` makes of these 64-bit words, one each."""
    return (words >> 11) * 2.0**-53


def sample_parameters(g: MixedGraph, seed: int | Sequence[int]) -> Parameters:
    """Draw a generic parameter point for the graph, deterministically in seed.

    Edge coefficients have magnitude in [COEFF_MIN, COEFF_MAX] with random
    sign; bidirected error covariances lie in [-OMEGA_OFFDIAG, OMEGA_OFFDIAG],
    and each diagonal entry is its row's absolute sum plus a pad in
    [DIAG_PAD_MIN, DIAG_PAD_MAX], so omega is strictly diagonally dominant.
    When the directed part is cyclic, up to MAX_REJECTIONS coefficient draws
    are made until |det(I - lambda)| exceeds REJECTION_TOLERANCE.  On an
    acyclic graph det(I - lambda) = 1 identically, so no draw is ever
    rejected and the check is skipped.

    ``seed`` may also be a sequence of seeds; ``lam`` and ``omega`` then have
    shape (seeds, n, n), and slice i is the point drawn for seeds[i] alone.
    Every seed reads the raw PCG64 words of ``np.random.default_rng(seed)``
    (``seeding.raw_words``), one per value, made doubles as
    ``Generator.random`` makes them (``_unit_doubles``).  Every list of
    seeds, a single seed included, derives all its seed words in one
    vectorized ``SeedSequence`` pass (``seeding.seed_words``).  On a cyclic
    graph the draws run in rounds, each one ``raw_words`` call and one
    stacked determinant for the seeds still rejected.

    Raises:
        DegenerateSampleError: the rejection budget ran out (for the first
            such seed of a sequence).
        ValueError: a seed is not an integer >= 0 (the first such entry of
            a sequence).
    """
    tails, heads, ends_a, ends_b, acyclic = _cached(g, _sampling_layout)
    stacked = isinstance(seed, Iterable) and not isinstance(seed, str)
    seeds = list(seed) if stacked else [seed]
    for s in seeds:
        _check_seed(s, "seed", 0)
    n = g.n
    span = COEFF_MAX - COEFF_MIN
    n_coef, n_off = 2 * len(tails), len(ends_a)

    def coefficients(u: NDArray) -> NDArray:
        # Per edge, in sorted order: one draw for the magnitude, one for the sign.
        return np.where(u[..., 1::2] < 0.5, 1.0, -1.0) * (COEFF_MIN + span * u[..., 0::2])

    def uniform(low: float, high: float, u: NDArray) -> NDArray:
        # The bytes of Generator.uniform(low, high), which draws u the same way.
        return low + (high - low) * u

    # Row i holds seed i's words in draw order: the coefficient draws, one
    # draw per bidirected edge, one pad per vertex.
    seeded = seed_words(seeds)
    width = n_coef + n_off + n
    if acyclic:
        words = raw_words(seeded, 0, width)
    else:
        # Round r draws a whole row again for every seed still rejected,
        # whose stream then stands at word r * n_coef; it tests lambda from
        # the first n_coef words, and a kept seed keeps the row.
        words = np.empty((len(seeds), width), dtype=np.uint64)
        pending = np.arange(len(seeds))
        for attempt in range(MAX_REJECTIONS):
            drawn = raw_words(seeded[pending], attempt * n_coef, width)
            trial = np.tile(np.eye(n), (len(pending), 1, 1))  # I - lambda of this attempt
            trial[:, tails, heads] = -coefficients(_unit_doubles(drawn[:, :n_coef]))
            kept = np.abs(np.linalg.det(trial)) > REJECTION_TOLERANCE
            words[pending[kept]] = drawn[kept]
            pending = pending[~kept]
            if not pending.size:
                break
        else:
            raise DegenerateSampleError(
                f"no invertible I - lambda found in {MAX_REJECTIONS} draws (seed {seeds[pending[0]]})"
            )
    draws = _unit_doubles(words)
    off = uniform(-OMEGA_OFFDIAG, OMEGA_OFFDIAG, draws[:, n_coef:n_coef + n_off])
    pads = uniform(DIAG_PAD_MIN, DIAG_PAD_MAX, draws[:, n_coef + n_off:])

    lam = np.zeros((len(seeds), n, n))
    lam[:, tails, heads] = coefficients(draws[:, :n_coef])
    omega = np.zeros((len(seeds), n, n))
    omega[:, ends_a, ends_b] = off
    omega[:, ends_b, ends_a] = off
    diag = np.arange(n)
    omega[:, diag, diag] = np.sum(np.abs(omega), axis=-1) + pads
    if not stacked:
        return Parameters(lam=lam[0], omega=omega[0])
    return Parameters(lam=lam, omega=omega)


def covariance(p: Parameters) -> NDArray:
    """The covariance matrix (I - lambda)^-T omega (I - lambda)^-1, symmetrized.

    On an acyclic support of lambda, (I - lambda)^-1 is the finite path
    sum of ``_path_sum_inverse`` and det(I - lambda) = 1 exactly, so no
    check is needed.  Otherwise it takes two linear solves against
    I - lambda behind a determinant check, which a point from
    ``sample_parameters`` always passes, since a cyclic draw is kept only
    when |det| > REJECTION_TOLERANCE > SINGULAR_TOL.  ``p`` may hold stacks
    of shape (..., n, n); the result then has the same shape.

    Raises:
        DegenerateSampleError: on a cyclic or non-finite lambda, some
            |det(I - lambda)| is not above SINGULAR_TOL (NaN included).
    """
    # At most three stack-sized arrays besides lam and omega are live at
    # once; the result reuses the buffer of the first product.  tracemalloc
    # sees no peak change without the reuse, but plain @ expressions here
    # and in _path_sum_inverse raised ru_maxrss of five acyclic_verify
    # passes from 37.6-37.8 to 38.1-38.3 MB (6 of 6 fresh-process pairs).
    inverse = _path_sum_inverse(p.lam)
    if inverse is not None:
        half = np.swapaxes(inverse, -1, -2) @ p.omega
        sigma = half @ inverse
        del inverse
    else:
        m_t = np.swapaxes(np.eye(p.n) - p.lam, -1, -2)
        with np.errstate(invalid="ignore"):  # a NaN det fails the check, silently
            if not np.all(np.abs(np.linalg.det(m_t)) > SINGULAR_TOL):
                raise DegenerateSampleError("I - lambda is numerically singular")
        half = np.linalg.solve(m_t, p.omega)
        sigma = np.swapaxes(np.linalg.solve(m_t, np.swapaxes(half, -1, -2)), -1, -2)
        del m_t
    out = np.add(sigma, np.swapaxes(sigma, -1, -2), out=half)
    out /= 2
    return out


def _path_sum_inverse(lam: NDArray) -> NDArray | None:
    """(I - lam)^-1 as the path sum (I + lam)(I + lam^2)(I + lam^4)..., or None.

    Applies when the support of ``lam``, united over a stack, is acyclic:
    then lam^k = 0 for every k above the longest path length L, and the
    product is the finite sum of lam^k over k <= L.  The support, squared
    as a bool matrix where nothing cancels, first vanishes at its 2^j-th
    power with 2^j > L; the float product then takes j - 1 squarings.  A
    support power with 2^j >= n that has not vanished holds a cycle, since
    L < n on an acyclic support.  Returns None on a cyclic support (a
    self-loop included) and when the result is not finite, as on a NaN or
    infinite entry.
    """
    n = lam.shape[-1]
    support = lam != 0  # NaN counts as an edge
    if lam.ndim > 2:
        support = support.any(axis=tuple(range(lam.ndim - 2)))
    squarings = 0  # support holds the walks of length 2^squarings
    while support.any():
        if 1 << squarings >= n:
            return None
        support = support @ support
        squarings += 1
    power = lam
    inverse = lam + np.eye(n)  # the sum of lam^k over k < 2
    spare = None  # a buffer free for the next product
    for _ in range(squarings - 1):
        # power = power @ power; inverse += inverse @ power, in three buffers
        squared = np.matmul(power, power, out=spare)
        spare, power = (None if power is lam else power), squared
        spare = np.matmul(inverse, power, out=spare)
        inverse += spare
    del power, spare  # before the finiteness check's bool array
    return inverse if np.isfinite(inverse).all() else None


def restricted_covariance(
    p: Parameters, left_edges: Iterable[DirectedEdge], right_edges: Iterable[DirectedEdge]
) -> NDArray:
    """Two-sided variant with different coefficient supports per trek side.

    Returns (I - lam_L)^-T omega (I - lam_R)^-1 where lam_L and lam_R keep
    only the entries of the given edge subsets.  Determinants of its
    submatrices vanish exactly when the corresponding restricted flow graph
    disconnects the row set from the column set.
    """
    n = p.n

    def restrict(edges: Iterable[DirectedEdge]) -> NDArray:
        out = np.zeros_like(p.lam)
        for v, w in edges:
            out[v - 1, w - 1] = p.lam[v - 1, w - 1]
        return out

    m_left = np.eye(n) - restrict(left_edges)
    m_right = np.eye(n) - restrict(right_edges)
    return np.linalg.solve(m_left.T, p.omega) @ np.linalg.inv(m_right)


def _directed_paths_from(g: MixedGraph, start: int, memo: dict) -> tuple[tuple[int, ...], ...]:
    """All directed paths out of ``start`` in an acyclic graph, incl. trivial.

    ``memo`` holds the paths out of every start already expanded.
    """
    if start not in memo:
        paths = [(start,)]
        for child in sorted(g.children(start)):
            paths.extend((start,) + tail for tail in _directed_paths_from(g, child, memo))
        memo[start] = tuple(paths)
    return memo[start]


def enumerate_treks(g: MixedGraph, v: int, w: int) -> list[Trek]:
    """Exhaustive, duplicate-free list of treks from v to w.

    Requires the directed part to be acyclic so the list is finite.  Used as
    a brute-force oracle against the linear-algebra covariance.
    """
    if not g.is_acyclic():
        raise ValueError("trek enumeration requires an acyclic directed part")
    memo: dict[int, tuple[tuple[int, ...], ...]] = {}
    treks = []
    for top in g.vertices:
        for left in _directed_paths_from(g, top, memo):
            if left[-1] != v:
                continue
            for right in _directed_paths_from(g, top, memo):
                if right[-1] == w:
                    treks.append(Trek(tuple(reversed(left)), right, False))
    for a, b in sorted(g.bidirected):
        for u, z in ((a, b), (b, a)):
            for left in _directed_paths_from(g, u, memo):
                if left[-1] != v:
                    continue
                for right in _directed_paths_from(g, z, memo):
                    if right[-1] == w:
                        treks.append(Trek(tuple(reversed(left)), right, True))
    return treks


def trek_monomial(trek: Trek, p: Parameters) -> float:
    """omega factor of the top times the product of traversed coefficients."""
    u, z = trek.top
    value = p.omega[u - 1, z - 1]
    for x, y in trek.directed_edges():
        value *= p.lam[x - 1, y - 1]
    return value


def _check_vertices(sigma: NDArray, vertices: Iterable[int]) -> None:
    """Raise ValueError for the first of ``vertices`` outside 1..n, n the order of ``sigma``."""
    n = sigma.shape[-1]
    for x in vertices:
        if not 1 <= x <= n:
            raise ValueError(f"vertex {x} outside 1..{n}")


def subdeterminant(sigma: NDArray, rows: Iterable[int], cols: Iterable[int]) -> NDArray:
    """Determinant of the submatrix with the given ordered rows and columns.

    ``sigma`` may be a stack of shape (..., n, n); the result then has shape
    (...).  The sign depends on the orderings; callers that take ratios must
    use consistent orderings on both sides.

    Raises:
        ValueError: the submatrix is not square, or a row or column is not
            a vertex 1..n of ``sigma``.
    """
    rows = list(rows)
    cols = list(cols)
    if len(rows) != len(cols):
        raise ValueError(f"need a square submatrix, got {len(rows)} rows, {len(cols)} cols")
    _check_vertices(sigma, rows + cols)
    if not rows:
        return np.ones(sigma.shape[:-2])[()]
    sub = sigma[(..., *np.ix_([r - 1 for r in rows], [c - 1 for c in cols]))]
    return np.linalg.det(sub)


def _solve_system(a: NDArray, rhs: NDArray, targets: list[int], v: int) -> dict[DirectedEdge, NDArray]:
    """Solve the (..., k, k) system a x = rhs; x[..., j] is the edge targets[j] -> v.

    One determinant check and one solve for every slice of a stack; LAPACK
    factors each slice on its own (for k = 1, rhs / a bit for bit).

    Raises:
        DegenerateSampleError: some |det a| is below tolerance; the message
            gives the first such determinant, ``slices`` the flat indices of
            all such slices.
    """
    det = np.linalg.det(a)
    small = np.abs(det) <= DEGENERACY_TOL
    if np.any(small):
        raise DegenerateSampleError(
            f"system determinant {np.asarray(det)[small][0]:.3e} below tolerance",
            slices=np.flatnonzero(small).tolist(),
        )
    x = np.linalg.solve(a, rhs[..., None])[..., 0]
    return {(w, v): x[..., j] for j, w in enumerate(targets)}


def numeric_rank(matrix: NDArray) -> int:
    """Rank via singular values above RANK_RTOL times the largest one."""
    if matrix.size == 0:
        return 0
    svals = np.linalg.svd(matrix, compute_uv=False)
    return int(np.sum(svals > RANK_RTOL * svals[0]))


def recover_edge_ratio(
    sigma: NDArray,
    S: Iterable[int],
    T: Iterable[int],
    v: int,
    w0: int,
    known: Mapping[DirectedEdge, NDArray] | None = None,
) -> NDArray:
    """Recover the coefficient of w0 -> v as a ratio of subdeterminants.

    Evaluates (|S x (T+v)| - sum_i known[wi->v] |S x (T+wi)|) / |S x (T+w0)|
    where the sum runs over the already-known coefficients of other edges
    into v supplied in ``known``: the one-row ``solve_determinantal_system``.
    For a stack ``sigma`` of shape (..., n, n) the known values and the
    result have shape (...).

    Raises:
        DegenerateSampleError: some |S x (T+w0)|, the system determinant, is
            below tolerance: a non-generic sample; the caller should resample.
        ValueError: |S| is not |T| + 1, a vertex is outside 1..n, or a
            known edge does not point into v.
    """
    return solve_determinantal_system(sigma, [(S, T)], v, [w0], known)[(w0, v)]


def solve_recovery_system(
    sigma: NDArray,
    v: int,
    E: Iterable[int],
    S: Iterable[int],
    Y: Iterable[int],
    H: Iterable[Iterable[int]],
    known: Mapping[DirectedEdge, NDArray] | None = None,
) -> dict[DirectedEdge, NDArray]:
    """Solve the half-trek linear system for the edges E -> v.

    Row i comes from source Y[i], whose parents H[i] (those half-trek
    reachable from v) are stripped out using the known coefficients; already
    solved parents S of v are moved to the right-hand side.  The system
    matrix is A[i, j] = sigma[y_i, e_j] - sum_h sigma[h, e_j] known[h->y_i].
    For a stack ``sigma`` of shape (..., n, n) the known values and the
    recovered ones have shape (...).

    Raises:
        DegenerateSampleError: some |det A| is below tolerance (non-generic
            sample).
        ValueError: |Y| is not |E| or |H|, or a vertex is outside 1..n.
    """
    E, S, Y = list(E), list(S), list(Y)
    H = [list(h) for h in H]
    known = known or {}
    if len(Y) != len(E):
        raise ValueError(f"need |Y| = |E|, got {len(Y)} and {len(E)}")
    if len(H) != len(Y):
        raise ValueError(f"need one parent set per source, got {len(H)} for {len(Y)}")
    _check_vertices(sigma, [v, *E, *S, *Y, *(h for hs in H for h in hs)])
    if not E:
        return {}
    k = len(E)
    rows = np.array(Y, dtype=np.intp) - 1
    cols = [c - 1 for c in E + S]
    # corrected[i] = sigma[y_i, col] - sum_h sigma[h, col] known[h->y_i] for the columns E + S
    corrected = sigma[..., rows[:, None], cols]
    for i, (y, hs) in enumerate(zip(Y, H)):
        for h in hs:
            corrected[..., i, :] -= sigma[..., h - 1, cols] * np.expand_dims(known[(h, y)], -1)
    rhs = sigma[..., rows, v - 1]
    for j, s in enumerate(S):
        rhs -= corrected[..., k + j] * np.expand_dims(known[(s, v)], -1)
    for i, (y, hs) in enumerate(zip(Y, H)):
        for h in hs:
            rhs[..., i] -= sigma[..., v - 1, h - 1] * known[(h, y)]
    return _solve_system(corrected[..., :k], rhs, E, v)


def solve_determinantal_system(
    sigma: NDArray,
    rows: Iterable[tuple[Iterable[int], Iterable[int]]],
    v: int,
    targets: Iterable[int],
    known: Mapping[DirectedEdge, NDArray] | None = None,
) -> dict[DirectedEdge, NDArray]:
    """Jointly recover several edges into v from determinantal equations.

    Row i is built from the source/target pair (S_i, T_i): the matrix entry
    for target w_j is |sigma[S_i, T_i + w_j]| and the right-hand side is
    |sigma[S_i, T_i + v]| - sum_w known[w->v] |sigma[S_i, T_i + w]| over
    the already-known coefficients of other edges into v.  ``sigma`` may be
    a stack of shape (..., n, n); the known values then have shape (...).
    Each row's minors come from one stacked ``np.linalg.det`` call.

    Raises:
        DegenerateSampleError: some system determinant is below tolerance.
        ValueError: a row count, |S| - |T| or known edge is invalid, or a
            vertex is outside 1..n.
    """
    rows, targets = [(list(s), list(t)) for s, t in rows], list(targets)
    if not rows and not targets:
        return {}
    known = known or {}
    if len(rows) != len(targets):
        raise ValueError(f"need one row per target, got {len(rows)} and {len(targets)}")
    for s, t in rows:
        if len(s) != len(t) + 1:
            raise ValueError(f"row ({s}, {t}) must have |S| = |T| + 1")
    for w, head in known:
        if head != v:
            raise ValueError(f"known edge {w}->{head} does not point into {v}")
    columns = [*targets, v, *(w for w, _ in known)]
    _check_vertices(sigma, [x for s, t in rows for x in (*s, *t, *targets)] + columns[len(targets):])
    k, a, rhs = len(targets), [], []
    for s, t in rows:
        # minors[..., c] = |sigma[S, T + columns[c]]|
        picks = np.array([[*t, c] for c in columns], dtype=np.intp) - 1
        minors = np.linalg.det(sigma[..., np.array(s, dtype=np.intp)[:, None] - 1, picks[:, None, :]])
        value = minors[..., k]
        for j, x in enumerate(known.values()):
            value = value - x * minors[..., k + 1 + j]
        a.append(minors[..., :k])
        rhs.append(value)
    return _solve_system(np.stack(a, axis=-2), np.stack(rhs, axis=-1), targets, v)


def _free_parameters(g: MixedGraph) -> list[tuple[str, int, int]]:
    """Coordinates of the parameterization: directed, bidirected, diagonal."""
    coords = [("lam", u, w) for u, w in sorted(g.directed)]
    coords += [("omega", u, w) for u, w in sorted(g.bidirected)]
    coords += [("omega", x, x) for x in g.vertices]
    return coords


def sigma_jacobian(g: MixedGraph, p: Parameters) -> NDArray:
    """Jacobian of the parameters-to-covariance map.

    Rows index the upper triangle of sigma (row-major, diagonal included),
    columns index the free parameters in the order of _free_parameters.
    With R = (I - lambda)^-1, one inverse, and sigma = R^T omega R, every
    column is a symmetrized outer product x (x) y + y (x) x of two rows:
    R[w] and sigma[u] for the edge u -> w, R[u] and R[w] for u <-> w, and
    half of that, R[x] (x) R[x], for omega[x, x].
    """
    n = g.n
    r = np.linalg.inv(np.eye(n) - p.lam)
    sigma = r.T @ p.omega @ r
    rows, cols = np.triu_indices(n)  # row-major, like a boolean upper mask
    tails, heads, ends_a, ends_b, _ = _cached(g, _sampling_layout)
    x = np.concatenate([r[heads], r[ends_a], r])
    y = np.concatenate([sigma[tails], r[ends_b], r])
    jac = (x[:, rows] * y[:, cols] + x[:, cols] * y[:, rows]).T
    jac[:, len(tails) + len(ends_a):] /= 2
    return jac


def jacobian_rank(g: MixedGraph, p: Parameters) -> int:
    """Numeric column rank of the parameterization Jacobian at p.

    A rank below the number of free parameters is evidence, not proof,
    that the parameterization is generically infinite-to-one: the rank is
    taken in floating point at one sampled point, and at an ill-conditioned
    point it can count too few columns.
    """
    return numeric_rank(sigma_jacobian(g, p))


def n_free_parameters(g: MixedGraph) -> int:
    """One per directed edge, bidirected edge and vertex: the length of ``_free_parameters``."""
    return len(g.directed) + len(g.bidirected) + g.n


def alternative_parameters(
    g: MixedGraph,
    p: Parameters,
    edge: DirectedEdge,
    gamma: float,
) -> Parameters:
    """A second parameter point with the same covariance, differing on one edge.

    Replaces the coefficient of ``edge`` by ``gamma`` and compensates through
    the error covariance.  Feasible exactly when every non-sibling z of the
    edge's head cannot half-trek-reach the tail; the returned parameters are
    verified to respect the graph supports, stay positive definite, and
    reproduce the covariance to within ALTERNATIVE_TOL; a NaN fails each
    check.

    Raises:
        InfeasibleEdgeError: the hypothesis fails for this edge.
        DegenerateSampleError: the construction violated its postconditions
            numerically (a known boundary case of the hypothesis; see the
            per-vertex record for which disjunct was load-bearing).
    """
    v, w = edge
    if infinite_to_one_record(g, v, w) is None:
        raise InfeasibleEdgeError(f"edge {v}->{w} does not satisfy the infinite-to-one hypothesis")
    sigma = covariance(p)
    gam = p.lam.copy()
    gam[v - 1, w - 1] = gamma
    m = np.eye(g.n) - gam
    psi = m.T @ sigma @ m
    psi = (psi + psi.T) / 2

    scale = max(1.0, float(np.max(np.abs(psi))))
    support_graph_errors = [
        (x, y)
        for x in g.vertices
        for y in g.vertices
        if x < y and not g.has_bidirected(x, y) and not abs(psi[x - 1, y - 1]) <= ALTERNATIVE_TOL * scale
    ]
    if support_graph_errors:
        raise DegenerateSampleError(
            f"compensated covariance has support outside the graph at {support_graph_errors}"
        )
    if not np.min(np.linalg.eigvalsh(psi)) > 0:
        raise DegenerateSampleError("compensated error covariance is not positive definite")
    alt = Parameters(lam=gam, omega=psi)
    if not np.max(np.abs(covariance(alt) - sigma)) <= ALTERNATIVE_TOL:
        raise DegenerateSampleError("alternative parameters do not reproduce the covariance")
    return alt
