"""Decision algorithms producing replayable per-edge identifiability certificates.

Three solvers grow a set of directed edges whose coefficients are rationally
recoverable from the covariance matrix:

* ``htc_identify``   - the half-trek criterion, all edges into a node at once;
* ``eid_identify``   - the edgewise generalization over parent subsets;
* ``tsid_identify``  - per-edge recovery as a ratio of subdeterminants,
  certified by one max flow on the doubled flow graph and its residual sweep.

``certify`` composes them, screens remaining edges with the per-edge
infinite-to-one test, and optionally replays every certificate numerically
against sampled ground truth.  All searches use fixed iteration orders, so
identical inputs give identical certificates.

Most TSID pairs fail the "star" condition: S links fully to T' and v' once
the arcs of w0 -> v and of the solved siblings' edges into v' are removed.
By trek separation (Sullivant, Talaska and Draisma 2010) that happens
exactly when det star[S, T + v] is not the zero polynomial, where
star = (I - lambda)^-T omega (I - lambda*)^-1 and lambda* is lambda without
those stripped edges.  The search visits only edges whose head v lies on no
directed cycle, and targets T outside des(v) + {v, w0}, so its columns come
from the covariance sigma alone: star[:, T] = sigma[:, T], and star[:, v] is
sigma[:, v] minus lambda[w, v] * sigma[:, w] for each stripped w.  One sigma
mod P per graph (``modp.field_point``: a fixed prime, a fixed seeded point)
thus serves every edge, and only the column of v changes.

A star minor that is nonzero mod P is not the zero polynomial (Schwartz
1980, Zippel 1979), so its pair fails and is skipped without a sweep.  A
minor that is zero proves nothing, and the pair is swept as before.  The
filter thus removes only pairs the sweep would reject: the first accepted
pair, and so every certificate, is the same at any point, which decides only
how much work is done.  It runs from |S| = 2 on, over blocks of at most
``FILTER_BLOCK`` pairs in search order.  At |S| = 1 a sweep depends on S
alone, so at most n of them serve every edge.  On the slow n=9 graphs of the
tests it cut the sweeps per verdict from 24,255-60,069 to 9-3,134.
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import modp, oracle
from .flow import FlowNetwork, build_flow_graph, build_restricted_flow_graph
from .graph import DirectedEdge, MixedGraph, _cached, _check_vertex, _vertex_list, infinite_to_one_record, require_valid
from .oracle import DegenerateSampleError, Parameters

IDENTIFIABLE = "identifiable"
INFINITE_TO_ONE = "infinite_to_one"
UNKNOWN = "unknown"


class CertificateError(RuntimeError):
    """A certificate failed its numeric replay; the result must not be trusted."""


@dataclass(frozen=True)
class EdgeCertificate:
    """Status of one directed edge, with enough context to replay it.

    ``edge`` is (tail, head).  For identifiable edges the witness carries the
    sets used by the recovery formula and ``prerequisites`` lists the edges
    whose coefficients must be recovered first (their certificate order is
    acyclic).  For infinite-to-one edges the witness records, per vertex,
    which hypothesis disjunct held.
    """

    edge: DirectedEdge
    status: str
    method: str | None = None
    witness: dict = field(default_factory=dict)
    prerequisites: tuple[DirectedEdge, ...] = ()
    verification: dict | None = None

    def to_json_dict(self) -> dict:
        payload: dict = {
            "edge": list(self.edge),
            "status": self.status,
            "method": self.method,
            "witness": _witness_to_json(self.witness),
        }
        payload["witness"]["prerequisites"] = [list(e) for e in self.prerequisites]
        if self.verification is not None:
            payload["verification"] = self.verification
        return payload


def _witness_to_json(witness: dict) -> dict:
    out = {}
    for key, value in witness.items():
        if key == "H":
            out[key] = {str(y): sorted(hs) for y, hs in value.items()}
        elif key == "record":
            out[key] = {str(z): reason for z, reason in sorted(value.items())}
        elif key == "rows":
            out[key] = [[sorted(s), sorted(t)] for s, t in value]
        elif isinstance(value, (set, frozenset, tuple, list)):
            out[key] = sorted(value)
        else:
            out[key] = value
    return out


@dataclass
class SolverState:
    """Solved edges with their certificates, in discovery (= replay) order."""

    certificates: dict[DirectedEdge, EdgeCertificate] = field(default_factory=dict)

    @property
    def solved_edges(self) -> set[DirectedEdge]:
        return set(self.certificates)

    def copy(self) -> "SolverState":
        return SolverState(dict(self.certificates))

    def solved_parents(self, g: MixedGraph, v: int) -> list[int]:
        return sorted(w for w in g.parents(v) if (w, v) in self.certificates)

    def unsolved_parents(self, g: MixedGraph, v: int) -> list[int]:
        return sorted(w for w in g.parents(v) if (w, v) not in self.certificates)


def half_trek_system_exists(
    g: MixedGraph,
    sources: Iterable[int],
    targets: Iterable[int],
    avoid: Iterable[int] = (),
) -> tuple[bool, list[tuple[int, tuple[int, ...]]]]:
    """Decide whether a half-trek system with no sided intersection exists.

    Looks for |targets| half-treks from distinct vertices of ``sources`` onto
    ``targets`` whose right-hand sides are vertex-disjoint; the left side of
    a half-trek is its source alone, so left-disjointness is automatic.  The
    search is a max-flow on the doubled flow graph with the left-climbing
    arcs removed.

    Args:
        avoid: vertices that must not be used as sources (checked, not
            searched around).

    Returns:
        (exists, system) where system pairs each active source with the
        right-hand side of its half-trek.
    """
    sources = sorted(set(sources))
    targets = sorted(set(targets))
    # the smallest and largest of each sorted list bound the rest
    for x in sources[:1] + sources[-1:] + targets[:1] + targets[-1:]:
        _check_vertex(g, x)
    avoid = set(avoid)
    bad = avoid.intersection(sources)
    if bad:
        raise ValueError(f"sources {sorted(bad)} are in the avoid set")
    if not targets:
        return True, []
    if not sources:
        return False, []
    net = _cached(g, build_restricted_flow_graph, (), g.directed)
    witness = net.max_flow(sources, [net.primed(t) for t in targets])
    if witness.value < len(targets):
        return False, []
    system = [
        (path[0], tuple(x - g.n for x in path[1:]))
        for path in witness.paths
    ]
    return True, system


def _recovery_witness(
    g: MixedGraph, v: int, E: list[int], solved_parents: list[int],
    system: list[tuple[int, tuple[int, ...]]],
) -> tuple[dict, tuple[DirectedEdge, ...]]:
    """Witness and prerequisites for a half-trek system solving E -> v.

    The corrected row for source y strips the parents of y reachable from v
    by a half-trek; v itself counts even when no non-empty half-trek returns
    to it, because the edge v -> y alone feeds treks from y back to v.
    """
    htr_v = g.half_trek_reachable(v) | {v}
    Y = [y for y, _ in system]
    H = {y: sorted(g.parents(y) & htr_v) for y in Y}
    prereqs = [(s, v) for s in solved_parents]
    prereqs += [(h, y) for y in Y for h in H[y]]
    witness = {"v": v, "E": sorted(E), "Y": Y, "S": sorted(solved_parents), "H": H}
    return witness, tuple(dict.fromkeys(prereqs))


def htc_identify(g: MixedGraph, state: SolverState | None = None) -> SolverState:
    """Half-trek criterion to fixpoint: solve all edges into a node at once.

    A node v is solved from sources Y disjoint from {v} and its siblings,
    where any source half-trek reachable from v must already have all of its
    incoming edges solved.
    """
    require_valid(g)
    state = state.copy() if state else SolverState()
    changed = True
    while changed:
        changed = False
        for v in g.vertices:
            parents = sorted(g.parents(v))
            if not parents or not state.unsolved_parents(g, v):
                continue
            htr_v = g.half_trek_reachable(v)
            banned = {v} | g.siblings(v)
            allowed = [
                y for y in g.vertices
                if y not in banned
                and (y not in htr_v or not state.unsolved_parents(g, y))
            ]
            exists, system = half_trek_system_exists(g, allowed, parents, avoid=banned)
            if not exists:
                continue
            witness, prereqs = _recovery_witness(g, v, parents, [], system)
            for w in state.unsolved_parents(g, v):
                state.certificates[(w, v)] = EdgeCertificate(
                    edge=(w, v), status=IDENTIFIABLE, method="HTC",
                    witness=witness, prerequisites=prereqs,
                )
            changed = True
    return state


def eid_identify(g: MixedGraph, state: SolverState | None = None) -> SolverState:
    """Edgewise criterion to fixpoint: solve subsets of a node's parent edges.

    For each node v, candidate sources are vertices outside {v} and its
    siblings whose half-trek-reachable-from-v parents are all solved.  For
    each subset E of v's unsolved parents (largest first, lexicographic
    within a size), sources whose trek reach meets the unsolved parents only
    inside E are admissible; a half-trek system from them onto E solves all
    of E at once.
    """
    require_valid(g)
    state = state.copy() if state else SolverState()
    changed = True
    while changed:
        changed = False
        for v in g.vertices:
            unsolved = state.unsolved_parents(g, v)
            if not unsolved:
                continue
            # v joins the half-trek-reachable set: the bare edge v -> y
            # already carries treks from y back to v, empty prefix or not.
            htr_v = g.half_trek_reachable(v) | {v}
            banned = {v} | g.siblings(v)
            maybe_allowed = [
                y for y in g.vertices
                if y not in banned
                and all((z, y) in state.certificates for z in g.parents(y) & htr_v)
            ]
            # {y} joins y's trek reach: when y is itself a parent of v, the
            # edge y -> v is a trek from y with an empty prefix.
            trek_reach = {y: g.trek_reachable(y) | {y} for y in maybe_allowed}
            for size in range(len(unsolved), 0, -1):
                solved_here = False
                for E in itertools.combinations(unsolved, size):
                    allowed = [
                        y for y in maybe_allowed
                        if trek_reach[y].intersection(unsolved) <= set(E)
                    ]
                    exists, system = half_trek_system_exists(g, allowed, E, avoid=banned)
                    if not exists:
                        continue
                    solved_parents = state.solved_parents(g, v)
                    witness, prereqs = _recovery_witness(g, v, list(E), solved_parents, system)
                    for e in E:
                        state.certificates[(e, v)] = EdgeCertificate(
                            edge=(e, v), status=IDENTIFIABLE, method="EID",
                            witness=witness, prerequisites=prereqs,
                        )
                    changed = True
                    solved_here = True
                    break
                if solved_here:
                    break
    return state


def tsep_accepts(
    g: MixedGraph,
    v: int,
    w0: int,
    solved_siblings: Iterable[int],
    S: Iterable[int],
    T: Iterable[int],
    strict: bool = False,
) -> bool:
    """Acceptance test for recovering w0 -> v as a ratio of subdeterminants.

    ``solved_siblings`` are the other parents of v whose edges into v are
    already recovered; their contribution is subtracted in the numerator.
    S must link fully to T' and w0' in the flow graph, but not to T' and v'
    once the stripped edges are removed.  The relaxed test removes only the
    right-descending arcs of the stripped edges and needs T and v clear of
    des(v); the strict variant also removes their left-climbing arcs and
    needs S clear of v and des(v) as well, so it never accepts a pair the
    relaxed one rejects.

    Both probe one residual sweep of a max flow F from S to T'
    (``FlowNetwork.residual_reach``).  As v is off every cycle and T clear of
    des(v) and v, F never enters v' or des(v)', nor can a residual path leave
    them.  So the pair is accepted exactly when F has value |T|, w0' is
    reached, and no tail of v's remaining in-arcs (v, its siblings, its
    unstripped parents') is.  The left-climbing arcs strict also removes
    leave v's left copy, which only sources in v or des(v) can reach, since
    left copies are entered only by climbing from a child; for the S strict
    admits they carry no flow, so both networks have the same max flows.

    Raises:
        ValueError: w0 -> v is not an edge of g, or S or T leaves 1..n.
    """
    S, T = _vertex_list(g, S), _vertex_list(g, T)
    if (w0, v) not in g.directed:
        raise ValueError(f"edge {w0}->{v} not in graph")
    des_v = g.descendants(v)
    if len(S) != len(T) + 1 or v in T or w0 in T or v in des_v or des_v.intersection(T):
        return False
    if strict and (v in S or des_v.intersection(S)):
        return False
    full = _cached(g, build_flow_graph)
    return bool(_tsep_probe(g, full, v, w0, solved_siblings)(_tsep_sweep(full, S, T)))


def _tsep_sweep(full: FlowNetwork, S: Sequence[int], T: Sequence[int]) -> int:
    """The residual sweep of a max flow from S to T', or 0 (nothing reached) when it misses a target."""
    value, _, reach = full.residual_reach(S, [full.primed(t) for t in T])
    return reach if value == len(T) else 0


def _tsep_probe(g: MixedGraph, full: FlowNetwork, v: int, w0: int, solved: Iterable[int]) -> Callable[[int], int]:
    """The relaxed ``tsep_accepts`` test of w0 -> v as a predicate on sweeps."""
    tails = [v, *g.siblings(v), *(full.primed(p) for p in g.parents(v) - {w0, *solved})]
    need, star = 2 << 2 * full.primed(w0), sum(2 << 2 * x for x in tails)
    return lambda reach: reach & need and not reach & star


def tsid_identify(
    g: MixedGraph,
    state: SolverState | None = None,
    max_set_size: int | None = None,
) -> SolverState:
    """Trek-separation identification to fixpoint.

    For each unsolved edge w0 -> v (in (v, w0) lexicographic order), search
    source/target pairs (S, T) with |S| = |T| + 1 up to ``max_set_size``
    (default: the vertex count, i.e. exhaustive) for the first pair passing
    the relaxed acceptance test; the certificate records (S, T) and the
    already-solved edges into v as prerequisites.
    """
    require_valid(g)
    if max_set_size is None:
        max_set_size = max(g.n, 1)
    if max_set_size < 1:
        raise ValueError(f"max_set_size must be >= 1, got {max_set_size}")
    state = state.copy() if state else SolverState()
    vertices = list(g.vertices)
    full = _cached(g, build_flow_graph)
    sweeps: dict[int, int] = {}  # one per (S, T), shared by every edge
    changed = True
    while changed:
        changed = False
        for v, w0 in sorted((v, w) for (w, v) in g.directed):
            if (w0, v) in state.certificates:
                continue
            if v in g.descendants(v):
                continue  # acceptance condition can never hold on a cycle
            solved_sibs = [s for s in state.solved_parents(g, v) if s != w0]
            t_candidates = [t for t in vertices if t not in (v, w0) and t not in g.descendants(v)]
            if _tsid_search(g, full, sweeps, state, v, w0, solved_sibs, t_candidates, max_set_size):
                changed = True
    return state


def _tsid_search(
    g: MixedGraph,
    full: FlowNetwork,
    sweeps: dict[int, int],
    state: SolverState,
    v: int,
    w0: int,
    solved_sibs: list[int],
    t_candidates: list[int],
    max_set_size: int,
) -> bool:
    """First accepted (S, T) pair, by increasing |S| then lexicographic order.

    ``full`` is the flow graph of g.  ``sweeps`` maps each pair, as the
    bitmask of T with the bitmask of S shifted above it, to its sweep.  From
    |S| = 2 on, pairs whose star minor is nonzero at the graph's GF(P) point
    are skipped unswept: they fail for certain.
    """
    accepts = _tsep_probe(g, full, v, w0, solved_sibs)
    star = None  # made at the first level with |S| >= 2
    for k in range(1, max_set_size + 1):
        if len(t_candidates) < k - 1:
            break
        if k >= 2 and (point := _cached(g, modp.field_point)) is not None:
            if star is None:
                star = modp.star_matrix(point, v, [w0, *solved_sibs], t_candidates)
            pairs = _star_vanishing_pairs(g, star, t_candidates, k)
        else:
            pairs = itertools.product(itertools.combinations(g.vertices, k), itertools.combinations(t_candidates, k - 1))
        for S, T in pairs:
            key = sum(1 << s for s in S) << g.n | sum(1 << t for t in T)
            reach = sweeps.get(key)
            if reach is None:
                reach = sweeps[key] = _tsep_sweep(full, S, T)
            if not accepts(reach):
                continue
            witness = {"v": v, "w0": w0, "S": sorted(S), "T": sorted(T)}
            state.certificates[(w0, v)] = EdgeCertificate(
                edge=(w0, v), status=IDENTIFIABLE, method="TSID",
                witness=witness,
                prerequisites=tuple((s, v) for s in solved_sibs),
            )
            return True
    return False


# Pairs whose star minors are tested as one stack, which bounds the filter's
# memory.  On the n=11 graphs of the tests 1024 runs as fast as 4096 with
# about 4 MB less peak RSS.
FILTER_BLOCK = 1024


def _star_vanishing_pairs(
    g: MixedGraph, star: np.ndarray, t_candidates: list[int], k: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The pairs (S, T) with |S| = k, in search order, whose star minor is 0 mod P.

    ``star`` is ``modp.star_matrix`` for the edge and ``t_candidates``, so
    its minors are the star minors (see the module docstring).  Each block
    of at most ``FILTER_BLOCK`` pairs is gathered through combination index
    arrays and tested as one stack; the other pairs fail ``tsep_accepts``
    for certain.
    """
    m = len(t_candidates)
    s_rows = _cached(g, _combinations, g.n, k)
    cols = _cached(g, _combinations, m, k - 1, m)  # T's columns, then the star column
    total = len(s_rows) * len(cols)
    for lo in range(0, total, FILTER_BLOCK):
        s_index, t_index = np.divmod(np.arange(lo, min(lo + FILTER_BLOCK, total)), len(cols))
        vanishing = ~modp.nonzero_minors(star[s_rows[s_index][:, :, None], cols[t_index][:, None, :]])
        for s, t in zip(s_index[vanishing].tolist(), t_index[vanishing].tolist()):
            yield (
                tuple(x + 1 for x in s_rows[s].tolist()),
                tuple(t_candidates[x] for x in cols[t, :-1].tolist()),
            )


def _combinations(g: MixedGraph, m: int, k: int, *tail: int) -> np.ndarray:
    """The k-subsets of range(m) in lexicographic order, one per row, each followed by ``tail``.

    Memoized on g with ``_cached``, so the arrays are freed with it.
    """
    rows = [c + tail for c in itertools.combinations(range(m), k)]
    return np.array(rows, dtype=np.intp).reshape(-1, k + len(tail))


def eid_tsid_identify(g: MixedGraph, max_set_size: int | None = None) -> SolverState:
    """Alternate the edgewise and trek-separation solvers until neither advances.

    Each EID round runs to its fixpoint, so once a TSID round adds nothing,
    another EID round would start from its own fixpoint and add nothing too.
    """
    state = SolverState()
    while True:
        state = eid_identify(g, state)
        before = len(state.certificates)
        state = tsid_identify(g, state, max_set_size)
        if len(state.certificates) == before:
            return state


def edge_infinite_to_one(g: MixedGraph, edge: DirectedEdge) -> tuple[bool, dict[int, str]]:
    """Per-edge non-identifiability test for v -> w.

    True when every vertex z other than w is either a sibling of w or cannot
    half-trek-reach v; the record shows which disjunct held per z.  The
    companion construction oracle.alternative_parameters exhibits two
    parameter points with the same covariance whenever the test fires and
    its numeric postconditions hold.
    """
    v, w = edge
    record = infinite_to_one_record(g, v, w)
    if record is None:
        return False, {}
    return True, record


def joint_certificate(
    g: MixedGraph,
    v: int,
    targets: Iterable[int],
    rows: Iterable[tuple[Iterable[int], Iterable[int]]],
) -> list[EdgeCertificate]:
    """Certificates for simultaneously recovering several edges into v.

    The automated solvers never emit these; they package a hand-constructed
    determinantal system (one (S_i, T_i) row per target edge) for replay by
    the same machinery.
    """
    targets = sorted(set(targets))
    rows = [(sorted(set(s)), sorted(set(t))) for s, t in rows]
    for w in targets:
        if (w, v) not in g.directed:
            raise ValueError(f"edge {w}->{v} not in graph")
    if len(rows) != len(targets):
        raise ValueError("need one (S, T) row per target")
    witness = {"v": v, "targets": targets, "rows": rows}
    return [
        EdgeCertificate(edge=(w, v), status=IDENTIFIABLE, method="JOINT", witness=witness)
        for w in targets
    ]


def replay_certificates(
    certificates: Iterable[EdgeCertificate],
    sigma: np.ndarray,
) -> dict[DirectedEdge, np.ndarray]:
    """Recover coefficients from a covariance matrix by replaying certificates.

    Certificates must arrive in an order compatible with their prerequisites
    (discovery order always is); recovered values feed later replays, so the
    result depends on sigma alone, never on ground-truth parameters.  For a
    stack ``sigma`` of shape (..., n, n) every recovered value has shape
    (...).  An HTC or EID system is solved once for all the edges E of its
    witness; later certificates with an equal witness take their value from
    that solve.
    """
    recovered: dict[DirectedEdge, np.ndarray] = {}
    systems: dict[DirectedEdge, tuple[dict, np.ndarray]] = {}
    for cert in certificates:
        if cert.status != IDENTIFIABLE:
            continue
        missing = [e for e in cert.prerequisites if e not in recovered]
        if missing:
            raise CertificateError(f"certificate for {cert.edge} replayed before prerequisites {missing}")
        w = cert.witness
        if cert.method in ("HTC", "EID"):
            solved = systems.get(cert.edge)
            if solved is None or solved[0] != w:
                known = {e: recovered[e] for e in cert.prerequisites}
                values = oracle.solve_recovery_system(
                    sigma, w["v"], w["E"], w["S"], w["Y"], [w["H"][y] for y in w["Y"]], known
                )
                systems.update((e, (w, x)) for e, x in values.items())
                solved = systems[cert.edge]
            recovered[cert.edge] = solved[1]
        elif cert.method == "TSID":
            known = {e: recovered[e] for e in cert.prerequisites}
            recovered[cert.edge] = oracle.recover_edge_ratio(
                sigma, w["S"], w["T"], w["v"], w["w0"], known
            )
        elif cert.method == "JOINT":
            values = oracle.solve_determinantal_system(sigma, w["rows"], w["v"], w["targets"])
            recovered[cert.edge] = values[cert.edge]
        else:
            raise CertificateError(f"unknown certificate method {cert.method!r}")
    return recovered


@dataclass(frozen=True)
class CertificationReport:
    """Full per-edge certification of a mixed graph.

    ``certificates`` maps every directed edge to its certificate, in sorted
    edge order.  ``parameterization_infinite_to_one`` flags a rank-deficient
    Jacobian of the whole parameterization (a global obstruction independent
    of the per-edge statuses).
    """

    graph: MixedGraph
    certificates: dict[DirectedEdge, EdgeCertificate]
    jacobian_rank: int
    n_parameters: int
    seed: int

    @property
    def parameterization_infinite_to_one(self) -> bool:
        return self.jacobian_rank < self.n_parameters

    def counts(self) -> dict[str, int]:
        out = {IDENTIFIABLE: 0, INFINITE_TO_ONE: 0, UNKNOWN: 0}
        for cert in self.certificates.values():
            out[cert.status] += 1
        return out

    def fully_identifiable(self) -> bool:
        return all(c.status == IDENTIFIABLE for c in self.certificates.values())

    def to_json_dict(self) -> dict:
        return {
            "n": self.graph.n,
            "certificates": [
                self.certificates[e].to_json_dict() for e in sorted(self.certificates)
            ],
            "jacobian_rank": self.jacobian_rank,
            "n_parameters": self.n_parameters,
            "parameterization_infinite_to_one": self.parameterization_infinite_to_one,
            "seed": self.seed,
        }


# Fresh samples tried per seed when its replay is degenerate.
REPLAY_RESAMPLES = 5
# Largest relative error a replayed coefficient may have against the sampled one.
REPLAY_TOLERANCE = 1e-6


def _check_replay_settings(seed_count: int) -> None:
    """Reject a seed count under which a verified edge would prove nothing.

    With no seeds nothing is replayed, yet every edge would be reported
    verified.
    """
    if seed_count < 1:
        raise ValueError("seeds must be at least 1")


def _verification_seeds(seed: int, count: int) -> list[int]:
    return [seed + 7919 * i for i in range(count)]


def _replay_with_resampling(
    g: MixedGraph,
    ordered: list[EdgeCertificate],
    seed: int,
) -> tuple[Parameters, dict[DirectedEdge, float]]:
    """Replay at a sampled point, resampling on tolerance-triggered degeneracy."""
    last_error: DegenerateSampleError | None = None
    for attempt in range(REPLAY_RESAMPLES):
        params = oracle.sample_parameters(g, seed + 104729 * attempt)
        try:
            return params, replay_certificates(ordered, oracle._covariance_solve(params))
        except DegenerateSampleError as exc:
            last_error = exc
    raise DegenerateSampleError(
        f"replay stayed degenerate after {REPLAY_RESAMPLES} resamples (seed {seed}): {last_error}"
    )


def _replay_errors(
    ordered: list[EdgeCertificate],
    seeds: list[int],
    lam: np.ndarray,
    recovered: dict[DirectedEdge, np.ndarray],
) -> np.ndarray:
    """Relative errors, seeds x edges, of values replayed at the sampled ``lam``.

    Raises:
        CertificateError: for the first (seed, edge), seed-major, whose error
            exceeds ``REPLAY_TOLERANCE``.
    """
    got = np.empty((len(seeds), len(ordered)))
    truth = np.empty_like(got)
    for j, cert in enumerate(ordered):
        u, w = cert.edge
        got[:, j] = recovered[cert.edge]
        truth[:, j] = lam[..., u - 1, w - 1]
    rel = np.abs(got - truth) / np.maximum(np.abs(truth), 1e-12)
    over = np.argwhere(rel > REPLAY_TOLERANCE)
    if len(over):
        i, j = over[0]
        u, w = ordered[j].edge
        raise CertificateError(
            f"edge {u}->{w} ({ordered[j].method}): recovered {got[i, j]:.12g} "
            f"vs sampled {truth[i, j]:.12g} (rel err {rel[i, j]:.3e} > {REPLAY_TOLERANCE:g}, seed {seeds[i]})"
        )
    return rel


def verify_certificates(
    g: MixedGraph,
    certificates: Iterable[EdgeCertificate],
    seeds: Iterable[int],
    *,
    sampled: Parameters | None = None,
) -> dict[DirectedEdge, float]:
    """Replay identifiable certificates over several seeds against ground truth.

    All seeds are sampled and replayed together on one stack of covariances;
    ``sampled`` is that stack, ``oracle.sample_parameters(g, seeds)``, when
    the caller has already drawn it.  Its covariance is solved without the
    singularity check of ``oracle.covariance``, which every stack the
    sampler returns passes.  When any seed is degenerate, the seeds
    replay one by one instead, each resampling on its own as
    ``_replay_with_resampling`` does.

    Returns the max relative recovery error per edge.

    Raises:
        CertificateError: some edge's recovered value misses the sampled
            coefficient by more than ``REPLAY_TOLERANCE`` (relative); the first
            failing seed, then the first failing edge in replay order, is
            reported.
        DegenerateSampleError: a seed stayed degenerate after resampling.
        ValueError: ``seeds`` is empty.
    """
    ordered = [c for c in certificates if c.status == IDENTIFIABLE]
    seeds = list(seeds)
    _check_replay_settings(len(seeds))
    try:
        if sampled is None:
            sampled = oracle.sample_parameters(g, seeds)
        recovered = replay_certificates(ordered, oracle._covariance_solve(sampled))
        rel = _replay_errors(ordered, seeds, sampled.lam, recovered)
    except DegenerateSampleError:
        # The oracle raises for the whole stack, so only a one-seed replay
        # shows which seed is degenerate and needs resampling.
        rows = []
        for seed in seeds:
            p, recovered = _replay_with_resampling(g, ordered, seed)
            rows.append(_replay_errors(ordered, [seed], p.lam, recovered))
        rel = np.concatenate(rows)
    worst = np.fmax.reduce(rel, axis=0, initial=0.0)
    return {cert.edge: float(err) for cert, err in zip(ordered, worst)}


def certify(
    g: MixedGraph,
    max_set_size: int | None = None,
    verify: bool = True,
    seed: int = 0,
    seeds: int = 3,
) -> CertificationReport:
    """Certify every directed edge of the graph.

    Runs the alternating edgewise / trek-separation pipeline, screens the
    remaining edges with the infinite-to-one test (confirming each hit with
    the explicit two-point construction before trusting it), and evaluates
    the Jacobian rank of the parameterization at a sampled point.  With
    ``verify``, every identifiable certificate is replayed over ``seeds``
    sampled covariances and the max relative error is attached.

    Raises:
        CertificateError: a replay missed the sampled ground truth, which
            means a certificate is wrong; the report is never downgraded
            silently.
        ValueError: ``seeds`` is below 1, with or without ``verify``, as on
            the command line.
    """
    require_valid(g)
    _check_replay_settings(seeds)
    state = eid_tsid_identify(g, max_set_size)
    certificates: dict[DirectedEdge, EdgeCertificate] = {}
    order: list[EdgeCertificate] = list(state.certificates.values())

    # Verification seed 0 is the base seed, so one stacked draw serves the
    # replay, the infinite-to-one screen and the Jacobian.  If the stack is
    # degenerate, the base seed is drawn alone and raises first if it is the
    # degenerate one.
    verify_seeds = _verification_seeds(seed, seeds) if verify and order else []
    stack = None
    if verify_seeds:
        with contextlib.suppress(DegenerateSampleError):
            stack = oracle.sample_parameters(g, verify_seeds)
    if stack is not None:
        params = Parameters(lam=stack.lam[0], omega=stack.omega[0])
    else:
        params = oracle.sample_parameters(g, seed) if g.n else None
    for edge in sorted(g.directed):
        if edge in state.certificates:
            certificates[edge] = state.certificates[edge]
            continue
        fires, record = edge_infinite_to_one(g, edge)
        if fires:
            try:
                u, w = edge
                gamma = params.lam[u - 1, w - 1] + 1.0
                oracle.alternative_parameters(g, params, edge, gamma)
                certificates[edge] = EdgeCertificate(
                    edge=edge, status=INFINITE_TO_ONE, witness={"record": record}
                )
                continue
            except DegenerateSampleError:
                # Known boundary of the hypothesis (the check on z equal to
                # the tail): the two-point construction does not go through,
                # so the numeric oracle wins and the edge stays unknown.
                certificates[edge] = EdgeCertificate(
                    edge=edge, status=UNKNOWN,
                    witness={"record": record, "note": "hypothesis held but construction failed"},
                )
                continue
        certificates[edge] = EdgeCertificate(edge=edge, status=UNKNOWN)

    if verify and order:
        errors = verify_certificates(g, order, verify_seeds, sampled=stack)
        for edge, err in errors.items():
            certificates[edge] = replace(
                certificates[edge],
                verification={"seeds": seeds, "max_rel_err": err},
            )

    if g.n:
        jac_rank = oracle.jacobian_rank(g, params)
    else:
        jac_rank = 0
    return CertificationReport(
        graph=g,
        certificates={e: certificates[e] for e in sorted(certificates)},
        jacobian_rank=jac_rank,
        n_parameters=oracle.n_free_parameters(g),
        seed=seed,
    )
