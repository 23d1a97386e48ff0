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
how much work is done.  It runs at every level |S| = 1..K, over blocks of
at most ``FILTER_BLOCK`` pairs in search order; at |S| = 1 the minor is the
one entry star[s, v].  Only the pairs that survive are swept, on the flow
graph taken from the graph's memo, so a search that screens out every pair
builds no network.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, replace
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import modp, oracle
from .flow import build_flow_graph, build_restricted_flow_graph
from .graph import DirectedEdge, MixedGraph, _bits, _cached, _reach_masks, _vertex_list, infinite_to_one_record
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
        """This certificate as a fresh JSON tree; callers may change it freely."""
        return json.loads(_certificate_json(self, "", {}))


def _json(value, pad: str) -> str:
    """``value`` as ``json.dumps(value, indent=2)`` writes it, nested at indentation ``pad``."""
    if isinstance(value, (list, tuple)):
        if all(type(x) is int for x in value):  # bool is a subclass of int, not int
            return _json_block("[", list(map(int.__repr__, value)), "]", pad)
        inner = pad + "  "
        return _json_block("[", [_json(x, inner) for x in value], "]", pad)
    if isinstance(value, dict):
        inner = pad + "  "
        return _json_block(
            "{", [f"{encode_basestring_ascii(k)}: {_json(x, inner)}" for k, x in value.items()], "}", pad
        )
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_block(opening: str, items: list[str], closing: str, pad: str) -> str:
    """A JSON array or object at indentation ``pad`` from its written items."""
    if not items:
        return opening + closing
    inner = "\n" + pad + "  "
    return opening + inner + ("," + inner).join(items) + "\n" + pad + closing


def _witness_json(witness: dict, prerequisites: tuple[DirectedEdge, ...], pad: str) -> str:
    """The "witness" object of a certificate, with its prerequisites as the last key."""
    inner = pad + "  "
    items = []
    for key, value in witness.items():
        if key == "H":
            value = {str(y): sorted(hs) for y, hs in value.items()}
        elif key == "record":
            value = {str(z): reason for z, reason in sorted(value.items())}
        elif key == "rows":
            value = [[sorted(s), sorted(t)] for s, t in value]
        elif isinstance(value, (set, frozenset, tuple, list)):
            value = sorted(value)
        items.append(f"{encode_basestring_ascii(key)}: {_json(value, inner)}")
    items.append(f'"prerequisites": {_json(prerequisites, inner)}')
    return _json_block("{", items, "}", pad)


def _certificate_json(cert: EdgeCertificate, pad: str, witnesses: dict) -> str:
    """One certificate as indented JSON text at indentation ``pad``.

    HTC and EID give every edge of one half-trek system the same witness
    dict and prerequisites tuple, so ``witnesses`` keeps each written
    witness by the identity of that pair.  The certificates hold both
    objects for as long as the dict lives, so no identity is reused.
    """
    inner = pad + "  "
    key = (id(cert.witness), id(cert.prerequisites))
    witness = witnesses.get(key)
    if witness is None:
        witness = witnesses[key] = _witness_json(cert.witness, cert.prerequisites, inner)
    items = [
        f'"edge": {_json(cert.edge, inner)}',
        f'"status": {_json(cert.status, inner)}',
        f'"method": {_json(cert.method, inner)}',
        f'"witness": {witness}',
    ]
    if cert.verification is not None:
        items.append(f'"verification": {_json(cert.verification, inner)}')
    return _json_block("{", items, "}", pad)


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


def half_trek_system_exists(
    g: MixedGraph,
    sources: Iterable[int],
    targets: Iterable[int],
) -> tuple[bool, list[tuple[int, tuple[int, ...]]]]:
    """Decide whether a half-trek system with no sided intersection exists.

    Looks for |targets| half-treks from distinct vertices of ``sources`` onto
    ``targets`` whose right-hand sides are vertex-disjoint; the left side of
    a half-trek is its source alone, so left-disjointness is automatic.  The
    search is a max-flow on the doubled flow graph with the left-climbing
    arcs removed.

    Returns:
        (exists, system) where system pairs each active source with the
        right-hand side of its half-trek.
    """
    sources, targets = _vertex_list(g, sources), _vertex_list(g, targets)
    # A system needs a distinct source per target, and from y the network
    # reaches only y', sib(y)' and their descendants, so htr(y) and y.  Many
    # calls fail one of these, most often for want of any source; returning
    # here spares the flow.
    if not targets:
        return True, []
    masks = _cached(g, _reach_masks)
    reach = 0
    for y in sources:
        reach |= masks.htr[y] | 1 << y
    if len(sources) < len(targets) or any(not reach >> t & 1 for t in targets):
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


Attempt = tuple[Sequence[int], Sequence[int], Sequence[int]]


def _half_trek_fixpoint(
    g: MixedGraph,
    state: SolverState | None,
    method: str,
    attempts: Callable[[int, list[int]], Iterable[Attempt]],
) -> SolverState:
    """Grow a copy of ``state`` by half-trek systems until no node gains an edge.

    Each pass visits the nodes v in order.  ``attempts(v, unsolved)`` yields
    the (sources, E, solved parents) attempts for v, where ``unsolved[x]``
    masks the parents of x whose edges into x have no certificate; the first
    E with a half-trek system from its sources certifies every unsolved edge
    e -> v of E under ``method``.  The attempts depend only on the
    certificates, so a node whose attempts all failed is tried again only
    once a certificate has been added.  ``method`` only labels the
    certificates, so HTC and EID differ in nothing but their attempts.

    The corrected row for source y strips the parents of y reachable from v
    by a half-trek; v itself counts even when no non-empty half-trek returns
    to it, because the edge v -> y alone feeds treks from y back to v.
    """
    state = state.copy() if state else SolverState()
    masks = _cached(g, _reach_masks)
    unsolved = masks.pa[:]
    for w, v in state.certificates:
        unsolved[v] &= ~(1 << w)
    failed_at: dict[int, int] = {}  # node -> certificate count at its failed attempt
    changed = True
    while changed:
        changed = False
        for v in g.vertices:
            if not unsolved[v] or failed_at.get(v) == len(state.certificates):
                continue
            for sources, E, solved_parents in attempts(v, unsolved):
                exists, system = half_trek_system_exists(g, sources, E)
                if exists:
                    break
            else:
                failed_at[v] = len(state.certificates)
                continue
            htr_v = masks.htr[v] | 1 << v
            Y = [y for y, _ in system]
            H = {y: _bits(masks.pa[y] & htr_v) for y in Y}
            prereqs = [(s, v) for s in solved_parents]
            prereqs += [(h, y) for y in Y for h in H[y]]
            witness = {"v": v, "E": sorted(E), "Y": Y, "S": sorted(solved_parents), "H": H}
            prereqs = tuple(dict.fromkeys(prereqs))
            inside = sum(1 << e for e in E)
            for e in _bits(unsolved[v] & inside):
                state.certificates[(e, v)] = EdgeCertificate(
                    edge=(e, v), status=IDENTIFIABLE, method=method,
                    witness=witness, prerequisites=prereqs,
                )
            unsolved[v] &= ~inside
            changed = True
    return state


def htc_identify(g: MixedGraph, state: SolverState | None = None) -> SolverState:
    """Half-trek criterion to fixpoint: solve all edges into a node at once.

    A node v is solved from sources Y disjoint from {v} and its siblings,
    where any source half-trek reachable from v must already have all of its
    incoming edges solved.  The one attempt for v is a system onto all its
    parents; ``_half_trek_fixpoint`` runs the passes and writes the
    certificates.
    """
    masks = _cached(g, _reach_masks)

    def attempts(v: int, unsolved: list[int]) -> Iterator[Attempt]:
        banned, htr_v = 1 << v | masks.sib[v], masks.htr[v]
        allowed = [
            y for y in g.vertices
            if not (banned >> y & 1 or unsolved[y] and htr_v >> y & 1)
        ]
        yield allowed, _bits(masks.pa[v]), ()

    return _half_trek_fixpoint(g, state, "HTC", attempts)


def eid_identify(g: MixedGraph, state: SolverState | None = None) -> SolverState:
    """Edgewise criterion to fixpoint: solve subsets of a node's parent edges.

    For each node v, candidate sources are vertices outside {v} and its
    siblings whose half-trek-reachable-from-v parents are all solved.  For
    each subset E of v's unsolved parents (largest first, lexicographic
    within a size), sources whose trek reach meets the unsolved parents only
    inside E are admissible; a half-trek system from them onto E solves all
    of E at once, with v's solved parents taken as known.  Each subset is
    one attempt for v; ``_half_trek_fixpoint`` runs the passes and writes
    the certificates.
    """
    masks = _cached(g, _reach_masks)

    def attempts(v: int, unsolved: list[int]) -> Iterator[Attempt]:
        # v joins the half-trek-reachable set: the bare edge v -> y
        # already carries treks from y back to v, empty prefix or not.
        banned, htr_v = 1 << v | masks.sib[v], masks.htr[v] | 1 << v
        # Per candidate source y, the unsolved parents of v in its trek
        # reach; y joins that reach, since when y is itself a parent of
        # v the edge y -> v is a trek from y with an empty prefix.
        reach = [
            (y, (masks.tr[y] | 1 << y) & unsolved[v]) for y in g.vertices
            if not (banned >> y & 1 or unsolved[y] & htr_v)
        ]
        pending = _bits(unsolved[v])
        solved_parents = _bits(masks.pa[v] & ~unsolved[v])
        for size in range(len(pending), 0, -1):
            for E in itertools.combinations(pending, size):
                inside = sum(1 << e for e in E)
                yield [y for y, r in reach if not r & ~inside], E, solved_parents

    return _half_trek_fixpoint(g, state, "EID", attempts)


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
    return bool(_tsep_probe(g, v, w0, solved_siblings)(_tsep_sweep(g, S, T)))


def _tsep_sweep(g: MixedGraph, S: Sequence[int], T: Sequence[int]) -> int:
    """The residual sweep of a max flow from S to T', or 0 (nothing reached) when it misses a target."""
    full = _cached(g, build_flow_graph)
    value, reach = full.residual_reach(S, [full.primed(t) for t in T])
    return reach if value == len(T) else 0


def _tsep_probe(g: MixedGraph, v: int, w0: int, solved: Iterable[int]) -> Callable[[int], int]:
    """The relaxed ``tsep_accepts`` test of w0 -> v as a predicate on sweeps.

    It needs no network: primed node p' of the flow graph is n + p.
    """
    tails = [v, *g.siblings(v), *(g.n + p for p in g.parents(v) - {w0, *solved})]
    need, star = 1 << (g.n + w0), sum(1 << x for x in tails)
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
    already-solved edges into v as prerequisites.  Each pair is swept once
    per call and its sweep probed for every edge.
    """
    if max_set_size is None:
        max_set_size = max(g.n, 1)
    if max_set_size < 1:
        raise ValueError(f"max_set_size must be >= 1, got {max_set_size}")
    state = state.copy() if state else SolverState()
    # One sweep per (S, T), keyed by the bitmask of T with that of S above it.
    sweeps: dict[int, int] = {}
    changed = True
    while changed:
        changed = False
        for v, w0 in sorted((v, w) for (w, v) in g.directed):
            if (w0, v) in state.certificates or v in g.descendants(v):
                continue  # solved, or on a cycle, where acceptance can never hold
            solved_sibs = [s for s in state.solved_parents(g, v) if s != w0]
            accepts = _tsep_probe(g, v, w0, solved_sibs)
            for S, T in _search_order(g, v, w0, solved_sibs, max_set_size):
                key = sum(1 << s for s in S) << g.n | sum(1 << t for t in T)
                reach = sweeps.get(key)
                if reach is None:
                    reach = sweeps[key] = _tsep_sweep(g, S, T)
                if accepts(reach):
                    state.certificates[(w0, v)] = EdgeCertificate(
                        edge=(w0, v), status=IDENTIFIABLE, method="TSID",
                        witness={"v": v, "w0": w0, "S": sorted(S), "T": sorted(T)},
                        prerequisites=tuple((s, v) for s in solved_sibs),
                    )
                    changed = True
                    break
    return state


def _search_order(
    g: MixedGraph, v: int, w0: int, solved_sibs: list[int], max_set_size: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The (S, T) pairs the search tries for w0 -> v: by increasing |S|, then lexicographic.

    T ranges over the vertices outside des(v) + {v, w0}.  Pairs whose star
    minor is nonzero at the graph's GF(P) point are left out: they fail for
    certain.
    """
    t_candidates = [t for t in g.vertices if t not in (v, w0) and t not in g.descendants(v)]
    star = modp.star_matrix(_cached(g, modp.field_point), v, [w0, *solved_sibs], t_candidates)
    for k in range(1, min(max_set_size, len(t_candidates) + 1) + 1):
        yield from _star_vanishing_pairs(g, star, t_candidates, k)


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

    def to_json(self) -> str:
        """The report as ``json.dumps(self.to_json_dict(), indent=2)`` would write it.

        Each shared witness is written once and its text reused.
        """
        witnesses: dict = {}
        certificates = [
            _certificate_json(self.certificates[e], "    ", witnesses) for e in sorted(self.certificates)
        ]
        return _json_block("{", [
            f'"n": {_json(self.graph.n, "  ")}',
            f'"certificates": {_json_block("[", certificates, "]", "  ")}',
            f'"jacobian_rank": {_json(self.jacobian_rank, "  ")}',
            f'"n_parameters": {_json(self.n_parameters, "  ")}',
            f'"parameterization_infinite_to_one": {_json(self.parameterization_infinite_to_one, "  ")}',
            f'"seed": {_json(self.seed, "  ")}',
        ], "}", "")

    def to_json_dict(self) -> dict:
        """The report as a fresh JSON tree; callers may change it freely."""
        return json.loads(self.to_json())


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
            is not within ``REPLAY_TOLERANCE`` (a NaN error fails).
    """
    got = np.empty((len(seeds), len(ordered)))
    truth = np.empty_like(got)
    for j, cert in enumerate(ordered):
        u, w = cert.edge
        got[:, j] = recovered[cert.edge]
        truth[:, j] = lam[..., u - 1, w - 1]
    rel = np.abs(got - truth) / np.maximum(np.abs(truth), 1e-12)
    over = np.argwhere(~(rel <= REPLAY_TOLERANCE))  # NaN fails too
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
    the caller has already drawn it.  Its covariance is the path sum on an
    acyclic graph and two solves on a cyclic one, without the singularity
    check of ``oracle.covariance``, which every stack the sampler returns
    passes.  When any seed is degenerate, the seeds
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
    worst = rel.max(axis=0)
    return {cert.edge: float(err) for cert, err in zip(ordered, worst)}


def _screen_edge(g: MixedGraph, edge: DirectedEdge, params: Parameters) -> EdgeCertificate:
    """Certificate of an edge no solver certified: infinite-to-one or unknown.

    A hit of the infinite-to-one test is trusted only once the explicit
    two-point construction at ``params`` goes through.
    """
    fires, record = edge_infinite_to_one(g, edge)
    if not fires:
        return EdgeCertificate(edge=edge, status=UNKNOWN)
    u, w = edge
    try:
        oracle.alternative_parameters(g, params, edge, params.lam[u - 1, w - 1] + 1.0)
    except DegenerateSampleError:
        # Known boundary of the hypothesis (the check on z equal to the
        # tail): the two-point construction does not go through, so the
        # numeric oracle wins and the edge stays unknown.
        return EdgeCertificate(
            edge=edge, status=UNKNOWN,
            witness={"record": record, "note": "hypothesis held but construction failed"},
        )
    return EdgeCertificate(edge=edge, status=INFINITE_TO_ONE, witness={"record": record})


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
        DegenerateSampleError: the verification stack could not be drawn,
            or a seed stayed degenerate after resampling.
        ValueError: ``seeds`` is below 1, with or without ``verify``, as on
            the command line.
    """
    _check_replay_settings(seeds)
    state = eid_tsid_identify(g, max_set_size)

    # Verification seed 0 is the base seed, so one stacked draw serves the
    # replay, the infinite-to-one screen and the Jacobian.
    errors: dict[DirectedEdge, float] = {}
    if verify and state.certificates:
        verify_seeds = _verification_seeds(seed, seeds)
        stack = oracle.sample_parameters(g, verify_seeds)
        params = Parameters(lam=stack.lam[0], omega=stack.omega[0])
        errors = verify_certificates(g, state.certificates.values(), verify_seeds, sampled=stack)
    else:
        params = oracle.sample_parameters(g, seed)
    certificates: dict[DirectedEdge, EdgeCertificate] = {}
    for edge in sorted(g.directed):
        cert = state.certificates.get(edge)
        if cert is None:
            cert = _screen_edge(g, edge, params)
        elif edge in errors:
            cert = replace(cert, verification={"seeds": seeds, "max_rel_err": errors[edge]})
        certificates[edge] = cert

    return CertificationReport(
        graph=g,
        certificates=certificates,
        jacobian_rank=oracle.jacobian_rank(g, params),
        n_parameters=oracle.n_free_parameters(g),
        seed=seed,
    )
