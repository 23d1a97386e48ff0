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

The TSID search sweeps only the pairs whose trek-separation star minor
vanishes at a fixed point mod P (``modp.star_vanishing_pairs``, whose
docstring shows that the sweep rejects every other pair), so a search that
screens out every pair builds no flow network.
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
from .oracle import DegenerateSampleError

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
        return [w for w in _bits(_cached(g, _reach_masks).pa[v]) if (w, v) in self.certificates]


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
        # Admissible sources come from reach, so a larger E has too few of them.
        for size in range(min(len(pending), len(reach)), 0, -1):
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
    des_v = _cached(g, _reach_masks).des[v]
    below = des_v | 1 << v  # v and des(v)
    if len(S) != len(T) + 1 or w0 in T or des_v >> v & 1 or below & sum(1 << t for t in T):
        return False
    if strict and below & sum(1 << s for s in S):
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
    masks = _cached(g, _reach_masks)
    unstripped = masks.pa[v] & ~sum(1 << p for p in {w0, *solved})
    need, star = 1 << (g.n + w0), 1 << v | masks.sib[v] | unstripped << g.n
    return lambda reach: reach & need and not reach & star


def _sweeps(g: MixedGraph) -> dict[int, int]:
    """g's residual sweeps by (S, T), keyed by the bitmask of T with that of S above it; memoize with ``_cached``."""
    return {}


def _tsid_search(g: MixedGraph, v: int, w0: int, solved: tuple[int, ...], max_set_size: int) -> tuple | None:
    """The first (S, T) in search order passing the relaxed test for w0 -> v, or None; memoize with ``_cached``.

    Each pair is swept once per graph and its sweep probed for every edge.
    """
    sweeps = _cached(g, _sweeps)
    accepts = _tsep_probe(g, v, w0, solved)
    for S, T in modp.star_vanishing_pairs(g, v, w0, solved, max_set_size):
        key = sum(1 << s for s in S) << g.n | sum(1 << t for t in T)
        reach = sweeps.get(key)
        if reach is None:
            reach = sweeps[key] = _tsep_sweep(g, S, T)
        if accepts(reach):
            return S, T
    return None


def tsid_identify(g: MixedGraph, state: SolverState | None = None, max_set_size: int | None = None) -> SolverState:
    """Trek-separation identification to fixpoint.

    For each unsolved edge w0 -> v (in (v, w0) lexicographic order), search
    source/target pairs (S, T) with |S| = |T| + 1 up to ``max_set_size``
    (default: the vertex count, i.e. exhaustive) for the first pair passing
    the relaxed acceptance test; the certificate records (S, T) and the
    already-solved edges into v as prerequisites.  An edge with v on a
    directed cycle, or one the graph decides infinite-to-one
    (``_decided_infinite_to_one``), has no such pair and is not searched.

    A search is a function of g, the edge, its solved siblings and
    ``max_set_size``, so ``_tsid_search`` is memoized on g: no search runs
    twice on one graph, across calls too, and each (S, T) is swept once.
    """
    if max_set_size is None:
        max_set_size = max(g.n, 1)
    if max_set_size < 1:
        raise ValueError(f"max_set_size must be >= 1, got {max_set_size}")
    state = state.copy() if state else SolverState()
    masks = _cached(g, _reach_masks)
    changed = True
    while changed:
        changed = False
        for v, w0 in sorted((v, w) for (w, v) in g.directed):
            if (w0, v) in state.certificates or masks.des[v] >> v & 1 or _decided_infinite_to_one(g, (w0, v)):
                continue  # solved, or no pair can pass: v on a cycle, or the edge infinite-to-one
            solved_sibs = tuple(s for s in state.solved_parents(g, v) if s != w0)
            pair = _cached(g, _tsid_search, v, w0, solved_sibs, max_set_size)
            if pair is not None:
                S, T = pair
                state.certificates[(w0, v)] = EdgeCertificate(
                    edge=(w0, v), status=IDENTIFIABLE, method="TSID",
                    witness={"v": v, "w0": w0, "S": sorted(S), "T": sorted(T)},
                    prerequisites=tuple((s, v) for s in solved_sibs),
                )
                changed = True
    return state


def eid_tsid_identify(g: MixedGraph, max_set_size: int | None = None) -> SolverState:
    """Alternate the edgewise and trek-separation solvers until neither advances.

    Each EID round runs to its fixpoint, so once a TSID round adds nothing,
    another EID round would start from its own fixpoint and add nothing too.
    A TSID round reruns no search of an earlier one: ``tsid_identify``
    memoizes each search on g.
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
    half-trek-reach v; the record shows which disjunct held per z.  The test
    alone does not make the edge infinite-to-one: ``certify`` also needs
    v <-> w (see ``_screen_edge``), and exactly then the two-point
    construction ``oracle.alternative_parameters`` goes through at a
    generic point.
    """
    record = _cached(g, infinite_to_one_record, *edge)
    if record is None:
        return False, {}
    return True, dict(record)


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

    Raises:
        ValueError: some w -> v is not an edge of g, the rows are not one
            per target, or a row (S, T) names a vertex outside 1..n or does
            not have |S| = |T| + 1 distinct vertices.
    """
    targets = sorted(set(targets))
    rows = [(_vertex_list(g, s), _vertex_list(g, t)) for s, t in rows]
    for w in targets:
        if (w, v) not in g.directed:
            raise ValueError(f"edge {w}->{v} not in graph")
    if len(rows) != len(targets):
        raise ValueError("need one (S, T) row per target")
    for s, t in rows:
        if len(s) != len(t) + 1:
            raise ValueError(f"row ({s}, {t}) must have |S| = |T| + 1")
    witness = {"v": v, "targets": targets, "rows": rows}
    return [
        EdgeCertificate(edge=(w, v), status=IDENTIFIABLE, method="JOINT", witness=witness)
        for w in targets
    ]


# The witness keys that replay reads, per method.
_WITNESS_KEYS = {
    "HTC": ("v", "E", "Y", "S", "H"),
    "EID": ("v", "E", "Y", "S", "H"),
    "TSID": ("v", "w0", "S", "T"),
    "JOINT": ("v", "targets", "rows"),
}


def replay_certificates(
    certificates: Iterable[EdgeCertificate],
    sigma: np.ndarray,
) -> dict[DirectedEdge, np.ndarray]:
    """Recover coefficients from a covariance matrix by replaying certificates.

    Certificates must arrive in an order compatible with their prerequisites
    (discovery order always is); recovered values feed later replays, so the
    result depends on sigma alone, never on ground-truth parameters.  For a
    stack ``sigma`` of shape (..., n, n) every recovered value has shape
    (...).

    Every certificate is a linear system, solved where its first
    certificate stands by the public solver of its formula:
    ``oracle.solve_recovery_system`` for HTC and EID, ``oracle.recover_edge_ratio``
    for TSID (one row) and ``oracle.solve_determinantal_system`` for JOINT,
    which all end in ``oracle._solve_system``.  Later certificates with an
    equal witness (E, or the JOINT targets) take their values from it.

    Raises:
        CertificateError: a certificate comes before its prerequisites, has
            an unknown method, has a witness that lacks a key its method
            reads or uses an edge its prerequisites do not list, or has a
            system that does not recover its own edge.
        DegenerateSampleError: some system determinant is below tolerance.
        ValueError: a witness names a vertex outside 1..n.
    """
    recovered: dict[DirectedEdge, np.ndarray] = {}
    # Edge -> the witness of the system that recovers it, and that system's values.
    systems: dict[DirectedEdge, tuple[dict, dict]] = {}
    for cert in certificates:
        if cert.status != IDENTIFIABLE:
            continue
        missing = [e for e in cert.prerequisites if e not in recovered]
        if missing:
            raise CertificateError(f"certificate for {cert.edge} replayed before prerequisites {missing}")
        if cert.method not in _WITNESS_KEYS:
            raise CertificateError(f"unknown certificate method {cert.method!r}")
        w = cert.witness
        system = systems.get(cert.edge)
        if system is None or system[0] != w:
            lacking = [key for key in _WITNESS_KEYS[cert.method] if key not in w]
            if not lacking and cert.method in ("HTC", "EID"):
                lacking = [f"H[{y}]" for y in w["Y"] if y not in w["H"]]
            if lacking:
                raise CertificateError(f"certificate for {cert.edge} has a witness without {lacking}")
            v = w["v"]
            targets = (w["E"] if cert.method in ("HTC", "EID")
                       else [w["w0"]] if cert.method == "TSID" else w["targets"])
            recovers = [(t, v) for t in targets]
            if cert.edge not in recovers:
                raise CertificateError(f"certificate for {cert.edge} solves a system for {recovers}, not for it")
            known = {e: recovered[e] for e in cert.prerequisites}
            if cert.method in ("HTC", "EID"):
                H = [w["H"][y] for y in w["Y"]]
                used = [(h, y) for y, hs in zip(w["Y"], H) for h in hs] + [(s, v) for s in w["S"]]
                unlisted = [e for e in used if e not in known]
                if unlisted:
                    raise CertificateError(
                        f"certificate for {cert.edge} uses edges {unlisted} not among its prerequisites"
                    )
                values = oracle.solve_recovery_system(sigma, v, targets, w["S"], w["Y"], H, known)
            elif cert.method == "TSID":
                values = {recovers[0]: oracle.recover_edge_ratio(sigma, w["S"], w["T"], v, w["w0"], known)}
            else:
                values = oracle.solve_determinantal_system(sigma, w["rows"], v, targets, known)
            system = (w, values)
            systems.update((e, system) for e in recovers)
        recovered[cert.edge] = system[1][cert.edge]
    return recovered


@dataclass(frozen=True)
class CertificationReport:
    """Full per-edge certification of a mixed graph.

    ``certificates`` maps every directed edge to its certificate, in sorted
    edge order.  ``parameterization_infinite_to_one`` flags a rank-deficient
    Jacobian of the whole parameterization, independent of the per-edge
    statuses.  The rank is ``n_parameters`` when every directed edge is
    certified, since the certificates invert the parameterization
    rationally, or when ``modp.proves_full_rank`` proves it mod P.
    Otherwise it is the float rank ``oracle.jacobian_rank`` at
    ``oracle.sample_parameters(graph, seed)``, and a deficient one is
    evidence of a global obstruction, not a certificate.
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


# Draws tried per seed before a replay that stays degenerate at it fails.
REPLAY_RESAMPLES = 5
# Largest relative error a replayed coefficient may have against the sampled one.
REPLAY_TOLERANCE = 1e-6


def _verification_seeds(seed: int, count: int) -> list[int]:
    return [seed + 7919 * i for i in range(count)]


def verify_certificates(
    g: MixedGraph,
    certificates: Iterable[EdgeCertificate],
    seeds: Iterable[int],
) -> dict[DirectedEdge, float]:
    """Replay identifiable certificates over several seeds against ground truth.

    All seeds are sampled together as one stack, ``oracle.sample_parameters(g,
    seeds)``, and replayed on its ``oracle.covariance``; with no identifiable
    certificate nothing is drawn.  ``replay_certificates`` solves each
    system with ``oracle.solve_recovery_system``, ``oracle.recover_edge_ratio``
    or ``oracle.solve_determinantal_system``, all ending in
    ``oracle._solve_system``.  When a system is degenerate, the slices its
    ``DegenerateSampleError`` names (all, when it names none) are drawn
    again, each at 104729 past its last draw seed, and the stack replays.
    Slice i of a stack is the point its seed draws alone, so every seed ends
    on the draw a replay of it alone would reach.  The gate runs once, on
    the final stack.

    Returns the max relative recovery error per edge.

    Raises:
        CertificateError: some edge's recovered value misses the sampled
            coefficient by more than ``REPLAY_TOLERANCE`` (relative, a NaN
            error fails); the first failing seed, then the first failing
            edge in replay order, is reported.
        DegenerateSampleError: the stack could not be drawn, or a seed
            stayed degenerate for ``REPLAY_RESAMPLES`` draws.
        ValueError: ``seeds`` is empty, or a seed is not an integer >= 0.
    """
    ordered = [c for c in certificates if c.status == IDENTIFIABLE]
    seeds = list(seeds)
    oracle._check_seed(len(seeds), "seeds", 1)
    for s in seeds:
        oracle._check_seed(s, "seed", 0)
    if not ordered:
        return {}
    stack = oracle.sample_parameters(g, seeds)
    draws = list(seeds)
    failures = [0] * len(seeds)
    while True:
        try:
            recovered = replay_certificates(ordered, oracle.covariance(stack))
            break
        except DegenerateSampleError as exc:
            for i in range(len(seeds)) if exc.slices is None else exc.slices:
                failures[i] += 1
                if failures[i] == REPLAY_RESAMPLES:
                    raise DegenerateSampleError(
                        f"replay stayed degenerate after {REPLAY_RESAMPLES} resamples (seed {seeds[i]}): {exc}"
                    )
                draws[i] += 104729
        stack = oracle.sample_parameters(g, draws)

    tails, heads = np.array([c.edge for c in ordered], dtype=np.intp).T - 1
    truth = stack.lam[:, tails, heads]
    got = np.stack([recovered[c.edge] for c in ordered], axis=-1)
    rel = np.abs(got - truth) / np.maximum(np.abs(truth), 1e-12)
    over = np.argwhere(~(rel <= REPLAY_TOLERANCE))  # NaN fails too
    if len(over):
        i, j = over[0]
        u, w = ordered[j].edge
        raise CertificateError(
            f"edge {u}->{w} ({ordered[j].method}): recovered {got[i, j]:.12g} "
            f"vs sampled {truth[i, j]:.12g} (rel err {rel[i, j]:.3e} > {REPLAY_TOLERANCE:g}, seed {seeds[i]})"
        )
    return {cert.edge: float(err) for cert, err in zip(ordered, rel.max(axis=0))}


def _decided_infinite_to_one(g: MixedGraph, edge: DirectedEdge) -> bool:
    """Whether the graph alone makes the edge infinite-to-one: tail <-> head and the literal test fires.

    Moving the coefficient of the edge moves entry [tail, head] of
    (I - gamma)^T sigma (I - gamma) by a multiple of
    [(I - lambda)^T sigma]_{tail, tail}, which contains omega_{tail, tail},
    so only a bidirected edge there can absorb the change.  No certificate
    can recover such an edge, so ``tsid_identify`` searches no pair for it.
    The record is memoized on g, so ``_screen_edge`` and every TSID round
    walk it once per edge.
    """
    return g.has_bidirected(*edge) and _cached(g, infinite_to_one_record, *edge) is not None


def _screen_edge(g: MixedGraph, edge: DirectedEdge) -> EdgeCertificate:
    """Certificate of an edge no solver certified: infinite-to-one (``_decided_infinite_to_one``) or unknown."""
    fires, record = edge_infinite_to_one(g, edge)
    if not fires:
        return EdgeCertificate(edge=edge, status=UNKNOWN)
    if not _decided_infinite_to_one(g, edge):
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
    remaining edges from the graph alone (``_screen_edge``: infinite-to-one
    when the literal test fires and the tail is a sibling of the head), and
    takes the Jacobian rank of the parameterization: full when every edge
    is certified or ``modp.proves_full_rank`` proves it from the
    uncertified edges' columns mod P, else the float rank at
    ``oracle.sample_parameters(g, seed)``, the point of verification seed
    0.  With ``verify``, every identifiable certificate is replayed over
    ``seeds`` sampled covariances by ``verify_certificates`` and the max
    relative error is attached.  No status depends on ``seed``, nor does a
    proved full rank; a float sample serves only the replay and an
    unproved rank.

    Raises:
        CertificateError: a replay missed the sampled ground truth, which
            means a certificate is wrong; the report is never downgraded
            silently.
        DegenerateSampleError: the verification stack could not be drawn,
            or a seed stayed degenerate after resampling.
        ValueError: ``seeds`` is not an integer >= 1, with or without
            ``verify``, as on the command line, or ``seed`` is not an
            integer >= 0.
    """
    oracle._check_seed(seeds, "seeds", 1)
    oracle._check_seed(seed, "seed", 0)
    state = eid_tsid_identify(g, max_set_size)

    # Certified coefficients are rational functions of sigma, and so is
    # omega = (I - lambda)^T sigma (I - lambda): when every edge is
    # certified the parameterization has a rational inverse, its Jacobian
    # full column rank generically, and no float rank is needed.  Otherwise
    # a nonzero minor mod P of the uncertified columns proves full rank.
    uncertified = [e for e in sorted(g.directed) if e not in state.certificates]
    full = not uncertified or modp.proves_full_rank(g, uncertified)

    errors: dict[DirectedEdge, float] = {}
    if verify:
        errors = verify_certificates(g, state.certificates.values(), _verification_seeds(seed, seeds))
    certificates: dict[DirectedEdge, EdgeCertificate] = {}
    for edge in sorted(g.directed):
        cert = state.certificates.get(edge)
        if cert is None:
            cert = _screen_edge(g, edge)
        elif edge in errors:
            cert = replace(cert, verification={"seeds": seeds, "max_rel_err": errors[edge]})
        certificates[edge] = cert

    n_parameters = oracle.n_free_parameters(g)
    return CertificationReport(
        graph=g,
        certificates=certificates,
        jacobian_rank=n_parameters if full else oracle.jacobian_rank(g, oracle.sample_parameters(g, seed)),
        n_parameters=n_parameters,
        seed=seed,
    )
