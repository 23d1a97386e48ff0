"""Mixed graphs: representation, validation, reachability queries and codecs.

A mixed graph has directed edges (linear effects) and bidirected edges
(correlated errors / latent confounding).  Vertices are labeled 1..n in all
public interfaces.  Graphs are immutable and hashable.  Each graph memoizes
its derived sets (adjacency, descendants, trek and half-trek reach),
acyclicity and validity on the instance itself, so they are computed once
per graph and freed with it.  Equality, hashing and repr ignore the memo.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, NamedTuple


DirectedEdge = tuple[int, int]


@dataclass(frozen=True)
class MixedGraph:
    """A mixed graph on vertices 1..n.

    Attributes:
        n: Number of vertices.
        directed: Ordered pairs (u, w) for edges u -> w.
        bidirected: Unordered edges u <-> w, stored canonically as
            (min(u, w), max(u, w)).
    """

    n: int
    directed: frozenset[DirectedEdge]
    bidirected: frozenset[DirectedEdge]

    def __init__(
        self,
        n: int,
        directed: Iterable[DirectedEdge] = (),
        bidirected: Iterable[DirectedEdge] = (),
    ):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "directed", frozenset((u, w) for u, w in directed))
        object.__setattr__(
            self,
            "bidirected",
            frozenset((min(u, w), max(u, w)) for u, w in bidirected),
        )
        object.__setattr__(self, "_memo", {})

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    def has_bidirected(self, u: int, w: int) -> bool:
        """Membership query, symmetric in its arguments."""
        return (min(u, w), max(u, w)) in self.bidirected

    def parents(self, v: int) -> frozenset[int]:
        """pa(v): tails of directed edges with head v."""
        _check_vertex(self, v)
        return _cached(self, _adjacency)[0].get(v, _NONE)

    def children(self, v: int) -> frozenset[int]:
        _check_vertex(self, v)
        return _cached(self, _adjacency)[1].get(v, _NONE)

    def siblings(self, v: int) -> frozenset[int]:
        """sib(v): vertices joined to v by a bidirected edge."""
        _check_vertex(self, v)
        return _cached(self, _adjacency)[2].get(v, _NONE)

    def descendants(self, v: int) -> frozenset[int]:
        """des(v): heads of non-empty directed paths from v.

        v is its own descendant exactly when v lies on a directed cycle.
        """
        _check_vertex(self, v)
        return _cached(self, _descendants, v)

    def trek_reachable(self, v: int) -> frozenset[int]:
        """tr(v): endpoints of non-empty treks starting at v."""
        _check_vertex(self, v)
        return _cached(self, _trek_reach, v, True)

    def half_trek_reachable(self, v: int) -> frozenset[int]:
        """htr(v): endpoints of non-empty half-treks starting at v.

        Equals des(v) together with every vertex reachable by a (possibly
        empty) directed path from a sibling of v.
        """
        _check_vertex(self, v)
        return _cached(self, _trek_reach, v, False)

    def is_acyclic(self) -> bool:
        return _cached(self, _is_acyclic)


class Neighborhoods(NamedTuple):
    pa: frozenset[int]
    sib: frozenset[int]
    des: frozenset[int]
    tr: frozenset[int]
    htr: frozenset[int]


def neighborhoods(g: MixedGraph, v: int) -> Neighborhoods:
    """All five neighborhood/reachability sets of a vertex."""
    _check_vertex(g, v)
    return Neighborhoods(
        pa=g.parents(v),
        sib=g.siblings(v),
        des=g.descendants(v),
        tr=g.trek_reachable(v),
        htr=g.half_trek_reachable(v),
    )


def validate(g: MixedGraph) -> list[str]:
    """Check all MixedGraph invariants; return one message per violation."""
    problems = []
    if g.n < 0:
        problems.append(f"vertex count must be nonnegative, got {g.n}")
    for u, w in sorted(g.directed):
        if u == w:
            problems.append(f"self-loop {u}->{w} in directed edges")
        for x in (u, w):
            if not 1 <= x <= g.n:
                problems.append(f"directed edge ({u},{w}): endpoint {x} outside 1..{g.n}")
    for u, w in sorted(g.bidirected):
        if u == w:
            problems.append(f"self-loop {u}<->{w} in bidirected edges")
        for x in (u, w):
            if not 1 <= x <= g.n:
                problems.append(f"bidirected edge ({u},{w}): endpoint {x} outside 1..{g.n}")
    return problems


def require_valid(g: MixedGraph) -> MixedGraph:
    problems = _cached(g, validate)
    if problems:
        raise ValueError("invalid mixed graph: " + "; ".join(problems))
    return g


def _check_vertex(g: MixedGraph, v: int) -> None:
    if not 1 <= v <= g.n:
        raise ValueError(f"vertex {v} outside 1..{g.n}")


def _cached(g: MixedGraph, compute, *args):
    """compute(g, *args), memoized on g so that it is freed with g."""
    key = (compute, *args)
    if key not in g._memo:
        g._memo[key] = compute(g, *args)
    return g._memo[key]


_NONE: frozenset[int] = frozenset()


def _adjacency(g: MixedGraph) -> tuple[dict[int, frozenset[int]], ...]:
    """Parent, child and sibling sets keyed by vertex; empty sets are absent.

    Keys come from the edges, so an invalid graph's out-of-range endpoints
    get entries too and traversals over them never fail.
    """
    pa, ch, sib = {}, {}, {}
    for u, w in g.directed:
        pa.setdefault(w, set()).add(u)
        ch.setdefault(u, set()).add(w)
    for u, w in g.bidirected:
        sib.setdefault(u, set()).add(w)
        sib.setdefault(w, set()).add(u)
    return tuple({x: frozenset(s) for x, s in m.items()} for m in (pa, ch, sib))


def _reach(adj: dict[int, frozenset[int]], starts: Iterable[int]) -> set[int]:
    """Heads of non-empty paths along ``adj`` from any vertex in ``starts``."""
    seen: set[int] = set()
    stack = list(starts)
    while stack:
        for y in adj.get(stack.pop(), _NONE):
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def _descendants(g: MixedGraph, v: int) -> frozenset[int]:
    return frozenset(_reach(_cached(g, _adjacency)[1], (v,)))


def _is_acyclic(g: MixedGraph) -> bool:
    return not any(v in _cached(g, _descendants, v) for v in g.vertices)


def _trek_reach(g: MixedGraph, v: int, use_left: bool) -> frozenset[int]:
    """Endpoints of non-empty treks (or half-treks) from v.

    A trek climbs from v to a top among its ancestors-or-self L (just {v}
    for a half-trek), may cross one bidirected edge, then descends.  So the
    endpoints are L, the siblings of L and everything below those; v itself
    counts only when a non-empty trek returns to it, that is when v is a
    sibling of L or lies below L or its siblings.
    """
    pa, ch, sib = _cached(g, _adjacency)
    left = {v} | _reach(pa, (v,)) if use_left else {v}
    tops = set().union(*(sib.get(x, _NONE) for x in left))
    return frozenset((left - {v}) | tops | _reach(ch, left | tops))


@dataclass(frozen=True)
class Trek:
    """A walk with no colliding arrowheads, split at its top.

    ``left`` runs from the source up to the left-hand top vertex; ``right``
    runs from the right-hand top vertex down to the target.  For a directed
    top the two tops coincide (``left[-1] == right[0]``); for a bidirected
    top they are the endpoints of the bidirected edge.  Vertices may repeat:
    treks are walks, not simple paths.
    """

    left: tuple[int, ...]
    right: tuple[int, ...]
    has_bidirected_top: bool

    @property
    def top(self) -> tuple[int, int]:
        return (self.left[-1], self.right[0])

    def directed_edges(self) -> list[DirectedEdge]:
        """Directed edges traversed, oriented as stored in the graph."""
        edges = [(self.left[i + 1], self.left[i]) for i in range(len(self.left) - 1)]
        edges += [(self.right[i], self.right[i + 1]) for i in range(len(self.right) - 1)]
        return edges


@dataclass(frozen=True)
class GraphId:
    """Compact integer code (n, d, b) for a mixed graph on n vertices."""

    n: int
    d: int
    b: int

    def __post_init__(self):
        if self.n < 0 or self.d < 0 or self.b < 0:
            raise ValueError(f"negative component in graph id {self}")
        if self.d >= 1 << (self.n * (self.n - 1)):
            raise ValueError(f"directed code {self.d} out of range for n={self.n}")
        if self.b >= 1 << (self.n * (self.n - 1) // 2):
            raise ValueError(f"bidirected code {self.b} out of range for n={self.n}")

    def __str__(self) -> str:
        return f"{self.n}:{self.d}:{self.b}"

    @classmethod
    def parse(cls, text: str) -> "GraphId":
        parts = text.strip().split(":")
        if len(parts) != 3:
            raise ValueError(f"graph id must have form 'n:d:b', got {text!r}")
        try:
            n, d, b = (int(p) for p in parts)
        except ValueError as exc:
            raise ValueError(f"graph id components must be integers: {text!r}") from exc
        return cls(n, d, b)


def _directed_pair_order(n: int) -> list[DirectedEdge]:
    return [(v, w) for v in range(1, n + 1) for w in range(1, n + 1) if w != v]


def _bidirected_pair_order(n: int) -> list[DirectedEdge]:
    return [(v, w) for v in range(1, n) for w in range(v + 1, n + 1)]


def decode_id(gid: GraphId) -> MixedGraph:
    """Expand an integer pair code into the mixed graph it encodes.

    Bit i of d (little-endian, outer loop v=1..n, inner loop w=1..n skipping
    v) sets the edge v -> w; bit j of b (outer v=1..n-1, inner w=v+1..n) sets
    v <-> w.
    """
    d, b = gid.d, gid.b
    directed = set()
    for pair in _directed_pair_order(gid.n):
        if d & 1:
            directed.add(pair)
        d >>= 1
    bidirected = set()
    for pair in _bidirected_pair_order(gid.n):
        if b & 1:
            bidirected.add(pair)
        b >>= 1
    return MixedGraph(gid.n, directed, bidirected)


def encode_id(g: MixedGraph) -> GraphId:
    """Inverse of decode_id on validated graphs."""
    require_valid(g)
    d = 0
    for bit, pair in enumerate(_directed_pair_order(g.n)):
        if pair in g.directed:
            d |= 1 << bit
    b = 0
    for bit, pair in enumerate(_bidirected_pair_order(g.n)):
        if pair in g.bidirected:
            b |= 1 << bit
    return GraphId(g.n, d, b)


def bidirected_subdivision(g: MixedGraph) -> tuple[MixedGraph, dict[int, DirectedEdge]]:
    """Replace each bidirected edge by a fresh common-parent vertex.

    Edge i <-> j becomes a new vertex x with directed edges x -> i and
    x -> j.  Returns the subdivided graph (which has no bidirected edges)
    and the map from each new vertex to the bidirected edge it replaced.
    """
    require_valid(g)
    directed = set(g.directed)
    vertex_map: dict[int, DirectedEdge] = {}
    next_vertex = g.n
    for i, j in sorted(g.bidirected):
        next_vertex += 1
        vertex_map[next_vertex] = (i, j)
        directed.add((next_vertex, i))
        directed.add((next_vertex, j))
    return MixedGraph(next_vertex, directed, ()), vertex_map


def graph_to_json(g: MixedGraph) -> str:
    payload = {
        "n": g.n,
        "directed": [list(e) for e in sorted(g.directed)],
        "bidirected": [list(e) for e in sorted(g.bidirected)],
    }
    return json.dumps(payload)


def graph_from_json(text: str) -> MixedGraph:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed graph JSON at position {exc.pos}: {exc.msg}") from exc
    if not isinstance(payload, dict) or "n" not in payload:
        raise ValueError("graph JSON must be an object with keys n, directed, bidirected")
    n = payload["n"]
    if not isinstance(n, int):
        raise ValueError(f"vertex count must be an integer, got {n!r}")

    def read_edges(key: str) -> list[DirectedEdge]:
        edges = payload.get(key, [])
        out = []
        for item in edges:
            if not (isinstance(item, list) and len(item) == 2
                    and all(isinstance(x, int) for x in item)):
                raise ValueError(f"{key} entry {item!r} is not a pair of integers")
            out.append((item[0], item[1]))
        return out

    g = MixedGraph(n, read_edges("directed"), read_edges("bidirected"))
    return require_valid(g)


def infinite_to_one_record(g: MixedGraph, v: int, w: int) -> dict[int, str] | None:
    """Per-vertex witness for the non-identifiability test of edge v -> w.

    Returns, for each z != w, which disjunct held: z is a sibling of w, or v
    is not half-trek reachable from z.  Returns None as soon as some z
    satisfies neither, in which case the test fails.
    """
    if (v, w) not in g.directed:
        raise ValueError(f"edge {v}->{w} not in graph")
    record: dict[int, str] = {}
    for z in g.vertices:
        if z == w:
            continue
        if g.has_bidirected(z, w):
            record[z] = "sibling"
        elif v not in g.half_trek_reachable(z):
            record[z] = "not_half_trek_reachable"
        else:
            return None
    return record
