"""Mixed graphs: representation, validation, reachability queries and codecs.

A mixed graph has directed edges (linear effects) and bidirected edges
(correlated errors / latent confounding).  Vertices are labeled 1..n in all
public interfaces.  Graphs are immutable and hashable, so the reachability
queries below are memoized per graph and safe for concurrent readers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
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

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    def has_directed(self, u: int, w: int) -> bool:
        return (u, w) in self.directed

    def has_bidirected(self, u: int, w: int) -> bool:
        """Membership query, symmetric in its arguments."""
        return (min(u, w), max(u, w)) in self.bidirected

    def parents(self, v: int) -> frozenset[int]:
        """pa(v): tails of directed edges with head v."""
        _check_vertex(self, v)
        return _parents(self, v)

    def children(self, v: int) -> frozenset[int]:
        _check_vertex(self, v)
        return frozenset(w for u, w in self.directed if u == v)

    def siblings(self, v: int) -> frozenset[int]:
        """sib(v): vertices joined to v by a bidirected edge."""
        _check_vertex(self, v)
        return _siblings(self, v)

    def descendants(self, v: int) -> frozenset[int]:
        """des(v): heads of non-empty directed paths from v.

        v is its own descendant exactly when v lies on a directed cycle.
        """
        _check_vertex(self, v)
        return _descendants(self, v)

    def trek_reachable(self, v: int) -> frozenset[int]:
        """tr(v): endpoints of non-empty treks starting at v."""
        _check_vertex(self, v)
        return _trek_reach(self, v, True)

    def half_trek_reachable(self, v: int) -> frozenset[int]:
        """htr(v): endpoints of non-empty half-treks starting at v.

        Equals des(v) together with every vertex reachable by a (possibly
        empty) directed path from a sibling of v.
        """
        _check_vertex(self, v)
        return _trek_reach(self, v, False)

    def is_acyclic(self) -> bool:
        return _is_acyclic(self)


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
    problems = validate(g)
    if problems:
        raise ValueError("invalid mixed graph: " + "; ".join(problems))
    return g


def _check_vertex(g: MixedGraph, v: int) -> None:
    if not 1 <= v <= g.n:
        raise ValueError(f"vertex {v} outside 1..{g.n}")


@lru_cache(maxsize=None)
def _parents(g: MixedGraph, v: int) -> frozenset[int]:
    return frozenset(u for u, w in g.directed if w == v)


@lru_cache(maxsize=None)
def _siblings(g: MixedGraph, v: int) -> frozenset[int]:
    return frozenset(u if w == v else w for u, w in g.bidirected if v in (u, w))


@lru_cache(maxsize=None)
def _descendants(g: MixedGraph, v: int) -> frozenset[int]:
    seen: set[int] = set()
    stack = [w for u, w in g.directed if u == v]
    while stack:
        x = stack.pop()
        if x in seen:
            continue
        seen.add(x)
        stack.extend(w for u, w in g.directed if u == x and w not in seen)
    return frozenset(seen)


@lru_cache(maxsize=None)
def _is_acyclic(g: MixedGraph) -> bool:
    return not any(v in _descendants(g, v) for v in g.vertices)


@lru_cache(maxsize=None)
def _trek_reach(g: MixedGraph, v: int, use_left: bool) -> frozenset[int]:
    """Reachability over the doubled trek topology.

    Nodes are 1..n (left, climbing against directed edges) and n+1..2n
    (right, descending along directed edges); a bidirected edge or the
    pass-through arc i -> i' switches sides.  Paths from v to w' are exactly
    the treks from v to w; dropping the left-climbing arcs restricts to
    half-treks.  The lone arc v -> v' is the empty trek and does not count.
    """
    n = g.n
    adj: dict[int, list[int]] = {x: [] for x in range(1, 2 * n + 1)}
    for u, w in g.directed:
        if use_left:
            adj[w].append(u)  # climb from head to tail on the left
        adj[n + u].append(n + w)  # descend on the right
    for u, w in g.bidirected:
        adj[u].append(n + w)
        adj[w].append(n + u)
    for x in g.vertices:
        adj[x].append(n + x)

    seen = {v}
    stack = [v]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)

    reached = set()
    for w in g.vertices:
        if w != v and n + w in seen:
            reached.add(w)
    # v' entered through anything other than the trivial arc v -> v' marks a
    # non-empty trek back to the source.
    vprime_in = {z for z in g.siblings(v)} | {n + u for u in g.parents(v)}
    if any(x in seen for x in vprime_in):
        reached.add(v)
    return frozenset(reached)


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
    def source(self) -> int:
        return self.left[0]

    @property
    def target(self) -> int:
        return self.right[-1]

    @property
    def top(self) -> tuple[int, int]:
        return (self.left[-1], self.right[0])

    def left_set(self) -> frozenset[int]:
        return frozenset(self.left)

    def right_set(self) -> frozenset[int]:
        return frozenset(self.right)

    def is_half_trek(self) -> bool:
        return len(self.left) == 1

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
