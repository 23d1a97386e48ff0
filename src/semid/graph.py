"""Mixed graphs: representation, validation, reachability queries and codecs.

A mixed graph has directed edges (linear effects) and bidirected edges
(correlated errors / latent confounding).  Vertices are labeled 1..n in all
public interfaces.  Graphs are immutable and hashable.  Validity (a
nonnegative vertex count, no self-loops, every endpoint in 1..n) is checked
once when the graph is built, so no invalid graph exists.  Each graph
computes its neighbourhoods, descendants, ancestors, trek and half-trek
reach and acyclicity in one pass, as vertex bitmasks (``_reach_masks``), and
memoizes them on the instance itself, so they are computed once per graph
and freed with it.  The frozenset queries are views of those masks.
Equality, hashing and repr ignore the memo.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, NamedTuple


DirectedEdge = tuple[int, int]


@dataclass(frozen=True)
class MixedGraph:
    """A mixed graph on vertices 1..n.

    Raises ValueError naming every problem when ``n`` is negative, an edge
    is a self-loop or an endpoint lies outside 1..n.

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
        problems = _problems(self)
        if problems:
            raise ValueError("invalid mixed graph: " + "; ".join(problems))
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
        return _cached(self, _members, "pa")[v]

    def children(self, v: int) -> frozenset[int]:
        _check_vertex(self, v)
        return _cached(self, _members, "ch")[v]

    def siblings(self, v: int) -> frozenset[int]:
        """sib(v): vertices joined to v by a bidirected edge."""
        _check_vertex(self, v)
        return _cached(self, _members, "sib")[v]

    def descendants(self, v: int) -> frozenset[int]:
        """des(v): heads of non-empty directed paths from v.

        v is its own descendant exactly when v lies on a directed cycle.
        """
        _check_vertex(self, v)
        return _cached(self, _members, "des")[v]

    def trek_reachable(self, v: int) -> frozenset[int]:
        """tr(v): endpoints of non-empty treks starting at v."""
        _check_vertex(self, v)
        return _cached(self, _members, "tr")[v]

    def half_trek_reachable(self, v: int) -> frozenset[int]:
        """htr(v): endpoints of non-empty half-treks starting at v.

        Equals des(v) together with every vertex reachable by a (possibly
        empty) directed path from a sibling of v.
        """
        _check_vertex(self, v)
        return _cached(self, _members, "htr")[v]

    def is_acyclic(self) -> bool:
        return _cached(self, _reach_masks).acyclic


def _problems(g: MixedGraph) -> list[str]:
    """One message per violated MixedGraph invariant."""
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


def _check_vertex(g: MixedGraph, v: int) -> None:
    if not 1 <= v <= g.n:
        raise ValueError(f"vertex {v} outside 1..{g.n}")


def _vertex_list(g: MixedGraph, vertices: Iterable[int]) -> list[int]:
    """The distinct ``vertices`` in sorted order, each checked against 1..n."""
    out = sorted(set(vertices))
    for v in out:
        _check_vertex(g, v)
    return out


def _cached(g: MixedGraph, compute, *args):
    """compute(g, *args), memoized on g so that it is freed with g."""
    key = (compute, *args)
    if key not in g._memo:
        g._memo[key] = compute(g, *args)
    return g._memo[key]


class ReachMasks(NamedTuple):
    """Per-vertex neighbourhoods and reach sets of a graph as int bitmasks.

    Each field but ``acyclic`` is indexed by vertex (index 0 is unused and
    0), and bit x of a mask stands for vertex x.  Memoize with ``_cached``.
    """

    pa: list[int]
    ch: list[int]
    sib: list[int]
    des: list[int]
    anc: list[int]
    htr: list[int]
    tr: list[int]
    acyclic: bool


def _reach_masks(g: MixedGraph) -> ReachMasks:
    """Every reach set of g, from one transitive closure of its directed edges.

    A half-trek from v either descends from v or crosses to a sibling s of
    v and descends from s, so htr(v) is des(v) with every sibling and its
    descendants.  A trek first climbs from v to a top among its ancestors
    A, then runs a half-trek from the top.  So tr(v) is A and the half-trek
    reach of v and of A.  v itself counts only when a non-empty (half-)trek
    returns to it; v is in A only on a directed cycle, and then in des(v).
    """
    pa, ch, sib = ([0] * (g.n + 1) for _ in range(3))
    for u, w in g.directed:
        pa[w] |= 1 << u
        ch[u] |= 1 << w
    for u, w in g.bidirected:
        sib[u] |= 1 << w
        sib[w] |= 1 << u
    des, anc = _closure(ch), _closure(pa)
    htr = des[:]
    for v in g.vertices:
        for s in _bits(sib[v]):
            htr[v] |= 1 << s | des[s]
    tr = htr[:]
    for v in g.vertices:
        tr[v] |= anc[v]
        for x in _bits(anc[v]):
            tr[v] |= htr[x]
    acyclic = not any(des[v] >> v & 1 for v in g.vertices)
    return ReachMasks(pa, ch, sib, des, anc, htr, tr, acyclic)


def _closure(adj: list[int]) -> list[int]:
    """Heads of non-empty paths along ``adj`` from each vertex (Warshall)."""
    reach = adj[:]
    for k in range(1, len(reach)):
        bit, via = 1 << k, reach[k]
        if via:
            for i in range(1, len(reach)):
                if reach[i] & bit:
                    reach[i] |= via
    return reach


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _members(g: MixedGraph, field: str) -> list[frozenset[int]]:
    """The ``_reach_masks`` field of that name as one frozenset per vertex."""
    return [frozenset(_bits(m)) for m in getattr(_cached(g, _reach_masks), field)]


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
        if self.d.bit_length() > self.n * (self.n - 1):
            raise ValueError(f"directed code {self.d} out of range for n={self.n}")
        if self.b.bit_length() > self.n * (self.n - 1) // 2:
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


def decode_id(gid: GraphId) -> MixedGraph:
    """Expand an integer pair code into the mixed graph it encodes.

    Bit i of d (little-endian, outer loop v=1..n, inner loop w=1..n skipping
    v) sets the edge v -> w; bit j of b (outer v=1..n-1, inner w=v+1..n) sets
    v <-> w.  Only the set bits are visited, each mapped to its pair by
    arithmetic, so no step walks all n(n - 1) pairs.
    """
    n = gid.n
    directed = []
    for i in _bits(gid.d):
        v, r = divmod(i, n - 1)
        directed.append((v + 1, r + 1 if r < v else r + 2))
    bidirected = []
    v, first = 1, 0  # first: the bit of (v, v + 1)
    for j in _bits(gid.b):
        while j >= first + n - v:
            first += n - v
            v += 1
        bidirected.append((v, v + 1 + j - first))
    return MixedGraph(n, directed, bidirected)


def encode_id(g: MixedGraph) -> GraphId:
    """Inverse of decode_id."""
    n = g.n
    d = sum(1 << ((v - 1) * (n - 1) + w - 1 - (w > v)) for v, w in g.directed)
    b = sum(1 << ((v - 1) * (2 * n - v) // 2 + w - v - 1) for v, w in g.bidirected)
    return GraphId(n, d, b)


def bidirected_subdivision(g: MixedGraph) -> tuple[MixedGraph, dict[int, DirectedEdge]]:
    """Replace each bidirected edge by a fresh common-parent vertex.

    Edge i <-> j becomes a new vertex x with directed edges x -> i and
    x -> j.  Returns the subdivided graph (which has no bidirected edges)
    and the map from each new vertex to the bidirected edge it replaced.
    """
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
    if type(n) is not int:  # nor a bool, which isinstance would count
        raise ValueError(f"vertex count must be an integer, got {n!r}")

    def read_edges(key: str) -> list[DirectedEdge]:
        edges = payload.get(key, [])
        if not isinstance(edges, list):
            raise ValueError(f"{key} must be a list of pairs, got {edges!r}")
        out = []
        for item in edges:
            if not (isinstance(item, list) and len(item) == 2
                    and all(type(x) is int for x in item)):
                raise ValueError(f"{key} entry {item!r} is not a pair of integers")
            out.append((item[0], item[1]))
        return out

    return MixedGraph(n, read_edges("directed"), read_edges("bidirected"))


def infinite_to_one_record(g: MixedGraph, v: int, w: int) -> dict[int, str] | None:
    """Per-vertex witness for the non-identifiability test of edge v -> w.

    Returns, for each z != w, which disjunct held: z is a sibling of w, or v
    is not half-trek reachable from z.  Returns None as soon as some z
    satisfies neither, in which case the test fails.
    """
    if (v, w) not in g.directed:
        raise ValueError(f"edge {v}->{w} not in graph")
    masks = _cached(g, _reach_masks)
    record: dict[int, str] = {}
    for z in g.vertices:
        if z == w:
            continue
        if masks.sib[w] >> z & 1:
            record[z] = "sibling"
        elif not masks.htr[z] >> v & 1:
            record[z] = "not_half_trek_reachable"
        else:
            return None
    return record
