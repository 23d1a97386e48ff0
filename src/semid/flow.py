"""Doubled flow graphs, unit-capacity max-flow, generic ranks and t-separating cuts.

The flow graph of a mixed graph has one left copy 1..n and one right copy
1'..n' of the vertex set (primed node w' is stored as n + w).  Every vertex
and arc has capacity one, so integral flows from sources S to sinks T' are
systems of treks from S to T with no sided intersection, and the max-flow
value equals the generic rank of the covariance submatrix over rows S and
columns T.  A max flow's path witness is decomposed only when it is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Iterable

from .graph import DirectedEdge, MixedGraph, _cached, require_valid


@dataclass(frozen=True)
class FlowWitness:
    """An integral max flow; its unit-path decomposition is built on first access.

    Each path is a node sequence from a source to a sink; paths are pairwise
    vertex-disjoint.  Searches that only need ``value`` never pay for them.
    """

    value: int
    _decompose: Callable[[], tuple[tuple[int, ...], ...]] = field(repr=False, compare=False)

    @cached_property
    def paths(self) -> tuple[tuple[int, ...], ...]:
        return self._decompose()

    def endpoints(self) -> frozenset[tuple[int, int]]:
        return frozenset((p[0], p[-1]) for p in self.paths)


@dataclass(frozen=True)
class FlowNetwork:
    """Immutable network on nodes 1..n_nodes with unit node and arc capacities.

    For doubled graphs, ``n_base`` is the size of the underlying vertex set
    and ``primed(v) == n_base + v``.  The residual graph is compiled once:
    node x splits into in-node 2x and out-node 2x + 1, arc 2k is the k-th
    forward arc and 2k + 1 its reverse.  Source and sink arcs are implicit.
    Each query works on its own copy of the capacities, so concurrent queries
    on one network are safe.
    """

    n_nodes: int
    arcs: tuple[DirectedEdge, ...]
    n_base: int

    def __init__(self, n_nodes: int, arcs: Iterable[DirectedEdge], n_base: int):
        arcs = tuple(sorted(set(arcs)))
        for u, w in arcs:
            if not (1 <= u <= n_nodes and 1 <= w <= n_nodes):
                raise ValueError(f"arc ({u},{w}) references a node outside 1..{n_nodes}")
        object.__setattr__(self, "n_nodes", n_nodes)
        object.__setattr__(self, "arcs", arcs)
        object.__setattr__(self, "n_base", n_base)
        # Per split node, its residual arcs in a fixed order: the split arc
        # first, then the template arcs sorted by their other end.
        to: list[int] = []
        adj: list[list[int]] = [[] for _ in range(2 * n_nodes + 2)]
        for u, w in [(2 * x, 2 * x + 1) for x in range(1, n_nodes + 1)] + [
            (2 * u + 1, 2 * w) for u, w in arcs
        ]:
            adj[u].append(len(to))
            to.append(w)
            adj[w].append(len(to))
            to.append(u)
        object.__setattr__(self, "_to", tuple(to))
        object.__setattr__(self, "_adj", tuple(map(tuple, adj)))
        object.__setattr__(self, "_cap", [1, 0] * (len(to) // 2))

    def primed(self, v: int) -> int:
        return self.n_base + v

    def max_flow(self, sources: Iterable[int], sinks: Iterable[int]) -> FlowWitness:
        """Integral max flow from ``sources`` to ``sinks``.

        Breadth-first augmentation in a fixed arc order keeps the result
        (value, paths and the residual cut) deterministic in the inputs.
        """
        sources = sorted(set(sources))
        sinks = sorted(set(sinks))
        if not sources or not sinks:
            raise ValueError("sources and sinks must be nonempty")
        for x in sources + sinks:
            if not 1 <= x <= self.n_nodes:
                raise ValueError(f"node {x} outside 1..{self.n_nodes}")
        value, *residual = self._saturate(sources, sinks)
        return FlowWitness(value, partial(self._paths, sources, sinks, *residual))

    def min_cut_nodes(self, sources: Iterable[int], sinks: Iterable[int]) -> tuple[int, ...]:
        """Nodes owning the saturated arcs on the residual reachability frontier.

        The returned set has size equal to the max-flow value and meets every
        source-to-sink path.
        """
        sources, sinks = set(sources), set(sinks)
        _, cap, reach = self.residual_reach(sources, sinks)
        to, adj = self._to, self._adj
        # A used source arc into an unreached in-node charges the source, a
        # used sink arc out of a reached out-node charges the sink, and a
        # saturated split or template arc charges the node it enters.
        owners = {s for s in sources if not reach >> 2 * s & 1}
        owners.update(t for t in sinks if reach >> 2 * t + 1 & 1)
        owners.update(
            to[e] // 2 for x in range(len(adj)) if reach >> x & 1 for e in adj[x]
            if not e & 1 and not cap[e] and not reach >> to[e] & 1
        )
        return tuple(sorted(owners))

    def residual_reach(self, sources: Iterable[int], sinks: Iterable[int]) -> tuple[int, list[int], int]:
        """A max flow F from ``sources`` to ``sinks`` and one sweep of its residual.

        Returns F's value, its residual capacities and the split nodes reached
        from the free sources, as a bitmask with bit x for split node x.  When
        F fills every sink, adding z as a sink raises the value exactly when
        z's out-node is reached.  This stays exact with some arcs into z
        removed if F avoids z and all that z reaches, and nothing z reaches
        feeds back into z: F is still maximum there, and a residual path into
        that region never leaves it.
        """
        value, cap, queue, _ = self._saturate(sorted(set(sources)), sorted(set(sinks)))
        to, adj = self._to, self._adj
        reach = bytearray(len(adj))
        for x in queue:
            reach[x] = 1
        for x in queue:
            for e in adj[x]:
                if cap[e] and not reach[to[e]]:
                    reach[to[e]] = 1
                    queue.append(to[e])
        return value, cap, sum(1 << x for x in queue)

    def _saturate(
        self, sources: list[int], sinks: list[int]
    ) -> tuple[int, list[int], list[int], bytearray]:
        """Edmonds-Karp with unit augmentations on a fresh copy of the capacities.

        Returns the flow value, the residual capacities, the in-nodes of the
        sources that carry no flow, and a mask of the out-nodes whose sink arc
        is still open.  Each search starts from the free sources in sorted
        order and ends at the first free sink out-node it discovers.
        """
        to, adj = self._to, self._adj
        cap = self._cap[:]
        free_sources = [2 * s for s in sources]
        free_sinks = bytearray(len(adj))
        for t in sinks:
            free_sinks[2 * t + 1] = 1
        value = 0
        while free_sources and value < len(sinks):
            pred = [-1] * len(adj)
            for x in free_sources:
                pred[x] = -2
            queue = free_sources[:]
            end = -1
            for x in queue:
                for e in adj[x]:
                    if cap[e]:
                        y = to[e]
                        if pred[y] == -1:
                            pred[y] = e
                            if free_sinks[y]:
                                end = y
                                break
                            queue.append(y)
                if end >= 0:
                    break
            if end < 0:
                break
            free_sinks[end] = 0
            y = end
            while pred[y] != -2:
                e = pred[y]
                cap[e] -= 1
                cap[e ^ 1] += 1
                y = to[e ^ 1]
            free_sources.remove(y)
            value += 1
        return value, cap, free_sources, free_sinks

    def _paths(
        self, sources: list[int], sinks: list[int],
        cap: list[int], free_sources: list[int], free_sinks: bytearray,
    ) -> tuple[tuple[int, ...], ...]:
        """Unit paths of a saturated flow, one per used source in sorted order."""
        to, adj = self._to, self._adj
        ends = {2 * t + 1 for t in sinks if not free_sinks[2 * t + 1]}
        paths = []
        for s in sources:
            if 2 * s in free_sources:
                continue
            path = [s]
            out = 2 * s + 1
            while out not in ends:
                # follow the out-node's one forward arc that carries flow
                out = next(to[e] + 1 for e in adj[out] if not e & 1 and not cap[e])
                path.append(out // 2)
            paths.append(tuple(path))
        return tuple(paths)


def build_flow_graph(g: MixedGraph) -> FlowNetwork:
    """Doubled flow graph whose S -> T' max-flows are generic covariance ranks.

    Arcs: i -> j when j -> i is a directed edge (climbing the left side),
    i -> i' for every vertex, i -> j' for every bidirected edge i <-> j, and
    i' -> j' when i -> j is directed (descending the right side).
    """
    return build_restricted_flow_graph(g, g.directed, g.directed)


def build_restricted_flow_graph(
    g: MixedGraph,
    left_edges: Iterable[DirectedEdge],
    right_edges: Iterable[DirectedEdge],
) -> FlowNetwork:
    """Flow graph whose left/right descents are restricted to edge subsets.

    As build_flow_graph, but climbing arcs are generated only from
    ``left_edges`` and descending arcs only from ``right_edges``.  With both
    equal to the full directed edge set this is exactly build_flow_graph.
    """
    require_valid(g)
    left_edges = frozenset(left_edges)
    right_edges = frozenset(right_edges)
    for name, subset in (("left", left_edges), ("right", right_edges)):
        extra = subset - g.directed
        if extra:
            raise ValueError(f"{name} edge restriction {sorted(extra)} not a subset of the directed edges")
    n = g.n
    arcs = []
    for u, w in left_edges:
        arcs.append((w, u))
    for x in g.vertices:
        arcs.append((x, n + x))
    for u, w in g.bidirected:
        arcs.append((u, n + w))
        arcs.append((w, n + u))
    for u, w in right_edges:
        arcs.append((n + u, n + w))
    return FlowNetwork(2 * n, arcs, n_base=n)


def generic_rank(g: MixedGraph, S: Iterable[int], T: Iterable[int]) -> int:
    """Generic rank of the covariance submatrix with rows S and columns T."""
    net = _cached(g, build_flow_graph)
    return net.max_flow(S, [net.primed(t) for t in T]).value


def t_separating_cut(
    g: MixedGraph, S: Iterable[int], T: Iterable[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A minimum t-separating pair (L, R) for sources S and targets T.

    Every trek from S to T intersects L on its left side or R on its right
    side, and |L| + |R| equals generic_rank(g, S, T).  Ties are broken by the
    residual reachability frontier of the deterministic max-flow, so equal
    inputs give equal cuts.
    """
    net = _cached(g, build_flow_graph)
    S = sorted(set(S))
    T = sorted(set(T))
    if not S or not T:
        return (), ()
    owners = net.min_cut_nodes(S, [net.primed(t) for t in T])
    left = tuple(x for x in owners if x <= g.n)
    right = tuple(x - g.n for x in owners if x > g.n)
    return left, right
