import gc
import random
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from semid import (
    GraphId,
    MixedGraph,
    bidirected_subdivision,
    decode_id,
    encode_id,
    graph_from_json,
    graph_to_json,
)
from semid.flow import build_restricted_flow_graph, generic_rank
from semid.graph import _bits, _reach_masks, infinite_to_one_record
from semid.identify import certify, htc_identify
from semid.oracle import enumerate_treks

from conftest import HTC_FAIL_GRAPH, IV_GRAPH, corpus_codes, random_mixed_graph


def test_construction_accepts_fixtures():
    for g in (IV_GRAPH, HTC_FAIL_GRAPH, MixedGraph(5), MixedGraph(0)):
        assert MixedGraph(g.n, g.directed, g.bidirected) == g


def invalid_graph_message(n, directed=(), bidirected=()):
    with pytest.raises(ValueError) as exc:
        MixedGraph(n, directed, bidirected)
    return str(exc.value)


def test_construction_rejects_self_loop_and_range():
    assert invalid_graph_message(2, [(1, 1)]) == (
        "invalid mixed graph: self-loop 1->1 in directed edges"
    )
    assert invalid_graph_message(2, [(1, 3)], [(2, 2)]) == (
        "invalid mixed graph: directed edge (1,3): endpoint 3 outside 1..2; "
        "self-loop 2<->2 in bidirected edges"
    )


@pytest.mark.parametrize("n, directed, bidirected, problems", [
    (-1, [], [], "vertex count must be nonnegative, got -1"),
    (3, [(2, 2)], [], "self-loop 2->2 in directed edges"),
    (2, [(1, 2), (2, 5)], [], "directed edge (2,5): endpoint 5 outside 1..2"),
    (2, [(0, 1)], [], "directed edge (0,1): endpoint 0 outside 1..2"),
    (3, [], [(3, 3)], "self-loop 3<->3 in bidirected edges"),
    (2, [], [(3, 1)], "bidirected edge (1,3): endpoint 3 outside 1..2"),
    (2, [(1, 1)], [(0, 2)],
     "self-loop 1->1 in directed edges; bidirected edge (0,2): endpoint 0 outside 1..2"),
    (3, [1], [], "directed entry 1 is not a pair of endpoints"),
    (3, [(1, 2, 3)], [], "directed entry (1, 2, 3) is not a pair of endpoints"),
    (3, None, [], "directed edges None are not an iterable of pairs"),
    (3, [], [5], "bidirected entry 5 is not a pair of endpoints"),
    (2.5, [(1, 2), ()], 7,
     "vertex count 2.5 is not an integer; directed entry () is not a pair of endpoints; "
     "bidirected edges 7 are not an iterable of pairs"),
], ids=["negative-n", "directed-self-loop", "directed-head-out-of-range", "directed-tail-out-of-range",
        "bidirected-self-loop", "bidirected-out-of-range", "two-problems", "directed-int-entry",
        "directed-triple", "directed-none", "bidirected-int-entry", "malformed-in-input-order"])
def test_construction_names_every_problem(n, directed, bidirected, problems):
    assert invalid_graph_message(n, directed, bidirected) == "invalid mixed graph: " + problems


@pytest.mark.parametrize("n, directed, bidirected, problems", [
    (3, [(1, 2.0)], [], "directed edge (1,2.0): endpoint 2.0 is not an integer"),
    (3, [(1, 2)], [(1, 3.0)], "bidirected edge (1,3.0): endpoint 3.0 is not an integer"),
    (2.5, [], [], "vertex count 2.5 is not an integer"),
    (True, [], [], "vertex count True is not an integer"),
    (3, [(1, "2")], [], "directed edge (1,'2'): endpoint '2' is not an integer"),
    (np.float64(3), [(False, 9)], [(1, 2)],
     "vertex count np.float64(3.0) is not an integer; directed edge (False,9): endpoint False is not an integer"),
], ids=["float-head", "float-bidirected", "float-count", "bool-count", "str-head", "count-and-bool-tail"])
def test_construction_names_every_non_integer(n, directed, bidirected, problems):
    assert invalid_graph_message(n, directed, bidirected) == "invalid mixed graph: " + problems


def test_construction_stores_integer_endpoints_as_int():
    g = MixedGraph(np.int64(3), [(np.int64(1), np.int32(2))], [(np.int64(3), np.uint8(2))])
    assert g == MixedGraph(3, [(1, 2)], [(2, 3)])
    values = [g.n, *(x for e in g.directed | g.bidirected for x in e)]
    assert all(type(x) is int for x in values)
    assert graph_to_json(g) == '{"n": 3, "directed": [[1, 2]], "bidirected": [[2, 3]]}'
    assert str(encode_id(g)) == "3:1:4"


def test_bidirected_membership_is_symmetric():
    g = MixedGraph(3, [], [(3, 2)])
    assert g.has_bidirected(2, 3) and g.has_bidirected(3, 2)
    assert g.bidirected == frozenset({(2, 3)})


def test_neighborhoods_iv_vertex3():
    assert IV_GRAPH.parents(3) == {2}
    assert IV_GRAPH.siblings(3) == {2}
    assert IV_GRAPH.descendants(3) == frozenset()
    assert IV_GRAPH.half_trek_reachable(3) == {2, 3}


def test_neighborhoods_htc_fail_vertex5():
    assert HTC_FAIL_GRAPH.half_trek_reachable(5) == {1, 2, 3, 4, 5}


def test_neighborhoods_isolated_vertex():
    g = MixedGraph(4, [(1, 2)], [(1, 2)])
    assert g.parents(4) == g.siblings(4) == g.descendants(4) == frozenset()
    assert g.trek_reachable(4) == g.half_trek_reachable(4) == frozenset()


def test_neighborhood_containments_random():
    rng = random.Random(11)
    for _ in range(100):
        g = random_mixed_graph(rng, rng.randint(1, 6))
        for v in g.vertices:
            assert g.descendants(v) <= g.half_trek_reachable(v) <= g.trek_reachable(v)


def test_descendants_on_cycles():
    cyclic = MixedGraph(3, [(1, 2), (2, 1), (2, 3)], [])
    assert 1 in cyclic.descendants(1)
    assert 2 in cyclic.descendants(2)
    assert 3 not in cyclic.descendants(3)
    assert not cyclic.is_acyclic()


def _doubled_trek_reach(g: MixedGraph, v: int, use_left: bool) -> frozenset[int]:
    """Reference trek reach: paths from v to w' over the doubled topology.

    Nodes 1..n climb against directed edges, n+1..2n descend along them; a
    bidirected edge or the pass-through arc x -> x' switches sides.  The lone
    arc v -> v' is the empty trek and does not count.
    """
    n = g.n
    adj: dict[int, list[int]] = {x: [] for x in range(1, 2 * n + 1)}
    for u, w in g.directed:
        if use_left:
            adj[w].append(u)
        adj[n + u].append(n + w)
    for u, w in g.bidirected:
        adj[u].append(n + w)
        adj[w].append(n + u)
    for x in g.vertices:
        adj[x].append(n + x)
    seen = {v}
    stack = [v]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    reached = {w for w in g.vertices if w != v and n + w in seen}
    vprime_in = set(g.siblings(v)) | {n + u for u in g.parents(v)}
    if seen & vprime_in:
        reached.add(v)
    return frozenset(reached)


def test_reach_sets_match_flow_and_closure():
    rng = random.Random(2012)
    for _ in range(300):
        g = random_mixed_graph(rng, rng.randint(1, 7))
        half_net = build_restricted_flow_graph(g, (), g.directed)
        closure = set(g.directed)
        for k in g.vertices:
            closure |= {(u, w) for u in g.vertices for w in g.vertices
                        if (u, k) in closure and (k, w) in closure}
        for v in g.vertices:
            tr, htr = g.trek_reachable(v), g.half_trek_reachable(v)
            assert g.descendants(v) == {w for w in g.vertices if (v, w) in closure}
            assert (v in tr) == (v in _doubled_trek_reach(g, v, True))
            assert (v in htr) == (v in _doubled_trek_reach(g, v, False))
            for w in g.vertices:
                if w == v:
                    continue
                assert (w in tr) == (generic_rank(g, [v], [w]) >= 1)
                half_flow = half_net.max_flow([v], [half_net.primed(w)]).value
                assert (w in htr) == (half_flow >= 1)


def _walk(starts, steps) -> set:
    """States reached from ``starts`` by one or more ``steps``."""
    seen, stack = set(), list(starts)
    while stack:
        for nxt in steps(stack.pop()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def _reference_reach(g: MixedGraph, v: int) -> tuple[set, set, set]:
    """des(v), htr(v) and tr(v) by walking (half-)treks from v edge by edge.

    A state is (vertex, climbing).  A climbing walk may step to a parent,
    cross a bidirected edge or step to a child; once it has crossed or
    stepped down it only steps to children.  A half-trek never climbs: its
    first step crosses a bidirected edge or steps to a child.  Every
    endpoint of a non-empty walk counts, v included.
    """
    pa = {x: {u for u, w in g.directed if w == x} for x in g.vertices}
    ch = {x: {w for u, w in g.directed if u == x} for x in g.vertices}
    sib = {x: {u for u in g.vertices if g.has_bidirected(u, x)} for x in g.vertices}

    def steps(state):
        x, climbing = state
        out = [(w, False) for w in ch[x]]
        if climbing:
            out += [(u, True) for u in pa[x]] + [(s, False) for s in sib[x]]
        return out

    def half_steps(state):
        x, first = state
        return [(w, False) for w in ch[x]] + ([(s, False) for s in sib[x]] if first else [])

    des = {x for x, _ in _walk([(v, False)], steps)}
    htr = {x for x, _ in _walk([(v, True)], half_steps)}
    tr = {x for x, _ in _walk([(v, True)], steps)}
    return des, htr, tr


def _edge_cases_and_seeded_graphs() -> list[MixedGraph]:
    graphs = [
        MixedGraph(0),
        MixedGraph(1),
        MixedGraph(3, [(1, 2), (2, 1)], [(2, 3)]),  # a 2-cycle
        MixedGraph(5, [(1, 2), (2, 3), (3, 1), (3, 4)], [(4, 2)]),  # a 3-cycle, 5 isolated
    ]
    rng = random.Random(19)
    for i in range(240):
        p = rng.choice((0.1, 0.25, 0.4))
        graphs.append(random_mixed_graph(rng, rng.randint(0, 9), p, p, acyclic=i % 3 == 0))
    return graphs


def test_reach_masks_match_a_walk_over_treks():
    graphs = _edge_cases_and_seeded_graphs()
    kinds = {"two-cycle": 0, "long-cycle": 0, "isolated": 0, "acyclic": 0}
    for g in graphs:
        masks = _reach_masks(g)
        reference = {v: _reference_reach(g, v) for v in g.vertices}
        for v, (des, htr, tr) in reference.items():
            assert (set(_bits(masks.des[v])), set(_bits(masks.htr[v])), set(_bits(masks.tr[v]))) == (des, htr, tr)
            assert (g.descendants(v), g.half_trek_reachable(v), g.trek_reachable(v)) == (des, htr, tr)
            assert set(_bits(masks.anc[v])) == {u for u in g.vertices if v in reference[u][0]}
        on_cycle = [v for v in g.vertices if v in reference[v][0]]
        assert g.is_acyclic() == masks.acyclic == (not on_cycle)
        kinds["two-cycle"] += any((w, u) in g.directed for u, w in g.directed)
        kinds["long-cycle"] += any(not (g.parents(v) & g.children(v)) for v in on_cycle)
        kinds["isolated"] += any(not (g.parents(v) | g.children(v) | g.siblings(v)) for v in g.vertices)
        kinds["acyclic"] += not on_cycle
        for v, w in g.directed:
            record = {}
            for z in g.vertices:
                if z == w:
                    continue
                if g.has_bidirected(z, w):
                    record[z] = "sibling"
                elif v not in reference[z][1]:
                    record[z] = "not_half_trek_reachable"
                else:
                    record = None
                    break
            assert infinite_to_one_record(g, v, w) == record
    assert {g.n for g in graphs} == set(range(10))
    assert min(kinds.values()) >= 20, kinds


def test_graph_is_freed_after_use():
    g = MixedGraph(IV_GRAPH.n, IV_GRAPH.directed, IV_GRAPH.bidirected)
    certify(g)
    htc_identify(g)
    enumerate_treks(g, 1, 3)
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None
    memo_tables = [
        f"{name}.{attr}"
        for name, module in list(sys.modules.items())
        if name == "semid" or name.startswith("semid.")
        for attr, obj in vars(module).items()
        if callable(getattr(obj, "cache_clear", None))
    ]
    assert memo_tables == []


def test_out_of_range_vertex_raises():
    for query in (IV_GRAPH.parents, IV_GRAPH.siblings, IV_GRAPH.descendants,
                  IV_GRAPH.trek_reachable, IV_GRAPH.half_trek_reachable):
        with pytest.raises(ValueError, match="vertex 4 outside 1..3"):
            query(4)


def test_decode_empty_and_iv():
    assert decode_id(GraphId(5, 0, 0)) == MixedGraph(5)
    assert decode_id(GraphId(3, 9, 4)) == IV_GRAPH


def test_decode_corpus_example():
    g = decode_id(GraphId.parse("5:4456:113"))
    assert g.directed == frozenset({(2, 3), (2, 4), (3, 1), (4, 1), (1, 5)})
    assert g.bidirected == frozenset({(1, 2), (2, 3), (2, 4), (2, 5)})


def test_encode_examples():
    assert str(encode_id(IV_GRAPH)) == "3:9:4"
    assert encode_id(MixedGraph(7)) == GraphId(7, 0, 0)


def test_codec_roundtrip_corpus():
    for code in corpus_codes():
        gid = GraphId.parse(code)
        assert encode_id(decode_id(gid)) == gid


def test_corpus_composition():
    graphs = [decode_id(GraphId.parse(code)) for code in corpus_codes()]
    assert len(graphs) == 55
    acyclic = sum(1 for g in graphs if g.is_acyclic())
    assert (acyclic, len(graphs) - acyclic) == (14, 41)


def test_codec_roundtrip_exhaustive_small_n():
    for n in (0, 1, 2):
        for d in range(1 << (n * (n - 1))):
            for b in range(1 << (n * (n - 1) // 2)):
                gid = GraphId(n, d, b)
                assert encode_id(decode_id(gid)) == gid


def _enumerated_code(g: MixedGraph) -> GraphId:
    """The n:d:b code by testing every pair in bit order, as the codec once did."""
    directed_order = [(v, w) for v in range(1, g.n + 1) for w in range(1, g.n + 1) if w != v]
    bidirected_order = [(v, w) for v in range(1, g.n) for w in range(v + 1, g.n + 1)]
    d = sum(1 << i for i, pair in enumerate(directed_order) if pair in g.directed)
    b = sum(1 << i for i, pair in enumerate(bidirected_order) if pair in g.bidirected)
    return GraphId(g.n, d, b)


def test_codec_matches_the_pair_enumeration():
    rng = random.Random(31)
    for n in range(10):
        for _ in range(30):
            p = rng.choice((0.1, 0.4, 0.9))
            g = random_mixed_graph(rng, n, p, p)
            gid = _enumerated_code(g)
            assert encode_id(g) == gid
            assert decode_id(gid) == g
    full = MixedGraph(4, [(u, w) for u in range(1, 5) for w in range(1, 5) if u != w],
                      [(u, w) for u in range(1, 5) for w in range(u + 1, 5)])
    assert encode_id(full) == _enumerated_code(full) == GraphId(4, (1 << 12) - 1, (1 << 6) - 1)


def test_decoding_a_sparse_code_on_many_vertices_stays_small():
    # The codec visits only the set bits: no 2^(n(n-1)) bound, no walk over
    # all n(n-1) pairs.
    tracemalloc.start()
    try:
        g = decode_id(GraphId.parse("1000:1:1"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (g.n, g.directed, g.bidirected) == (1000, {(1, 2)}, {(1, 2)})
    assert peak < 1 << 20
    top = GraphId(1000, 1 << (1000 * 999 - 1), 1 << (1000 * 999 // 2 - 1))
    assert decode_id(top) == MixedGraph(1000, [(1000, 999)], [(999, 1000)])
    assert encode_id(decode_id(top)) == top


def test_graph_id_range_checks():
    for n, d, b in ((3, 63, 7), (1, 0, 0), (0, 0, 0)):
        assert str(GraphId(n, d, b)) == f"{n}:{d}:{b}"
    for n, d, b in ((1, 1, 0), (1, 0, 1), (0, 1, 0)):
        with pytest.raises(ValueError):
            GraphId(n, d, b)
    with pytest.raises(ValueError):
        GraphId(3, 64, 0)
    with pytest.raises(ValueError):
        GraphId(3, 0, 8)
    with pytest.raises(ValueError):
        GraphId.parse("3:9")


def test_subdivision_iv():
    sub, vmap = bidirected_subdivision(IV_GRAPH)
    assert sub.n == 4
    assert sub.bidirected == frozenset()
    assert sub.directed == frozenset({(1, 2), (2, 3), (4, 2), (4, 3)})
    assert vmap == {4: (2, 3)}


def test_subdivision_counts_and_validity():
    sub, vmap = bidirected_subdivision(HTC_FAIL_GRAPH)
    assert sub.n == 9
    assert len(sub.directed) == 12
    g = MixedGraph(3, [(1, 2)], [])
    unchanged, vmap = bidirected_subdivision(g)
    assert unchanged == g and vmap == {}


def test_json_roundtrip():
    for g in (IV_GRAPH, HTC_FAIL_GRAPH, MixedGraph(2)):
        assert graph_from_json(graph_to_json(g)) == g
    with pytest.raises(ValueError):
        graph_from_json("{not json")
    with pytest.raises(ValueError):
        graph_from_json('{"n": 2, "directed": [[1, 2, 3]]}')


def test_infinite_to_one_record_shape():
    g = MixedGraph(2, [(1, 2)], [])
    rec = infinite_to_one_record(g, 1, 2)
    assert rec == {1: "not_half_trek_reachable"}
    assert infinite_to_one_record(IV_GRAPH, 2, 3) is None
    with pytest.raises(ValueError):
        infinite_to_one_record(g, 2, 1)
