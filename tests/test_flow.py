import random

import pytest

from semid import (
    FlowWitness,
    MixedGraph,
    build_flow_graph,
    build_restricted_flow_graph,
    generic_rank,
    t_separating_cut,
)

from conftest import HTC_FAIL_GRAPH, IV_GRAPH, random_mixed_graph


def primed_arcs(g, arcs):
    """Render doubled-graph arcs with primed labels for readable asserts."""
    n = g.n

    def fmt(x):
        return str(x) if x <= n else f"{x - n}'"

    return {f"{fmt(u)}->{fmt(w)}" for u, w in arcs}


def test_flow_graph_iv_arcs():
    net = build_flow_graph(IV_GRAPH)
    assert primed_arcs(IV_GRAPH, net.arcs) == {
        "2->1", "3->2", "1->1'", "2->2'", "3->3'", "2->3'", "3->2'", "1'->2'", "2'->3'",
    }


def test_flow_graph_htc_fail_arcs():
    net = build_flow_graph(HTC_FAIL_GRAPH)
    expected = {
        "2->1", "3->1", "4->1", "5->4",
        "1->1'", "2->2'", "3->3'", "4->4'", "5->5'",
        "1->2'", "2->1'", "1->3'", "3->1'", "1->4'", "4->1'", "1->5'", "5->1'",
        "1'->2'", "1'->3'", "1'->4'", "4'->5'",
    }
    assert primed_arcs(HTC_FAIL_GRAPH, net.arcs) == expected


def test_flow_graph_empty_graph():
    g = MixedGraph(3)
    net = build_flow_graph(g)
    assert primed_arcs(g, net.arcs) == {"1->1'", "2->2'", "3->3'"}


def test_restricted_full_equals_plain():
    for g in (IV_GRAPH, HTC_FAIL_GRAPH):
        assert build_restricted_flow_graph(g, g.directed, g.directed).arcs == build_flow_graph(g).arcs


def test_restricted_empty_sides():
    g = IV_GRAPH
    net = build_restricted_flow_graph(g, (), ())
    assert primed_arcs(g, net.arcs) == {"1->1'", "2->2'", "3->3'", "2->3'", "3->2'"}


def test_restricted_right_removal_matches_star_graph():
    g = HTC_FAIL_GRAPH
    star = build_restricted_flow_graph(g, g.directed, g.directed - {(4, 5)})
    assert set(build_flow_graph(g).arcs) - set(star.arcs) == {(g.n + 4, g.n + 5)}


def test_restricted_subset_violation():
    with pytest.raises(ValueError):
        build_restricted_flow_graph(IV_GRAPH, {(3, 1)}, ())


def test_max_flow_example_paths():
    net = build_flow_graph(HTC_FAIL_GRAPH)
    witness = net.max_flow([1, 2, 4], [net.primed(t) for t in (1, 3, 5)])
    assert witness.value == 3
    assert witness.value == len(witness.paths)
    assert witness.endpoints() == {(1, net.primed(3)), (2, net.primed(1)), (4, net.primed(5))}


def test_max_flow_after_edge_deletion():
    bar = MixedGraph(5, [(1, 2), (1, 3), (1, 4)], HTC_FAIL_GRAPH.bidirected)
    assert generic_rank(bar, [1, 2, 4], [1, 3, 5]) == 2


def test_max_flow_self_pair_is_one():
    for g in (IV_GRAPH, HTC_FAIL_GRAPH):
        net = build_flow_graph(g)
        for v in g.vertices:
            assert net.max_flow([v], [net.primed(v)]).value == 1


def test_generic_rank_examples():
    assert generic_rank(HTC_FAIL_GRAPH, [1, 2, 4], [1, 3, 5]) == 3
    assert generic_rank(IV_GRAPH, [2], [2]) == 1


def test_generic_rank_trek_symmetry():
    # Treks reverse source and target inside the same graph, so the rank is
    # symmetric in (S, T); transposing the directed part changes the model.
    rng = random.Random(23)
    for _ in range(40):
        g = random_mixed_graph(rng, rng.randint(2, 6))
        for _ in range(4):
            S = sorted(rng.sample(list(g.vertices), rng.randint(1, min(3, g.n))))
            T = sorted(rng.sample(list(g.vertices), rng.randint(1, min(3, g.n))))
            assert generic_rank(g, S, T) == generic_rank(g, T, S)


def test_flow_paths_respect_unit_capacities():
    rng = random.Random(29)
    for _ in range(50):
        g = random_mixed_graph(rng, rng.randint(2, 6))
        net = build_flow_graph(g)
        S = sorted(rng.sample(list(g.vertices), rng.randint(1, min(3, g.n))))
        T = sorted(rng.sample(list(g.vertices), rng.randint(1, min(3, g.n))))
        witness = net.max_flow(S, [net.primed(t) for t in T])
        assert witness.value == len(witness.paths)
        used = [x for path in witness.paths for x in path]
        assert len(used) == len(set(used))  # every node carries one unit
        arcs = set(net.arcs)
        for path in witness.paths:
            assert path[0] in S and path[-1] - g.n in T
            assert all((a, b) in arcs for a, b in zip(path, path[1:]))


def test_residual_sweep_marks_the_sinks_that_raise_the_flow():
    # When the max flow from S fills T', bit z of the sweep is set exactly
    # when S links fully to T' + z, for every node z outside T', on either
    # side of the doubled graph; T may be empty.
    rng = random.Random(37)
    checks = raised = filled_empty = 0
    for i in range(150):
        g = random_mixed_graph(rng, 3 + i % 5, acyclic=i % 2 == 0)
        net = build_flow_graph(g)
        for _ in range(4):
            k = rng.randint(1, 3)
            S = rng.sample(list(g.vertices), k)
            T = [net.primed(t) for t in rng.sample(list(g.vertices), rng.randint(0, k - 1))]
            value, reach = net.residual_reach(S, T)
            assert not reach & 1 and reach >> net.n_nodes + 1 == 0
            if value < len(T):
                continue
            filled_empty += not T
            for z in range(1, net.n_nodes + 1):
                if z in T:
                    continue
                expected = net.max_flow(S, T + [z]).value == len(T) + 1
                assert bool(reach >> z & 1) == expected, (g, S, T, z)
                checks += 1
                raised += expected
    assert checks >= 5000 and filled_empty >= 100
    assert raised >= 500 and checks - raised >= 500


def test_max_flow_order_invariance():
    net = build_flow_graph(HTC_FAIL_GRAPH)
    sinks = [net.primed(t) for t in (1, 3, 5)]
    value = net.max_flow([1, 2, 4], sinks).value
    assert net.max_flow([4, 1, 2], list(reversed(sinks))).value == value


def _cut_separates(g, S, T, left, right):
    """Deleting L on the left copy and R' on the right must kill all flow."""
    net = build_flow_graph(g)
    removed = set(left) | {net.primed(r) for r in right}
    arcs = [(u, w) for u, w in net.arcs if u not in removed and w not in removed]
    sources = [s for s in S if s not in removed]
    sinks = [net.primed(t) for t in T if net.primed(t) not in removed]
    from semid.flow import FlowNetwork

    pruned = FlowNetwork(net.n_nodes, arcs, n_base=net.n_base)
    return pruned.max_flow(sources, sinks).value == 0


def test_t_separating_cut_example():
    left, right = t_separating_cut(HTC_FAIL_GRAPH, [1, 2, 4], [1, 3, 5])
    assert len(left) + len(right) == 3
    assert _cut_separates(HTC_FAIL_GRAPH, [1, 2, 4], [1, 3, 5], left, right)


def test_t_separating_cut_self_pair():
    left, right = t_separating_cut(IV_GRAPH, [2], [2])
    assert (tuple(left), tuple(right)) in (((2,), ()), ((), (2,)))


def test_t_separating_cut_disconnected():
    g = MixedGraph(4, [(1, 2)], [])
    assert t_separating_cut(g, [3], [4]) == ((), ())


def test_t_separating_cut_random_property():
    rng = random.Random(31)
    for _ in range(60):
        g = random_mixed_graph(rng, rng.randint(2, 6))
        S = sorted(rng.sample(list(g.vertices), rng.randint(1, min(3, g.n))))
        T = sorted(rng.sample(list(g.vertices), rng.randint(1, min(3, g.n))))
        left, right = t_separating_cut(g, S, T)
        assert len(left) + len(right) == generic_rank(g, S, T)
        assert _cut_separates(g, S, T, left, right)


@pytest.mark.parametrize("bad", [0, 9])
def test_flow_queries_reject_vertices_outside_graph(bad):
    # Vertex 0 would index vertex n's primed copy and vertex 9 a node past
    # the doubled graph; both are named as vertices, not as flow nodes.
    g = MixedGraph(3, [(1, 2), (2, 3)], [(2, 3)])
    for S, T in (([1], [bad]), ([bad], [1])):
        with pytest.raises(ValueError, match=f"vertex {bad} outside 1..3"):
            generic_rank(g, S, T)
        with pytest.raises(ValueError, match=f"vertex {bad} outside 1..3"):
            t_separating_cut(g, S, T)


def test_empty_side_has_rank_zero_and_empty_cut():
    g = MixedGraph(3, [(1, 2), (2, 3)], [(2, 3)])
    for S, T in (([], [1]), ([1], []), ([], [])):
        assert generic_rank(g, S, T) == 0
        assert t_separating_cut(g, S, T) == ((), ())


@pytest.mark.parametrize("bad", [0, -1, 7])
def test_network_queries_reject_nodes_outside_the_network(bad):
    # -1 would index node 6's copy and 7 a node past the network.
    net = build_flow_graph(MixedGraph(3, [(1, 2), (2, 3)], [(2, 3)]))
    for query in (net.max_flow, net.residual_reach, net.min_cut_nodes):
        for sources, sinks in (([1], [bad]), ([bad], [4]), ([bad], [])):
            with pytest.raises(ValueError, match=f"node {bad} outside 1..6"):
                query(sources, sinks)


def test_network_queries_accept_an_empty_side():
    net = build_flow_graph(MixedGraph(3, [(1, 2), (2, 3)], [(2, 3)]))
    for sources, sinks in (([], [4]), ([1], []), ([], [])):
        assert net.max_flow(sources, sinks) == FlowWitness(0, ())
        assert net.min_cut_nodes(sources, sinks) == ()
        value, reach = net.residual_reach(sources, sinks)
        # with no sinks, the sweep reaches all that the sources reach
        expected = sum(1 << z for z in range(1, 7) if net.max_flow(sources, [z]).value)
        assert (value, reach) == (0, expected)
