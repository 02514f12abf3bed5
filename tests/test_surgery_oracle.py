"""Residual-graph surgery ⇔ networkx's own copy, down to iteration order.

:func:`repro.graphs.induced_subgraph` must equal
:func:`oracles.surgery.induced_copy` (``graph.subgraph(nodes).copy()``) in
node order, every node's neighbour order and every attribute, because the
phases iterate their residual graph and the engine draws randomness in that
order. :func:`repro.graphs.in_copy_order` decides when the pipelines may
hand a graph on uncopied, so it must agree with an actual copy. And that
sharing is only safe while no pipeline mutates its input.
"""

import random

import networkx as nx
import pytest

from oracles.surgery import induced_copy
from repro.core.pipeline import residual
from repro.graphs import in_copy_order, induced_subgraph, make_family
from repro.harness import run_algorithm


def shuffled_graph(n: int, seed: int) -> nx.Graph:
    """Nodes and edges inserted in random order, with self-loops and node,
    edge and graph attributes. Odd seeds label nodes with strings, whose
    set order differs from their insertion order."""
    rng = random.Random(seed)
    nodes = list(range(n)) if seed % 2 == 0 else [f"v{i}" for i in range(n)]
    rng.shuffle(nodes)
    graph = nx.Graph(name=f"shuffled-{seed}", tags=["a"])
    for v in nodes:
        graph.add_node(v, weight=rng.random(), label=str(v))
    edges = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(3 * n)]
    edges += [(v, v) for v in rng.sample(nodes, n // 8)]
    rng.shuffle(edges)
    for u, v in edges:
        graph.add_edge(u, v, cost=rng.random(), hops=[u, v])
    return graph


def subsets(graph: nx.Graph, seed: int):
    """Kept-node sets on both sides of networkx's ``2·|keep| < |V|`` switch
    between set order and parent order, plus the edge cases."""
    rng = random.Random(seed)
    nodes = list(graph)
    n = len(nodes)
    yield "empty", set()
    yield "small", set(rng.sample(nodes, n // 5))
    yield "below_half", set(rng.sample(nodes, (n - 1) // 2))
    yield "half", set(rng.sample(nodes, n // 2))
    yield "large", set(rng.sample(nodes, 4 * n // 5))
    yield "all", set(nodes)
    yield "list_with_foreign", rng.sample(nodes, n // 3) + [-1, "foreign"]


def order_snapshot(graph: nx.Graph):
    """Everything a phase can observe: orders and attribute values."""
    return (
        list(graph),
        {v: list(graph._adj[v]) for v in graph},
        {v: dict(data) for v, data in graph.nodes(data=True)},
        [(u, v, dict(data)) for u, v, data in graph.edges(data=True)],
        dict(graph.graph),
    )


GRAPHS = [(n, seed) for n in (1, 2, 7, 40, 121) for seed in range(4)]


@pytest.mark.parametrize("n,seed", GRAPHS)
def test_induced_subgraph_matches_networkx_copy(n, seed):
    graph = shuffled_graph(n, seed)
    for name, nodes in subsets(graph, seed):
        ours = induced_subgraph(graph, nodes)
        oracle = induced_copy(graph, nodes)
        assert type(ours) is type(oracle), name
        assert order_snapshot(ours) == order_snapshot(oracle), name
        for u, v in ours.edges:
            assert ours._adj[u][v] is ours._adj[v][u], name


@pytest.mark.parametrize("n,seed", GRAPHS)
def test_induced_subgraph_attributes_are_detached(n, seed):
    graph = shuffled_graph(n, seed)
    before = order_snapshot(graph)
    for _, nodes in subsets(graph, seed):
        sub = induced_subgraph(graph, nodes)
        sub.graph["name"] = "changed"
        for v in sub:
            sub.nodes[v]["weight"] = -1.0
        for u, v in sub.edges:
            sub.edges[u, v]["cost"] = -1.0
        sub.add_edge("new", "node")
    assert order_snapshot(graph) == before


@pytest.mark.parametrize("n,seed", GRAPHS)
def test_copy_order_predicate_agrees_with_a_copy(n, seed):
    shuffled = shuffled_graph(n, seed)
    for graph in (shuffled, induced_copy(shuffled, shuffled)):
        copy = induced_copy(graph, graph)
        expected = all(list(copy._adj[v]) == list(graph._adj[v]) for v in graph)
        assert in_copy_order(graph) == expected


@pytest.mark.parametrize("family,expected", [
    ("gnp_log_degree", True),
    ("geometric", True),
    ("grid", True),
    ("barabasi_albert", False),
    ("random_regular_16", False),
])
def test_copy_order_of_the_graph_families(family, expected):
    graph = make_family(family, 200, seed=0)
    copy = induced_copy(graph, graph)
    assert all(list(copy._adj[v]) == list(graph._adj[v]) for v in graph) is expected
    assert in_copy_order(graph) is expected


def test_copy_order_of_karate():
    graph = nx.karate_club_graph()
    assert not in_copy_order(graph)
    assert in_copy_order(induced_copy(graph, graph))


@pytest.mark.parametrize("family", ["gnp_log_degree", "barabasi_albert"])
def test_residual_shares_only_what_a_copy_would_reproduce(family):
    graph = make_family(family, 200, seed=0)
    everything = set(graph)
    shared = residual(graph, everything)
    assert (shared is graph) is in_copy_order(graph)
    assert order_snapshot(shared) == order_snapshot(induced_copy(graph, everything))
    part = set(list(graph)[::3])
    assert order_snapshot(residual(graph, part)) == order_snapshot(
        induced_copy(graph, part)
    )


@pytest.mark.parametrize("algorithm", [
    "algorithm1", "algorithm2", "algorithm1_avg", "algorithm2_avg",
])
@pytest.mark.parametrize("family", ["gnp_log_degree", "barabasi_albert"])
def test_pipelines_leave_their_input_unchanged(algorithm, family):
    graph = make_family(family, 150, seed=0)
    graph.graph["origin"] = family
    for v in graph:
        graph.nodes[v]["weight"] = v
    for u, v in graph.edges:
        graph.edges[u, v]["cost"] = u + v
    before = order_snapshot(graph)
    run_algorithm(algorithm, graph, seed=1)
    assert order_snapshot(graph) == before
