"""Small graph-property helpers used across phases and experiments."""

from __future__ import annotations

from typing import Dict, List, Set

import networkx as nx


def max_degree(graph) -> int:
    """Maximum degree Δ of the graph (0 for edgeless graphs)."""
    if graph.number_of_nodes() == 0:
        return 0
    degrees = getattr(graph, "degrees", None)
    if degrees is not None:  # CSR-backed GraphArrays: one array reduction
        return int(degrees.max(initial=0))
    return max((d for _, d in graph.degree), default=0)


def component_sizes(graph: nx.Graph) -> List[int]:
    """Sizes of connected components, descending."""
    return sorted(
        (len(c) for c in nx.connected_components(graph)), reverse=True
    )


def induced_subgraph(graph: nx.Graph, nodes) -> nx.Graph:
    """Copy of the subgraph induced by ``nodes`` (detached from the parent).

    Equal to ``graph.subgraph(nodes).copy()`` down to iteration order, but
    built straight from the parent's dicts instead of through networkx's
    filtered views. ``nodes`` is an iterable of nodes; those not in
    ``graph`` are ignored. The orders are networkx's:

    * nodes follow the kept-node set when fewer than half the nodes are
      kept, the parent's order otherwise;
    * each node lists first its neighbours that come earlier in node order
      (in node order), then the rest in the parent's order — the order in
      which the copy's ``add_edges_from`` inserts them;
    * node, edge and graph attribute dicts are fresh shallow copies, one
      dict per edge shared by both directions.
    """
    adj = graph._adj
    keep = {node for node in nodes if node in adj}
    order = keep if 2 * len(keep) < len(adj) else [v for v in adj if v in keep]
    sub = graph.__class__()
    sub.graph.update(graph.graph)
    attrs, sub_attrs, sub_adj = graph._node, sub._node, sub._adj
    for v in order:
        sub_attrs[v] = attrs[v].copy()
        sub_adj[v] = {}
    for u in order:
        row = sub_adj[u]
        for v, data in adj[u].items():
            if v in keep and v not in row:
                row[v] = sub_adj[v][u] = data.copy()
    return sub


def in_copy_order(graph: nx.Graph) -> bool:
    """Whether ``graph`` iterates exactly like its own copy.

    A networkx copy keeps the node order and lists each node's earlier
    neighbours (in node order) before the rest, so the graph qualifies when
    every adjacency row already does. One pass over the adjacency, with an
    index of node positions.
    """
    position = {v: i for i, v in enumerate(graph._adj)}
    for i, row in enumerate(graph._adj.values()):
        last = -1
        for v in row:
            p = position[v]
            if p < last:
                return False
            last = p if p < i else i
    return True


def remove_closed_neighborhoods(graph: nx.Graph, centers: Set[int]) -> nx.Graph:
    """Return a copy with every center and all its neighbors removed.

    This is the operation the paper applies after each phase: the computed
    independent set and its neighborhood leave the residual graph.
    """
    removed = set(centers)
    for center in centers:
        removed.update(graph.neighbors(center))
    return induced_subgraph(graph, set(graph.nodes) - removed)


def closed_neighborhood(graph: nx.Graph, nodes: Set[int]) -> Set[int]:
    """The nodes plus all their neighbors."""
    closed = set(nodes)
    for node in nodes:
        closed.update(graph.neighbors(node))
    return closed


def degrees_within(graph: nx.Graph, nodes: Set[int]) -> Dict[int, int]:
    """Degree of each node of ``nodes`` counted inside the induced subgraph."""
    node_set = set(nodes)
    return {
        v: sum(1 for u in graph.neighbors(v) if u in node_set) for v in node_set
    }


def eccentricity_upper_bound(graph: nx.Graph) -> int:
    """Cheap upper bound on the diameter: twice a BFS eccentricity per component."""
    bound = 0
    for component in nx.connected_components(graph):
        root = next(iter(component))
        lengths = nx.single_source_shortest_path_length(graph, root)
        bound = max(bound, 2 * max(lengths.values(), default=0))
    return bound
