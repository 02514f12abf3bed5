"""Reference residual-graph surgery: networkx's own induced-subgraph copy.

:func:`repro.graphs.induced_subgraph` builds the copy straight from the
parent's dicts; this is the filtered-view route it must match in every
observable order and attribute.
"""

from __future__ import annotations

__all__ = ["induced_copy"]


def induced_copy(graph, nodes):
    """``graph.subgraph(nodes).copy()``, verbatim."""
    return graph.subgraph(nodes).copy()
