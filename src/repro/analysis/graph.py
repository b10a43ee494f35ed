"""Shared call-graph / SCC utilities.

Three passes used to rebuild the same networkx scaffolding from scratch:
:mod:`repro.analysis.termination` and :mod:`repro.analysis.triggers` both
materialize a ``DiGraph`` and filter the non-recursive singleton SCCs, and
:mod:`repro.epr` wraps ``nx.find_cycle`` in a try/except.  This module is
the one home for all of it.

Graph construction is deterministic for a fixed construction order: node
and edge insertion follow dict order, so SCC and cycle reports come out
in the same order on every run.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Optional

import networkx as nx


def build_digraph(adjacency: Mapping[object, Iterable[object]]) -> nx.DiGraph:
    """A ``DiGraph`` from an adjacency mapping (``node -> successors``).

    Nodes without successors are still added, so isolated functions show
    up in SCC traversals.
    """
    graph = nx.DiGraph()
    graph.add_nodes_from(adjacency)
    for src, dsts in adjacency.items():
        graph.add_edges_from((src, d) for d in dsts)
    return graph


def recursive_sccs(graph: nx.DiGraph) -> Iterator[set]:
    """Strongly connected components that contain at least one cycle.

    Filters the non-recursive singletons — an SCC of one node counts only
    when the node calls itself — which is the check termination and
    matching-loop analysis both used to inline.
    """
    for scc in nx.strongly_connected_components(graph):
        if len(scc) == 1:
            node = next(iter(scc))
            if not graph.has_edge(node, node):
                continue
        yield scc


def find_cycle(graph: nx.DiGraph) -> Optional[list[tuple]]:
    """``nx.find_cycle`` returning ``None`` instead of raising."""
    try:
        return list(nx.find_cycle(graph))
    except nx.NetworkXNoCycle:
        return None
