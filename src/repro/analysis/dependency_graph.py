"""Channel dependency graphs (Dally & Seitz) for the routing algorithms.

A resource is one virtual channel, identified by ``(link_index,
vc_class)``.  The *may-wait* dependency graph has an edge r1 -> r2 whenever
some message, in some reachable routing state, can hold r1 while requesting
r2.  Acyclicity of this graph is a **sufficient** condition for deadlock
freedom (for adaptive algorithms it is not necessary — a message waits on
the whole candidate set, so cycles of may-wait edges can be unrealizable;
cf. Duato).

The e-cube, nlast and hop-scheme graphs are acyclic (the tests assert it
on small networks).  2pn's graph has may-wait cycles on tori (mixed
wrap/non-wrap messages in one tag class): its deadlock freedom rests only
on the reachability argument of the paper's companion report, and a
partial deadlock the global watchdog cannot see forms at 16x16, load 0.5,
seed 1 (ROADMAP item 1).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.routing.base import RoutingAlgorithm
from repro.routing.relation import routing_relation

#: One virtual channel: (link index, virtual-channel class).
Resource = Tuple[int, int]


def build_dependency_graph(
    algorithm: RoutingAlgorithm,
) -> Dict[Resource, Set[Resource]]:
    """Every reachable hold->request dependency of *algorithm*: holding
    candidate *c* of a row, on a hop short of the destination, a message
    may wait on every candidate of the row that hop leads to."""
    relation = routing_relation(algorithm)
    rows, v = relation.rows, relation.num_vcs
    flat_edges: Dict[int, Set[int]] = {}
    for flats, successors in rows.values():
        for flat, successor in zip(flats, successors):
            wanted = () if successor is None else rows[successor][0]
            if wanted:
                flat_edges.setdefault(flat, set()).update(wanted)
    return {
        divmod(held, v): {divmod(wanted, v) for wanted in targets}
        for held, targets in flat_edges.items()
    }


def find_cycle(
    edges: Dict[Resource, Set[Resource]]
) -> Optional[List[Resource]]:
    """A cycle in the graph, or None when it is acyclic.

    Iterative three-color depth-first search; returns the resources along
    one cycle for diagnostics.
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    color: Dict[Resource, int] = {}
    parent: Dict[Resource, Optional[Resource]] = {}

    for root in edges:
        if color.get(root, WHITE) != WHITE:
            continue
        stack: List[Tuple[Resource, Iterator[Resource]]] = [
            (root, iter(edges.get(root, ())))
        ]
        color[root] = GRAY
        parent[root] = None
        while stack:
            node, children = stack[-1]
            advanced = False
            for child in children:
                state = color.get(child, WHITE)
                if state == GRAY:
                    # Found a back edge: reconstruct the cycle (for a
                    # self-loop the witness is the single resource).
                    cycle = [child]
                    walker: Optional[Resource] = node
                    while walker is not None and walker != child:
                        cycle.append(walker)
                        walker = parent[walker]
                    cycle.reverse()
                    return cycle
                if state == WHITE:
                    color[child] = GRAY
                    parent[child] = node
                    stack.append((child, iter(edges.get(child, ()))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return None


def is_acyclic(edges: Dict[Resource, Set[Resource]]) -> bool:
    """True when the dependency graph has no cycle."""
    return find_cycle(edges) is None


__all__ = ["Resource", "build_dependency_graph", "find_cycle", "is_acyclic"]
