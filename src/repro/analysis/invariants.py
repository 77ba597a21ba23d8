"""Machine checks for the algorithms' structural guarantees, over the
rows of :func:`~repro.routing.relation.routing_relation`.

* Lemma 1 (paper Section 2.1): a wormhole algorithm derived from a
  deadlock-free SAF algorithm is deadlock-free when the buffer/channel
  ranks occupied along any path strictly increase —
  :func:`check_rank_monotonicity`.
* Minimality: every candidate hop must reduce the distance to the
  destination — :func:`check_candidates_minimal`.

:func:`enumerate_paths` lists the node paths one pair may take by a walk
of its own: the tests' oracle for the relation's exact path count.
"""

from __future__ import annotations

import copy
from functools import lru_cache
from typing import Any, List, Optional, Set, Tuple

from repro.routing.base import RoutingAlgorithm
from repro.routing.hop_base import HopClassScheme
from repro.routing.relation import routing_relation
from repro.util.errors import ReproError


class InvariantViolation(ReproError):
    """An algorithm violated one of its structural guarantees."""


def check_rank_monotonicity(scheme: HopClassScheme) -> int:
    """Verify that the class after every reachable candidate hop is
    within budget and ranks above the class the hop departs in; raises
    :class:`InvariantViolation` or returns the number of hops checked."""
    relation = routing_relation(scheme)
    links, v = scheme.topology.links, relation.num_vcs
    checked = 0
    for (node, dst, _key), (flats, _successors) in relation.rows.items():
        for link, vc_class in ((links[flat // v], flat % v) for flat in flats):
            after = scheme.class_after_hop(vc_class, node)
            if after >= v:
                raise InvariantViolation(
                    f"{scheme.name}: class {after} exceeds the {v} "
                    f"provisioned virtual channels (node={node}, dst={dst})"
                )
            here, there = scheme.rank(vc_class, node), scheme.rank(after, link.dst)
            if there <= here:
                raise InvariantViolation(
                    f"{scheme.name}: rank did not increase on hop "
                    f"{node}->{link.dst} (class {vc_class}->{after}, "
                    f"rank {here}->{there})"
                )
            checked += 1
    return checked


def check_candidates_minimal(
    algorithm: RoutingAlgorithm,
    src: Optional[int] = None,
    dst: Optional[int] = None,
) -> int:
    """Verify every candidate hop of the rows reachable from (*src*,
    *dst*) — of every reachable row, when both are omitted — moves
    strictly closer to its destination.

    Returns the number of candidates checked; raises
    :class:`InvariantViolation` otherwise.
    """
    pairs = None if src is None or dst is None else [(src, dst)]
    relation = routing_relation(algorithm, pairs)
    topology, v = algorithm.topology, relation.num_vcs
    for (node, target, _key), (flats, _successors) in relation.rows.items():
        closer = topology.distance(node, target) - 1
        for landing in (topology.links[flat // v].dst for flat in flats):
            if topology.distance(landing, target) != closer:
                raise InvariantViolation(
                    f"{algorithm.name}: non-minimal hop {node}->{landing} "
                    f"while routing to {target}"
                )
    return sum(len(flats) for flats, _successors in relation.rows.values())


def enumerate_paths(
    algorithm: RoutingAlgorithm,
    src: int,
    dst: int,
    limit: int = 100000,
) -> List[Tuple[int, ...]]:
    """All node paths the algorithm permits from *src* to *dst*.

    Ignores virtual-channel classes — two routes through the same nodes on
    different channels count once.  *limit* guards against combinatorial
    blow-up on large networks.
    """
    paths: Set[Tuple[int, ...]] = set()
    stack: List[Tuple[Any, Tuple[int, ...]]] = [
        (algorithm.new_state(src, dst), (src,))
    ]
    while stack:
        state, nodes = stack.pop()
        node = nodes[-1]
        if node == dst:
            paths.add(nodes)
            if len(paths) > limit:
                raise InvariantViolation(
                    f"more than {limit} paths for {src}->{dst}"
                )
            continue
        for link, vc_class in algorithm.candidates(state, node, dst):
            next_state = algorithm.advance(
                copy.copy(state), node, link, vc_class
            )
            stack.append((next_state, nodes + (link.dst,)))
    return sorted(paths)


def count_minimal_paths(
    algorithm: RoutingAlgorithm, src: int, dst: int
) -> int:
    """Number of distinct minimal node paths in the underlying topology."""
    topology = algorithm.topology

    @lru_cache(maxsize=None)
    def count(node: int) -> int:
        if node == dst:
            return 1
        return sum(count(link.dst) for link in topology.minimal_links(node, dst))

    return count(src)


__all__ = [
    "InvariantViolation",
    "check_candidates_minimal",
    "check_rank_monotonicity",
    "count_minimal_paths",
    "enumerate_paths",
]
