"""Machine checks for the algorithms' structural guarantees.

* Lemma 1 (paper Section 2.1): a wormhole algorithm derived from a
  deadlock-free SAF algorithm is deadlock-free when the buffer/channel
  ranks occupied along any path strictly increase —
  :func:`check_rank_monotonicity` exhaustively verifies the increase for a
  hop scheme on a topology.
* Minimality: every candidate hop must reduce the distance to the
  destination — :func:`check_candidates_minimal` walks all reachable
  states.
* :func:`enumerate_paths` lists the link paths an algorithm permits for
  one (src, dst) pair, used to verify full/partial adaptivity claims (a
  fully adaptive algorithm must allow every minimal path).
"""

from __future__ import annotations

import copy
from typing import Any, Dict, Hashable, List, Set, Tuple

from repro.routing.base import RoutingAlgorithm
from repro.routing.hop_base import HopClassScheme
from repro.util.errors import ReproError
from repro.util.fingerprint import state_fingerprint


class InvariantViolation(ReproError):
    """An algorithm violated one of its structural guarantees."""


def check_rank_monotonicity(scheme: HopClassScheme) -> int:
    """Verify ranks strictly increase along every reachable hop.

    Walks every (src, dst) pair and every reachable (class, node)
    configuration of *scheme*; raises :class:`InvariantViolation` on the
    first non-increasing rank transition.  Returns the number of
    transitions checked.
    """
    topology = scheme.topology
    checked = 0
    for src in range(topology.num_nodes):
        for dst in range(topology.num_nodes):
            if src == dst:
                continue
            frontier: List[Tuple[int, int]] = [
                (vc_class, src)
                for vc_class in scheme.initial_classes(src, dst)
            ]
            seen: Set[Tuple[int, int]] = set()
            while frontier:
                vc_class, node = frontier.pop()
                if (vc_class, node) in seen or node == dst:
                    continue
                seen.add((vc_class, node))
                next_class = scheme.class_after_hop(vc_class, node)
                if next_class >= scheme.num_virtual_channels:
                    raise InvariantViolation(
                        f"{scheme.name}: class {next_class} exceeds the "
                        f"{scheme.num_virtual_channels} provisioned virtual "
                        f"channels (src={src}, dst={dst}, node={node})"
                    )
                for link in scheme.minimal_links(node, dst):
                    rank_here = scheme.rank(vc_class, node)
                    rank_next = scheme.rank(next_class, link.dst)
                    checked += 1
                    if rank_next <= rank_here:
                        raise InvariantViolation(
                            f"{scheme.name}: rank did not increase on hop "
                            f"{node}->{link.dst} (class {vc_class}->"
                            f"{next_class}, rank {rank_here}->{rank_next})"
                        )
                    frontier.append((next_class, link.dst))
    return checked


def check_candidates_minimal(
    algorithm: RoutingAlgorithm, src: int, dst: int
) -> int:
    """Verify every reachable candidate hop moves strictly closer to *dst*.

    Returns the number of candidates checked; raises
    :class:`InvariantViolation` otherwise.
    """
    topology = algorithm.topology
    checked = 0
    frontier: List[Tuple[Any, int]] = [(algorithm.new_state(src, dst), src)]
    seen: Set[Tuple[Hashable, int]] = set()
    while frontier:
        state, node = frontier.pop()
        marker = (state_fingerprint(state), node)
        if marker in seen or node == dst:
            continue
        seen.add(marker)
        distance = topology.distance(node, dst)
        for link, vc_class in algorithm.candidates(state, node, dst):
            checked += 1
            if topology.distance(link.dst, dst) != distance - 1:
                raise InvariantViolation(
                    f"{algorithm.name}: non-minimal hop {node}->{link.dst} "
                    f"while routing {src}->{dst}"
                )
            next_state = algorithm.advance(
                copy.copy(state), node, link, vc_class
            )
            frontier.append((next_state, link.dst))
    return checked


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
    memo: Dict[int, int] = {}

    def recurse(node: int) -> int:
        if node == dst:
            return 1
        if node in memo:
            return memo[node]
        total = sum(
            recurse(link.dst) for link in topology.minimal_links(node, dst)
        )
        memo[node] = total
        return total

    return recurse(src)


__all__ = [
    "InvariantViolation",
    "check_candidates_minimal",
    "check_rank_monotonicity",
    "count_minimal_paths",
    "enumerate_paths",
]
