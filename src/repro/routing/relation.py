"""The routing relation: every route-table row a message can reach.

:func:`routing_relation` walks ``new_state`` / ``candidates`` /
``advance`` (on a shallow copy, as :meth:`RouteTable.successor` does)
from every (source, destination) pair, deduplicated on
``(state_fingerprint(state), node, dst)`` across pairs — nothing after
injection depends on the source — and keeps each row the engines'
:mod:`repro.routing.tables` would hold: ``(flats, successors)`` under
``(node, dst, state_key)``, the candidates in the engines' int format and
per candidate the key of the row its hop leads to (``None`` on landing).
A state routing unlike the first state of its key breaks the tables'
memo contract: its key lands in ``conflicts`` (rows keep the first
state's values).  A class outside ``[0, V)``, which would spell another
channel's flat index, lands in ``unprovisioned``.  Keyless states
(``state_key`` None) are keyed by their fingerprint.  Like a route
table's entries, the rows hold each candidate tuple, state key and flat
index once.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple
from weakref import WeakKeyDictionary

from repro.routing.base import RoutingAlgorithm
from repro.routing.tables import EntryKey, SharedParts, flatten
from repro.util.fingerprint import state_fingerprint

#: One row: candidates as flat VC indices, and the row each one leads to.
Row = Tuple[Tuple[int, ...], Tuple[Optional[EntryKey], ...]]


class Relation:
    """Every reachable row of one algorithm (see the module docstring)."""

    def __init__(self, num_vcs: int) -> None:
        self.num_vcs = num_vcs
        self.rows: Dict[EntryKey, Row] = {}
        #: (src, dst) -> the key of the row a fresh message starts in.
        self.starts: Dict[Tuple[int, int], EntryKey] = {}
        #: Key -> the row a later state gave it, first conflict first.
        self.conflicts: Dict[EntryKey, Row] = {}
        #: Key -> its first (link index, class) with a class outside [0, V).
        self.unprovisioned: Dict[EntryKey, Tuple[int, int]] = {}
        self._paths: Dict[FrozenSet[EntryKey], int] = {}
        self._paths_dst = -1

    def path_count(self, src: int, dst: int) -> int:
        """How many distinct node paths a message may take to *dst*."""
        if dst != self._paths_dst:  # no memo key spans two destinations
            self._paths, self._paths_dst = {}, dst
        return self._count(frozenset((self.starts[(src, dst)],)))

    def _count(self, keys: FrozenSet[EntryKey]) -> int:
        # Paths on from any row of *keys* (one node): by next node.
        count = self._paths.get(keys)
        if count is None:
            landed = 0
            after: Dict[int, Set[EntryKey]] = {}
            for key in keys:
                for successor in self.rows[key][1]:
                    if successor is None:
                        landed = 1
                    else:
                        after.setdefault(successor[0], set()).add(successor)
            count = landed + sum(
                self._count(frozenset(group)) for group in after.values()
            )
            self._paths[keys] = count
        return count


#: Each live algorithm instance's full relation, computed once.
_FULL: "WeakKeyDictionary[RoutingAlgorithm, Relation]" = WeakKeyDictionary()


def routing_relation(
    algorithm: RoutingAlgorithm,
    pairs: Optional[Iterable[Tuple[int, int]]] = None,
) -> Relation:
    """The rows reachable from each ``(src, dst)`` of *pairs* (``src !=
    dst``), or from every pair of distinct nodes: that one is computed once
    per algorithm instance and kept while it lives (one walk a battery)."""
    if pairs is None:
        if algorithm not in _FULL:
            nodes = range(algorithm.topology.num_nodes)
            _FULL[algorithm] = routing_relation(
                algorithm, ((s, d) for d in nodes for s in nodes if s != d)
            )
        return _FULL[algorithm]
    v = algorithm.num_virtual_channels
    relation = Relation(v)

    def entry(state: Any, node: int, dst: int) -> EntryKey:
        key = algorithm.state_key(state)
        if key is None:
            key = state_fingerprint(state)
        full = (node, dst, key)
        shared = keys.get(full)
        if shared is None:  # one tuple per key, one state key per value
            shared = (node, dst, parts.state_key(key))
            keys[shared] = shared
        return shared

    seen: Set[Tuple[Any, int]] = set()
    keys: Dict[EntryKey, EntryKey] = {}
    parts = SharedParts()
    last_dst = -1
    for src, dst in pairs:
        if dst != last_dst:  # markers and keys never serve another dst
            seen, keys, last_dst = set(), {}, dst
        start = algorithm.new_state(src, dst)
        relation.starts[(src, dst)] = entry(start, src, dst)
        stack: List[Tuple[Any, int]] = [(start, src)]
        while stack:
            state, node = stack.pop()
            marker = (state_fingerprint(state), node)
            if marker in seen:
                continue
            seen.add(marker)
            key = entry(state, node, dst)
            choices = algorithm.candidates(state, node, dst)
            successors: List[Optional[EntryKey]] = []
            for link, vc_class in choices:
                if not 0 <= vc_class < v:
                    relation.unprovisioned.setdefault(key, (link.index, vc_class))
                if link.dst == dst:
                    successors.append(None)
                    continue
                advanced = algorithm.advance(copy.copy(state), node, link, vc_class)
                successors.append(entry(advanced, link.dst, dst))
                stack.append((advanced, link.dst))
            row = (parts.flats(tuple(flatten(choices, v))), tuple(successors))
            if relation.rows.setdefault(key, row) != row:
                relation.conflicts.setdefault(key, row)
    return relation


__all__ = ["Relation", "Row", "routing_relation"]
