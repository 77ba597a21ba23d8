"""Interned route tables: candidate sets as flat numpy rows.

The engine-level memoization (:meth:`RoutingAlgorithm.candidates_cached`,
the resolved-candidate caches) already turns every shipped algorithm's
deterministic component into a static ``(node, dst, state_key) ->
candidates`` mapping.  :class:`RouteTable` interns that mapping into
*dense integer rows* so the batch backend can gather whole request
batches at once:

* ``cand_flat[row, k]`` — flat VC index (``link.index * V + vc_class``)
  of candidate *k*, ``-1`` padded;
* ``cand_ch[row, k]`` — physical-channel index (for load gathers);
* ``cand_dst[row, k]`` — the node the hop lands on;
* ``count[row]`` — number of candidates;
* ``term[row, k]`` — True when candidate *k* lands on the destination
  (the hop after which the message stops requesting routes);
* ``succ[row, k]`` — the row a message occupies after committing
  candidate *k*, interned lazily on first commit (``-1`` until then;
  never queried for hops that arrive at the destination).

Successor rows are computed from a stored *representative state* per
row: ``advance`` is applied to a shallow copy of the representative and
the result is interned under its own key.  This is sound under a
contract slightly stronger than :meth:`RoutingAlgorithm.state_key`'s:
the advanced state's key must be determined by ``(state_key, current,
link, vc_class)`` alone.  Every shipped algorithm satisfies it — e-cube
is stateless, the hop schemes map ``(vc_class,)`` through
``class_after_hop(vc_class, current)``, north-last increments its wrap
count on wrap links, 2pn's tag never changes, and multi-lane delegates —
and any custom algorithm whose ``advance`` consults state outside its
key must not be run on the batch backend (the object engine never
builds tables).

States whose ``state_key`` is ``None`` (memoization opt-out) cannot be
interned; :meth:`RouteTable.row_for` raises ``ConfigurationError``.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.routing.base import RoutingAlgorithm
from repro.topology.base import Link
from repro.util.errors import ConfigurationError

#: Initial row capacity; doubled on demand.
_INITIAL_ROWS = 256

#: Initial candidate width; widened on demand (nbc's first-hop cross
#: product of links x initial classes is the widest shipped case).
_INITIAL_WIDTH = 8


class RouteTable:
    """Dense interned candidate rows for one (algorithm, topology)."""

    def __init__(self, algorithm: RoutingAlgorithm) -> None:
        self.algorithm = algorithm
        self._v = algorithm.num_virtual_channels
        self._index: Dict[Tuple[int, int, Hashable], int] = {}
        self.size = 0
        self._width = _INITIAL_WIDTH
        cap = _INITIAL_ROWS
        self.cand_flat = np.full((cap, self._width), -1, dtype=np.int64)
        self.cand_ch = np.zeros((cap, self._width), dtype=np.int64)
        self.cand_dst = np.zeros((cap, self._width), dtype=np.int64)
        self.term = np.zeros((cap, self._width), dtype=bool)
        self.count = np.zeros(cap, dtype=np.int64)
        self.succ = np.full((cap, self._width), -1, dtype=np.int64)
        #: Python-side per-row data for the scalar seams: candidate Link
        #: objects (successor interning), flat-index lists (parking).
        self.links: List[List[Link]] = []
        self.flats: List[List[int]] = []
        self.rep_state: List[Any] = []
        self.node: List[int] = []
        self.dst: List[int] = []

    def _grow_rows(self) -> None:
        cap = self.cand_flat.shape[0] * 2
        width = self._width

        def wider(old: np.ndarray, fill: int) -> np.ndarray:
            fresh = np.full((cap, width), fill, dtype=old.dtype)
            fresh[: old.shape[0]] = old
            return fresh

        self.cand_flat = wider(self.cand_flat, -1)
        self.cand_ch = wider(self.cand_ch, 0)
        self.cand_dst = wider(self.cand_dst, 0)
        self.term = wider(self.term, False)
        self.succ = wider(self.succ, -1)
        fresh_count = np.zeros(cap, dtype=np.int64)
        fresh_count[: self.count.shape[0]] = self.count
        self.count = fresh_count

    def _grow_width(self, needed: int) -> None:
        width = self._width
        while width < needed:
            width *= 2
        cap = self.cand_flat.shape[0]

        def wider(old: np.ndarray, fill: int) -> np.ndarray:
            fresh = np.full((cap, width), fill, dtype=old.dtype)
            fresh[:, : old.shape[1]] = old
            return fresh

        self.cand_flat = wider(self.cand_flat, -1)
        self.cand_ch = wider(self.cand_ch, 0)
        self.cand_dst = wider(self.cand_dst, 0)
        self.term = wider(self.term, False)
        self.succ = wider(self.succ, -1)
        self._width = width

    def row_for(
        self,
        node: int,
        dst: int,
        state: Any,
        key: Optional[Hashable] = None,
    ) -> int:
        """Intern (and return) the row of one (node, dst, state) position.

        *state* becomes the row's representative on first interning; it
        must not be mutated by the caller afterwards (the table advances
        shallow copies, never the representative itself).
        """
        if key is None:
            key = self.algorithm.state_key(state)
            if key is None:
                raise ConfigurationError(
                    f"routing algorithm {self.algorithm.name!r} returned "
                    "state_key=None: its candidate sets cannot be "
                    "table-interned, which the batch backend requires "
                    "(run backend='object' instead)"
                )
        entry = (node, dst, key)
        row = self._index.get(entry)
        if row is not None:
            return row
        choices = self.algorithm.candidates_cached(state, node, dst)
        n = len(choices)
        if n > self._width:
            self._grow_width(n)
        row = self.size
        if row == self.cand_flat.shape[0]:
            self._grow_rows()
        v = self._v
        links: List[Link] = []
        flats: List[int] = []
        for k, (link, vc_class) in enumerate(choices):
            flat = link.index * v + vc_class
            self.cand_flat[row, k] = flat
            self.cand_ch[row, k] = link.index
            self.cand_dst[row, k] = link.dst
            self.term[row, k] = link.dst == dst
            links.append(link)
            flats.append(flat)
        self.count[row] = n
        self.links.append(links)
        self.flats.append(flats)
        self.rep_state.append(state)
        self.node.append(node)
        self.dst.append(dst)
        self._index[entry] = row
        self.size = row + 1
        return row

    def successor(self, row: int, k: int) -> int:
        """The row occupied after committing candidate *k* of *row*.

        Lazily interned: ``advance`` runs once per (row, candidate) on a
        shallow copy of the representative state.  Must not be called
        for a hop that arrives at the destination (delivered messages
        request no further candidates).
        """
        cached = int(self.succ[row, k])
        if cached >= 0:
            return cached
        algorithm = self.algorithm
        link = self.links[row][k]
        vc_class = int(self.cand_flat[row, k]) - link.index * self._v
        advanced = algorithm.advance(
            copy.copy(self.rep_state[row]), self.node[row], link, vc_class
        )
        succ = self.row_for(link.dst, self.dst[row], advanced)
        self.succ[row, k] = succ
        return succ


__all__ = ["RouteTable"]
