"""Route tables: the one place an engine memoises candidate sets.

Every shipped algorithm's candidate set is a pure function of ``(node,
dst, state_key)`` (:meth:`RoutingAlgorithm.state_key`).  A
:class:`RouteTable` holds that function's visited part in the one form
both engines can read:

``entries[(node, dst, state_key)]`` — the candidates as a tuple of *flat
VC indices*, ``link.index * V + vc_class``, in ``candidates()`` order.

Plain ints mean an entry is valid for any engine on an equal network (the
object engine resolves them through ``Fabric.vcs``, the batch stepper
uses them as array indices), and that the cyclic collector stops
tracking it: the value on the first pass that sees it, the key (which
holds the state key, one more tuple) on the second.  A process that has
routed a million requests gives a collection no more to walk than one
that has routed none.

**Each part of an entry is held once per table** (:class:`SharedParts`):
equal candidate tuples are one object, so are equal state keys, and each
flat index is one int.  Only identity is shared: values and order are
exactly what ``candidates()`` gave.

**Who shares a table.**  :func:`route_table` is the only way an engine
gets one.  Engines that built their algorithm from a registry name on a
stock :class:`Torus` / :class:`Mesh` share one table per (topology kind,
radix, n_dims, name), so the points of a load ladder — the paper's
artifacts are ladders — route from one memo instead of re-deriving it
per point.  The table computes its entries with its *own* topology and
algorithm instance, never an engine's, and keeps no message's live state
(hop schemes mutate theirs in place): what it holds depends on which
requests were made before only in *which* entries exist, never in their
values, so sharing is invisible to every result.  The most recently used
table is kept, one per process.  Within one topology and traffic
pattern every sweep the package runs is algorithm-major, but
:meth:`~repro.campaigns.spec.CampaignSpec.expand` loops topology, then
traffic, then algorithm, so a campaign over T traffic patterns interns
each algorithm's table T times (docs/performance.md, "Route rows and
memory", measured that at +15.5% ``candidates()`` calls and no
measurable wall time on a two-algorithm, three-pattern grid).  An
evicted table lives on for as long as an engine still holds it.  An engine handed an explicit ``algorithm=``
instance gets a private table: nothing is ever aliased by class name.

**Dense rows, for the batch stepper only.**  :meth:`RouteTable.row_for`
numbers entries and lays them out as numpy rows so whole request batches
gather at once:

* ``cand_flat[row, k]`` — flat VC index of candidate *k*, ``-1`` padded
  to the widest row interned so far (no wider: the batch stepper's
  per-request arrays all take this width);
* ``cand_ch[row, k]`` — physical-channel index (for load gathers);
* ``cand_dst[row, k]`` — the node the hop lands on;
* ``count[row]`` — number of candidates;
* ``term[row, k]`` — True when candidate *k* lands on the destination
  (the hop after which the message stops requesting routes);
* ``succ[row, k]`` — the row a message occupies after committing
  candidate *k*, interned lazily on first commit (``-1`` until then;
  never queried for hops that arrive at the destination).

The columns have zero rows until the first ``row_for`` call, so a process
that only runs the object engine never pays for them (a 16x16 point
visits ~10^5 entries; as rows that would be tens of MB).

Successor rows are computed from a stored *representative state* per
row: ``advance`` is applied to a shallow copy of the representative and
the result is interned under its own key.  This is sound under a
contract slightly stronger than :meth:`RoutingAlgorithm.state_key`'s:
the advanced state's key must be determined by ``(state_key, current,
link, vc_class)`` alone.  ``repro-campaign verify``'s ``route_memo`` check
holds an algorithm to both over every reachable row
(:mod:`repro.routing.relation`); one that fails it must not be run on
the batch backend.  Row numbers depend on
interning order (a shared table may arrive pre-grown); nothing a lane
reports may depend on them.

States whose ``state_key`` is ``None`` (memoization opt-out) cannot be
interned: the object engine computes their candidates per request, and
:meth:`RouteTable.row_for` raises ``ConfigurationError``.
"""

from __future__ import annotations

import copy
from functools import lru_cache
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.routing.base import RouteChoice, RoutingAlgorithm
from repro.routing.registry import make_algorithm
from repro.topology.base import Topology
from repro.topology.mesh import Mesh
from repro.topology.torus import Torus
from repro.util.errors import ConfigurationError, RoutingError

#: Row capacity of the first dense allocation; doubled on demand.
_INITIAL_ROWS = 256

#: An entry's key: (node, destination, algorithm state key).
EntryKey = Tuple[int, int, Hashable]


def flat_candidates(
    algorithm: RoutingAlgorithm,
    num_vcs: int,
    state: Any,
    node: int,
    dst: int,
) -> List[int]:
    """``algorithm.candidates(state, node, dst)`` as flat VC indices.

    Every candidate an engine routes by passes here, so this is where a
    class outside ``[0, num_vcs)`` is refused: flattened, it would name
    another channel's virtual channel.
    """
    choices = algorithm.candidates(state, node, dst)
    for _link, vc_class in choices:
        if not 0 <= vc_class < num_vcs:
            raise RoutingError(
                f"routing algorithm {algorithm.name!r} offers "
                f"virtual-channel class {vc_class} at node {node} for "
                f"destination {dst}, but provisions only {num_vcs} "
                f"(classes 0..{num_vcs - 1})"
            )
    return flatten(choices, num_vcs)


def flatten(choices: Sequence[RouteChoice], num_vcs: int) -> List[int]:
    """The one definition of the int format: table entries, the object
    engine's per-request reference path and the routing relation.
    Unchecked, so the relation can record an unprovisioned class
    rather than stop at it."""
    return [link.index * num_vcs + vc_class for link, vc_class in choices]


class SharedParts:
    """One object per distinct flat index, candidate tuple and state key.

    What a table's entries and rows, and the routing relation's rows, are
    built from.  CPython keeps no ints above 256, so entries holding their
    own copies are a quarter larger; 44–89% of a table's entries repeat
    another's candidates; a hop scheme's table has tens of distinct state
    keys over tens of thousands of entries.
    """

    def __init__(self) -> None:
        self._ints: Dict[int, int] = {}
        self._flat_sets: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        self._state_keys: Dict[Hashable, Hashable] = {}

    def flats(self, fresh: Tuple[int, ...]) -> Tuple[int, ...]:
        """The held tuple equal to *fresh*, held first if new."""
        flats = self._flat_sets.get(fresh)
        if flats is None:
            flats = tuple(map(self._ints.setdefault, fresh, fresh))
            self._flat_sets[flats] = flats
        return flats

    def state_key(self, key: Hashable) -> Hashable:
        """The held state key equal to *key*, held first if new."""
        return self._state_keys.setdefault(key, key)


class RouteTable:
    """Interned candidate sets of one (topology, algorithm)."""

    def __init__(self, algorithm: RoutingAlgorithm) -> None:
        self.algorithm = algorithm
        self._v = algorithm.num_virtual_channels
        #: (node, dst, state_key) -> flat VC indices, ``candidates()``
        #: order.  Engines probe this dict directly and call
        #: :meth:`intern` on a miss.
        self.entries: Dict[EntryKey, Tuple[int, ...]] = {}
        # Every entry and row holds these, never a copy.
        self._parts = SharedParts()
        # -- dense rows (batch stepper only; see the module docstring) --
        self._index: Dict[EntryKey, int] = {}
        self.size = 0
        # As wide as the widest row interned so far, exactly: every
        # [n, width] array the batch stepper gathers through these is
        # padding beyond that (e-cube has 1 candidate, nbc up to 9).
        shape = (0, 1)
        self.cand_flat = np.full(shape, -1, dtype=np.int64)
        self.cand_ch = np.zeros(shape, dtype=np.int64)
        self.cand_dst = np.zeros(shape, dtype=np.int64)
        self.term = np.zeros(shape, dtype=bool)
        self.count = np.zeros(0, dtype=np.int64)
        self.succ = np.full(shape, -1, dtype=np.int64)
        self._views()
        self._links = algorithm.topology.links
        #: Per-row scalars for successor interning: where the row sits
        #: and a state that stands for every state with the row's key.
        self.rep_state: List[Any] = []
        self.node: List[int] = []
        self.dst: List[int] = []

    def intern(self, entry: EntryKey, state: Any) -> Tuple[int, ...]:
        """Compute and store the entry of one missed ``entries`` probe.

        *state* is only read, for this one ``candidates`` call; *entry*
        must be ``(node, dst, state_key(state))``.  The entry is stored
        under the table's own copy of the state key.
        """
        node, dst, key = entry
        flats = self._parts.flats(
            tuple(flat_candidates(self.algorithm, self._v, state, node, dst))
        )
        shared = self._parts.state_key(key)
        if shared is not key:
            entry = (node, dst, shared)
        self.entries[entry] = flats
        return flats

    def _views(self) -> None:
        """Memoryviews of the columns: the cold path's scalar reads and
        stores go through them (plain ints, no numpy scalar boxing)."""
        self._cells = tuple(
            memoryview(column)
            for column in (
                self.cand_flat, self.cand_ch, self.cand_dst, self.term,
                self.succ, self.count,
            )
        )

    def _resize(self, rows: int, width: int) -> None:
        """Reallocate the columns to ``rows x width``, contents kept."""
        # Views pin their columns: drop them first, so each old column
        # is freed as its replacement lands.
        self._cells = ()

        def grown(old: np.ndarray, fill: int) -> np.ndarray:
            fresh = np.full((rows, width), fill, dtype=old.dtype)
            fresh[: old.shape[0], : old.shape[1]] = old
            return fresh

        self.cand_flat = grown(self.cand_flat, -1)
        self.cand_ch = grown(self.cand_ch, 0)
        self.cand_dst = grown(self.cand_dst, 0)
        self.term = grown(self.term, False)
        self.succ = grown(self.succ, -1)
        count = np.zeros(rows, dtype=np.int64)
        count[: self.count.shape[0]] = self.count
        self.count = count
        self._views()

    def row_for(
        self,
        node: int,
        dst: int,
        state: Any,
        key: Optional[Hashable] = None,
    ) -> int:
        """Intern (and return) the row of one (node, dst, state) position.

        *state* becomes the row's representative on first interning, so
        it must be the caller's to give away: never a state something
        else goes on to mutate (the table advances shallow copies, never
        the representative itself).
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
        row = self._index.get((node, dst, key))
        if row is not None:
            return row
        entry = (node, dst, self._parts.state_key(key))
        flats = self.entries.get(entry)
        if flats is None:
            flats = self.intern(entry, state)
        row = self.size
        capacity, width = self.cand_flat.shape
        if row == capacity:
            capacity = max(_INITIAL_ROWS, 2 * capacity)
        width = max(width, len(flats))
        if (capacity, width) != self.cand_flat.shape:
            self._resize(capacity, width)
        v = self._v
        links = self._links
        flat_c, ch_c, dst_c, term_c, _succ_c, count_c = self._cells
        for k, flat in enumerate(flats):
            channel = flat // v
            landing = links[channel].dst
            flat_c[row, k] = flat
            ch_c[row, k] = channel
            dst_c[row, k] = landing
            term_c[row, k] = landing == dst
        count_c[row] = len(flats)
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
        cached = self._cells[4][row, k]
        if cached >= 0:
            return cached
        link_index, vc_class = divmod(self._cells[0][row, k], self._v)
        link = self._links[link_index]
        advanced = self.algorithm.advance(
            copy.copy(self.rep_state[row]), self.node[row], link, vc_class
        )
        succ = self.row_for(link.dst, self.dst[row], advanced)
        # row_for may have resized the columns: store through the
        # views it left.
        self._cells[4][row, k] = succ
        return succ


@lru_cache(maxsize=1)
def shared_table(
    kind: Type[Topology], radix: int, n_dims: int, name: str
) -> RouteTable:
    """The process's table for one registry algorithm on one stock
    network, built over a topology and algorithm of its own.

    Engines go through :func:`route_table`; this is public for its
    ``cache_info()`` / ``cache_clear()`` (tests, and benchmarks that
    must time a cold process).
    """
    return RouteTable(make_algorithm(name, kind(radix, n_dims)))


def route_table(
    algorithm: RoutingAlgorithm, registry_name: Optional[str]
) -> RouteTable:
    """The table an engine routing with *algorithm* reads and fills.

    *registry_name* is the name the engine itself built *algorithm* from
    (``make_algorithm(registry_name, algorithm.topology)``), or None for
    an instance handed to it from outside.  Shared (see the module
    docstring) when the name is given and the topology is a stock one an
    equal copy of which can be built from its shape; private otherwise.
    """
    topology = algorithm.topology
    if registry_name is None or type(topology) not in (Torus, Mesh):
        return RouteTable(algorithm)
    return shared_table(
        type(topology), topology.radix, topology.n_dims, registry_name
    )


__all__ = [
    "EntryKey",
    "RouteTable",
    "SharedParts",
    "flat_candidates",
    "flatten",
    "route_table",
    "shared_table",
]
