"""Structure-of-arrays state for the batch backend.

A Python object per in-flight worm puts ~0.5M scalar attribute touches
per congested window on the hot path (release bookkeeping, the transmit
epilogue, ejection accounting, the per-winner commit loop), and a
Python object per lane and random stream puts one call per lane per
cycle there.  This module holds both as flat numpy arrays carrying a
leading batch axis instead, so the batch engine's per-cycle phases read
and write them with masked gathers/scatters only, whatever B is.

Four containers:

* :class:`MessageSlab` — one row per in-flight message, ``[B, M]``
  columns (src/dst/length/flits-injected/flits-ejected/head/route-row/
  born/wait/...), preallocated and recycled through per-lane free-list
  stacks; capacity doubles when any lane's stack runs dry.  Slot numbers
  are bookkeeping only — no engine ordering may key on them — so growth
  handing fresh slots to every lane at once cannot perturb any lane's
  results (the composition-independence tests pin this).
* :class:`RequestPool` — the pending route requests (lane, slot, seq)
  with each entry's cached candidate VCs and last-blocked cycle.
  Blocked requests stay pooled; the engine re-tests one only when a
  candidate VC was released since its last routing pass (a vectorized
  park/wake).  Spurious wakes are harmless — a blocked request
  consumes no rng — so the flag test's over-approximation is
  draw-for-draw equivalent to exact wake lists.
* :class:`DeliverQueue` — absolute VC indices currently delivering at
  their destination, in registration order (the order a stopped lane
  keeps in ``lane.delivering``).
* :class:`StreamStack` — one random stream of every lane, prefetched
  into a ``[B, K]`` stack with per-lane read cursors and served to a
  whole phase by one gather.  Each lane's row refills from its own
  generator by a rule that depends on that lane's takes alone, so the
  draws a lane sees — and the generator state each refill leaves — are
  independent of the batch composition.  :func:`tiebreaks` turns a
  stack of raw 32-bit words into bounded integers.

Everything that addresses "the entries of each lane" in a lane-sorted
id array goes through :func:`segments`, and every (lane, seq) order
through :func:`lane_order`.  The first three containers
grow by doubling, the stack widens to fit, none ever shrinks; the
engine holds exactly one slab, pool and queue and one stack per stream
kind.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple, Tuple

import numpy as np

#: Initial per-lane message capacity (slots); doubled on exhaustion.
INITIAL_SLOTS = 256

#: Initial request-pool / deliver-queue capacity (entries).
INITIAL_ENTRIES = 256

#: Draws prefetched per stack refill (amortizes the Generator call and
#: the transform over ~a hundred polls of the lane).
STREAM_CHUNK = 4096


class Segments(NamedTuple):
    """A lane-sorted id array and its per-lane runs."""

    ids: np.ndarray
    #: Per run: its lane, where it starts, its length.
    lanes: np.ndarray
    starts: np.ndarray
    counts: np.ndarray
    #: Per entry: its offset within its run.
    within: np.ndarray


def segments(lane_ids: np.ndarray) -> Segments:
    """Split the non-empty, non-decreasing *lane_ids* into per-lane runs.

    Every per-lane quantity of a phase is then one gather or one
    segment add: entry ``j`` of lane ``b`` reads ``base[b] + within[j]``
    and lane ``b``'s cursor advances by its run's count.  A single run
    (B=1, or a near-idle cycle) is recognised from the two ends and
    pays no segmentation.
    """
    n = lane_ids.shape[0]
    if lane_ids[0] == lane_ids[-1]:
        return Segments(
            lane_ids,
            lane_ids[:1],
            np.zeros(1, dtype=np.intp),
            np.full(1, n, dtype=np.intp),
            np.arange(n, dtype=np.intp),
        )
    # Entries per lane id, and where each id's run starts.
    per_id = np.bincount(lane_ids)
    first = per_id.cumsum()
    first -= per_id
    lanes = np.flatnonzero(per_id)
    within = np.arange(n, dtype=np.intp)
    within -= first[lane_ids]
    return Segments(lane_ids, lanes, first[lanes], per_id[lanes], within)


def lane_order(
    lane_ids: np.ndarray, seqs: np.ndarray, batch: int, seq_bound: int
) -> np.ndarray:
    """The permutation ``np.lexsort((seqs, lane_ids))`` returns, by one
    sort of packed keys.

    *lane_ids* lie in ``[0, batch)`` and *seqs* in ``[0, seq_bound)``
    (the caller's lane count and sequence counter bound them); each pair
    packs into the int64 ``lane << shift | seq``, ``shift`` the bit
    length of the largest seq, and a stable sort keeps equal pairs in
    input order as lexsort does.  Bounds that would not fit in 63 bits
    raise ``OverflowError`` instead of wrapping.
    """
    shift = max(seq_bound - 1, 0).bit_length()
    if max(batch - 1, 0).bit_length() + shift > 63:
        raise OverflowError(
            f"{batch} lanes and seqs below {seq_bound} do not pack "
            "into 63 bits"
        )
    key = np.left_shift(lane_ids, shift, dtype=np.int64)
    key |= seqs
    return np.argsort(key, kind="stable")


class MessageView(NamedTuple):
    """A read-only snapshot of one slab row (deadlock reports, debugging).

    Field names match the attributes of
    :class:`repro.network.message.Message` that diagnostic code reads.
    """

    msg_id: int
    src: int
    dst: int
    distance: int
    head_node: int
    created_at: int
    flits_to_inject: int
    flits_ejected: int
    route_row: int
    wait_since: int


class MessageSlab:
    """Per-message state as ``[B, M]`` columns with per-lane free lists.

    A message is a *slot* in its lane: allocation pops slot numbers off
    the lane's free stack, completion pushes them back.  The engine's
    owner arrays store the slot (not a message id), and every column has
    a flat 1-D view addressed by the global index ``g = b * M + slot``
    (recomputed by callers after any potential growth point — ``alloc``
    is the only one on the cycle path).
    """

    # Column types (created via setattr from _COLUMNS in __init__).
    src: np.ndarray
    dst: np.ndarray
    dist: np.ndarray
    length: np.ndarray
    inj: np.ndarray
    ej: np.ndarray
    head: np.ndarray
    head_flat: np.ndarray
    tail_flat: np.ndarray
    src_flat: np.ndarray
    row: np.ndarray
    born: np.ndarray
    wait: np.ndarray
    mid: np.ndarray
    cls: np.ndarray
    live: np.ndarray
    src_f: np.ndarray
    dst_f: np.ndarray
    dist_f: np.ndarray
    length_f: np.ndarray
    inj_f: np.ndarray
    ej_f: np.ndarray
    head_f: np.ndarray
    head_flat_f: np.ndarray
    tail_flat_f: np.ndarray
    src_flat_f: np.ndarray
    row_f: np.ndarray
    born_f: np.ndarray
    wait_f: np.ndarray
    mid_f: np.ndarray
    cls_f: np.ndarray
    live_f: np.ndarray

    __slots__ = (
        "batch",
        "capacity",
        "src",
        "dst",
        "dist",
        "length",
        "inj",
        "ej",
        "head",
        "head_flat",
        "tail_flat",
        "src_flat",
        "row",
        "born",
        "wait",
        "mid",
        "cls",
        "live",
        "src_f",
        "dst_f",
        "dist_f",
        "length_f",
        "inj_f",
        "ej_f",
        "head_f",
        "head_flat_f",
        "tail_flat_f",
        "src_flat_f",
        "row_f",
        "born_f",
        "wait_f",
        "mid_f",
        "cls_f",
        "live_f",
        "_free",
        "_free_f",
        "_free_top",
        "grow_count",
    )

    #: (name, dtype, fill) for every column; -1 fills mark "no VC yet".
    _COLUMNS: Tuple[Tuple[str, type, int], ...] = (
        ("src", np.int32, 0),
        ("dst", np.int32, 0),
        ("dist", np.int32, 0),
        ("length", np.int32, 0),
        # flits injected (have left the source); no move writes it, the
        # batch engine derives it before a cold-path read
        ("inj", np.int32, 0),
        ("ej", np.int32, 0),  # flits ejected at the destination
        ("head", np.int32, 0),  # head node
        ("head_flat", np.int32, -1),  # newest VC held (path tail)
        ("tail_flat", np.int32, -1),  # oldest VC held (next released)
        ("src_flat", np.int32, -1),  # first-hop VC, -1 until allocated
        ("row", np.int64, 0),  # interned RouteTable row
        ("born", np.int64, 0),
        ("wait", np.int64, 0),  # cycle the current route request queued
        ("mid", np.int64, 0),  # per-lane message id
        ("cls", np.int32, 0),  # interned message-class id
        ("live", np.bool_, 0),
    )

    def __init__(self, batch: int, capacity: int = INITIAL_SLOTS) -> None:
        if batch < 1 or capacity < 1:
            raise ValueError("slab needs batch >= 1 and capacity >= 1")
        self.batch = batch
        self.capacity = capacity
        for name, dtype, fill in self._COLUMNS:
            col = np.full((batch, capacity), fill, dtype=dtype)
            setattr(self, name, col)
            setattr(self, name + "_f", col.reshape(-1))
        #: Free slot stacks: _free[b, :_free_top[b]] are b's free slots,
        #: popped from the top (highest index) first.
        self._free = np.tile(
            np.arange(capacity, dtype=np.int32), (batch, 1)
        )
        self._free_f = self._free.reshape(-1)
        self._free_top = np.full(batch, capacity, dtype=np.int64)
        self.grow_count = 0

    def free_slots(self, lane: int) -> int:
        """How many slots lane *lane* can allocate without growing."""
        return int(self._free_top[lane])

    def live_count(self, lane: int) -> int:
        return int(np.count_nonzero(self.live[lane]))

    def ensure(self, lanes: np.ndarray, counts: np.ndarray) -> None:
        """Grow until every lane of *lanes* has its count of free slots."""
        while (self._free_top[lanes] < counts).any():
            self.grow()

    def grow(self) -> None:
        """Double capacity; every lane's stack gains the fresh slots.

        Growth preserves slot numbers (columns extend on the right), so
        owner arrays holding slots stay valid; and because nothing in
        the engine orders by slot number, handing new slots to lanes
        that did not ask for them is behaviorally invisible.
        """
        old = self.capacity
        new = old * 2
        for name, dtype, fill in self._COLUMNS:
            col = np.full((self.batch, new), fill, dtype=dtype)
            col[:, :old] = getattr(self, name)
            setattr(self, name, col)
            setattr(self, name + "_f", col.reshape(-1))
        free = np.empty((self.batch, new), dtype=np.int32)
        free[:, :old] = self._free
        tops = self._free_top
        rows = np.repeat(np.arange(self.batch, dtype=np.intp), old)
        cols = (
            tops[:, None] + np.arange(old, dtype=np.int64)[None, :]
        ).reshape(-1)
        free[rows, cols] = np.tile(
            np.arange(old, new, dtype=np.int32), self.batch
        )
        self._free = free
        self._free_f = free.reshape(-1)
        self._free_top = tops + old
        self.capacity = new
        self.grow_count += 1

    def alloc(self, seg: Segments) -> np.ndarray:
        """Pop one slot per entry of the lane-sorted ids *seg* holds
        (see :func:`segments`), each lane off its own stack, growing
        first if any lane is short."""
        self.ensure(seg.lanes, seg.counts)
        top = self._free_top
        top[seg.lanes] -= seg.counts
        return self._free_f[
            seg.ids * self.capacity + top[seg.ids] + seg.within
        ]

    def release(self, seg: Segments, slots: np.ndarray) -> None:
        """Push completed messages' *slots* back, each on the stack of
        its entry of the lane-sorted ids *seg* holds."""
        top = self._free_top
        self._free_f[
            seg.ids * self.capacity + top[seg.ids] + seg.within
        ] = slots
        top[seg.lanes] += seg.counts

    def view(self, lane: int, slot: int) -> MessageView:
        """One row as a named tuple (cold path: reports, tests)."""
        return MessageView(
            msg_id=int(self.mid[lane, slot]),
            src=int(self.src[lane, slot]),
            dst=int(self.dst[lane, slot]),
            distance=int(self.dist[lane, slot]),
            head_node=int(self.head[lane, slot]),
            created_at=int(self.born[lane, slot]),
            flits_to_inject=int(
                self.length[lane, slot] - self.inj[lane, slot]
            ),
            flits_ejected=int(self.ej[lane, slot]),
            route_row=int(self.row[lane, slot]),
            wait_since=int(self.wait[lane, slot]),
        )

    def iter_live(self, lane: int) -> Iterator[MessageView]:
        """Live messages of one lane as views (cold path)."""
        for slot in np.nonzero(self.live[lane])[0].tolist():
            yield self.view(lane, slot)


#: ``blocked`` stamp for tombstoned entries — far above any cycle
#: number, so the park/wake test can never wake them.
DEAD_STAMP = np.int64(2**62)


class RequestPool:
    """Pending route requests: parallel (lane, slot, seq, …) columns.

    Entries persist while blocked.  Each entry caches its candidate
    VCs' *absolute* flat indices (``cand``, -1 padded — a request's
    route-table row is fixed for its pool lifetime), which is what the
    engine's vectorized park/wake test gathers through, and the cycle
    it last blocked (``blocked``, -1 for never-tested entries).
    ``cand`` is stored transposed — [width, capacity], one contiguous
    row per candidate position — so the wake test's "any candidate"
    reduction runs down contiguous rows.

    Winners are tombstoned in place (:meth:`kill` sets lane -1 and a
    ``DEAD_STAMP`` park stamp so they never wake) rather than
    compacted out every cycle; the engine calls :meth:`prune` once
    the dead fraction crosses a threshold.  Storage order is
    irrelevant — the engine sorts the woken subset by (lane, seq)
    each routing pass.
    """

    __slots__ = (
        "lane", "slot", "seq", "blocked", "cand", "width", "n", "dead"
    )

    def __init__(
        self, width: int, capacity: int = INITIAL_ENTRIES
    ) -> None:
        self.width = width
        self.lane = np.zeros(capacity, dtype=np.intp)
        self.slot = np.zeros(capacity, dtype=np.int32)
        self.seq = np.zeros(capacity, dtype=np.int64)
        self.blocked = np.zeros(capacity, dtype=np.int64)
        self.cand = np.zeros((width, capacity), dtype=np.int64)
        self.n = 0
        self.dead = 0

    def _reserve(self, extra: int) -> None:
        need = self.n + extra
        cap = self.lane.shape[0]
        while cap < need:
            cap *= 2
        for name in ("lane", "slot", "seq", "blocked"):
            old = getattr(self, name)
            col = np.zeros(cap, dtype=old.dtype)
            col[:self.n] = old[:self.n]
            setattr(self, name, col)
        wide = np.zeros((self.width, cap), dtype=np.int64)
        wide[:, :self.n] = self.cand[:, :self.n]
        self.cand = wide

    def widen(self, width: int) -> None:
        """Grow the candidate width (the route table widened)."""
        if width <= self.width:
            return
        wide = np.full(
            (width, self.lane.shape[0]), -1, dtype=np.int64
        )
        wide[:self.width, :self.n] = self.cand[:, :self.n]
        self.cand = wide
        self.width = width

    def extend(
        self,
        lanes: np.ndarray,
        slots: np.ndarray,
        seqs: np.ndarray,
        cand: np.ndarray,
    ) -> None:
        count = lanes.shape[0]
        if cand.shape[1] != self.width:
            self.widen(cand.shape[1])
        n = self.n
        if n + count > self.lane.shape[0]:
            self._reserve(count)
        self.lane[n:n + count] = lanes
        self.slot[n:n + count] = slots
        self.seq[n:n + count] = seqs
        self.blocked[n:n + count] = -1
        self.cand[:, n:n + count] = cand.T
        self.n = n + count

    def kill(self, idx: np.ndarray) -> None:
        """Tombstone the indexed entries (request granted a VC)."""
        self.lane[idx] = -1
        self.blocked[idx] = DEAD_STAMP
        self.dead += int(idx.shape[0])

    def compact(self, keep: np.ndarray) -> None:
        """Drop the masked-out entries, preserving order."""
        n = self.n
        idx = np.flatnonzero(keep)
        count = idx.shape[0]
        if count == n:
            return
        self.lane[:count] = self.lane[idx]
        self.slot[:count] = self.slot[idx]
        self.seq[:count] = self.seq[idx]
        self.blocked[:count] = self.blocked[idx]
        self.cand[:, :count] = np.compress(keep, self.cand[:, :n], axis=1)
        self.n = count

    def prune(self) -> None:
        """Compact the tombstones away (amortized, threshold-driven)."""
        self.compact(self.lane[:self.n] >= 0)
        self.dead = 0

    def drop_lane(self, lane: int) -> None:
        """Remove one lane's requests (lane salvage / stop).

        Tombstones ride along — they belong to no lane.
        """
        live = self.lane[:self.n]
        self.compact((live != lane) & (live >= 0))
        self.dead = 0

    def lane_entries(self, lane: int) -> Tuple[np.ndarray, np.ndarray]:
        """One lane's (slot, seq) pairs in seq order (cold path)."""
        n = self.n
        mask = self.lane[:n] == lane
        slots = self.slot[:n][mask]
        seqs = self.seq[:n][mask]
        order = np.argsort(seqs, kind="stable")
        return slots[order], seqs[order]


class DeliverQueue:
    """Absolute VC indices delivering at their destination, in order."""

    __slots__ = ("abs", "n")

    def __init__(self, capacity: int = INITIAL_ENTRIES) -> None:
        self.abs = np.zeros(capacity, dtype=np.intp)
        self.n = 0

    def extend(self, entries: np.ndarray) -> None:
        count = entries.shape[0]
        need = self.n + count
        cap = self.abs.shape[0]
        if need > cap:
            while cap < need:
                cap *= 2
            col = np.zeros(cap, dtype=np.intp)
            col[:self.n] = self.abs[:self.n]
            self.abs = col
        self.abs[self.n:need] = entries
        self.n = need

    def keep(self, mask: np.ndarray) -> None:
        """Compact to the masked-in entries, preserving order."""
        kept = self.abs[:self.n][mask]
        self.abs[:kept.shape[0]] = kept
        self.n = kept.shape[0]

    def take_lane(self, lane: int, stride: int) -> np.ndarray:
        """Remove and return one lane's entries (lane salvage / stop)."""
        n = self.n
        entries = self.abs[:n]
        mask = entries // stride == lane
        taken = entries[mask].copy()
        self.keep(~mask)
        return taken


class StreamStack:
    """One random stream per lane, prefetched into ``[B, K]`` rows.

    ``draw(lane, count)`` returns the next *count* values of that
    lane's stream; lane ``b``'s unread values are
    ``buf[b, pos[b]:end[b]]``.  A take of ``count`` values refills the
    row first when ``pos + count > end``: it draws
    ``max(STREAM_CHUNK, count)`` fresh values and keeps the unread tail
    in front of them.  numpy Generators consume their stream uniformly
    across call sizes, so the values served are exactly those of
    unbuffered ``draw`` calls, and since the rule looks at nothing but
    the lane's own cursor, so is the generator state after every
    refill.  ``drawn`` counts the values pulled from each generator
    since the lane's last :meth:`reset`, so ``consumed`` is the
    stream's logical position whatever has been prefetched.
    """

    __slots__ = ("buf", "flat", "pos", "end", "drawn", "_draw")

    def __init__(
        self,
        batch: int,
        dtype: type,
        draw: Callable[[int, int], np.ndarray],
        width: int = STREAM_CHUNK,
    ) -> None:
        self.buf = np.empty((batch, width), dtype=dtype)
        self.flat = self.buf.reshape(-1)
        self.pos = np.zeros(batch, dtype=np.intp)
        self.end = np.zeros(batch, dtype=np.intp)
        self.drawn = np.zeros(batch, dtype=np.int64)
        self._draw = draw

    def reset(self, lane: int) -> None:
        """Forget lane *lane*'s prefetched values (its stream renewed)."""
        self.pos[lane] = self.end[lane] = self.drawn[lane] = 0

    def consumed(self, lane: int) -> int:
        """Values lane *lane* has been served since its last reset."""
        return int(self.drawn[lane] - self.end[lane] + self.pos[lane])

    def _refill(self, lane: int, count: int) -> None:
        pos = int(self.pos[lane])
        tail = int(self.end[lane]) - pos
        fresh = self._draw(lane, max(STREAM_CHUNK, count))
        end = tail + fresh.shape[0]
        if end > self.buf.shape[1]:
            wide = np.empty((self.buf.shape[0], end), dtype=self.buf.dtype)
            wide[:, :self.buf.shape[1]] = self.buf
            self.buf = wide
            self.flat = wide.reshape(-1)
        row = self.buf[lane]
        # Overlapping when the tail is long: numpy copies as if through
        # a temporary.
        row[:tail] = row[pos:pos + tail]
        row[tail:end] = fresh
        self.pos[lane] = 0
        self.end[lane] = end
        self.drawn[lane] += fresh.shape[0]

    def take_lane(self, lane: int, count: int) -> np.ndarray:
        """Lane *lane*'s next *count* values (a view: read it before
        the lane's next take)."""
        pos = int(self.pos[lane])
        if pos + count > self.end[lane]:
            self._refill(lane, count)
            pos = 0
        self.pos[lane] = pos + count
        return self.buf[lane, pos:pos + count]

    def take(self, seg: Segments) -> np.ndarray:
        """One value per entry of the lane-sorted ids *seg* holds (see
        :func:`segments`): entry ``j`` gets its lane's next unread
        value after those of the lane's earlier entries — what
        ``take_lane`` per run would serve, in one gather."""
        lane_ids, seg_lanes, _starts, counts, within = seg
        if seg_lanes.shape[0] == 1:
            return self.take_lane(int(seg_lanes[0]), lane_ids.shape[0])
        pos = self.pos
        short = pos[seg_lanes] + counts > self.end[seg_lanes]
        if short.any():
            for i in np.nonzero(short)[0].tolist():
                self._refill(int(seg_lanes[i]), int(counts[i]))
        at = pos[lane_ids] + within
        at += lane_ids * self.buf.shape[1]
        pos[seg_lanes] += counts
        return self.flat[at]


_LOW32 = 0xFFFFFFFF


def tiebreaks(
    words: StreamStack, lane_ids: np.ndarray, high: np.ndarray
) -> np.ndarray:
    """Tie-break draws: ``t[j]`` uniform in ``[0, high[j])`` from the
    32-bit word stream of lane ``lane_ids[j]`` (*lane_ids* lane-sorted).

    Lemire's multiply-shift with rejection, one word per draw: ``t`` is
    the high half of ``word * high``, redrawn while the low half falls
    under ``(2**32 - high) % high`` — element for element what
    ``Generator.integers(high)`` computes on the same stream, so a
    lane's draws and stream position are those of one ``integers`` call
    per lane and routing round (``tests/test_lane_streams.py`` holds
    numpy to that).  Entries with ``high <= 1`` draw nothing
    (``Engine._select`` consumes rng only on a real choice, and the
    lane streams keep that discipline so draw counts stay lane-local).
    """
    t = np.zeros(high.shape[0], dtype=np.int64)
    need = np.nonzero(high > 1)[0]
    if not need.shape[0]:
        return t
    bound = high[need]
    seg = segments(lane_ids[need])
    product = words.take(seg).astype(np.int64)
    product *= bound
    # The rejection threshold is below the bound, so this test is a
    # cheap superset of it (about bound / 2**32 of the draws).
    if ((product & _LOW32) < bound).any():
        _redraw_rejected(words, seg, bound, product)
    t[need] = product >> 32
    return t


def _redraw_rejected(
    words: StreamStack, seg: Segments, bound: np.ndarray, product: np.ndarray
) -> None:
    """Redo in place, one word at a time, the run of every lane that
    drew a rejected word: the redraw shifts the lane's later draws by
    one word, as in numpy."""
    rejected = (product & _LOW32) < (2**32 - bound) % bound
    runs = np.nonzero(np.add.reduceat(rejected, seg.starts))[0]
    for i in runs.tolist():
        lane = int(seg.lanes[i])
        start = int(seg.starts[i])
        count = int(seg.counts[i])
        words.pos[lane] -= count  # hand the run's words back
        for j in range(start, start + count):
            limit = int(bound[j])
            threshold = (2**32 - limit) % limit
            while True:
                m = int(words.take_lane(lane, 1)[0]) * limit
                if (m & _LOW32) >= threshold:
                    break
            product[j] = m


__all__ = [
    "DeliverQueue",
    "INITIAL_ENTRIES",
    "INITIAL_SLOTS",
    "MessageSlab",
    "MessageView",
    "RequestPool",
    "STREAM_CHUNK",
    "Segments",
    "StreamStack",
    "lane_order",
    "segments",
    "tiebreaks",
]
