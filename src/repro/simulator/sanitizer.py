"""The watchdog's diagnosis: a wait-for graph built at every trip.

When the watchdog trips, both engines hand :func:`deadlock_error` one
:class:`BlockedMessage` row per waiting message, in service order.  A
row's *held* resources are the ``(link, vc_class)`` virtual channels its
worm occupies and its *requested* resources are its candidate set, all
busy.  That is sound because the watchdog only trips after
``deadlock_threshold`` cycles in which nothing was granted, so every
waiting message failed its last allocation attempt and nothing it holds
has moved since.  The graph costs nothing before the trip: it is built
once, from the rows, and searched for a hold->request cycle.  The
resulting :class:`~repro.util.errors.DeadlockError` carries the one "no
progress for N cycles" summary both engines write and the
:class:`DeadlockReport` naming the resources and messages involved.

Adaptive caveat (same as the static analysis): a message waits on its
*whole* candidate set, so a cycle here is strong evidence, not proof, of
deadlock — but when the watchdog has already established that nothing
moves, the cycle is exactly the diagnostic a developer needs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set

from repro.util.errors import DeadlockError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.dependency_graph import Resource


class BlockedMessage:
    """One message that failed to allocate a channel, as a report row.

    ``held`` lists its worm's VCs: the object engine in path order, tail
    first; a batch lane in flat-index order.
    """

    __slots__ = (
        "msg_id", "src", "dst", "head_node", "held", "requested",
        "queued_at",
    )

    def __init__(
        self,
        msg_id: int,
        src: int,
        dst: int,
        head_node: int,
        held: List[Resource],
        requested: List[Resource],
        queued_at: Optional[int] = None,
    ) -> None:
        self.msg_id = msg_id
        self.src = src
        self.dst = dst
        self.head_node = head_node
        self.held = held
        self.requested = requested
        #: Cycle the pending request was queued, where the engine keeps
        #: it (the batch slab does); named in the summary's sample.
        self.queued_at = queued_at

    def name(self) -> str:
        return f"msg#{self.msg_id} {self.src}->{self.dst}"

    def describe(self) -> str:
        held = (
            ", ".join(_resource_name(r) for r in self.held) or "nothing"
        )
        requested = (
            ", ".join(_resource_name(r) for r in self.requested)
            or "nothing (empty candidate set)"
        )
        return (
            f"{self.name()} head at {self.head_node}: holds {held}; "
            f"waits on {requested}"
        )


def _resource_name(resource: Resource) -> str:
    link, vc_class = resource
    return f"(link {link}, vc {vc_class})"


class DeadlockReport:
    """What the wait-for graph showed when the watchdog tripped."""

    def __init__(
        self,
        summary: str,
        cycle: Optional[List[Resource]],
        blocked: List[BlockedMessage],
        holders: Dict[Resource, int],
    ) -> None:
        #: The watchdog's one-line "no progress for N cycles" summary.
        self.summary = summary
        #: Resources along one hold->request cycle, or None when the
        #: wait-for graph is acyclic (e.g. messages stuck on an empty
        #: candidate set, or starvation rather than deadlock).
        self.cycle = cycle
        #: Every message blocked at report time, in msg_id order.
        self.blocked = blocked
        #: resource -> msg_id of the blocked message holding it.
        self.holders = holders

    def cycle_messages(self) -> List[int]:
        """msg_ids of the blocked messages holding the cycle's resources."""
        if not self.cycle:
            return []
        seen: Set[int] = set()
        ordered: List[int] = []
        for resource in self.cycle:
            msg_id = self.holders.get(resource)
            if msg_id is not None and msg_id not in seen:
                seen.add(msg_id)
                ordered.append(msg_id)
        return ordered

    def format(self, max_blocked: int = 16) -> str:
        lines: List[str] = []
        if self.cycle:
            lines.append(
                f"wait-for cycle of {len(self.cycle)} resources:"
            )
            length = len(self.cycle)
            for position, resource in enumerate(self.cycle):
                holder = self.holders.get(resource)
                held_by = (
                    f" held by msg#{holder}" if holder is not None else ""
                )
                nxt = self.cycle[(position + 1) % length]
                lines.append(
                    f"  {_resource_name(resource)}{held_by} -> waits on "
                    f"{_resource_name(nxt)}"
                )
        else:
            lines.append(
                "no wait-for cycle among blocked messages (stuck on "
                "empty candidate sets or starved, not cyclically "
                "deadlocked)"
            )
        lines.append(f"{len(self.blocked)} blocked messages:")
        for entry in self.blocked[:max_blocked]:
            lines.append(f"  {entry.describe()}")
        if len(self.blocked) > max_blocked:
            lines.append(
                f"  ... and {len(self.blocked) - max_blocked} more"
            )
        return "\n".join(lines)


def wait_for_edges(
    blocked: Sequence[BlockedMessage],
) -> Dict[Resource, Set[Resource]]:
    """The hold->request edges of *blocked*: each held resource points
    at everything its holder requests."""
    edges: Dict[Resource, Set[Resource]] = {}
    for entry in blocked:
        for held in entry.held:
            edges.setdefault(held, set()).update(entry.requested)
    return edges


def build_report(
    blocked: Sequence[BlockedMessage], summary: str = ""
) -> DeadlockReport:
    """Search the wait-for graph of *blocked* for a cycle."""
    # Imported here, at a deadlock: the engine does not load the
    # analysis package (and its check batteries) to run.
    from repro.analysis.dependency_graph import find_cycle

    holders: Dict[Resource, int] = {}
    for entry in blocked:
        for held in entry.held:
            holders[held] = entry.msg_id
    return DeadlockReport(
        summary=summary,
        cycle=find_cycle(wait_for_edges(blocked)),
        blocked=sorted(blocked, key=lambda entry: entry.msg_id),
        holders=holders,
    )


def deadlock_error(
    blocked: Sequence[BlockedMessage],
    threshold: int,
    cycle: int,
    in_flight: int,
    algorithm: str,
    where: str = "",
) -> DeadlockError:
    """The watchdog trip of either engine: the summary, naming the first
    eight *blocked* rows (service order) and ending in *where*, then the
    wait-for report; the error's ``report`` is the report."""
    stuck = []
    for entry in blocked[:8]:
        queued = (
            f" (request queued at cycle {entry.queued_at})"
            if entry.queued_at is not None
            else ""
        )
        stuck.append(f"{entry.name()} head at {entry.head_node}{queued}")
    summary = (
        f"no progress for {threshold} cycles at cycle {cycle} with "
        f"{in_flight} messages in flight (algorithm={algorithm}); sample "
        f"of waiting messages: {'; '.join(stuck) or 'none in route queue'}"
        f"{where}"
    )
    report = build_report(blocked, summary)
    return DeadlockError(summary + "\n" + report.format(), report=report)


__all__ = [
    "BlockedMessage",
    "DeadlockReport",
    "build_report",
    "deadlock_error",
    "wait_for_edges",
]
