"""Runtime wait-for-graph sanitizer for the simulation engine.

With ``SimulationConfig.sanitize=True`` a watchdog trip builds the
hold->request graph of everything that is stuck and searches it for a
cycle.  The graph costs nothing before that: the engine hands over its
waiting messages once, at the trip, and each one's *held* resources are
the virtual channels its worm occupies (its live ``path``) and its
*requested* resources are its cached candidate set, all busy.  That is
sound because the watchdog only trips after ``deadlock_threshold`` cycles
in which nothing was granted, so every waiting message failed its last
allocation attempt and nothing it holds has moved since.
:meth:`WaitForGraph.build_report` names the `(link, vc_class)` resources
and blocked messages involved, upgrading the bare "no progress for N
cycles" :class:`~repro.util.errors.DeadlockError` into an actionable
diagnostic.

Adaptive caveat (same as the static analysis): a message waits on its
*whole* candidate set, so a cycle here is strong evidence, not proof, of
deadlock — but when the watchdog has already established that nothing
moves, the cycle is exactly the diagnostic a developer needs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.dependency_graph import Resource
    from repro.network.message import Message


class BlockedMessage:
    """Snapshot of one message that failed to allocate a channel."""

    __slots__ = ("msg_id", "src", "dst", "head_node", "held", "requested")

    def __init__(
        self,
        msg_id: int,
        src: int,
        dst: int,
        head_node: int,
        held: List[Resource],
        requested: List[Resource],
    ) -> None:
        self.msg_id = msg_id
        self.src = src
        self.dst = dst
        self.head_node = head_node
        self.held = held
        self.requested = requested

    def describe(self) -> str:
        held = (
            ", ".join(_resource_name(r) for r in self.held) or "nothing"
        )
        requested = (
            ", ".join(_resource_name(r) for r in self.requested)
            or "nothing (empty candidate set)"
        )
        return (
            f"msg#{self.msg_id} {self.src}->{self.dst} head at "
            f"{self.head_node}: holds {held}; waits on {requested}"
        )


def _resource_name(resource: Resource) -> str:
    link, vc_class = resource
    return f"(link {link}, vc {vc_class})"


class DeadlockReport:
    """What the sanitizer found when the watchdog tripped."""

    def __init__(
        self,
        cycle: Optional[List[Resource]],
        blocked: List[BlockedMessage],
        holders: Dict[Resource, int],
    ) -> None:
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


class WaitForGraph:
    """Hold->request graph of blocked messages."""

    def __init__(self) -> None:
        self._blocked: Dict[int, BlockedMessage] = {}

    def __len__(self) -> int:
        return len(self._blocked)

    def record_blocked(
        self,
        message: "Message",
        requested: List[Resource],
    ) -> None:
        """Record a message that is blocked waiting on *requested*.

        The held set is the message's current channel chain; recording a
        message again replaces its edges.
        """
        held = [(vc.link.index, vc.vc_class) for vc in message.path]
        self._blocked[message.msg_id] = BlockedMessage(
            msg_id=message.msg_id,
            src=message.src,
            dst=message.dst,
            head_node=message.head_node,
            held=held,
            requested=requested,
        )

    def edges(self) -> Dict[Resource, Set[Resource]]:
        """The current hold->request edge set."""
        edges: Dict[Resource, Set[Resource]] = {}
        for entry in self._blocked.values():
            for held in entry.held:
                edges.setdefault(held, set()).update(entry.requested)
        return edges

    def build_report(self) -> DeadlockReport:
        """Search the current graph for a cycle and snapshot the blockage."""
        # Imported here, at a deadlock: the engine does not load the
        # analysis package (and its check batteries) to run.
        from repro.analysis.dependency_graph import find_cycle

        holders: Dict[Resource, int] = {}
        for entry in self._blocked.values():
            for held in entry.held:
                holders[held] = entry.msg_id
        cycle = find_cycle(self.edges())
        blocked = sorted(
            self._blocked.values(), key=lambda entry: entry.msg_id
        )
        return DeadlockReport(cycle=cycle, blocked=blocked, holders=holders)


__all__ = ["BlockedMessage", "DeadlockReport", "WaitForGraph"]
