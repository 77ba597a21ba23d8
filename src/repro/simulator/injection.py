"""Input-buffer-limit congestion control (paper Section 3).

Following Lam & Reiser's input-buffer-limit scheme, a node may inject a new
message only while fewer than ``limit`` messages *of the same class* are
still being injected from that node; otherwise the message is refused.
Refused messages are dropped and counted (the paper's sources are throttled
— this is what keeps saturation latencies bounded in its figures).

Message classes are algorithm-specific (paper, footnote 2): the virtual
channel number(s) a message can use for hop schemes and 2pn, the intended
first (link, virtual channel) for e-cube and nlast.  The class key itself
is computed by :meth:`repro.routing.base.RoutingAlgorithm.message_class`.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Tuple


class InjectionController:
    """Per-(node, class) outstanding-injection counters."""

    def __init__(self, limit: Optional[int]) -> None:
        self.limit = limit
        self._outstanding: Dict[Tuple[int, Hashable], int] = {}
        self.admitted = 0
        self.refused = 0

    def try_admit(self, node: int, msg_class: Hashable) -> bool:
        """Admit a new message at *node*, or refuse it.

        Returns True (and starts tracking the message) if the node's
        outstanding same-class injection count is under the limit.
        """
        if self.limit is None:
            self.admitted += 1
            return True
        key = (node, msg_class)
        count = self._outstanding.get(key, 0)
        if count >= self.limit:
            self.refused += 1
            return False
        self._outstanding[key] = count + 1
        self.admitted += 1
        return True

    def injection_complete(self, node: int, msg_class: Hashable) -> None:
        """A message finished leaving *node*; free its slot."""
        if self.limit is None:
            return
        key = (node, msg_class)
        count = self._outstanding.get(key, 0)
        assert count > 0, "injection_complete without matching try_admit"
        if count == 1:
            del self._outstanding[key]
        else:
            self._outstanding[key] = count - 1

    def outstanding(self, node: int, msg_class: Hashable) -> int:
        """Current outstanding injections for a (node, class)."""
        return self._outstanding.get((node, msg_class), 0)

    def total_outstanding(self) -> int:
        """Messages still being injected, summed over every (node, class).

        With ``limit=None`` occupancy is not tracked and this reports 0;
        the ``injection_backlog`` probe documents that caveat.
        """
        return sum(self._outstanding.values())


__all__ = ["InjectionController"]
