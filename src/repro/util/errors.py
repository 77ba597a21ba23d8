"""Exception hierarchy for the repro package.

All exceptions raised deliberately by this library derive from
:class:`ReproError`, so callers can catch library errors without also
swallowing programming mistakes such as :class:`TypeError`.
"""

from typing import Any, Optional


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """An experiment or simulator configuration is invalid or inconsistent."""


class TopologyError(ReproError):
    """A topology parameter or node/link reference is invalid."""


class RoutingError(ReproError):
    """A routing algorithm was asked to do something it cannot do.

    Examples: routing a message that is already at its destination, or
    instantiating the negative-hop scheme on an odd-radix torus (the paper
    defers that construction to a separate report).
    """


class DeadlockError(ReproError):
    """The simulator watchdog detected a deadlock.

    All six algorithms in the paper are deadlock-free, so this error firing
    during a simulation indicates a bug in an algorithm implementation (or a
    deliberately broken algorithm used in tests to validate the watchdog).

    A watchdog trip, on either backend, sets :attr:`report` to the
    wait-for graph's :class:`~repro.simulator.sanitizer.DeadlockReport`
    naming the cycle of ``(link, vc_class)`` resources and the blocked
    messages.
    """

    def __init__(self, message: str, report: Optional[Any] = None) -> None:
        super().__init__(message)
        self.report = report
