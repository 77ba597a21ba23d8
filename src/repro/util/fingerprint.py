"""Hashable fingerprints of per-message routing-state objects.

Routing algorithms attach small opaque state objects to messages
(:meth:`repro.routing.base.RoutingAlgorithm.new_state`).  The walk of
:mod:`repro.routing.relation` deduplicates visited states on this key, and
the default ``state_key`` is it: one definition for states that may be
plain values, ``__slots__`` instances or ordinary objects.
"""

from __future__ import annotations

from typing import Any, Hashable


def state_fingerprint(state: Any) -> Hashable:
    """A hashable fingerprint of a routing-state object.

    Plain hashable values (``None``, ints, strings, tuples) are their own
    fingerprint; ``__slots__`` instances hash their slot values in slot
    order; other objects hash their sorted ``__dict__`` items.  Two states
    compare equal under this fingerprint exactly when every attribute the
    algorithm stores matches.
    """
    if state is None or isinstance(state, (int, str, tuple)):
        return state
    slots = getattr(type(state), "__slots__", None)
    if slots is not None:
        return tuple(getattr(state, name) for name in slots)
    return tuple(sorted(vars(state).items()))  # pragma: no cover


__all__ = ["state_fingerprint"]
