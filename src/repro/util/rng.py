"""Independent random-number streams for simulation reproducibility.

The paper (Section 3, "Convergence criteria") maintains *separate* sequences
of random numbers for the message interarrival process, destination
selection, and other stochastic choices, and replaces the streams with fresh
ones at the start of every sampling period.  :class:`RngStreams` reproduces
that discipline on top of :class:`random.Random`.

Streams are derived deterministically from a single root seed, so an entire
experiment is reproducible from one integer.
"""

from __future__ import annotations

import random
from typing import Any, Dict

import numpy as np

from repro.util.validation import require_type

#: Canonical stream names used by the simulator.  Arbitrary extra names are
#: allowed; these constants only exist so call sites do not scatter string
#: literals.
STREAM_ARRIVALS = "arrivals"
STREAM_DESTINATIONS = "destinations"
STREAM_ROUTING = "routing"
STREAM_ARBITRATION = "arbitration"


class RngStreams:
    """A family of named, independent random streams.

    Each named stream is a :class:`random.Random` seeded from
    ``hash((root_seed, name, epoch))`` where *epoch* counts how many times
    the streams have been renewed.  Renewal (``advance_epoch``) models the
    paper's "new streams of random numbers are used" step between sampling
    periods.
    """

    def __init__(self, root_seed: int = 0) -> None:
        require_type(root_seed, int, "root_seed")
        self._root_seed = root_seed
        self._epoch = 0
        self._streams: Dict[str, random.Random] = {}
        self._numpy_streams: Dict[str, np.random.Generator] = {}

    @property
    def root_seed(self) -> int:
        """The root seed all streams derive from."""
        return self._root_seed

    @property
    def epoch(self) -> int:
        """How many times the streams have been renewed."""
        return self._epoch

    def stream(self, name: str) -> random.Random:
        """Return the stream called *name*, creating it on first use."""
        require_type(name, str, "name")
        existing = self._streams.get(name)
        if existing is None:
            existing = random.Random(self._derive_seed(name))
            self._streams[name] = existing
        return existing

    def numpy_stream(self, name: str) -> np.random.Generator:
        """The numpy counterpart of :meth:`stream`, for batched draws.

        Seeded from the exact same ``_mix(root_seed, name, epoch)``
        schedule as the scalar streams (over PCG64), so an experiment's
        numpy draws are reproducible from the same root seed and renew
        on the same epoch boundaries.  The numpy stream named *name* and
        the :class:`random.Random` stream of the same name are seeded
        alike but produce unrelated sequences — callers use one or the
        other per run (the object engine the scalar ones, the batch
        backend the numpy ones), never both.
        """
        require_type(name, str, "name")
        existing = self._numpy_streams.get(name)
        if existing is None:
            existing = self._fresh_numpy_stream(name)
            self._numpy_streams[name] = existing
        return existing

    def _fresh_numpy_stream(self, name: str) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self._derive_seed(name)))

    def numpy_state_after(self, name: str, words: int) -> Dict[str, Any]:
        """Bit-generator state of this epoch's :meth:`numpy_stream`
        *name* once *words* 32-bit draws have been taken from it.

        A consumer that prefetches leaves the physical generator ahead
        of what it has handed out; this replays the stream from the
        epoch's seed to the logical position instead (the half-used
        64-bit word — ``has_uint32`` / ``uinteger`` — comes out as the
        live generator would hold it).  Cold path: costs *words* draws.
        """
        require_type(name, str, "name")
        replay = self._fresh_numpy_stream(name)
        replay.integers(0, 2**32, size=words, dtype=np.uint32)
        state: Dict[str, Any] = replay.bit_generator.state
        return state

    def advance_epoch(self) -> None:
        """Replace every existing stream with a freshly seeded one.

        Called between sampling periods so that successive samples use
        statistically independent random sequences, as the paper describes.
        """
        self._epoch += 1
        for name in list(self._streams):
            self._streams[name] = random.Random(self._derive_seed(name))
        for name in list(self._numpy_streams):
            self._numpy_streams[name] = self._fresh_numpy_stream(name)

    def spawn(self, label: str) -> "RngStreams":
        """Derive an independent child family (e.g. one per node)."""
        child_seed = self._mix(self._root_seed, label, self._epoch)
        return RngStreams(child_seed)

    def _derive_seed(self, name: str) -> int:
        return self._mix(self._root_seed, name, self._epoch)

    @staticmethod
    def _mix(seed: int, name: str, epoch: int) -> int:
        # A small, stable integer hash.  ``hash`` is salted per process for
        # strings, which would destroy reproducibility, so mix explicitly.
        acc = (seed * 0x9E3779B1 + epoch * 0x85EBCA77) & 0xFFFFFFFFFFFF
        for ch in name:
            acc = (acc * 31 + ord(ch)) & 0xFFFFFFFFFFFF
        return acc


__all__ = [
    "RngStreams",
    "STREAM_ARBITRATION",
    "STREAM_ARRIVALS",
    "STREAM_DESTINATIONS",
    "STREAM_ROUTING",
]
