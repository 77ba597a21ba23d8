"""Host time, stated at a reference host speed.

The sandboxes this benchmark runs in share their cores: the same code
alternates, every few seconds, between a fast and a slow regime about
25% apart, and a whole 20-second run can fall in either.  Both regimes
slow a plain interpreter loop and the simulator by the same factor, so
the clock times a fixed calibration kernel before and after every unit
of work (about a second of it) and divides the unit's seconds by the
kernel's, relative to :data:`REFERENCE_SECONDS`.  What it reports is
still seconds — the seconds the unit would have taken on a quiet host —
and the run-to-run spread of a fixed workload drops from about 10% to
about 2%.  The raw seconds are kept beside them.

The kernel lives here, outside ``src/``, so no change to the program
can move it.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Iterator, List

#: Iterations of the calibration loop (about 75 ms).
CALIBRATION_LOOPS = 2_000_000

#: The kernel's time, in seconds, on a quiet core of the host the
#: workload sizes were chosen on.  Only a scale: it makes reference-speed
#: seconds read like that host's seconds.
REFERENCE_SECONDS = 0.072


def calibrate() -> float:
    """Seconds the fixed kernel takes right now."""
    start = perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i
    return perf_counter() - start


def slowness(kernel_before: float, kernel_after: float) -> float:
    """Host slowness over an interval, from the kernel readings on
    either side of it (1.0: the reference host)."""
    return (kernel_before + kernel_after) / (2.0 * REFERENCE_SECONDS)


@dataclass
class Unit:
    """One timed unit of work."""

    label: str
    #: The unit simulates (as opposed to storing, exporting, ...).
    simulating: bool
    raw_s: float
    #: Host slowness around the unit: kernel time / reference time.
    slowness: float

    @property
    def seconds(self) -> float:
        """The unit's seconds at reference host speed."""
        return self.raw_s / self.slowness


class HostClock:
    """Times the units of one pass; calibrates between them."""

    def __init__(self) -> None:
        self.units: List[Unit] = []
        #: The kernel reading the clock opened with.
        self.opening_kernel_s = self._last_kernel = calibrate()

    @contextmanager
    def unit(self, label: str, simulating: bool = True) -> Iterator[None]:
        before = self._last_kernel
        start = perf_counter()
        try:
            yield
        finally:
            raw = perf_counter() - start
            # Units run back to back: this reading is also the next
            # unit's "before".
            after = self._last_kernel = calibrate()
            self.units.append(
                Unit(label, simulating, raw, slowness(before, after))
            )

    def seconds(self, simulating_only: bool = False) -> float:
        return sum(
            u.seconds for u in self.units
            if u.simulating or not simulating_only
        )

    def raw_seconds(self) -> float:
        return sum(u.raw_s for u in self.units)

    def slowness(self) -> float:
        """Time-weighted host slowness over the pass (1.0: reference)."""
        raw = self.raw_seconds()
        return raw / self.seconds() if raw > 0 else 1.0


__all__ = [
    "CALIBRATION_LOOPS",
    "REFERENCE_SECONDS",
    "HostClock",
    "Unit",
    "calibrate",
    "slowness",
]
