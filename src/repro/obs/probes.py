"""Per-cycle probes: named time series sampled from a running engine.

A :class:`Probe` is a named function of the engine returning either a
scalar (message counts, queue depths, cumulative totals) or a vector
(one value per physical channel or per virtual-channel class).  The
:class:`ProbeRegistry` holds the set sampled by an observer; sampling
happens every ``stride`` cycles into per-probe ring buffers, so the
congestion build-up the paper discusses in Section 3.4 (wormhole worms
backing up vs. VCT packets collapsing into buffers) is visible as a
trajectory instead of a single end-of-run average.

Cumulative probes (``*_total``) are sampled as raw counters; consumers
difference adjacent samples for rates, which stays exact even when the
ring buffer drops old samples.
"""

from __future__ import annotations

import csv
import json
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    TextIO,
    Tuple,
    Union,
)

from repro.obs.ring import RingBuffer
from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulator.engine import Engine

#: What a probe may return: one number, or one number per channel/class.
ProbeValue = Union[int, float, List[int], List[float]]
ProbeFn = Callable[["Engine"], ProbeValue]

#: One recorded sample: (cycle, value).
Sample = Tuple[int, ProbeValue]


class Probe:
    """A named engine measurement, scalar or vector."""

    __slots__ = ("name", "fn", "vector")

    def __init__(self, name: str, fn: ProbeFn, vector: bool = False) -> None:
        self.name = name
        self.fn = fn
        #: Vector probes return one value per channel (or per VC class);
        #: they are exported to NDJSON but not to the wide CSV.
        self.vector = vector


def _builtin_probes() -> List[Probe]:
    return [
        Probe("in_flight_messages", lambda e: e.in_flight),
        Probe("network_flits", lambda e: e.fabric.occupied_flits()),
        # The waiting set (the engine's heap plus its parked messages,
        # the reference stepper's FIFO): the same quantity under either.
        Probe(
            "route_queue_depth",
            lambda e: len(e._route_pending) + len(e._parked),
        ),
        Probe(
            "injection_backlog",
            lambda e: e.controller.total_outstanding(),
        ),
        Probe("generated_total", lambda e: e.generated_total),
        Probe("delivered_total", lambda e: e.delivered_total),
        Probe("refused_total", lambda e: e.controller.refused),
        Probe("flits_moved_total", lambda e: e.flits_moved_total),
        Probe(
            "channel_occupancy",
            lambda e: e.fabric.channel_occupancies(),
            vector=True,
        ),
        Probe(
            "vc_class_occupancy",
            lambda e: e.fabric.vc_class_occupancies(),
            vector=True,
        ),
    ]


class ProbeRegistry:
    """The set of probes one observer samples, with their ring buffers."""

    def __init__(self, ring_capacity: int = 2048) -> None:
        self.ring_capacity = ring_capacity
        self._probes: Dict[str, Probe] = {}
        self._series: Dict[str, RingBuffer] = {}

    @classmethod
    def default(
        cls, ring_capacity: int = 2048, vectors: bool = True
    ) -> "ProbeRegistry":
        """A registry preloaded with every built-in probe."""
        registry = cls(ring_capacity)
        for probe in _builtin_probes():
            if probe.vector and not vectors:
                continue
            registry.add(probe)
        return registry

    def add(self, probe: Probe) -> None:
        if probe.name in self._probes:
            raise ConfigurationError(
                f"probe {probe.name!r} is already registered"
            )
        self._probes[probe.name] = probe
        self._series[probe.name] = RingBuffer(self.ring_capacity)

    def register(
        self, name: str, fn: ProbeFn, vector: bool = False
    ) -> None:
        """Register a custom probe by name."""
        self.add(Probe(name, fn, vector))

    @property
    def names(self) -> List[str]:
        return list(self._probes)

    def scalar_names(self) -> List[str]:
        return [
            name
            for name, probe in self._probes.items()
            if not probe.vector
        ]

    def sample(self, engine: "Engine", cycle: int) -> None:
        """Record one sample of every probe at *cycle*."""
        for name, probe in self._probes.items():
            self._series[name].append((cycle, probe.fn(engine)))

    def series(self, name: str) -> List[Sample]:
        """All retained samples of one probe, oldest first."""
        return self._series[name].to_list()

    def __len__(self) -> int:
        return len(self._probes)

    # -- aggregation and export -------------------------------------------

    def scalar_summary(self) -> Dict[str, Dict[str, float]]:
        """min/max/mean/last per scalar probe over the retained samples."""
        summary: Dict[str, Dict[str, float]] = {}
        for name in self.scalar_names():
            samples = self._series[name].to_list()
            if not samples:
                continue
            values = [float(value) for _, value in samples]
            summary[name] = {
                "min": min(values),
                "max": max(values),
                "mean": sum(values) / len(values),
                "last": values[-1],
                "samples": float(len(values)),
            }
        return summary

    def iter_ndjson_records(self) -> Iterator[Dict[str, object]]:
        """One NDJSON-ready record per retained sample (all probes)."""
        for name, probe in self._probes.items():
            for cycle, value in self._series[name]:
                yield {
                    "record": "sample",
                    "probe": name,
                    "vector": probe.vector,
                    "cycle": cycle,
                    "value": value,
                }

    def write_ndjson(self, stream: TextIO) -> None:
        header = {
            "record": "header",
            "schema": "repro.obs.probes",
            "version": 1,
            "probes": self.names,
        }
        stream.write(json.dumps(header) + "\n")
        for record in self.iter_ndjson_records():
            stream.write(json.dumps(record) + "\n")

    def write_csv(self, stream: TextIO) -> None:
        """Wide CSV of the scalar probes: one row per sampled cycle.

        Scalar probes are always sampled together, so their sample lists
        align; vector probes are exported via NDJSON only.
        """
        names = self.scalar_names()
        writer = csv.writer(stream)
        writer.writerow(["cycle"] + names)
        if not names:
            return
        columns = [self._series[name].to_list() for name in names]
        for row_index in range(len(columns[0])):
            cycle = columns[0][row_index][0]
            writer.writerow(
                [cycle]
                + [column[row_index][1] for column in columns]
            )


__all__ = ["Probe", "ProbeFn", "ProbeRegistry", "ProbeValue"]
