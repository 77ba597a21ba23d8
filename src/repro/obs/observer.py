"""The observer: one object the engine notifies about everything.

An :class:`Observer` bundles the four observability surfaces —
per-cycle probes, the structured event trace, spatial congestion
heatmaps, and the phase profiler — behind a handful of hooks the engine
calls.  The contract with the engine:

* **Observing selects no code path.**  The engine has one ``step`` and
  one routing discipline; a hook site is an ``is None`` test around a
  call, and the phase profile is timing wrappers put over the engine's
  bound phase methods at ``bind`` and taken off at ``unbind``.
* **Observation never perturbs.**  Hooks read engine state and write
  observer state; they never touch rng streams, channels, or queues, so
  an observed run is bit-identical to an unobserved one.
* **Blocked waits arrive per episode**: once, with its length, when the
  engine serves the message again (the reference stepper: per failed
  attempt).  Episodes still open when the books are read are settled,
  so the totals — blocked message-cycles — are the same either way.

``metrics_summary`` folds everything into one JSON-ready aggregate
(embedded in the result store by ``obs=True`` campaigns), and ``export``
writes the full artifact set: NDJSON trace, probe series (NDJSON +
wide CSV), heatmap CSV/ASCII, and the metrics JSON.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from repro.obs.heatmap import CongestionHeatmap
from repro.obs.probes import ProbeRegistry
from repro.obs.profile import PhaseProfiler
from repro.obs.trace import (
    EVENT_DEADLOCK,
    EVENT_FLIT_MOVED,
    EVENT_MSG_BLOCKED,
    EVENT_MSG_CREATED,
    EVENT_MSG_DELIVERED,
    EVENT_MSG_REFUSED,
    EVENT_VC_ACQUIRED,
    TraceWriter,
)
from repro.util.errors import ConfigurationError
from repro.util.validation import require_positive

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.message import Message
    from repro.network.virtual_channel import VirtualChannel
    from repro.simulator.engine import Engine
    from repro.simulator.sanitizer import DeadlockReport

#: Schema identity of the metrics aggregate.
METRICS_SCHEMA = "repro.obs.metrics"
METRICS_SCHEMA_VERSION = 1

#: The engine phase methods the profiler times: (phase, method name).
_PHASE_METHODS = (
    ("generation", "_generate_arrivals"),
    ("ejection", "_eject"),
    ("routing", "_route"),
    ("transmission", "_transmit"),
)


@dataclasses.dataclass
class ObsConfig:
    """What an observer records and how much memory it may use."""

    #: Probe sampling period in cycles.
    stride: int = 32
    #: Retained samples per probe (the newest; older ones are dropped).
    ring_capacity: int = 2048
    #: Record the structured event trace.
    trace: bool = True
    #: Maximum retained trace events (the rest are counted as dropped).
    trace_limit: int = 50_000
    #: Also trace every flit arrival (high volume; off by default).
    trace_flits: bool = False
    #: Accumulate the spatial congestion heatmap.
    heatmap: bool = True
    #: Time the engine phases (wall-clock).
    profile: bool = True
    #: Sample the per-channel / per-VC-class vector probes.
    vectors: bool = True
    #: Directory artifacts are exported to (None: no file export).
    export_dir: Optional[str] = None

    def __post_init__(self) -> None:
        require_positive(self.stride, "stride")
        require_positive(self.ring_capacity, "ring_capacity")
        require_positive(self.trace_limit, "trace_limit")

    @classmethod
    def from_options(cls, options: Dict[str, Any]) -> "ObsConfig":
        """Build from a plain options dict, rejecting unknown keys."""
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(options) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown obs option(s) {unknown}; "
                f"choose from {sorted(known)}"
            )
        return cls(**options)


class Observer:
    """Collects probes, events, heatmaps and timings from one engine."""

    def __init__(self, config: Optional[ObsConfig] = None) -> None:
        self.config = config if config is not None else ObsConfig()
        self.probes: Optional[ProbeRegistry] = None
        self.trace: Optional[TraceWriter] = None
        self.heatmap: Optional[CongestionHeatmap] = None
        self.profiler: Optional[PhaseProfiler] = None
        #: Event counts by type, maintained even when tracing is off.
        self.event_counts: Dict[str, int] = {}
        self._engine: Optional["Engine"] = None
        self._first_cycle = 0
        #: Set by unbind(): nothing is folded in from that cycle on.
        self._last_cycle: Optional[int] = None
        #: Blocked cycles before this one are booked (or preceded bind).
        self._booked_to = 0
        self._stride = self.config.stride

    # -- lifecycle ---------------------------------------------------------

    def bind(self, engine: "Engine") -> None:
        """Wire the observer to one engine (called by attach_observer)."""
        if self._engine is not None:
            raise ConfigurationError(
                "an Observer instance observes exactly one engine"
            )
        self._engine = engine
        self._first_cycle = self._booked_to = engine.cycle
        config = self.config
        self.probes = ProbeRegistry.default(
            ring_capacity=config.ring_capacity,
            vectors=config.vectors,
        )
        if config.heatmap:
            self.heatmap = CongestionHeatmap(engine.topology)
            heatmap = self.heatmap
            self.probes.register(
                "blocked_waits_total",
                lambda e: sum(heatmap.blocked)
                + sum(  # open episodes: what a settle would book now
                    max(0, e.cycle - max(m.blocked_at, self._booked_to))
                    * len(m.cached_candidates or ())
                    for m in _open_episodes(e)
                ),
            )
        if config.trace:
            self.trace = TraceWriter(
                limit=config.trace_limit,
                meta={
                    "label": engine.config.label(),
                    "seed": engine.config.seed,
                    "stride": config.stride,
                    "first_cycle": self._first_cycle,
                },
            )
        if config.profile:
            self.profiler = PhaseProfiler()
            timed = self.profiler.timed
            for phase, name in _PHASE_METHODS:
                setattr(engine, name, timed(phase, getattr(engine, name)))
            vars(self)["on_cycle_end"] = timed("observe", self.on_cycle_end)

    def unbind(self, engine: "Engine") -> None:
        """Detached (by detach_observer): settle what is open, close
        the books, take the phase timers off the engine."""
        self._finalize()
        self._last_cycle = engine.cycle
        if self.profiler is not None:
            for _, name in _PHASE_METHODS:
                delattr(engine, name)

    @property
    def trace_flit_moves(self) -> bool:
        """Whether the engine should report individual flit arrivals."""
        return self.config.trace and self.config.trace_flits

    def _count(self, event: str, times: int = 1) -> None:
        self.event_counts[event] = self.event_counts.get(event, 0) + times

    # -- engine hooks ------------------------------------------------------

    def on_message_created(
        self, engine: "Engine", message: "Message"
    ) -> None:
        self._count(EVENT_MSG_CREATED)
        if self.trace is not None:
            self.trace.emit(
                engine.cycle,
                EVENT_MSG_CREATED,
                msg=message.msg_id,
                src=message.src,
                dst=message.dst,
                distance=message.distance,
            )

    def on_message_refused(
        self, engine: "Engine", src: int, dst: int
    ) -> None:
        self._count(EVENT_MSG_REFUSED)
        if self.trace is not None:
            self.trace.emit(
                engine.cycle, EVENT_MSG_REFUSED, src=src, dst=dst
            )

    def on_message_blocked(
        self,
        engine: "Engine",
        message: "Message",
        candidates: Sequence[int],
        cycles: int,
    ) -> None:
        """*message* failed allocation on the *cycles* consecutive
        cycles from ``message.blocked_at`` on; those a settle booked
        already (or that preceded ``bind``) are not booked again.

        *candidates* are flat VC indices: ``divmod(flat, V)`` gives
        ``(link.index, vc_class)``."""
        cycles = min(cycles, message.blocked_at + cycles - self._booked_to)
        if cycles <= 0:
            return
        self._count(EVENT_MSG_BLOCKED, cycles)
        num_vcs = engine.fabric.num_vcs
        heatmap = self.heatmap
        if heatmap is not None:
            for flat in candidates:
                heatmap.blocked[flat // num_vcs] += cycles
        if self.trace is not None:
            self.trace.emit(
                engine.cycle,
                EVENT_MSG_BLOCKED,
                msg=message.msg_id,
                node=message.head_node,
                cycles=cycles,
                candidates=[
                    list(divmod(flat, num_vcs)) for flat in candidates
                ],
            )

    def on_vc_acquired(
        self,
        engine: "Engine",
        message: "Message",
        vc: "VirtualChannel",
    ) -> None:
        self._count(EVENT_VC_ACQUIRED)
        if self.trace is not None:
            self.trace.emit(
                engine.cycle,
                EVENT_VC_ACQUIRED,
                msg=message.msg_id,
                link=vc.link.index,
                vc=vc.vc_class,
            )

    def on_flit_arrival(
        self, engine: "Engine", vc: "VirtualChannel"
    ) -> None:
        self._count(EVENT_FLIT_MOVED)
        if self.trace is not None:
            owner = vc.owner
            self.trace.emit(
                engine.cycle,
                EVENT_FLIT_MOVED,
                msg=owner.msg_id if owner is not None else None,
                link=vc.link.index,
                vc=vc.vc_class,
            )

    def on_message_delivered(
        self, engine: "Engine", message: "Message"
    ) -> None:
        self._count(EVENT_MSG_DELIVERED)
        if self.trace is not None:
            self.trace.emit(
                engine.cycle,
                EVENT_MSG_DELIVERED,
                msg=message.msg_id,
                src=message.src,
                dst=message.dst,
                latency=message.delivered_at - message.created_at,
                hops=message.distance,
            )

    def on_deadlock(self, engine: "Engine", report: "DeadlockReport") -> None:
        # (Through this cycle: the watchdog trips after its routing phase.)
        self._settle(engine, engine.cycle + 1)
        self._count(EVENT_DEADLOCK)
        if self.trace is not None:
            self.trace.emit(
                engine.cycle,
                EVENT_DEADLOCK,
                summary=report.summary,
                cycle_resources=(
                    [list(resource) for resource in report.cycle]
                    if report.cycle
                    else None
                ),
                blocked_messages=len(report.blocked),
            )

    def on_cycle_end(self, engine: "Engine") -> None:
        """Stride-gated sampling, called once per observed cycle."""
        if engine.cycle % self._stride:
            return
        if self.heatmap is not None:
            self.heatmap.observe_channels(engine.fabric.channels)
        if self.probes is not None:
            self.probes.sample(engine, engine.cycle)

    # -- aggregation -------------------------------------------------------

    def _settle(self, engine: "Engine", through: int) -> None:
        """Book every open blocked episode up to cycle *through*
        (exclusive), as if it ended there.  Idempotent, and reads the
        engine only: ``_booked_to`` is what keeps the engine's eventual
        report of the episode from being booked twice."""
        for message in _open_episodes(engine):
            waited = through - message.blocked_at
            self.on_message_blocked(
                engine, message, message.cached_candidates or (), waited
            )
        self._booked_to = max(self._booked_to, through)

    def _finalize(self) -> None:
        """Fold in what the engine holds and has not reported: the open
        blocked episodes, the flit counters since the last stride."""
        engine = self._engine
        if engine is None or self._last_cycle is not None:
            return
        self._settle(engine, engine.cycle)
        if self.heatmap is not None:
            self.heatmap.observe_channels(engine.fabric.channels)

    def metrics_summary(self) -> Dict[str, Any]:
        """One JSON-ready aggregate of everything observed."""
        self._finalize()
        engine, last = self._engine, self._last_cycle
        if last is None and engine is not None:
            last = engine.cycle
        summary: Dict[str, Any] = {
            "schema": METRICS_SCHEMA,
            "version": METRICS_SCHEMA_VERSION,
            "stride": self.config.stride,
            "first_cycle": self._first_cycle,
            "last_cycle": last,
            "events": dict(sorted(self.event_counts.items())),
        }
        if self.trace is not None:
            summary["trace"] = {
                "kept": len(self.trace),
                "dropped": self.trace.dropped,
            }
        if self.probes is not None:
            summary["probes"] = self.probes.scalar_summary()
        if self.heatmap is not None:
            heatmap = self.heatmap
            totals = heatmap.totals()
            summary["heatmap"] = {
                "flits_carried": totals["flits_carried"],
                "blocked_waits": totals["blocked_waits"],
                "max_carried": max(heatmap.carried),
                "max_blocked": max(heatmap.blocked),
                "hottest_blocked_link": heatmap.hottest("blocked"),
            }
        if self.profiler is not None:
            summary["profile"] = self.profiler.as_dict()
        return summary

    # -- export ------------------------------------------------------------

    def export(
        self, directory: Optional[str] = None, prefix: str = "obs"
    ) -> List[str]:
        """Write every artifact; returns the list of paths written."""
        target = directory or self.config.export_dir
        if target is None:
            raise ConfigurationError(
                "no export directory: pass one or set ObsConfig.export_dir"
            )
        self._finalize()
        os.makedirs(target, exist_ok=True)
        written: List[str] = []

        def path(suffix: str) -> str:
            full = os.path.join(target, f"{prefix}.{suffix}")
            written.append(full)
            return full

        if self.trace is not None:
            self.trace.write_path(path("trace.ndjson"))
        if self.probes is not None:
            with open(path("probes.ndjson"), "w") as stream:
                self.probes.write_ndjson(stream)
            with open(path("probes.csv"), "w", newline="") as stream:
                self.probes.write_csv(stream)
        if self.heatmap is not None:
            with open(path("heatmap.csv"), "w", newline="") as stream:
                self.heatmap.write_csv(stream)
            with open(path("heatmap.txt"), "w") as stream:
                stream.write(self.heatmap.ascii("carried"))
                stream.write("\n\n")
                stream.write(self.heatmap.ascii("blocked"))
                stream.write("\n")
        with open(path("metrics.json"), "w") as stream:
            json.dump(self.metrics_summary(), stream, indent=2)
            stream.write("\n")
        return written


def _open_episodes(engine: "Engine") -> List["Message"]:
    """Messages blocked since ``blocked_at`` whose episode the engine
    has not reported: the parked ones, and those a release woke that
    were not served since (the reference stepper has neither)."""
    return list(engine._parked.values()) + [
        m for _, m in engine._route_heap if m.cached_candidates is not None
    ]


__all__ = [
    "METRICS_SCHEMA",
    "METRICS_SCHEMA_VERSION",
    "ObsConfig",
    "Observer",
]
