"""Span recorder for the traced run: layer boundaries, seen from outside.

The program is not edited.  :func:`install` wraps the public callables
at each layer boundary (listed in :func:`span_targets`) by patching the
class attribute or the *consuming* module's binding, and every patch is
undone on exit.  A span is ``(name, parent, start, end, work, error)``;
spans stay in memory and are written as NDJSON once the run is over.

A span's *self time* is its duration minus the durations of its direct
children, so the self times of one pass add up to the duration of the
pass's root span exactly; what the root keeps for itself is time no
recorded layer accounts for (:func:`coverage`).
"""

from __future__ import annotations

import functools
import json
from time import perf_counter
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

_MISSING = object()


class Span(NamedTuple):
    """One closed span; ``parent`` is an index into the span list (-1: none)."""

    name: str
    parent: int
    start: float
    end: float
    #: Units of work the call did (cycles for ``run_cycles``, records
    #: loaded for a store open); 0 where the ledger counts none.
    work: int
    #: The call raised.
    error: bool

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanStats(NamedTuple):
    """Per-name aggregate of a span list."""

    calls: int
    total_s: float
    self_s: float
    work: int
    errors: int


class Recorder:
    """Collects spans (in opening order) and plain call counts."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.counts: Dict[str, int] = {}
        self._stack: List[int] = []

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        work_of: Optional[Callable[..., int]] = None,
    ) -> Callable[..., Any]:
        """*fn* recorded as a span called *name* on every call.

        *work_of* is called with the call's own arguments once it has
        returned, outside the span.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            work = 0
            error = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                error = False
                return result
            finally:
                end = perf_counter()
                stack.pop()
                if work_of is not None and not error:
                    work = work_of(*args, **kwargs)
                spans[index] = Span(name, parent, start, end, work, error)

        return traced

    def count_calls(
        self, name: str, fn: Callable[..., Any]
    ) -> Callable[..., Any]:
        """*fn* with its calls counted under *name* (no span: hot paths)."""
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def closed_spans(self) -> List[Span]:
        if self._stack or any(span is None for span in self.spans):
            raise RuntimeError("span list read while a span is still open")
        return [span for span in self.spans if span is not None]


class Patches:
    """Attribute replacements that can all be put back."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        # vars() sees only what the owner itself defines: an inherited
        # method is restored by deleting the override, not by pinning a
        # copy of the base class's function onto the subclass.
        self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.restore()


#: (span name, [(owner, attribute), ...], work extractor).  Every owner
#: of one entry gets the *same* wrapper, so a function reached through
#: two bindings still opens one span per call.
Target = Tuple[str, Sequence[Tuple[Any, str]], Optional[Callable[..., int]]]


def _cycles_arg(_engine: Any, cycles: int) -> int:
    return cycles


def _records_held(store: Any, *_args: Any, **_kwargs: Any) -> int:
    return len(store)


def span_targets() -> List[Target]:
    """The layer boundaries of ``src/repro`` the traced run records."""
    from repro.campaigns import executors, export, orchestrator
    from repro.campaigns.spec import CampaignSpec
    from repro.campaigns.store import ResultStore
    from repro.experiments import parallel, runner, sweep
    from repro.simulator import config as sim_config
    from repro.simulator.batch import BatchEngine
    from repro.simulator.engine import Engine
    from repro.stats.convergence import ConvergenceChecker
    from repro.topology.base import Topology
    from repro.traffic.base import TrafficPattern

    return [
        # Torus and Mesh share the base-class constructor.
        ("topology.init", [(Topology, "__init__")], None),
        ("routing.make_algorithm", [(sim_config, "make_algorithm")], None),
        ("traffic.make_traffic", [(sim_config, "make_traffic")], None),
        ("traffic.hop_class_weights",
         [(TrafficPattern, "hop_class_weights")], None),
        ("traffic.mean_distance", [(TrafficPattern, "mean_distance")], None),
        ("traffic.destination_table",
         [(TrafficPattern, "destination_table")], None),
        ("simulator.engine.init", [(Engine, "__init__")], None),
        ("simulator.engine.run_cycles",
         [(Engine, "run_cycles")], _cycles_arg),
        ("simulator.engine.start_sample", [(Engine, "start_sample")], None),
        ("simulator.engine.end_sample", [(Engine, "end_sample")], None),
        ("simulator.batch.init", [(BatchEngine, "__init__")], None),
        ("simulator.batch.run_cycles",
         [(BatchEngine, "run_cycles")], _cycles_arg),
        ("simulator.batch.end_sample", [(BatchEngine, "end_sample")], None),
        ("experiments.runner.run_point",
         [(runner, "run_point"), (parallel, "run_point")], None),
        ("experiments.runner.run_batch",
         [(runner, "run_batch"), (parallel, "run_batch")], None),
        ("experiments.parallel.run_points",
         [(parallel, "run_points"), (sweep, "run_points"),
          (executors, "run_points")], None),
        ("stats.summarize_components",
         [(runner, "summarize_components")], None),
        ("stats.converged", [(ConvergenceChecker, "converged")], None),
        ("campaigns.spec.expand", [(CampaignSpec, "expand")], None),
        ("campaigns.store.init",
         [(ResultStore, "__init__")], _records_held),
        ("campaigns.store.get", [(ResultStore, "get")], None),
        ("campaigns.store.put", [(ResultStore, "put")], None),
        ("campaigns.orchestrator.run_campaign",
         [(orchestrator, "run_campaign")], None),
        ("campaigns.export.collect", [(export, "collect")], None),
        ("campaigns.export.write_campaign_csv",
         [(export, "write_campaign_csv")], None),
        ("campaigns.export.format_campaign_tables",
         [(export, "format_campaign_tables")], None),
    ]


def count_targets() -> List[Tuple[str, Any, str]]:
    """Per-cycle callables: counted, never timed (a span each would
    cost more than the cycle it measures)."""
    from repro.simulator.batch import BatchEngine
    from repro.simulator.engine import Engine

    return [
        ("simulator.engine.step", Engine, "step"),
        ("simulator.batch.step", BatchEngine, "step"),
    ]


def install(recorder: Recorder) -> Patches:
    """Patch every target to report into *recorder*; a context manager
    whose exit restores the program exactly."""
    patches = Patches()
    try:
        for name, owners, work_of in span_targets():
            first_owner, first_attr = owners[0]
            wrapper = recorder.wrap(
                name, getattr(first_owner, first_attr), work_of
            )
            for owner, attr in owners:
                patches.set(owner, attr, wrapper)
        for name, owner, attr in count_targets():
            patches.set(
                owner, attr, recorder.count_calls(name, getattr(owner, attr))
            )
    except BaseException:
        patches.restore()
        raise
    return patches


# ----------------------------------------------------------------------
# arithmetic over a closed span list
# ----------------------------------------------------------------------


def self_times(spans: Sequence[Span]) -> List[float]:
    """Self time of every span: duration minus direct children."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    return [span.duration - covered[i] for i, span in enumerate(spans)]


def aggregate(spans: Sequence[Span]) -> Dict[str, SpanStats]:
    """Calls, total, self time, work and errors per span name."""
    selfs = self_times(spans)
    table: Dict[str, List[float]] = {}
    for span, self_s in zip(spans, selfs):
        row = table.setdefault(span.name, [0, 0.0, 0.0, 0, 0])
        row[0] += 1
        row[1] += span.duration
        row[2] += self_s
        row[3] += span.work
        row[4] += span.error
    return {
        name: SpanStats(int(r[0]), r[1], r[2], int(r[3]), int(r[4]))
        for name, r in table.items()
    }


def layer_of(span_name: str) -> str:
    """``simulator.engine.run_cycles`` -> ``simulator.engine``."""
    return span_name.rpartition(".")[0]


def layer_self_seconds(
    stats: Dict[str, SpanStats], prefix: str
) -> float:
    """Self time of every span whose layer is *prefix* or below it."""
    return sum(
        entry.self_s
        for name, entry in stats.items()
        if (layer_of(name) + ".").startswith(prefix + ".")
    )


def coverage(spans: Sequence[Span]) -> float:
    """Share of the root spans' time that recorded layers account for."""
    selfs = self_times(spans)
    root_total = sum(s.duration for s in spans if s.parent < 0)
    root_self = sum(
        self_s for s, self_s in zip(spans, selfs) if s.parent < 0
    )
    return 1.0 - root_self / root_total if root_total > 0 else 0.0


def durations_of(spans: Iterable[Span], name: str) -> List[float]:
    return [span.duration for span in spans if span.name == name]


def write_ndjson(
    spans: Sequence[Span], path: str, workload: str, unit_names: Sequence[str]
) -> None:
    """One JSON object per span.  ``unit`` is the index of the nearest
    enclosing span named in *unit_names* (one simulated point, one
    campaign phase), so the spans of one request share an identifier."""
    units: List[int] = []
    with open(path, "w", encoding="utf-8") as stream:
        for index, span in enumerate(spans):
            if span.name in unit_names or span.parent < 0:
                unit = index
            else:
                unit = units[span.parent]
            units.append(unit)
            stream.write(
                json.dumps(
                    {
                        "id": index,
                        "parent": span.parent,
                        "name": span.name,
                        "start": span.start,
                        "end": span.end,
                        "work": span.work,
                        "error": span.error,
                        "workload": workload,
                        "unit": unit,
                    }
                )
                + "\n"
            )


__all__ = [
    "Patches",
    "Recorder",
    "Span",
    "SpanStats",
    "aggregate",
    "count_targets",
    "coverage",
    "durations_of",
    "install",
    "layer_of",
    "layer_self_seconds",
    "self_times",
    "span_targets",
    "write_ndjson",
]
