"""repro.obs — structured observability for the simulation engine.

Four surfaces, one facade:

* :class:`ProbeRegistry` — named per-cycle time series (occupancies,
  queue depths, cumulative totals) sampled every ``stride`` cycles into
  bounded series, exported as NDJSON and wide CSV;
* :class:`TraceWriter` — a schema-versioned NDJSON event trace
  (message created/refused/blocked/delivered, VC acquired, optional
  per-flit moves, deadlock reports);
* :class:`CongestionHeatmap` — per-physical-channel flits-carried and
  blocked-wait counters with CSV and ASCII renderings;
* :class:`PhaseProfiler` — wall-clock time per engine phase.

Attach an :class:`Observer` via ``SimulationConfig(obs=True,
obs_options={...})`` or ``engine.attach_observer(Observer(ObsConfig()))``.
When no observer is attached the engine runs its seed code path —
observability costs nothing unless asked for.
"""

from repro.obs.heatmap import CongestionHeatmap
from repro.obs.observer import (
    METRICS_SCHEMA,
    METRICS_SCHEMA_VERSION,
    ObsConfig,
    Observer,
)
from repro.obs.probes import Probe, ProbeRegistry
from repro.obs.profile import PHASES, PhaseProfiler
from repro.obs.trace import (
    EVENT_TYPES,
    TRACE_SCHEMA,
    TRACE_SCHEMA_VERSION,
    TraceWriter,
    validate_trace_lines,
)

__all__ = [
    "EVENT_TYPES",
    "METRICS_SCHEMA",
    "METRICS_SCHEMA_VERSION",
    "PHASES",
    "CongestionHeatmap",
    "ObsConfig",
    "Observer",
    "PhaseProfiler",
    "Probe",
    "ProbeRegistry",
    "TRACE_SCHEMA",
    "TRACE_SCHEMA_VERSION",
    "TraceWriter",
    "validate_trace_lines",
]
