"""The result of one simulation point."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields
from typing import Any, ClassVar, Dict, FrozenSet, List, Optional, Tuple


def unshared(value: Any) -> Any:
    """*value* with fresh dicts and lists all the way down."""
    if isinstance(value, dict):
        return {key: unshared(item) for key, item in value.items()}
    return [unshared(v) for v in value] if isinstance(value, list) else value


@functools.lru_cache(maxsize=None)
def _field_names(cls: type) -> Tuple[str, ...]:
    """Field names of a result class, collected once per class."""
    return tuple(f.name for f in fields(cls))


@dataclass
class SimulationResult:
    """Converged (or best-effort) measurements for one simulation point.

    Attributes mirror the paper's reported quantities: the x-axis
    ``offered_load`` (offered channel utilization), and the y-axes
    ``average_latency`` (cycles) and ``achieved_utilization`` (normalized
    throughput).
    """

    algorithm: str
    traffic: str
    offered_load: float
    injection_rate: float

    average_latency: float
    latency_error_bound: float
    #: Mean queueing/blocking time: latency minus the pipelined term
    #: (m_l + d - 1), i.e. the *w* of the paper's eq. (2), averaged over
    #: delivered messages.
    average_wait: float
    achieved_utilization: float
    delivered_throughput: float

    samples_used: int
    converged: bool
    cycles_simulated: int
    messages_generated: int
    messages_delivered: int
    messages_refused: int

    #: Latency distribution percentiles (50/95/99) over delivered
    #: messages — beyond the paper's averages, useful for tail analysis.
    latency_percentiles: Dict[int, float] = field(default_factory=dict)
    #: Mean latency per hop-class (stratum), for deeper analysis.
    hop_class_latency: Dict[int, float] = field(default_factory=dict)
    #: Flits carried per virtual-channel class, summed over all physical
    #: channels during sampling periods only — the paper's VC load-balance
    #: discussion, on the same denominator as ``achieved_utilization``.
    vc_class_usage: List[int] = field(default_factory=list)
    #: The load the sources actually offered.  Equals ``offered_load``
    #: except when the requested load exceeds the generation capacity
    #: (one message per node per cycle) and the injection rate was
    #: clamped; ``None`` on results predating this field.
    offered_load_actual: Optional[float] = None
    #: Aggregated observability metrics (``repro.obs``), present when the
    #: point ran with ``SimulationConfig.obs=True``; carried into sweep
    #: checkpoint files.
    obs_metrics: Optional[Dict[str, Any]] = None
    #: Wall-clock seconds this point took to simulate (warmup + samples +
    #: gaps), set by the sweep runner.  Excluded from equality on purpose:
    #: serial and parallel sweeps promise bit-identical *simulated*
    #: results, while wall time is machine noise.
    wall_seconds: Optional[float] = field(default=None, compare=False)
    #: Extra context (profile name, switching mode, ...).
    notes: Optional[str] = None

    #: Fields intentionally absent from the flat :meth:`to_dict` CSV row
    #: (the SER001 exclusion list — every other field must appear there):
    #: ``obs_metrics`` is a nested, schema-versioned aggregate that only
    #: travels via :meth:`to_json_dict` checkpoints, and ``wall_seconds``
    #: is machine noise deliberately kept out of comparable tables (it is
    #: already excluded from equality above).
    SERIALIZE_EXCLUDE: ClassVar[FrozenSet[str]] = frozenset(
        {"obs_metrics", "wall_seconds"}
    )

    @property
    def refusal_rate(self) -> float:
        """Fraction of generated messages refused by congestion control."""
        offered = self.messages_generated + self.messages_refused
        if offered == 0:
            return 0.0
        return self.messages_refused / offered

    def to_dict(self) -> Dict[str, object]:
        """Flat dict for CSV writers and tables.

        Every reported quantity appears: compound fields are flattened —
        ``latency_percentiles`` into ``latency_p50/p95/p99`` columns
        (0.0 when no message was delivered), and ``vc_class_usage`` /
        ``hop_class_latency`` into single ``;``-joined columns so the
        schema stays fixed across algorithms with different
        virtual-channel counts and topologies with different diameters.
        Omissions are the audited exception: :data:`SERIALIZE_EXCLUDE`
        names them, and the SER001 lint rule holds this method to it.
        """
        return {
            "algorithm": self.algorithm,
            "traffic": self.traffic,
            "offered_load": self.offered_load,
            "offered_load_actual": (
                self.offered_load
                if self.offered_load_actual is None
                else self.offered_load_actual
            ),
            "injection_rate": self.injection_rate,
            "average_latency": self.average_latency,
            "latency_error_bound": self.latency_error_bound,
            "average_wait": self.average_wait,
            "latency_p50": float(self.latency_percentiles.get(50, 0.0)),
            "latency_p95": float(self.latency_percentiles.get(95, 0.0)),
            "latency_p99": float(self.latency_percentiles.get(99, 0.0)),
            "achieved_utilization": self.achieved_utilization,
            "delivered_throughput": self.delivered_throughput,
            "samples_used": self.samples_used,
            "converged": self.converged,
            "cycles_simulated": self.cycles_simulated,
            "messages_generated": self.messages_generated,
            "messages_delivered": self.messages_delivered,
            "messages_refused": self.messages_refused,
            "refusal_rate": self.refusal_rate,
            "vc_class_usage": ";".join(
                str(count) for count in self.vc_class_usage
            ),
            "hop_class_latency": ";".join(
                f"{hops}:{latency:.4f}"
                for hops, latency in sorted(self.hop_class_latency.items())
            ),
            "notes": self.notes or "",
        }

    def to_json_dict(self) -> Dict[str, Any]:
        """Lossless dict for JSON persistence (sweep checkpoints).

        Unlike :meth:`to_dict` (a flat CSV row), this captures *every*
        field so a result written to a checkpoint file deserializes back
        to an equal :class:`SimulationResult`.
        """
        # What asdict() returns, without its deepcopy of every scalar.
        return {
            name: unshared(getattr(self, name))
            for name in _field_names(type(self))
        }

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "SimulationResult":
        """Rebuild a result from :meth:`to_json_dict` output.

        JSON turns the int keys of ``latency_percentiles`` and
        ``hop_class_latency`` into strings; they are converted back here
        so the round-trip is exact.
        """
        kwargs = {
            name: data[name] for name in _field_names(cls) if name in data
        }
        for int_keyed in ("latency_percentiles", "hop_class_latency"):
            mapping = kwargs.get(int_keyed)
            if mapping:
                kwargs[int_keyed] = {
                    int(key): value for key, value in mapping.items()
                }
        return cls(**kwargs)

    def __str__(self) -> str:
        status = "converged" if self.converged else "NOT converged"
        timing = ""
        if self.wall_seconds:
            rate = self.cycles_simulated / self.wall_seconds
            timing = f" [{self.wall_seconds:.2f}s, {rate:,.0f} cyc/s]"
        return (
            f"{self.algorithm}/{self.traffic} offered={self.offered_load:.2f}"
            f" -> latency={self.average_latency:.1f}"
            f" (+/-{self.latency_error_bound:.1f})"
            f" util={self.achieved_utilization:.3f}"
            f" [{self.samples_used} samples, {status}]{timing}"
        )


__all__ = ["SimulationResult", "unshared"]
