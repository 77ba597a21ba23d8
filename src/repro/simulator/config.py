"""Simulation configuration.

One :class:`SimulationConfig` fully determines a simulation point: network,
algorithm, traffic, load, switching technique, congestion control, and the
statistics schedule.  Experiments are reproducible from (config, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Dict, Optional

from repro.routing.base import RoutingAlgorithm
from repro.routing.registry import make_algorithm
from repro.topology.base import Topology
from repro.topology.mesh import Mesh
from repro.topology.torus import Torus
from repro.traffic.base import TrafficPattern
from repro.traffic.registry import make_traffic
from repro.util.errors import ConfigurationError
from repro.util.validation import (
    require,
    require_non_negative,
    require_positive,
)

#: Switching techniques understood by the engine.
SWITCHING_MODES = ("wormhole", "vct", "saf")

#: Adaptive output-selection policies.
SELECTION_POLICIES = ("least_multiplexed", "random", "first")

#: Flow-control models for buffer-space accounting.
FLOW_CONTROL_MODES = ("ideal", "conservative")

#: Physical-channel multiplexer policies.
MUX_POLICIES = ("round_robin", "highest_class")

#: Simulation backends: "object" is the per-object Python engine
#: (:class:`repro.simulator.engine.Engine`), the only bit-exact path and
#: the one every option works on; "batch" is the vectorized flat-array
#: engine (:class:`repro.simulator.batch.BatchEngine`) that advances a
#: whole batch of seeds of one configuration in lockstep (its throughput
#: against the object engine, per batch width, is measured in
#: docs/performance.md, "Batch step kernels").  The batch backend requires
#: conservative flow control and wormhole/VCT switching (see the batch
#: module docstring).
BACKENDS = ("object", "batch")

#: Fields that take one of a fixed set of values, in the order they are
#: validated.
_CHOICES = (
    ("switching", SWITCHING_MODES),
    ("selection_policy", SELECTION_POLICIES),
    ("flow_control", FLOW_CONTROL_MODES),
    ("mux_policy", MUX_POLICIES),
    ("backend", BACKENDS),
)

#: The identity each backend's results carry: what their numbers are
#: identical *to*, recorded in every store signature.  It follows from
#: the backend and selects no code.  "strict" is the object engine's
#: flit schedule, bit for bit per seed; "relaxed" is the batch
#: backend's — deterministic per (config, seed) and independent of
#: batch composition, but drawn from per-lane numpy ``Generator``
#: streams, so it differs per seed from the object engine's and is held
#: to it *distributionally* by the statistical-equivalence harness
#: (:mod:`repro.analysis.equivalence`).
BACKEND_IDENTITY = MappingProxyType({"object": "strict", "batch": "relaxed"})


@dataclass
class SimulationConfig:
    """Everything needed to run one simulation point.

    The defaults reproduce the paper's setup: a 16x16 torus with 16-flit
    worms, wormhole switching, minimal virtual-channel buffers, and
    input-buffer-limit congestion control.
    """

    # -- network ------------------------------------------------------------
    radix: int = 16
    n_dims: int = 2
    topology: str = "torus"

    # -- routing and switching ------------------------------------------------
    algorithm: str = "ecube"
    switching: str = "wormhole"
    #: Flow-control model: "ideal" lets a flit enter a buffer slot freed
    #: in the same cycle (simultaneous shift — the paper's single-flit
    #: buffers stream at full rate), "conservative" only uses slots free
    #: at the start of the cycle (credit-style; needs 2-flit buffers for
    #: full-rate streaming).
    flow_control: str = "ideal"
    #: Flit-buffer depth per virtual channel.  None selects the natural
    #: default: 1 flit for wormhole under ideal flow control (the paper's
    #: node model), 2 under conservative flow control, a full packet for
    #: VCT and SAF.
    vc_buffer_depth: Optional[int] = None
    #: How an adaptive router picks among several free candidate channels.
    selection_policy: str = "least_multiplexed"
    #: Physical-channel multiplexer: "round_robin" shares bandwidth
    #: fairly among ready virtual channels (the paper's time-multiplexed
    #: model); "highest_class" is a strict priority scan from the top
    #: class down, giving the most-progressed worms bandwidth first.
    mux_policy: str = "round_robin"
    #: Simulation backend: "object" runs one seed per engine (bit-exact;
    #: parallelise with ``jobs``); "batch" runs whole seed-batches in
    #: lockstep over flat numpy arrays (statistically equivalent; requires
    #: conservative flow control and wormhole/VCT switching).
    backend: str = "object"
    #: The contract the results carry (see :data:`BACKEND_IDENTITY`):
    #: must be "relaxed" with ``backend="batch"`` and "strict" otherwise.
    #: Not a switch — it is spelled out so that it is part of every
    #: campaign-store signature and object and batch results never alias
    #: in a shared store.
    identity: str = "strict"

    # -- traffic ------------------------------------------------------------
    traffic: str = "uniform"
    traffic_options: Dict[str, Any] = field(default_factory=dict)
    offered_load: float = 0.2
    message_length: int = 16

    # -- congestion control ------------------------------------------------------
    #: Max same-class messages simultaneously being injected per node;
    #: None disables congestion control (paper Section 3 uses it enabled).
    injection_limit: Optional[int] = 2

    # -- statistics schedule (paper Section 3, "Convergence criteria") ------------
    seed: int = 1
    warmup_cycles: int = 3000
    sample_cycles: int = 1500
    gap_cycles: int = 300
    min_samples: int = 3
    max_samples: int = 10
    relative_error: float = 0.05

    # -- safety ------------------------------------------------------------
    #: Cycles without any flit movement or channel grant (while traffic is
    #: in flight) before the watchdog declares deadlock.  Every trip
    #: raises a :class:`~repro.util.errors.DeadlockError` carrying the
    #: wait-for graph of what is stuck (:mod:`repro.simulator.sanitizer`).
    deadlock_threshold: int = 20000

    # -- observability (repro.obs) -------------------------------------------
    #: Attach a :class:`repro.obs.Observer` to the engine.  Off by
    #: default: a disabled engine runs the exact seed code path (the
    #: golden-trace tests pin bit-identical behaviour either way).
    obs: bool = False
    #: Options forwarded to :meth:`repro.obs.ObsConfig.from_options`
    #: (stride, ring_capacity, trace, trace_limit, trace_flits, heatmap,
    #: profile, vectors, export_dir).  Validated lazily so configs stay
    #: picklable for parallel sweep workers without importing repro.obs.
    obs_options: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Messages are formatted on the failing branch only: a config is
        # built once per point of every campaign expansion.
        if self.topology not in ("torus", "mesh"):
            raise ConfigurationError(
                f"topology must be 'torus' or 'mesh', got {self.topology!r}")
        for name, choices in _CHOICES:
            value = getattr(self, name)
            if value not in choices:
                raise ConfigurationError(
                    f"{name} must be one of {choices}, got {value!r}")
        if self.backend == "batch":
            require(self.flow_control == "conservative",
                    "backend='batch' requires flow_control='conservative' "
                    "(ideal flow control's same-cycle fixpoint is order-"
                    "dependent and cannot be evaluated array-at-once)")
            require(self.switching != "saf",
                    "backend='batch' does not support switching='saf'")
            require(not self.obs,
                    "backend='batch' does not support obs hooks")
        if self.identity != BACKEND_IDENTITY[self.backend]:
            raise ConfigurationError(
                f"backend={self.backend!r} produces "
                f"identity={BACKEND_IDENTITY[self.backend]!r} results, got "
                f"identity={self.identity!r}: the batch backend is "
                "statistically, not bitwise, equivalent to the object "
                "engine (spell identity='relaxed' with backend='batch'); "
                "the bit-exact path is backend='object', identity="
                "'strict', parallelised over seeds with --jobs"
            )
        require_positive(self.message_length, "message_length")
        require_non_negative(self.offered_load, "offered_load")
        require_positive(self.warmup_cycles, "warmup_cycles")
        require_positive(self.sample_cycles, "sample_cycles")
        require_non_negative(self.gap_cycles, "gap_cycles")
        require_positive(self.min_samples, "min_samples")
        require(self.max_samples >= self.min_samples,
                "max_samples must be >= min_samples")
        require(0 < self.relative_error < 1,
                "relative_error must be in (0, 1)")
        require_positive(self.deadlock_threshold, "deadlock_threshold")
        if self.vc_buffer_depth is not None:
            require_positive(self.vc_buffer_depth, "vc_buffer_depth")
        if self.injection_limit is not None:
            require_positive(self.injection_limit, "injection_limit")

    # -- builders -------------------------------------------------------------

    def build_topology(self) -> Topology:
        if self.topology == "torus":
            return Torus(self.radix, self.n_dims)
        return Mesh(self.radix, self.n_dims)

    def build_algorithm(self, topology: Topology) -> RoutingAlgorithm:
        return make_algorithm(self.algorithm, topology)

    def build_traffic(self, topology: Topology) -> TrafficPattern:
        return make_traffic(self.traffic, topology, **self.traffic_options)

    def effective_buffer_depth(self) -> int:
        """Buffer depth in flits after applying the per-mode default."""
        if self.vc_buffer_depth is not None:
            if (
                self.switching in ("vct", "saf")
                and self.vc_buffer_depth < self.message_length
            ):
                raise ConfigurationError(
                    f"{self.switching} switching requires buffers holding a "
                    f"whole packet ({self.message_length} flits); got depth "
                    f"{self.vc_buffer_depth}"
                )
            return self.vc_buffer_depth
        if self.switching == "wormhole":
            return 1 if self.flow_control == "ideal" else 2
        return self.message_length

    def label(self) -> str:
        """Compact run identifier for tables and logs."""
        return (
            f"{self.algorithm}/{self.traffic}@{self.offered_load:.2f}"
            f" {self.radix}^{self.n_dims} {self.topology}"
            f" {self.switching}"
        )


__all__ = [
    "BACKENDS",
    "BACKEND_IDENTITY",
    "SELECTION_POLICIES",
    "SWITCHING_MODES",
    "SimulationConfig",
]
