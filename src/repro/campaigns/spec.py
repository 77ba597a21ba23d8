"""Declarative campaign specifications.

A :class:`CampaignSpec` names a whole grid of simulation points —
(topology x traffic x algorithm x load x seed) — plus the shared
configuration they run under, and expands it to concrete
:class:`~repro.simulator.config.SimulationConfig` points in a fixed,
documented order.  Specs are plain data: they serialize to/from JSON so
campaigns can live in files next to the results they produced.

Example spec file::

    {
      "name": "uniform-vs-hotspot",
      "algorithms": ["ecube", "nbc"],
      "topologies": ["torus:8x2"],
      "traffics": ["uniform",
                   {"pattern": "hotspot", "options": {"fraction": 0.04}}],
      "loads": [0.2, 0.4, 0.6],
      "seeds": [1, 2],
      "profile": "quick",
      "base": {"switching": "wormhole"}
    }

Expansion order is **topologies, then traffics, then algorithms, then
loads, then seeds** (outermost to innermost), so exports and tables are
stable across runs.  The ``profile`` is applied first and an explicit
topology spec overrides the profile's radix.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.experiments.profiles import PROFILES, apply_profile
from repro.routing.registry import algorithm_factory, make_algorithm
from repro.simulator.config import BACKEND_IDENTITY, SimulationConfig
from repro.topology import split_topology
from repro.traffic.registry import make_traffic
from repro.util.errors import ConfigurationError, ReproError

_CONFIG_FIELDS = tuple(
    f.name for f in dataclasses.fields(SimulationConfig) if f.init
)


def parse_topology(spec: str) -> Tuple[str, int, int]:
    """Parse ``"torus:16x2"`` / ``"mesh:4x3"`` into (kind, radix, n_dims)."""
    kind, numbers = split_topology(spec, "torus:16x2")
    if len(numbers) != 2:
        raise ConfigurationError(
            f"topology spec {spec!r}: expected '<kind>:<radix>x<dims>', "
            f"e.g. 'torus:16x2'"
        )
    radix, n_dims = numbers
    if radix < 2 or n_dims < 1:
        raise ConfigurationError(
            f"topology spec {spec!r}: radix must be >= 2 and dims >= 1"
        )
    return kind, radix, n_dims


def format_topology(kind: str, radix: int, n_dims: int) -> str:
    """The spec string for a (kind, radix, n_dims) triple."""
    return f"{kind}:{radix}x{n_dims}"


@dataclass(frozen=True)
class TrafficSpec:
    """One traffic pattern of a campaign, with its options."""

    pattern: str
    options: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def parse(
        cls, data: Union[str, Dict[str, Any], "TrafficSpec"]
    ) -> "TrafficSpec":
        if isinstance(data, TrafficSpec):
            return data
        if isinstance(data, str):
            return cls(pattern=data)
        if isinstance(data, dict):
            unknown = set(data) - {"pattern", "options"}
            if unknown or "pattern" not in data:
                raise ConfigurationError(
                    f"traffic spec {data!r}: expected keys 'pattern' and "
                    "optionally 'options'"
                )
            options = data.get("options") or {}
            return cls(
                pattern=data["pattern"],
                options=tuple(sorted(options.items())),
            )
        raise ConfigurationError(
            f"traffic spec must be a string or mapping, got {data!r}"
        )

    def options_dict(self) -> Dict[str, Any]:
        return dict(self.options)

    def to_dict(self) -> Dict[str, Any]:
        return {"pattern": self.pattern, "options": self.options_dict()}

    def label(self) -> str:
        if not self.options:
            return self.pattern
        args = ",".join(f"{k}={v}" for k, v in self.options)
        return f"{self.pattern}({args})"


@dataclass
class CampaignSpec:
    """A declarative (topology x traffic x algorithm x load x seed) grid."""

    name: str
    algorithms: Tuple[str, ...]
    loads: Tuple[float, ...]
    seeds: Tuple[int, ...] = (1,)
    topologies: Tuple[str, ...] = ("torus:16x2",)
    traffics: Tuple[TrafficSpec, ...] = (TrafficSpec("uniform"),)
    #: Run profile applied to the base config before expansion (an
    #: explicit topology spec overrides the profile's radix); None keeps
    #: the SimulationConfig defaults.
    profile: Optional[str] = None
    #: Extra SimulationConfig field overrides shared by every point
    #: (switching, flow_control, sampling schedule, ...).  A ``backend``
    #: without an ``identity`` gets the one its results carry.
    base: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name or "/" in self.name:
            raise ConfigurationError(
                f"campaign name must be a non-empty string without '/', "
                f"got {self.name!r}"
            )
        self.algorithms = tuple(self.algorithms)
        self.loads = tuple(float(load) for load in self.loads)
        self.seeds = tuple(int(seed) for seed in self.seeds)
        self.topologies = tuple(self.topologies)
        self.traffics = tuple(
            TrafficSpec.parse(traffic) for traffic in self.traffics
        )
        for collection, what in (
            (self.algorithms, "algorithms"),
            (self.loads, "loads"),
            (self.seeds, "seeds"),
            (self.topologies, "topologies"),
            (self.traffics, "traffics"),
        ):
            if not collection:
                raise ConfigurationError(
                    f"campaign {self.name!r}: {what} must be non-empty"
                )
        for name in self.algorithms:
            try:
                algorithm_factory(name)
            except ConfigurationError as error:
                raise ConfigurationError(
                    f"campaign {self.name!r}: {error}"
                ) from None
        if self.profile is not None and self.profile not in PROFILES:
            raise ConfigurationError(
                f"campaign {self.name!r}: unknown profile "
                f"{self.profile!r}; choose from {sorted(PROFILES)}"
            )
        for topology in self.topologies:
            parse_topology(topology)
        point_fields = {"algorithm", "offered_load", "seed", "traffic",
                        "traffic_options", "topology", "radix", "n_dims"}
        overlap = point_fields & set(self.base)
        if overlap:
            raise ConfigurationError(
                f"campaign {self.name!r}: base overrides {sorted(overlap)} "
                "conflict with the spec's own grid axes"
            )
        identity = BACKEND_IDENTITY.get(self.base.get("backend"))
        if identity is not None and "identity" not in self.base:
            self.base = dict(self.base, identity=identity)

    # -- expansion -------------------------------------------------------

    def base_config(self) -> SimulationConfig:
        """The shared config before the grid axes are applied."""
        try:
            config = SimulationConfig(**self.base)
        except TypeError as error:  # no such field, or a mistyped value
            raise ConfigurationError(
                f"campaign {self.name!r}: base: {error}"
            ) from None
        if self.profile is not None:
            config = apply_profile(config, self.profile)
        return config

    def check_buildable(self) -> None:
        """Raise ConfigurationError unless every (topology, traffic) and
        (topology, algorithm) combination of the grid builds.

        The pre-flight of ``repro-campaign run``: nlast on a 3-D network
        or an unknown traffic pattern stops the campaign before any
        point simulates, not after the points ahead of it are stored.
        Not part of :meth:`expand`, which warm runs pay for per pass.
        """
        shared = self.base_config()
        for label in self.topologies:
            kind, radix, n_dims = parse_topology(label)
            topology = dataclasses.replace(
                shared, topology=kind, radix=radix, n_dims=n_dims
            ).build_topology()
            try:
                for traffic in self.traffics:
                    what = f"traffic {traffic.label()}"
                    make_traffic(
                        traffic.pattern, topology, **traffic.options_dict()
                    )
                for algorithm in self.algorithms:
                    what = f"algorithm {algorithm}"
                    make_algorithm(algorithm, topology)
            except (ReproError, TypeError) as error:
                raise ConfigurationError(
                    f"campaign {self.name!r}: {what} on {label}: {error}"
                ) from None

    def expand(self) -> List[SimulationConfig]:
        """Every point of the campaign, in the documented order.

        Points are built from one kwargs dict per expansion; each is
        validated by its own ``__post_init__``, shares the base's
        ``obs_options`` and gets a fresh ``traffic_options``.
        """
        shared = self.base_config()
        kwargs = {name: getattr(shared, name) for name in _CONFIG_FIELDS}
        points: List[SimulationConfig] = []
        for topology in self.topologies:
            kwargs["topology"], kwargs["radix"], kwargs["n_dims"] = (
                parse_topology(topology)
            )
            for traffic in self.traffics:
                kwargs["traffic"] = traffic.pattern
                for algorithm in self.algorithms:
                    kwargs["algorithm"] = algorithm
                    for load in self.loads:
                        kwargs["offered_load"] = load
                        for seed in self.seeds:
                            kwargs["seed"] = seed
                            kwargs["traffic_options"] = traffic.options_dict()
                            points.append(SimulationConfig(**kwargs))
        return points

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "algorithms": list(self.algorithms),
            "loads": list(self.loads),
            "seeds": list(self.seeds),
            "topologies": list(self.topologies),
            "traffics": [traffic.to_dict() for traffic in self.traffics],
            "profile": self.profile,
            "base": dict(self.base),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignSpec":
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"campaign spec must be a JSON object, got {type(data).__name__}"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"campaign spec has unknown keys {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}"
            )
        missing = {"name", "algorithms", "loads"} - set(data)
        if missing:
            raise ConfigurationError(
                f"campaign spec is missing required keys {sorted(missing)}"
            )
        kwargs = dict(data)
        base = kwargs.get("base")
        if base is not None and not isinstance(base, dict):
            raise ConfigurationError(
                f"campaign spec 'base' must be an object, got {base!r}"
            )
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str) -> "CampaignSpec":
        try:
            with open(path, encoding="utf-8") as stream:
                data = json.load(stream)
        except OSError as error:
            raise ConfigurationError(
                f"cannot read campaign spec {path!r}: {error}"
            ) from None
        except json.JSONDecodeError as error:
            raise ConfigurationError(
                f"campaign spec {path!r} is not valid JSON: {error}"
            ) from None
        return cls.from_dict(data)

    def to_file(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(self.to_dict(), stream, indent=2, sort_keys=True)
            stream.write("\n")


def grid_label(config: SimulationConfig) -> Tuple[str, str]:
    """(topology, traffic) labels grouping a campaign's export grids."""
    topology = format_topology(config.topology, config.radix, config.n_dims)
    traffic = config.traffic
    if config.traffic_options:
        args = ",".join(
            f"{k}={v}" for k, v in sorted(config.traffic_options.items())
        )
        traffic = f"{traffic}({args})"
    if config.switching != "wormhole":
        traffic = f"{traffic}/{config.switching}"
    return topology, traffic


__all__ = [
    "CampaignSpec",
    "TrafficSpec",
    "format_topology",
    "grid_label",
    "parse_topology",
]
