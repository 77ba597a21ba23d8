"""Every paper artifact as a campaign plus a table of claims.

The evaluation section has three figures (each with a latency panel and a
throughput panel) plus one experiment described in prose:

* **Figure 3** — uniform traffic, 16-flit worms.
* **Figure 4** — 4% hotspot traffic at node (15, 15).
* **Figure 5** — local traffic, radius-3 neighbourhood (0.4 locality).
* **Section 3.4** — virtual cut-through comparison of 2pn, nbc and e-cube
  under uniform traffic.

Seven studies answer questions the paper raises in §3 and §4:
``abl-bal`` (nbc's virtual-channel balance), ``abl-cc`` (congestion
control), ``abl-pri`` (priority information), ``abl-vc`` (extra virtual
channels for e-cube), ``abl-len`` (message length), ``abl-arb`` (channel
arbitration priority) and ``ext-tr`` (Glass & Ni's transpose
counter-claim).

:data:`ARTIFACTS` is the one place such a result is stated.  Each entry
is a grid, which :func:`artifact_specs` turns into campaigns
(``repro-campaign run --figure ID``), and a table of :class:`Claim` rows:
the qualitative claims the paper draws, so a run can assert that the
reproduction preserves the *shape* of the results (who wins, roughly by
how much) without demanding cycle-exact numbers.  :func:`evaluate`
judges them on seed means.
"""

from __future__ import annotations

import dataclasses
import operator
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.analysis.vc_usage import coefficient_of_variation
from repro.campaigns.spec import CampaignSpec, TrafficSpec
from repro.experiments.profiles import PROFILES
from repro.experiments.sweep import PAPER_LOADS
from repro.routing.registry import ALGORITHM_NAMES
from repro.simulator.config import SimulationConfig
from repro.stats.summary import SimulationResult

Series = Dict[str, List[SimulationResult]]
#: (claim description, passed) pairs produced by :func:`evaluate`.
ShapeCheck = Tuple[str, bool]

#: The metric a side may read besides a SimulationResult field: the
#: coefficient of variation of ``vc_class_usage`` (0 = balanced).
VC_CV = "vc_class_cv"

#: The config fields that tell an artifact's series apart: a claim side
#: reads one value per series it selects.
_SERIES_FIELDS = ("algorithm", "injection_limit", "message_length",
                  "mux_policy")

_RELATIONS = MappingProxyType({">": operator.gt, ">=": operator.ge,
                               "<": operator.lt, "<=": operator.le})


@dataclass(frozen=True)
class Side:
    """One side of a claim: a metric of the points *where* selects.

    *where* pairs config fields with values; *at* is an offered load,
    ``"low"`` / ``"high"`` (a series' lowest / highest load) or
    ``"peak"`` (a series' highest value over its loads).
    """

    where: Tuple[Tuple[str, Any], ...] = ()
    at: Union[float, str] = "peak"
    metric: str = "achieved_utilization"


@dataclass(frozen=True)
class Claim:
    """``left <relation> factor * right + offset`` for every pair of
    series the sides select; *right* may be a constant."""

    text: str
    left: Side
    relation: str
    right: Union[Side, float]
    factor: float = 1.0
    offset: float = 0.0


@dataclass(frozen=True)
class Artifact:
    """A paper artifact: the grid it runs and the claims it is judged by."""

    algorithms: Tuple[str, ...]
    claims: Tuple[Claim, ...]
    loads: Tuple[float, ...] = PAPER_LOADS
    traffic: TrafficSpec = TrafficSpec("uniform")
    topology: str = "torus"
    switching: str = "wormhole"
    seed: int = 1
    #: A config field that is no grid axis, and its values: the
    #: artifact runs one campaign per value.
    vary: Optional[Tuple[str, Tuple[Any, ...]]] = None


def _side(
    algorithm: Optional[str] = None,
    at: Union[float, str] = "peak",
    metric: str = "achieved_utilization",
    **where: Any,
) -> Side:
    """A side selecting *algorithm* (every algorithm when None)."""
    if algorithm is not None:
        where["algorithm"] = algorithm
    return Side(tuple(sorted(where.items())), at, metric)


_LOW_LATENCY = _side(at="low", metric="average_latency")
_SIMILAR_AT_LOW_LOAD = Claim(
    "all algorithms have similar latency at low load",
    _LOW_LATENCY, "<=", _LOW_LATENCY, 1.35,
)


def _hop_schemes_beat_ecube(traffic: str) -> Tuple[Claim, ...]:
    return tuple(
        Claim(f"{hop} peak throughput exceeds e-cube ({traffic})",
              _side(hop), ">", _side("ecube"))
        for hop in ("phop", "nhop", "nbc")
    )


def _at_limit(limit: int, metric: str = "achieved_utilization") -> Side:
    return _side(at=0.9, metric=metric, injection_limit=limit)


def _ecube_low_load(length: int) -> Side:
    return _side("ecube", 0.05, "average_latency", message_length=length)


#: Every paper artifact, by its ``--figure`` id.
ARTIFACTS: Mapping[str, Artifact] = MappingProxyType({
    "3": Artifact(ALGORITHM_NAMES, (
        _SIMILAR_AT_LOW_LOAD,
        *_hop_schemes_beat_ecube("uniform"),
        Claim("e-cube sustains at least nlast's peak throughput (uniform)",
              _side("ecube"), ">=", _side("nlast"), 0.95),
        Claim("phop at least matches nhop under uniform traffic",
              _side("phop"), ">=", _side("nhop"), 0.95),
    )),
    "4": Artifact(ALGORITHM_NAMES, (
        _SIMILAR_AT_LOW_LOAD,
        *_hop_schemes_beat_ecube("hotspot"),
        # Sustained (highest-load) throughput: on scaled-down networks
        # nlast's brief pre-saturation peak can edge out e-cube, but
        # past saturation e-cube holds at least nlast's level — the
        # substance of the paper's hotspot ranking.
        Claim("e-cube sustains at least nlast's throughput past "
              "saturation (hotspot)",
              _side("ecube", "high"), ">=", _side("nlast", "high"), 0.95),
        Claim("nbc at least matches nhop under hotspot traffic",
              _side("nbc"), ">=", _side("nhop"), 0.95),
    ), traffic=TrafficSpec("hotspot", (("fraction", 0.04),))),
    "5": Artifact(ALGORITHM_NAMES, (
        _SIMILAR_AT_LOW_LOAD,
        Claim("2pn beats e-cube under local traffic",
              _side("2pn"), ">", _side("ecube")),
        Claim("nlast has the lowest peak throughput under local traffic",
              _side("nlast"), "<=", _side(), 1.05),
        *_hop_schemes_beat_ecube("local"),
        Claim("nbc at least matches phop under local traffic",
              _side("nbc"), ">=", _side("phop"), 0.95),
    ), traffic=TrafficSpec("local", (("radius", 3),))),
    "vct": Artifact(("ecube", "2pn", "nbc"), (
        Claim("2pn beats e-cube under virtual cut-through",
              _side("2pn"), ">", _side("ecube")),
        Claim("2pn performs about as well as nbc under VCT",
              _side("2pn"), ">=", _side("nbc"), 0.8),
    ), switching="vct"),
    "abl-bal": Artifact(("phop", "nhop", "nbc"), tuple(
        Claim(f"nbc spreads flits over VC classes more evenly than {other}",
              _side("nbc", 0.5, VC_CV), "<", _side(other, 0.5, VC_CV))
        for other in ("nhop", "phop")
    ), loads=(0.5,), seed=105),
    "abl-cc": Artifact(("ecube",), (
        *(Claim(f"e-cube's saturation latency grows with the injection "
                f"limit ({low} < {high})",
                _at_limit(low, "average_latency"), "<",
                _at_limit(high, "average_latency"))
          for low, high in ((1, 2), (2, 8))),
        Claim("a tight injection limit (1) sustains at least a loose "
              "one's (8) utilization past saturation",
              _at_limit(1), ">=", _at_limit(8)),
    ), loads=(0.9,), seed=106, vary=("injection_limit", (1, 2, 8))),
    "abl-pri": Artifact(("2pn", "nhop", "phop"), tuple(
        Claim(f"{hop} at least matches 2pn's utilization at load 0.8 "
              "(wormhole)",
              _side(hop, 0.8), ">=", _side("2pn", 0.8), 0.95)
        for hop in ("nhop", "phop")
    ), loads=(0.5, 0.8), seed=107),
    "abl-vc": Artifact(("ecube", "ecubex2", "ecubex4"), (
        Claim("4 lanes per class raise e-cube's utilization at load 0.8",
              _side("ecubex4", 0.8), ">", _side("ecube", 0.8)),
        Claim("2 lanes per class keep at least e-cube's utilization at "
              "load 0.8",
              _side("ecubex2", 0.8), ">=", _side("ecube", 0.8), 0.95),
    ), loads=(0.8,), seed=109),
    "abl-len": Artifact(("ecube", "nbc"), (
        # Low-load latency is m_l + d - 1: 24-flit worms take 16 +- 35%
        # cycles longer than 8-flit ones.
        Claim("e-cube's low-load latency grows by at least 10.4 cycles "
              "from 8- to 24-flit worms",
              _ecube_low_load(24), ">=", _ecube_low_load(8), offset=10.4),
        Claim("e-cube's low-load latency grows by at most 21.6 cycles "
              "from 8- to 24-flit worms",
              _ecube_low_load(24), "<=", _ecube_low_load(8), offset=21.6),
        *(Claim(f"nbc beats e-cube's utilization at load 0.7 with "
                f"{length}-flit worms",
                _side("nbc", 0.7, message_length=length), ">",
                _side("ecube", 0.7, message_length=length))
          for length in (8, 16, 24)),
    ), loads=(0.05, 0.7), seed=110, vary=("message_length", (8, 16, 24))),
    "abl-arb": Artifact(("phop", "nbc"), tuple(
        Claim(f"{name} sustains utilization above 0.3 at load 0.8 under "
              "either arbitration policy",
              _side(name, 0.8), ">", 0.3)
        for name in ("phop", "nbc")
    ), loads=(0.8,), seed=111,
        vary=("mux_policy", ("round_robin", "highest_class"))),
    "ext-tr": Artifact(("ecube", "nlast", "nbc"), (
        Claim("nlast beats e-cube's utilization under transpose traffic "
              "on a mesh",
              _side("nlast", 0.5), ">", _side("ecube", 0.5)),
    ), loads=(0.5,), topology="mesh", traffic=TrafficSpec("transpose"),
        seed=108),
})


def _metric(row: Mapping[str, Any], name: str) -> float:
    if name == VC_CV:
        return coefficient_of_variation(row["vc_class_usage"])
    return row[name]


def _values(side: Side, rows: Sequence[Mapping[str, Any]]) -> List[float]:
    """The side's value in each series it selects, from seed means."""
    cells: Dict[Tuple[Any, ...], Dict[float, List[float]]] = {}
    for row in rows:
        if all(row.get(name) == value for name, value in side.where):
            series = tuple(row.get(name) for name in _SERIES_FIELDS)
            cells.setdefault(series, {}).setdefault(
                row["offered_load"], []
            ).append(_metric(row, side.metric))
    values: List[float] = []
    for by_load in cells.values():
        means = {load: sum(seeds) / len(seeds)
                 for load, seeds in by_load.items()}
        if side.at == "peak":
            values.append(max(means.values()))
        elif side.at == "low":
            values.append(means[min(means)])
        elif side.at == "high":
            values.append(means[max(means)])
        elif isinstance(side.at, (int, float)) and side.at in means:
            values.append(means[side.at])
    return values


def evaluate(
    claims: Sequence[Claim], rows: Sequence[Mapping[str, Any]]
) -> List[ShapeCheck]:
    """Every claim's verdict, in table order, on seed means.

    *rows* are points as flat mappings of config and result fields
    (:func:`pair_rows`, :func:`series_rows`, or a results CSV).  A claim
    whose side selects no point is omitted.
    """
    checks: List[ShapeCheck] = []
    for claim in claims:
        left = _values(claim.left, rows)
        right = (_values(claim.right, rows)
                 if isinstance(claim.right, Side) else [claim.right])
        if left and right:
            relation = _RELATIONS[claim.relation]
            checks.append((claim.text, all(
                relation(a, claim.factor * b + claim.offset)
                for a in left for b in right
            )))
    return checks


def pair_rows(
    pairs: Sequence[Tuple[SimulationConfig, SimulationResult]],
) -> List[Dict[str, Any]]:
    """A campaign's (config, result) pairs as :func:`evaluate` rows."""
    return [{**vars(result), **vars(config)} for config, result in pairs]


def series_rows(series: Series) -> List[Dict[str, Any]]:
    """Per-algorithm series (loads x seeds) as :func:`evaluate` rows."""
    return [dict(vars(result), algorithm=name)
            for name, results in series.items() for result in results]


def check_figure3(series: Series) -> List[ShapeCheck]:
    """Figure 3's claims on per-algorithm series."""
    return evaluate(ARTIFACTS["3"].claims, series_rows(series))


def artifact_specs(
    artifact: str, profile: str = "scaled"
) -> List[CampaignSpec]:
    """The campaigns of one paper artifact.

    ``repro-campaign run --figure ID`` starts from these: the
    artifact's algorithms over its loads on the profile's radix, at its
    seed (``dataclasses.replace`` any axis, as the CLI's axis flags
    do).  An artifact that varies a field is one spec per value, named
    ``figure-<id>-<profile>-<field>=<value>``.
    """
    entry = ARTIFACTS.get(artifact)
    if entry is None:
        raise KeyError(
            f"unknown figure {artifact!r}; choose from {sorted(ARTIFACTS)}"
        )
    base: Dict[str, Any] = dict(PROFILES[profile])
    radix = base.pop("radix", SimulationConfig.radix)
    if entry.switching != "wormhole":
        base["switching"] = entry.switching
    spec = CampaignSpec(
        name=f"figure-{artifact}-{profile}",
        algorithms=entry.algorithms,
        loads=entry.loads,
        seeds=(entry.seed,),
        topologies=(f"{entry.topology}:{radix}x2",),
        traffics=(entry.traffic,),
        profile=None,  # the profile's schedule fields are in `base`
        base=base,
    )
    if entry.vary is None:
        return [spec]
    field, values = entry.vary
    return [
        dataclasses.replace(
            spec, name=f"{spec.name}-{field}={value}",
            base={**base, field: value},
        )
        for value in values
    ]


def format_checks(checks: Sequence[ShapeCheck]) -> str:
    """Human-readable pass/fail listing."""
    return "\n".join(
        f"[{'PASS' if passed else 'FAIL'}] {claim}"
        for claim, passed in checks
    )


__all__ = [
    "ARTIFACTS",
    "Artifact",
    "Claim",
    "Side",
    "VC_CV",
    "artifact_specs",
    "check_figure3",
    "evaluate",
    "format_checks",
    "pair_rows",
    "series_rows",
]
