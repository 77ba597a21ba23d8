"""Output checks: is what the workload produced correct, and does it
still say what the committed references say.

Three kinds, kept apart on purpose:

* **failures** are broken invariants — a point that raised, a flit count
  that does not add up, a zero-load latency off ``m_l + d - 1``, a warm
  lookup that missed.  They make up ``failed`` / ``passed_share`` and
  decide the run's ``correct`` flag; they hold on every seed.
* **reference deviations** compare simulated statistics with committed
  object-engine results (``reference/``).  Seeds with their own file are
  held to 10% of it, point by point — the practical criterion of
  ``repro-equivalence``.  Any other seed is held to the committed
  cross-seed band of the same point.
* **exact drift** counts points whose digest differs from the seed's
  reference: informational, so a change of the model is visible without
  being rejected by it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import statistics
from functools import lru_cache
from typing import (
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.simulator.batch import BatchEngine
from repro.simulator.config import SimulationConfig
from repro.simulator.engine import Engine
from repro.stats.summary import SimulationResult

from benchmarks.ledger.workloads import Point

REFERENCE_DIR = os.path.join(os.path.dirname(__file__), "reference")
REFERENCE_SCHEMA = "repro.ledger.reference/1"

#: Seeds with a committed per-seed reference (default and held-out).
REFERENCE_SEEDS = (101, 202)
#: Seeds the cross-seed band is built from.
BAND_SEEDS = REFERENCE_SEEDS + tuple(range(303, 1313, 101))

#: Relative tolerance of a reference comparison (``repro-equivalence``'s
#: practical criterion).
TOLERANCE = 0.10
#: A band is widened by this many standard deviations of its seeds.
BAND_SIGMAS = 3.0

#: Cycles of the zero-load probe.
PROBE_CYCLES = 2500


def digest(result: SimulationResult) -> str:
    """Exact identity of a simulated result: every field but host time
    and the observer's aggregate (neither is simulated)."""
    data = result.to_json_dict()
    data.pop("wall_seconds", None)
    data.pop("obs_metrics", None)
    text = json.dumps(data, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@lru_cache(maxsize=None)
def _num_links(topology: str, radix: int, n_dims: int) -> int:
    return SimulationConfig(
        topology=topology, radix=radix, n_dims=n_dims
    ).build_topology().num_links


def point_failures(point: Point) -> List[str]:
    """Broken invariants of one simulated point (empty: it passed)."""
    config, result = point.config, point.result
    problems = []
    samples = result.samples_used
    if not config.min_samples <= samples <= config.max_samples:
        problems.append(f"{samples} samples")
    expected_cycles = (
        config.warmup_cycles
        + samples * config.sample_cycles
        + (samples - 1) * config.gap_cycles
    )
    if result.cycles_simulated != expected_cycles:
        problems.append(
            f"{result.cycles_simulated} cycles, schedule says "
            f"{expected_cycles}"
        )
    if result.messages_delivered <= 0:
        problems.append("nothing delivered")
    elif result.average_latency < config.message_length:
        problems.append("latency below the message length")
    if result.average_wait < 0:
        problems.append("negative wait")
    if not 0.0 < result.achieved_utilization <= 1.0:
        problems.append(f"utilization {result.achieved_utilization}")
    # The per-class counts and the throughput share one denominator:
    # their sum is the sampled windows' flit moves, exactly.
    links = _num_links(config.topology, config.radix, config.n_dims)
    moved = result.achieved_utilization * samples * config.sample_cycles * links
    if sum(result.vc_class_usage) != round(moved):
        problems.append("vc_class_usage does not sum to the flits moved")
    # Within the sampled windows a message is delivered at most once and
    # only after it was generated; what warm-up left in flight is bounded
    # by what the network and the injection queues can hold.
    if result.messages_delivered > result.messages_generated + links:
        problems.append("more delivered than generated")
    return [f"{point.id}: {problem}" for problem in problems]


def zero_load_probe(config: SimulationConfig, batch: bool) -> List[str]:
    """One near-idle point on the workload's own network: every latency
    is at least ``m_l + d - 1``, some message reaches it exactly, and
    every flit is accounted for."""
    config = dataclasses.replace(config, obs=False, obs_options={})
    if batch:
        engine = BatchEngine(config, [config.seed])
        engine.start_sample(0)
        engine.run_cycles(PROBE_CYCLES)
        sample = engine.end_sample(0)
        conserved = engine.conservation_check(0)
    else:
        engine = Engine(config)
        engine.start_sample()
        engine.run_cycles(PROBE_CYCLES)
        sample = engine.end_sample()
        conserved = engine.conservation_check()
    excess = [
        latency - (config.message_length + hops - 1)
        for latency, hops in sample.deliveries
    ]
    problems = []
    if not conserved:
        problems.append("flit conservation broken")
    if not excess:
        problems.append("nothing delivered")
    elif min(excess) != 0:
        problems.append(
            f"zero-load latency is m_l + d - 1 {min(excess):+d}"
        )
    return [f"zero-load probe: {problem}" for problem in problems]


def claims_share(claims: Sequence[Tuple[str, bool]]) -> float:
    """Share of the artifact's paper-level claims that held (1.0 when
    the artifact makes none)."""
    if not claims:
        return 1.0
    return sum(1 for _, held in claims if held) / len(claims)


# ----------------------------------------------------------------------
# references
# ----------------------------------------------------------------------


class Cell(NamedTuple):
    """What a reference comparison looks at: one point, or the mean of
    one replicated point's lanes."""

    id: str
    utilization: float
    latency: float
    converged: bool


def cells_of(points: Sequence[Point]) -> List[Cell]:
    """Points whose id ends in ``/lane<k>`` are folded into the mean of
    their lanes (a replication is judged by its means, and a mean over
    all lanes is converged by construction); others stand alone."""
    grouped: Dict[str, List[SimulationResult]] = {}
    for point in points:
        head, sep, tail = point.id.rpartition("/lane")
        key = head if sep and tail.isdigit() else point.id
        grouped.setdefault(key, []).append(point.result)
    cells = []
    for key, results in grouped.items():
        cells.append(Cell(
            key,
            statistics.fmean(r.achieved_utilization for r in results),
            statistics.fmean(r.average_latency for r in results),
            len(results) > 1 or results[0].converged,
        ))
    return cells


def _seed_path(workload: str, seed: int) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.seed{seed}.json")


def _band_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.band.json")


def _load(path: str) -> Optional[Dict[str, Any]]:
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as stream:
        data = json.load(stream)
    if data.get("schema") != REFERENCE_SCHEMA:
        raise ValueError(f"{path}: not a {REFERENCE_SCHEMA} file")
    return data


def _within(value: float, reference: float) -> bool:
    return abs(value - reference) <= TOLERANCE * abs(reference)


def _in_band(value: float, band: Dict[str, float]) -> bool:
    slack = max(TOLERANCE * abs(band["mean"]), BAND_SIGMAS * band["sd"])
    return band["lo"] - slack <= value <= band["hi"] + slack


class ReferenceVerdict(NamedTuple):
    #: "seed" (own file), "band" (cross-seed band) or "none".
    kind: str
    checked: int
    deviating: List[str]
    #: Points whose digest differs from the seed's file (0 without one).
    exact_drift: int

    @property
    def match_share(self) -> float:
        if not self.checked:
            return 1.0
        return 1.0 - len(self.deviating) / self.checked


def _deviating(
    cells: Sequence[Cell],
    reference: Sequence[Dict[str, Any]],
    holds: Callable[[float, Any], bool],
) -> List[str]:
    """Cells that *holds* does not accept against their reference entry:
    utilization always, latency where the reference converged."""
    by_id = {entry["id"]: entry for entry in reference}
    deviating = []
    for cell in cells:
        ref = by_id.get(cell.id)
        if ref is None:
            deviating.append(f"{cell.id}: not in the reference")
        elif not holds(cell.utilization, ref["utilization"]):
            deviating.append(f"{cell.id}: utilization")
        elif ref["converged"] and not holds(cell.latency, ref["latency"]):
            deviating.append(f"{cell.id}: latency")
    return deviating


def compare_with_reference(
    workload: str, seed: int, points: Sequence[Point], smoke: bool
) -> ReferenceVerdict:
    """Hold a pass's simulated statistics to the committed reference:
    the seed's own file if there is one, else the cross-seed band."""
    if smoke:  # references are for the full sizes only
        return ReferenceVerdict("none", 0, [], 0)
    cells = cells_of(points)
    own = _load(_seed_path(workload, seed))
    if own is not None:
        drift = sum(
            1 for point in points
            if own["digests"].get(point.id) != digest(point.result)
        )
        return ReferenceVerdict(
            "seed", len(cells), _deviating(cells, own["cells"], _within),
            drift,
        )
    band = _load(_band_path(workload))
    if band is not None:
        return ReferenceVerdict(
            "band", len(cells), _deviating(cells, band["cells"], _in_band), 0
        )
    return ReferenceVerdict("none", 0, [], 0)


def _write(path: str, data: Dict[str, Any]) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(data, stream, indent=1, sort_keys=True)
        stream.write("\n")


def write_seed_reference(
    workload: str,
    seed: int,
    reference_cells: Sequence[Cell],
    points: Sequence[Point],
    provenance: Dict[str, Any],
) -> str:
    """*reference_cells* come from the object engine; *points* are the
    path the workload runs (the same thing except on ``replicate_b32``)."""
    path = _seed_path(workload, seed)
    _write(path, {
        "schema": REFERENCE_SCHEMA,
        "workload": workload,
        "seed": seed,
        "git_sha": provenance["git_sha"],
        "code_digest": provenance["code_digest"],
        "cells": [cell._asdict() for cell in reference_cells],
        "digests": {point.id: digest(point.result) for point in points},
    })
    return path


def write_band(
    workload: str,
    per_seed_cells: Dict[int, Sequence[Cell]],
    provenance: Dict[str, Any],
) -> str:
    """The envelope, mean and spread of each cell over the band seeds.
    Latency is only held to the band where every seed converged."""
    def band(values: Sequence[float]) -> Dict[str, float]:
        return {
            "lo": min(values),
            "hi": max(values),
            "mean": statistics.fmean(values),
            "sd": statistics.pstdev(values),
        }

    seeds = sorted(per_seed_cells)
    by_id: Dict[str, List[Cell]] = {}
    for seed in seeds:
        for cell in per_seed_cells[seed]:
            by_id.setdefault(cell.id, []).append(cell)
    path = _band_path(workload)
    _write(path, {
        "schema": REFERENCE_SCHEMA,
        "workload": workload,
        "seeds": seeds,
        "git_sha": provenance["git_sha"],
        "code_digest": provenance["code_digest"],
        "cells": [
            {
                "id": cell_id,
                "utilization": band([c.utilization for c in cells]),
                "latency": band([c.latency for c in cells]),
                "converged": all(c.converged for c in cells),
            }
            for cell_id, cells in by_id.items()
        ],
    })
    return path


__all__ = [
    "BAND_SEEDS",
    "Cell",
    "REFERENCE_SEEDS",
    "ReferenceVerdict",
    "cells_of",
    "claims_share",
    "compare_with_reference",
    "digest",
    "point_failures",
    "write_band",
    "write_seed_reference",
    "zero_load_probe",
]
