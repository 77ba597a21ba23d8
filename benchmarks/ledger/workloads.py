"""The four workloads: what runs, at what size, and why it is here.

Every workload is one closed loop of one client in one process
(``jobs=1``, no threads): the next call starts when the previous one
returned.  A *pass* is one complete run of the workload's artifact; the
runner repeats passes for as long as it was asked to measure, and every
pass of one seed simulates exactly the same thing.

Sizes.  The issue sized each workload at about 30 s, one pass per run.
The benchmark contract allows about 37 s for a whole run, set-up and
repeats included, so following the issue's own rule ("halve ladders
evenly, never drop a workload") a pass is about 6 s here and a run
measures three of them, each in a fresh process: the Figure-3 ladder keeps all six algorithms on
every second load, the replication keeps its 32 lanes, the campaign
keeps all three phases and the 16x16 mix keeps all six points, each
with its sampling schedule cut in the same proportion.

Functions the traced run patches (``run_point``, ``run_campaign``,
``export.*``) are called through their module, never through a name
bound at import, so the patched binding is the one that runs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import itertools
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.campaigns import export, orchestrator
from repro.campaigns.spec import CampaignSpec, TrafficSpec
from repro.campaigns.store import ResultStore
from repro.experiments import paper_figures, runner
from repro.experiments.parallel import run_sweep_points
from repro.experiments.sweep import sweep_algorithms
from repro.routing.registry import ALGORITHM_NAMES
from repro.simulator.batch import BatchEngine
from repro.simulator.config import SimulationConfig
from repro.simulator.engine import Engine
from repro.stats.summary import SimulationResult

from benchmarks.ledger.clock import HostClock

#: ``obs_options`` of the observed pass: phase profile, heatmap and the
#: scalar probes; no event trace and no vector probes (their cost is
#: not what the ledger states).
OBS_OPTIONS: Dict[str, Any] = {
    "profile": True,
    "heatmap": True,
    "trace": False,
    "vectors": False,
}


def _schedule(warmup: int, sample: int, gap: int) -> Dict[str, int]:
    """A fixed three-sample schedule: the cycle count of a point does
    not depend on when it happens to converge, so every seed simulates
    the same number of cycles."""
    return {
        "warmup_cycles": warmup,
        "sample_cycles": sample,
        "gap_cycles": gap,
        "min_samples": 3,
        "max_samples": 3,
    }


_SMOKE_SCHEDULE = _schedule(120, 80, 16)


@dataclass
class Point:
    """One simulated point of a pass, as the checks see it."""

    id: str
    config: SimulationConfig
    result: SimulationResult


@dataclass
class PassOutcome:
    """What one pass produced; the time it took is on the pass's clock."""

    points: List[Point]
    #: (claim, held) pairs: the paper-level statement the artifact makes.
    claims: List[Tuple[str, bool]]
    #: Store lookups that had to be cache hits (``store_campaign``).
    served: int = 0
    #: One line per failed point or lookup found by the workload's own
    #: checks (the generic per-point checks live in ``checks.py``).
    failures: List[str] = field(default_factory=list)
    #: Exact counts and sizes only the workload can see.
    counts: Dict[str, float] = field(default_factory=dict)


def _observed(
    config: SimulationConfig, obs_options: Optional[Dict[str, Any]]
) -> SimulationConfig:
    if obs_options is None:
        return config
    return dataclasses.replace(config, obs=True, obs_options=dict(obs_options))


def _point_id(config: SimulationConfig) -> str:
    """Names a point within its workload.  The seed is left out so the
    same point of another seed carries the same id in the references."""
    return (
        f"{config.algorithm}/{config.traffic}@{config.offered_load:g}"
        f"/{config.topology}{config.radix}x{config.n_dims}"
        f"/{config.switching}/{config.flow_control}"
    )


class Workload:
    """Base: a named artifact that can be set up and run, pass by pass."""

    name = ""
    why = ""
    #: The object engine runs it, so ``obs=True`` is available.
    observable = True

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir

    def setup(self) -> None:
        """Build, once, every distinct object the workload will need."""
        raise NotImplementedError

    def run_pass(
        self,
        clock: HostClock,
        obs_options: Optional[Dict[str, Any]] = None,
    ) -> PassOutcome:
        """One pass, every call into the program inside a clock unit."""
        raise NotImplementedError

    def probe(self) -> Tuple[SimulationConfig, bool]:
        """(config, on the batch engine) of the zero-load probe point."""
        raise NotImplementedError

    def reference_points(self, outcome: PassOutcome) -> List[Point]:
        """The pass's points as the object engine simulates them — what
        a committed reference holds.  Already so, unless overridden."""
        return outcome.points


class Fig3Ladder(Workload):
    name = "fig3_ladder"
    why = (
        "Figure 3: 6 algorithms x 5 loads, 8x8 torus, ideal flow control, "
        "object engine; ~96% of wall is simulator.engine"
    )

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        super().__init__(seed, smoke, workdir)
        if smoke:
            self.loads: Tuple[float, ...] = (0.3, 0.9)
            shape = dict(radix=4, **_SMOKE_SCHEDULE)
        else:
            # Every second rung of PAPER_LOADS, at half the `quick`
            # profile's schedule.
            self.loads = (0.1, 0.3, 0.5, 0.7, 0.9)
            shape = dict(radix=8, **_schedule(400, 300, 60))
        self.base = SimulationConfig(traffic="uniform", seed=seed, **shape)

    def setup(self) -> None:
        for algorithm in ALGORITHM_NAMES:
            Engine(dataclasses.replace(self.base, algorithm=algorithm))

    def run_pass(
        self,
        clock: HostClock,
        obs_options: Optional[Dict[str, Any]] = None,
    ) -> PassOutcome:
        base = _observed(self.base, obs_options)
        series: Dict[str, List[SimulationResult]] = {}
        # One sweep per algorithm, so the clock can calibrate between
        # them; the points and their order are those of one figure3().
        for algorithm in ALGORITHM_NAMES:
            with clock.unit(algorithm):
                series.update(
                    sweep_algorithms(base, (algorithm,), self.loads, jobs=1)
                )
        configs = run_sweep_points(self.base, ALGORITHM_NAMES, self.loads)
        results = [r for name in ALGORITHM_NAMES for r in series[name]]
        points = [
            Point(_point_id(config), config, result)
            for config, result in zip(configs, results)
        ]
        return PassOutcome(points, paper_figures.check_figure3(series))

    def probe(self) -> Tuple[SimulationConfig, bool]:
        return dataclasses.replace(self.base, offered_load=0.02), False


class ReplicateB32(Workload):
    name = "replicate_b32"
    why = (
        "32-seed replication on the relaxed batch (SoA) path, conservative "
        "flow control; ~98% of wall is simulator.batch, none is the object "
        "engine"
    )
    observable = False

    #: (algorithm, load): the three-way ranking at load 0.6, where the
    #: kernels are flit-bound, and one call at 0.3, where the per-step
    #: dispatch floor dominates.
    CELLS = (("ecube", 0.6), ("2pn", 0.6), ("nbc", 0.6), ("nbc", 0.3))

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        super().__init__(seed, smoke, workdir)
        if smoke:
            self.lanes = 4
            shape = dict(radix=4, **_SMOKE_SCHEDULE)
        else:
            self.lanes = 32
            shape = dict(radix=8, **_schedule(240, 180, 36))
        self.seeds = list(range(seed, seed + self.lanes))
        self.base = SimulationConfig(
            traffic="uniform",
            backend="batch",
            identity="relaxed",
            flow_control="conservative",
            seed=seed,
            **shape,
        )

    def setup(self) -> None:
        for algorithm in ("ecube", "2pn", "nbc"):
            BatchEngine(
                dataclasses.replace(
                    self.base, algorithm=algorithm, offered_load=0.6
                ),
                self.seeds,
            )

    def run_cell(
        self, base: SimulationConfig, algorithm: str, load: float
    ) -> List[SimulationResult]:
        """One cell's lane results in seed order (called with an
        object-engine *base* to write the reference)."""
        return sweep_algorithms(
            base, (algorithm,), (load,),
            seeds=self.seeds, batch_size=self.lanes, jobs=1,
        )[algorithm]

    def run_pass(
        self,
        clock: HostClock,
        obs_options: Optional[Dict[str, Any]] = None,
    ) -> PassOutcome:
        points = []
        latency: Dict[Tuple[str, float], float] = {}
        for name, load in self.CELLS:
            with clock.unit(f"{name}@{load:g}"):
                lanes = self.run_cell(self.base, name, load)
            latency[name, load] = sum(
                r.average_latency for r in lanes
            ) / len(lanes)
            config = dataclasses.replace(
                self.base, algorithm=name, offered_load=load
            )
            for lane, (seed, result) in enumerate(zip(self.seeds, lanes)):
                points.append(Point(
                    f"{_point_id(config)}/lane{lane}",
                    dataclasses.replace(config, seed=seed),
                    result,
                ))
        ordered = (
            latency["nbc", 0.6] < latency["2pn", 0.6] < latency["ecube", 0.6]
        )
        claims = [(
            f"{self.lanes}-seed mean latency at load 0.6 ranks "
            "nbc < 2pn < ecube",
            ordered,
        )]
        return PassOutcome(points, claims)

    def probe(self) -> Tuple[SimulationConfig, bool]:
        return dataclasses.replace(self.base, offered_load=0.02), True

    def reference_points(self, outcome: PassOutcome) -> List[Point]:
        oracle = dataclasses.replace(
            self.base, backend="object", identity="strict"
        )
        points = iter(outcome.points)
        return [
            dataclasses.replace(next(points), result=result)
            for name, load in self.CELLS
            for result in self.run_cell(oracle, name, load)
        ]


class StoreCampaign(Workload):
    name = "store_campaign"
    why = (
        "campaign store: cold run of a tiny 24-point grid, 8000 puts, then "
        "open + 100%-cached run + export twice; ~80% of wall is campaigns"
    )

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        super().__init__(seed, smoke, workdir)
        self._store_ids = itertools.count()
        if smoke:
            self.bulk = 200
            grid = dict(
                algorithms=("ecube", "nbc"),
                loads=(0.3,),
                topologies=("torus:4x2",),
                traffics=(TrafficSpec("uniform"),),
                base=dict(_SMOKE_SCHEDULE),
            )
        else:
            self.bulk = 8000
            grid = dict(
                algorithms=tuple(ALGORITHM_NAMES),
                loads=(0.4,),
                topologies=("torus:4x2", "mesh:4x2"),
                traffics=(TrafficSpec("uniform"), TrafficSpec("transpose")),
                profile="tiny",
            )
        self.rounds = 2
        self.grid = CampaignSpec(name="ledger-grid", seeds=(seed,), **grid)
        # Distinct seeds make distinct records: a working set far
        # larger than a figure, read back through the same keys.
        self.served_spec = CampaignSpec(
            name="ledger-served",
            algorithms=("ecube",),
            loads=(0.2,),
            seeds=tuple(range(seed + 1000, seed + 1000 + self.bulk)),
            topologies=("torus:4x2",),
            profile="tiny",
        )

    def _fresh_path(self) -> str:
        os.makedirs(self.workdir, exist_ok=True)
        return os.path.join(
            self.workdir, f"store-{os.getpid()}-{next(self._store_ids)}.jsonl"
        )

    def setup(self) -> None:
        shapes = {}
        for config in self.grid.expand():
            key = (config.topology, config.traffic, config.algorithm)
            shapes.setdefault(key, config)
        for config in shapes.values():
            Engine(config)
        self.served_spec.expand()
        ResultStore(self._fresh_path())  # an absent file: opens empty

    def run_pass(
        self,
        clock: HostClock,
        obs_options: Optional[Dict[str, Any]] = None,
    ) -> PassOutcome:
        grid = self.grid
        if obs_options is not None:
            grid = dataclasses.replace(
                grid,
                base=dict(grid.base, obs=True, obs_options=dict(obs_options)),
            )
        served_spec = self.served_spec
        path = self._fresh_path()
        failures: List[str] = []
        try:
            # A: cold — every point is simulated and written.
            with clock.unit("cold"):
                store = ResultStore(path)
                cold = orchestrator.run_campaign(grid, store)
            if cold.simulated != cold.total:
                failures.append(
                    f"cold run simulated {cold.simulated} of {cold.total}"
                )
            # B: writes beside the reads that follow.
            template = cold.results[0]
            with clock.unit("put", simulating=False):
                for config in served_spec.expand():
                    store.put(config, template)
            # C: open the file afresh, serve the campaign, export it.
            exports = []
            hits = 0
            for _ in range(self.rounds):
                with clock.unit("serve", simulating=False):
                    fresh = ResultStore(path)
                    warm = orchestrator.run_campaign(served_spec, fresh)
                    pairs = export.collect(served_spec, fresh)
                    csv_text = io.StringIO()
                    export.write_campaign_csv(pairs, csv_text)
                    tables = export.format_campaign_tables(
                        served_spec, pairs
                    )
                hits += warm.cached
                if not warm.all_cached:
                    failures.extend(
                        ["warm lookup was not a cache hit"]
                        * (warm.total - warm.cached)
                    )
                exports.append(
                    hashlib.sha256(
                        (csv_text.getvalue() + tables).encode()
                    ).hexdigest()
                )
            if len(set(exports)) != 1:
                failures.append("exports of one store are not byte-identical")
            with clock.unit("reserve", simulating=False):
                again = orchestrator.run_campaign(grid, ResultStore(path))
            size = os.path.getsize(path)
        finally:
            if os.path.exists(path):
                os.remove(path)
        points = [
            Point(_point_id(config), config, result)
            for config, result in zip(cold.configs, cold.results)
        ]
        claims = [(
            "results served from the store equal the cold results",
            # to_dict() leaves out wall time and the observer's aggregate,
            # neither of which is a simulated result.
            again.all_cached
            and [r.to_dict() for r in again.results]
            == [r.to_dict() for r in cold.results],
        )]
        records = cold.total + self.bulk
        return PassOutcome(
            points,
            claims,
            served=self.rounds * self.bulk,
            failures=failures,
            counts={
                "records": records,
                "bytes_per_record": size / records,
                "lookups": self.rounds * self.bulk,
                "hits": hits,
            },
        )

    def probe(self) -> Tuple[SimulationConfig, bool]:
        first = self.grid.expand()[0]
        return dataclasses.replace(first, offered_load=0.02), False


class Paper16Mix(Workload):
    name = "paper16_mix"
    why = (
        "6 points on the paper's 16x16 network: hotspot, VCT, mesh, local, "
        "transpose, conservative flow control; same Engine, every other use"
    )

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        super().__init__(seed, smoke, workdir)
        if smoke:
            shape = dict(radix=4, **_SMOKE_SCHEDULE)
            radius = 1
        else:
            # A fifth of the results/run_paper16.py budget.
            shape = dict(radix=16, **_schedule(600, 240, 48))
            radius = 3
        mix: Sequence[Dict[str, Any]] = (
            dict(algorithm="ecube", traffic="hotspot",
                 traffic_options={"fraction": 0.04}, offered_load=0.3),
            dict(algorithm="2pn", traffic="uniform", switching="vct",
                 offered_load=0.5),
            dict(algorithm="nbc", traffic="local",
                 traffic_options={"radius": radius}, offered_load=0.6,
                 flow_control="conservative"),
            dict(algorithm="phop", topology="mesh", traffic="uniform",
                 offered_load=0.4),
            dict(algorithm="nlast", traffic="uniform", offered_load=0.3),
            dict(algorithm="nhop", traffic="transpose", offered_load=0.4),
        )
        self.configs = [
            SimulationConfig(seed=seed, **shape, **point) for point in mix
        ]

    def setup(self) -> None:
        for config in self.configs:
            Engine(config)

    def run_pass(
        self,
        clock: HostClock,
        obs_options: Optional[Dict[str, Any]] = None,
    ) -> PassOutcome:
        points = []
        for config in self.configs:
            with clock.unit(config.algorithm):
                result = runner.run_point(_observed(config, obs_options))
            points.append(Point(_point_id(config), config, result))
        # No figure of the paper spans these mixed points.
        return PassOutcome(points, claims=[])

    def probe(self) -> Tuple[SimulationConfig, bool]:
        return dataclasses.replace(self.configs[0], offered_load=0.02), False


WORKLOADS = {
    cls.name: cls
    for cls in (Fig3Ladder, ReplicateB32, StoreCampaign, Paper16Mix)
}


__all__ = [
    "OBS_OPTIONS",
    "PassOutcome",
    "Point",
    "WORKLOADS",
    "Workload",
]
