"""The ledger's metrics: names, units, directions, bounds, and — for
every per-layer metric — the end-to-end metric it should move and the
workload it should move it on.  ``BENCHMARK.json`` is :func:`contract`
of these tables, and ``test_ledger.py`` holds the two to each other.

Host times are seconds at reference host speed (see ``clock.py``).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

WORKLOAD_NAMES = (
    "fig3_ladder",
    "replicate_b32",
    "store_campaign",
    "paper16_mix",
)

#: Seconds one driver run measures for.
RUN_SECONDS = 27

#: Bound of the host-time metrics: the largest the contract allows.
#: On a quiet host ten runs of this commit, each on another seed, spread
#: (interquartile range over median) by 2.3% to 3.9% on every workload.
#: But about a tenth of the time the sandbox goes through minutes-long
#: episodes in which everything but the clock's kernel runs a fifth
#: slower; ten runs that caught one spread by up to 10.4%, and a set of
#: runs taken inside one would shift its median by as much as the
#: episode.  A tighter bound would reject changes for the host's mood.
#: ``compare``'s pairs rule, on alternating runs, is the finer tool.
TIMED = 0.25

#: A bound of "none at all": invariants hold on every seed, so
#: ``passed_share`` is 1.0 at this commit and a single failed point or
#: lookup (at least 1/20000 of a share) exceeds this.
EXACT = 1e-6

#: Bound of the two fidelity shares.  For a fixed seed they repeat
#: exactly, and for the committed seeds 101 and 202 they are 1.0.  Over
#: arbitrary seeds they are statistics of short runs: about 1 seed in 25
#: breaks one Figure-3 claim (e-cube's and nlast's peaks are within 10%
#: of each other) or leaves a 4x4 transpose point outside its band.  5%
#: lets two such seeds in ten pass and still fails a change that breaks
#: one claim (1/6) or two points in thirty on every seed.
FIDELITY = 0.05


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    definition: str


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    #: End-to-end metric this one should move ("-": informational).
    moves: str
    #: Workload(s) it should move it on.
    on: str
    #: Measured by a micro-call in the traced run, not from its spans.
    probe: bool = False


END_TO_END: List[EndToEnd] = [
    EndToEnd("wall_s", "s", "lower", TIMED,
             "one pass of the workload, set-up excluded; median of the "
             "run's passes"),
    EndToEnd("setup_s", "s", "lower", 0.25,
             "a fresh process from spawn to ready: interpreter, imports, "
             "one construction of every distinct topology / algorithm / "
             "traffic / engine / store the workload uses; median over the "
             "run's pass processes"),
    EndToEnd("sim_cycles_per_s", "cyc/s", "higher", TIMED,
             "simulated lane-cycles per host second spent simulating"),
    EndToEnd("sampled_flits_per_s", "flit/s", "higher", TIMED,
             "flit moves in the sampled windows (sum of vc_class_usage) "
             "per host second spent simulating"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10,
             "ru_maxrss of the measuring process and its children"),
    EndToEnd("passed_share", "share", "higher", EXACT,
             "1 - failed/attempted over points, store lookups and the "
             "zero-load probe"),
    EndToEnd("ref_match_share", "share", "higher", FIDELITY,
             "points within 10% of the committed object-engine reference "
             "(own seed) or inside the committed cross-seed band"),
    EndToEnd("paper_claims_held", "share", "higher", FIDELITY,
             "share of the artifact's paper-level claims that held"),
]

_ENGINE = "fig3_ladder, paper16_mix"


def _phase(name: str) -> List[Layer]:
    base = f"simulator.engine.phase.{name}"
    return [
        Layer(f"{base}_s", "s", "lower", "sim_cycles_per_s", _ENGINE),
        Layer(f"{base}_calls", "count", "lower", "sim_cycles_per_s", _ENGINE),
    ]


PER_LAYER: List[Layer] = [
    Layer("topology.build_s", "s", "lower", "setup_s",
          "paper16_mix, store_campaign"),
    Layer("topology.builds", "count", "lower", "wall_s", "store_campaign"),
    Layer("routing.build_s", "s", "lower", "setup_s",
          "paper16_mix, store_campaign"),
    Layer("routing.builds", "count", "lower", "wall_s", "store_campaign"),
    Layer("traffic.build_s", "s", "lower", "setup_s",
          "paper16_mix, store_campaign"),
    Layer("routing.candidates_per_s", "1/s", "higher",
          "sim_cycles_per_s", "fig3_ladder", probe=True),
    Layer("routing.cached_candidates_per_s", "1/s", "higher",
          "sim_cycles_per_s", "fig3_ladder", probe=True),
    Layer("routing.tables.intern_s", "s", "lower", "wall_s",
          "replicate_b32", probe=True),
    Layer("routing.tables.rows", "count", "lower", "wall_s",
          "replicate_b32", probe=True),
    Layer("traffic.dest_draws_per_s", "1/s", "higher",
          "sim_cycles_per_s", "replicate_b32", probe=True),
    Layer("traffic.gap_draws_per_s", "1/s", "higher",
          "sim_cycles_per_s", "replicate_b32", probe=True),
    # Simulated statistics: a pure speed-up moves none of them.
    Layer("network.flits_moved", "count", "higher", "ref_match_share",
          "every workload"),
    Layer("network.blocked_waits", "count", "lower", "ref_match_share",
          _ENGINE),
    Layer("network.blocked_share", "share", "lower", "ref_match_share",
          _ENGINE),
    Layer("network.in_flight_mean", "count", "lower", "ref_match_share",
          _ENGINE),
    Layer("network.route_queue_mean", "count", "lower", "ref_match_share",
          _ENGINE),
    Layer("network.vc_max_share", "share", "lower", "ref_match_share",
          "every workload"),
    Layer("simulator.engine.construct_s", "s", "lower", "wall_s",
          "store_campaign, paper16_mix"),
    Layer("simulator.engine.constructs", "count", "lower", "wall_s",
          "store_campaign"),
    Layer("simulator.engine.run_s", "s", "lower", "sim_cycles_per_s",
          _ENGINE),
    Layer("simulator.engine.cycles", "count", "higher", "sim_cycles_per_s",
          _ENGINE),
    Layer("simulator.engine.us_per_cycle", "us", "lower",
          "sim_cycles_per_s", _ENGINE),
    Layer("simulator.engine.us_per_flit", "us", "lower",
          "sampled_flits_per_s", _ENGINE),
    Layer("simulator.engine.ff_cycle_share", "share", "higher",
          "sim_cycles_per_s", "fig3_ladder"),
    Layer("simulator.engine.deadlocks", "count", "lower", "passed_share",
          _ENGINE),
    Layer("simulator.engine.wall_share", "share", "higher", "wall_s",
          _ENGINE),
    *_phase("generation"),
    *_phase("ejection"),
    *_phase("routing"),
    *_phase("transmission"),
    *_phase("observe"),
    Layer("simulator.batch.construct_s", "s", "lower", "wall_s",
          "replicate_b32"),
    Layer("simulator.batch.run_s", "s", "lower", "sim_cycles_per_s",
          "replicate_b32"),
    Layer("simulator.batch.lane_cycles", "count", "higher",
          "sim_cycles_per_s", "replicate_b32"),
    Layer("simulator.batch.us_per_step", "us", "lower", "sim_cycles_per_s",
          "replicate_b32"),
    Layer("simulator.batch.us_per_lane_cycle", "us", "lower",
          "sim_cycles_per_s", "replicate_b32"),
    Layer("simulator.batch.us_per_flit", "us", "lower",
          "sampled_flits_per_s", "replicate_b32"),
    Layer("simulator.batch.lane_failures", "count", "lower", "passed_share",
          "replicate_b32"),
    Layer("simulator.batch.wall_share", "share", "higher", "wall_s",
          "replicate_b32"),
    Layer("simulator.batch.dispatch_floor_us", "us", "lower",
          "sim_cycles_per_s", "replicate_b32", probe=True),
    Layer("stats.summarize_s", "s", "lower", "wall_s",
          "replicate_b32, fig3_ladder"),
    Layer("stats.convergence_s", "s", "lower", "wall_s",
          "replicate_b32, fig3_ladder"),
    Layer("stats.samples_used", "count", "lower", "wall_s", "fig3_ladder"),
    Layer("stats.unconverged_points", "count", "lower", "ref_match_share",
          "fig3_ladder"),
    Layer("experiments.runner.points", "count", "higher", "wall_s",
          "fig3_ladder, store_campaign"),
    Layer("experiments.runner.overhead_s", "s", "lower", "wall_s",
          "fig3_ladder, store_campaign"),
    Layer("experiments.runner.point_wall_p50_s", "s", "lower", "wall_s",
          "fig3_ladder"),
    Layer("experiments.runner.point_wall_p80_s", "s", "lower", "wall_s",
          "fig3_ladder"),
    Layer("experiments.parallel.self_s", "s", "lower", "wall_s",
          "fig3_ladder, store_campaign"),
    Layer("experiments.parallel.pool2_speedup", "ratio", "higher", "-",
          "-", probe=True),
    Layer("campaigns.spec.expand_s", "s", "lower", "wall_s",
          "store_campaign"),
    Layer("campaigns.store.open_s", "s", "lower", "wall_s",
          "store_campaign"),
    Layer("campaigns.store.open_records_per_s", "1/s", "higher", "wall_s",
          "store_campaign"),
    Layer("campaigns.store.put_us", "us", "lower", "wall_s",
          "store_campaign"),
    Layer("campaigns.store.get_us", "us", "lower", "wall_s",
          "store_campaign"),
    Layer("campaigns.store.bytes_per_record", "B", "lower", "peak_rss_mb",
          "store_campaign"),
    Layer("campaigns.store.hit_share", "share", "higher", "passed_share",
          "store_campaign"),
    Layer("campaigns.orchestrator.self_s", "s", "lower", "wall_s",
          "store_campaign"),
    Layer("campaigns.export.collect_s", "s", "lower", "wall_s",
          "store_campaign"),
    Layer("campaigns.export.csv_s", "s", "lower", "wall_s",
          "store_campaign"),
    Layer("campaigns.export.tables_s", "s", "lower", "wall_s",
          "store_campaign"),
    Layer("campaigns.wall_share", "share", "higher", "wall_s",
          "store_campaign"),
    Layer("analysis.verify.battery_s", "s", "lower", "-", "-", probe=True),
    Layer("analysis.verify.checks", "count", "higher", "-", "-", probe=True),
    Layer("analysis.verify.failed", "count", "lower", "-", "-", probe=True),
    Layer("obs.profile_overhead_share", "share", "lower", "wall_s", _ENGINE),
    Layer("trace.overhead_share", "share", "lower", "-", "-"),
    Layer("trace.spans", "count", "lower", "-", "-"),
    Layer("trace.coverage_share", "share", "higher", "-", "-"),
    Layer("ledger.exact_drift_points", "count", "lower", "ref_match_share",
          "every workload"),
    Layer("ledger.ref_points_checked", "count", "higher", "ref_match_share",
          "every workload"),
    Layer("ledger.host_slowness", "ratio", "lower", "-", "-"),
]


def contract(workload_whys: Dict[str, str]) -> Dict[str, object]:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": workload_whys[name]}
            for name in WORKLOAD_NAMES
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


__all__ = [
    "END_TO_END",
    "EXACT",
    "FIDELITY",
    "EndToEnd",
    "Layer",
    "PER_LAYER",
    "RUN_SECONDS",
    "TIMED",
    "WORKLOAD_NAMES",
    "contract",
]
