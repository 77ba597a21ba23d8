"""Engine speed suite: simulated cycles per second, per algorithm.

Measures every paper algorithm on an 8x8 torus (16-flit worms, seed 42)
at several operating points:

* **congested** (offered load 0.6, ideal flow control): the saturated
  regime — most virtual channels blocked, routing queues deep — where
  :class:`repro.simulator.engine.Engine`'s parking and channel arming
  decide the rate.  Every object row times ``Engine``, the one cycle
  loop; the reference stepper (``repro.simulator.reference``) is a test
  oracle and is not timed here.
* **idle** (offered load 0.02): dominated by the idle-cycle
  fast-forward path; doubles as a machine-speed calibration point for
  cross-machine comparisons.
* **congested_conservative**: the congested point under the
  conservative (snapshot-based) node model — the object-engine baseline
  that the batch backend is compared against, since batch execution
  requires conservative flow control.
* **batch_relaxed_b1 / batch_relaxed_b8 / batch_relaxed_b32**: the
  same conservative congested point run on the vectorized batch backend
  (:class:`repro.simulator.batch.BatchEngine`) with 1, 8 and 32
  lockstep seeds.  The headline figure is ``aggregate_cycles_per_sec``
  (lanes x lane-cycles per wall second); each row also records its
  speedup over the object conservative baseline measured in the same
  report.  Batch runs are statistically, not bitwise, equivalent to
  object runs (``identity="relaxed"``; see ``docs/performance.md``,
  "identity modes"), so these rows measure what the looser contract
  buys.

Every row above times a *warmed* engine, so none can see what a point
costs from construction.  Two informational rows do (top-level ``cold``
block, never gated), each from a process state with no shared route
table (:mod:`repro.routing.tables`):

* **cold_ladder**: nbc at loads 0.1 / 0.5 / 0.9, one engine after the
  other, 1 420 cycles each — three rungs of a Figure-3 ladder, where the
  second and third route from the table the first one filled.
* **cold_paper16**: one phop point on the paper's 16x16 network (mesh,
  load 0.4, 1 400 cycles) — nothing to reuse, ~10^5 candidate sets to
  derive.

Besides ``seconds`` they carry the exact counts the time is made of:
route-table entries interned, ``candidates()`` calls, and collections
per generation (``gc.get_stats()`` deltas).

A third informational block, ``batch_phases`` (never gated either),
says where a batch step's time goes: per algorithm, one extra short
pass of the B=32 congested point with a timer wrapped — from here, the
engine has no hook and no flag for it — around each of
``BatchEngine``'s phase methods (seconds and calls).

The report is written to ``BENCH_engine_speed.json`` and committed, so
the repo carries its own performance trajectory.  ``--compare BASELINE``
turns the run into a regression gate covering both backends: current
congested throughput (object rows) and batch aggregate throughput are
checked against the baseline after rescaling by the idle-point speed
ratio (so a slower CI machine does not read as a regression), and the
process exits non-zero when any gated row falls more than ``--tolerance``
below the rescaled baseline.  When the baseline was recorded on a
*different host* (the ``host`` metadata blocks differ), idle-point
calibration is the only defence and can miss cache/SIMD differences, so
the gate downgrades regressions to warnings instead of hard-failing.

Timing noise: on shared machines single runs can swing tens of percent.
``--repeats N`` times each point N times and keeps the fastest
observation — the standard best-of-N protocol for throughput
measurements, where interference only ever slows a run down.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import gc
import json
import os
import platform
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy

from repro.routing.tables import route_table, shared_table
from repro.simulator.batch import BatchEngine
from repro.simulator.config import SimulationConfig
from repro.simulator.engine import Engine

#: Measurement matrix: congested/idle/batch points per algorithm.
SPEED_ALGORITHMS = ("ecube", "nlast", "2pn", "phop", "nhop", "nbc")

CONGESTED_LOAD = 0.6
IDLE_LOAD = 0.02
WARMUP_CYCLES = 1500

#: Lockstep batch widths measured per algorithm.
BATCH_SIZES = (1, 8, 32)

#: Phases timed by the ``batch_phases`` pass and the ``BatchEngine``
#: method each one is.  The epilogue runs inside the transmit kernel
#: (reported net of it) and message completion inside ejection; what a
#: step spends outside all of them (the deferred-write flush, lane
#: counters, the watchdog) is the row's ``other_seconds``.
BATCH_PHASES = (
    ("generate", "_generate"),
    ("eject", "_eject"),
    ("route", "_route"),
    ("transmit", "_transmit_kernel"),
    ("epilogue", "_epilogue"),
)

#: Rows checked by the --compare regression gate, with the throughput
#: field each is judged on.  Object and batch backends are both gated;
#: congested batch rows are additionally held to their flit-event
#: throughput, which catches regressions that cycle rates mask (e.g. a
#: change that stalls traffic, moving fewer flits per cycle).  The
#: ideal-flow-control congested row is also held to its transmit poll
#: efficiency (flits moved per channel poll), a count ratio that falls
#: when the engine's arming rules start waking channels that cannot
#: move.  Older baselines lacking a gated field are skipped with a
#: warning.
_GATED_ROWS = (
    ("congested", "cycles_per_sec"),
    ("congested", "moves_per_poll"),
    ("congested_conservative", "cycles_per_sec"),
    ("batch_relaxed_b32", "aggregate_cycles_per_sec"),
    ("batch_relaxed_b32", "flit_events_per_sec"),
)


def host_info() -> Dict[str, object]:
    """Machine metadata making the committed report portable.

    The compare gate checks this block for equality: numbers measured
    on a different host are treated as advisory, not gating.
    """
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "numpy": numpy.__version__,
    }


def speed_config(
    algorithm: str, offered_load: float, flow_control: str = "ideal"
) -> SimulationConfig:
    """The suite's canonical network point for one algorithm."""
    return SimulationConfig(
        radix=8,
        n_dims=2,
        algorithm=algorithm,
        offered_load=offered_load,
        seed=42,
        flow_control=flow_control,
    )


def warm_engine(
    algorithm: str, offered_load: float, flow_control: str = "ideal"
) -> Engine:
    """A steady-state engine at the suite's canonical network point."""
    engine = Engine(speed_config(algorithm, offered_load, flow_control))
    engine.run_cycles(WARMUP_CYCLES)
    return engine


def _git(*args: str) -> Optional[str]:
    try:
        return subprocess.run(
            ["git", *args], capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def time_engine(
    algorithm: str,
    offered_load: float,
    cycles: int,
    repeats: int = 1,
    flow_control: str = "ideal",
) -> Dict[str, object]:
    """Time one object-engine point; best-of-*repeats* observation."""
    best: Optional[Dict[str, object]] = None
    for _ in range(max(1, repeats)):
        engine = warm_engine(algorithm, offered_load, flow_control)
        flits_before = engine.flits_moved_total
        polls_before = engine.polls_total
        start = time.perf_counter()
        engine.run_cycles(cycles)
        elapsed = time.perf_counter() - start
        flit_events = engine.flits_moved_total - flits_before
        polls = engine.polls_total - polls_before
        assert engine.conservation_check()
        run = {
            "offered_load": offered_load,
            "timed_cycles": cycles,
            "seconds": round(elapsed, 4),
            "cycles_per_sec": round(cycles / elapsed, 1),
            "flit_events": flit_events,
            "flit_events_per_sec": round(flit_events / elapsed, 1),
            "moves_per_poll": round(flit_events / polls, 4),
        }
        if best is None or run["cycles_per_sec"] > best["cycles_per_sec"]:
            best = run
    assert best is not None
    if repeats > 1:
        best["repeats"] = repeats
    return best


def warm_batch_engine(
    algorithm: str, offered_load: float, lanes: int
) -> BatchEngine:
    """A steady-state batch engine at the suite's network point.

    All lanes share one config and differ only by seed (42, 43, ...),
    matching how ``repro-sweep --backend batch`` claims seed-batches.
    """
    config = dataclasses.replace(
        speed_config(algorithm, offered_load, "conservative"),
        backend="batch",
        identity="relaxed",
    )
    engine = BatchEngine(config, [42 + lane for lane in range(lanes)])
    engine.run_cycles(WARMUP_CYCLES)
    return engine


def time_batch(
    algorithm: str,
    offered_load: float,
    cycles: int,
    lanes: int,
    repeats: int = 1,
) -> Dict[str, object]:
    """Time one lockstep batch point; best-of-*repeats* observation.

    The headline is ``aggregate_cycles_per_sec``: summed simulated
    cycles across lanes per wall second.
    """
    best: Optional[Dict[str, object]] = None
    for _ in range(max(1, repeats)):
        engine = warm_batch_engine(algorithm, offered_load, lanes)
        flits_before = sum(
            lane.flits_moved_total for lane in engine.lanes
        )
        start = time.perf_counter()
        engine.run_cycles(cycles)
        elapsed = time.perf_counter() - start
        flit_events = (
            sum(lane.flits_moved_total for lane in engine.lanes)
            - flits_before
        )
        assert all(
            engine.conservation_check(index) for index in range(lanes)
        )
        run = {
            "offered_load": offered_load,
            "lanes": lanes,
            "identity": "relaxed",
            "timed_cycles": cycles,
            "seconds": round(elapsed, 4),
            "lane_cycles_per_sec": round(cycles / elapsed, 1),
            "aggregate_cycles_per_sec": round(
                lanes * cycles / elapsed, 1
            ),
            "flit_events": flit_events,
            "flit_events_per_sec": round(flit_events / elapsed, 1),
        }
        if (
            best is None
            or run["aggregate_cycles_per_sec"]
            > best["aggregate_cycles_per_sec"]
        ):
            best = run
    assert best is not None
    if repeats > 1:
        best["repeats"] = repeats
    return best


def time_batch_phases(
    algorithm: str, offered_load: float, cycles: int, lanes: int
) -> Dict[str, object]:
    """Where one batch point's step time goes, phase by phase.

    The timers are instance attributes shadowing the engine's phase
    methods for this one pass (a few hundred timer calls per thousand
    steps: well under 1% of a B=32 step).
    """
    engine = warm_batch_engine(algorithm, offered_load, lanes)
    totals: Dict[str, List[float]] = {
        name: [0.0, 0] for name, _method in BATCH_PHASES
    }

    def timed(name: str, method: str) -> Callable[..., object]:
        inner = getattr(engine, method)
        total = totals[name]

        def phase(*args: object) -> object:
            start = time.perf_counter()
            result = inner(*args)
            total[0] += time.perf_counter() - start
            total[1] += 1
            return result

        return phase

    for name, method in BATCH_PHASES:
        setattr(engine, method, timed(name, method))
    start = time.perf_counter()
    engine.run_cycles(cycles)
    elapsed = time.perf_counter() - start
    totals["transmit"][0] -= totals["epilogue"][0]
    return {
        "offered_load": offered_load,
        "lanes": lanes,
        "timed_cycles": cycles,
        "seconds": round(elapsed, 4),
        "other_seconds": round(
            elapsed - sum(total[0] for total in totals.values()), 4
        ),
        "phases": {
            name: {"seconds": round(seconds, 4), "calls": int(calls)}
            for name, (seconds, calls) in totals.items()
        },
    }


#: Cold rows: (name, cycles per point, the points in running order).
COLD_POINTS: Tuple[Tuple[str, int, Tuple[SimulationConfig, ...]], ...] = (
    (
        "cold_ladder",
        1420,
        tuple(speed_config("nbc", load) for load in (0.1, 0.5, 0.9)),
    ),
    (
        "cold_paper16",
        1400,
        (
            SimulationConfig(
                radix=16, n_dims=2, topology="mesh", algorithm="phop",
                offered_load=0.4, seed=42,
            ),
        ),
    ),
)


def time_cold(
    configs: Sequence[SimulationConfig], cycles: int, repeats: int = 1
) -> Dict[str, object]:
    """Time points of one algorithm from construction, back to back,
    starting without any shared route table; fastest of *repeats* (the
    counts repeat exactly).

    ``candidates()`` is counted on the algorithm's class — the table
    routes with an instance of its own, which no engine attribute leads
    to — at one extra Python call per ``candidates()`` call, inside the
    timed region (well under 1% of either row).
    """
    first = configs[0]
    algorithm_class = type(first.build_algorithm(first.build_topology()))
    inherited = "candidates" not in vars(algorithm_class)
    candidates = algorithm_class.candidates
    calls = 0

    def counted(self: object, state: object, current: int, dst: int) -> object:
        nonlocal calls
        calls += 1
        return candidates(self, state, current, dst)

    best: Optional[Dict[str, object]] = None
    for _ in range(max(1, repeats)):
        shared_table.cache_clear()
        calls = 0
        setattr(algorithm_class, "candidates", counted)
        try:
            collected = [gen["collections"] for gen in gc.get_stats()]
            start = time.perf_counter()
            for config in configs:
                engine = Engine(config)
                engine.run_cycles(cycles)
            elapsed = time.perf_counter() - start
            collected = [
                gen["collections"] - before
                for gen, before in zip(gc.get_stats(), collected)
            ]
        finally:
            if inherited:
                delattr(algorithm_class, "candidates")
            else:
                setattr(algorithm_class, "candidates", candidates)
        assert engine.conservation_check()
        run = {
            "points": len(configs),
            "timed_cycles": cycles * len(configs),
            "seconds": round(elapsed, 4),
            "entries_interned": len(
                route_table(engine.algorithm, first.algorithm).entries
            ),
            "candidates_calls": calls,
            "gc_collections": collected,
        }
        if best is None or run["seconds"] < best["seconds"]:
            best = run
    assert best is not None
    if repeats > 1:
        best["repeats"] = repeats
    return best


def run_speed_suite(
    quick: bool = False, repeats: int = 1
) -> Dict[str, object]:
    """Measure every algorithm; return the JSON-ready report."""
    cycles = 600 if quick else 3000
    engines: Dict[str, Dict[str, object]] = {}
    report: Dict[str, object] = {
        "benchmark": "bench_engine_speed",
        "schema_version": 8,
        "quick": quick,
        "timestamp_utc": datetime.datetime.now(
            datetime.timezone.utc
        ).isoformat(timespec="seconds"),
        # A report cannot name the commit that will contain it: git_sha
        # is HEAD, and git_dirty says whether the measured tree had
        # moved on from it (a baseline regenerated inside the change it
        # measures reads dirty on its parent's sha).
        "git_sha": _git("rev-parse", "HEAD") or "unknown",
        "git_dirty": bool(_git("status", "--porcelain", "--", "src")),
        "host": host_info(),
        "network": "8x8 torus, 16-flit worms, seed 42",
        "engines": engines,
        # First, before the warmed rows leave their garbage to collect.
        # The same size in --quick: a shorter window would intern other
        # counts, and the counts are what these rows are read for.
        "cold": {
            name: time_cold(configs, cold_cycles, repeats)
            for name, cold_cycles, configs in COLD_POINTS
        },
    }
    for algorithm in SPEED_ALGORITHMS:
        rows: Dict[str, object] = {
            "congested": time_engine(
                algorithm, CONGESTED_LOAD, cycles, repeats
            ),
            # Idle windows are long (the fast-forward path makes them
            # cheap) so the calibration point is well averaged.
            "idle": time_engine(
                algorithm, IDLE_LOAD, cycles * 5, repeats
            ),
            "congested_conservative": time_engine(
                algorithm,
                CONGESTED_LOAD,
                cycles,
                repeats,
                flow_control="conservative",
            ),
        }
        object_rate = rows["congested_conservative"]["cycles_per_sec"]
        for lanes in BATCH_SIZES:
            row = time_batch(
                algorithm, CONGESTED_LOAD, cycles, lanes, repeats
            )
            # Speedup over the object engine running the same
            # conservative congested point, one seed at a time.
            row["speedup_vs_object"] = round(
                row["aggregate_cycles_per_sec"] / object_rate, 2
            )
            rows[f"batch_relaxed_b{lanes}"] = row
        engines[algorithm] = rows
    report["batch_phases"] = {
        algorithm: time_batch_phases(
            algorithm, CONGESTED_LOAD, cycles // 5, BATCH_SIZES[-1]
        )
        for algorithm in SPEED_ALGORITHMS
    }
    return report


# ----------------------------------------------------------------------
# baseline comparison (the CI regression gate)
# ----------------------------------------------------------------------


def _idle_scale(
    current: Dict[str, object], baseline: Dict[str, object]
) -> Tuple[float, int]:
    """Machine-speed ratio current/baseline from the idle points.

    The idle rows measure the same code on both sides, so their ratio
    is dominated by machine speed, not by engine changes under test.
    The median across algorithms resists a single noisy row.  Falls
    back to 1.0 (strict same-machine comparison) when the baseline
    predates per-algorithm idle rows and shares no idle points.
    """
    ratios: List[float] = []
    baseline_engines = baseline.get("engines", {})
    for algorithm, runs in current.get("engines", {}).items():
        base_runs = baseline_engines.get(algorithm, {})
        cur_idle = runs.get("idle")
        base_idle = base_runs.get("idle")
        if cur_idle and base_idle:
            ratios.append(
                cur_idle["cycles_per_sec"] / base_idle["cycles_per_sec"]
            )
    if not ratios:
        return 1.0, 0
    ratios.sort()
    mid = len(ratios) // 2
    if len(ratios) % 2:
        return ratios[mid], len(ratios)
    return (ratios[mid - 1] + ratios[mid]) / 2, len(ratios)


def compare_reports(
    current: Dict[str, object],
    baseline: Dict[str, object],
    tolerance: float,
) -> Tuple[bool, List[str]]:
    """Gate current throughput against a committed baseline.

    Returns (ok, report lines).  A gated row (object congested rows by
    ``cycles_per_sec``, batch rows by ``aggregate_cycles_per_sec``)
    fails when it falls below ``baseline * machine_scale *
    (1 - tolerance)``; ``moves_per_poll`` is held to the unscaled
    baseline; the ``cold`` and ``batch_phases`` rows are listed, never
    judged.  When the
    baseline's ``host`` metadata differs from this machine's, every
    would-be failure is downgraded to a warning: idle-point rescaling
    corrects for raw speed but not for cache-hierarchy or SIMD
    differences between hosts, so a committed baseline only hard-gates
    the machine that produced it.
    """
    scale, calibration_points = _idle_scale(current, baseline)
    same_host = current.get("host") == baseline.get("host")
    lines = [
        f"machine-speed scale (idle median over "
        f"{calibration_points} pts): {scale:.3f}",
        f"tolerance: -{tolerance:.0%} vs scaled baseline",
    ]
    if not same_host:
        lines.append(
            "baseline host differs from this machine — regressions "
            "reported as warnings, not failures"
        )
    ok = True
    baseline_engines = baseline.get("engines", {})
    compared = 0
    for algorithm, runs in current.get("engines", {}).items():
        base_runs = baseline_engines.get(algorithm, {})
        for row_name, field in _GATED_ROWS:
            cur = runs.get(row_name)
            base = base_runs.get(row_name)
            if not cur:
                continue
            if not base:
                lines.append(
                    f"{algorithm:6s} {row_name:22s} (no baseline row)"
                )
                continue
            base_value = base.get(field)
            cur_value = cur.get(field)
            if base_value is None or cur_value is None:
                # A row from an older schema can exist without the
                # gated field; skip with a warning instead of failing —
                # regenerating the baseline upgrades it.
                side = "baseline" if base_value is None else "current"
                lines.append(
                    f"{algorithm:6s} {row_name:22s} "
                    f"({side} row lacks {field!r})"
                )
                continue
            compared += 1
            if field == "moves_per_poll":
                # A ratio of counts, the same on every machine.
                expected, unit, digits = base_value, "moves/poll", 3
            else:
                expected, digits = base_value * scale, 0
                unit = (
                    "flit-ev/s" if field == "flit_events_per_sec"
                    else "cyc/s"
                )
            floor = expected * (1.0 - tolerance)
            ratio = cur_value / expected
            if cur_value >= floor:
                status = "ok"
            elif same_host:
                status = "REGRESSION"
                ok = False
            else:
                status = "WARN (host differs)"
            lines.append(
                f"{algorithm:6s} {row_name:22s} "
                f"{cur_value:>9.{digits}f} {unit} vs expected "
                f"{expected:>9.{digits}f} ({ratio:6.2f}x)  {status}"
            )
    if compared == 0:
        ok = False
        lines.append("no comparable gated rows — failing the gate")
    # The cold rows are informational: listed beside the baseline's,
    # never part of the verdict, and skipped with a warning when the
    # baseline predates them (schema < 7).
    baseline_cold = baseline.get("cold", {})
    for name, cur in current.get("cold", {}).items():
        base = baseline_cold.get(name)
        if not base:
            lines.append(
                f"{'cold':6s} {name:22s} "
                "(baseline lacks the cold rows; not compared)"
            )
            continue
        lines.append(
            f"{'cold':6s} {name:22s} {cur['seconds']:>9.2f} s vs "
            f"{base['seconds'] / scale:>9.2f} s scaled baseline, "
            f"{cur['candidates_calls']} vs {base['candidates_calls']} "
            "candidates() calls  (info)"
        )
    # So is the batch phase split (schema >= 8).
    baseline_phases = baseline.get("batch_phases", {})
    for algorithm, cur in current.get("batch_phases", {}).items():
        base = baseline_phases.get(algorithm)
        if not base:
            lines.append(
                f"{algorithm:6s} {'batch_phases':22s} "
                "(baseline lacks the batch phase rows; not compared)"
            )
            continue
        lines.append(
            f"{algorithm:6s} {'batch_phases':22s} "
            + _phase_line(cur, base, scale)
            + "  (info)"
        )
    return ok, lines


def _phase_line(
    row: Dict[str, object],
    base: Optional[Dict[str, object]] = None,
    scale: float = 1.0,
) -> str:
    """``phase ms/step`` pairs of one ``batch_phases`` row, each beside
    the scaled baseline's when *base* is given."""
    parts = []
    for name, phase in row["phases"].items():
        text = f"{name} {1e3 * phase['seconds'] / row['timed_cycles']:.2f}"
        if base is not None and name in base["phases"]:
            per_step = base["phases"][name]["seconds"] / base["timed_cycles"]
            text += f" ({1e3 * per_step / scale:.2f})"
        parts.append(text)
    other = 1e3 * row["other_seconds"] / row["timed_cycles"]
    return " ".join(parts) + f" other {other:.2f} ms/step"


def print_report(report: Dict[str, object]) -> None:
    for name, data in report["cold"].items():
        young, middle, full = data["gc_collections"]
        print(
            f"{'cold':6s} {name:22s} {data['seconds']:>10.2f} s      "
            f"{data['entries_interned']:>12d} entries  "
            f"{data['candidates_calls']} candidates()  "
            f"gc {young}/{middle}/{full}"
        )
    for algorithm, runs in report["engines"].items():
        for point, data in runs.items():
            if "aggregate_cycles_per_sec" in data:
                rate = data["aggregate_cycles_per_sec"]
                extra = f"{data['speedup_vs_object']:>6.2f}x vs object"
            else:
                rate = data["cycles_per_sec"]
                extra = (
                    f"{data['flit_events_per_sec']:>12.0f} flit-ev/s  "
                    f"{data['moves_per_poll']:.2f} moves/poll"
                )
            print(
                f"{algorithm:6s} {point:22s} {rate:>10.0f} cyc/s  {extra}"
            )
    for algorithm, row in report["batch_phases"].items():
        print(f"{algorithm:6s} {'batch_phases':22s} {_phase_line(row)}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Time the engine and write BENCH_engine_speed.json",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shorter timed windows (CI smoke mode)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=1,
        metavar="N",
        help="time each point N times, keep the fastest (default 1)",
    )
    parser.add_argument(
        "--output",
        default="BENCH_engine_speed.json",
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--compare",
        metavar="BASELINE",
        help="compare throughput against a baseline JSON report; exit "
        "1 on same-host regression beyond --tolerance (a baseline from "
        "a different host only warns)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.2,
        help="allowed fractional throughput drop vs the scaled "
        "baseline (default 0.2)",
    )
    args = parser.parse_args(argv)
    report = run_speed_suite(quick=args.quick, repeats=args.repeats)
    with open(args.output, "w") as stream:
        json.dump(report, stream, indent=2, sort_keys=True)
        stream.write("\n")
    print_report(report)
    print(f"wrote {args.output}")
    if args.compare:
        with open(args.compare) as stream:
            baseline = json.load(stream)
        ok, lines = compare_reports(report, baseline, args.tolerance)
        print(f"--- compare vs {args.compare} ---")
        for line in lines:
            print(line)
        if not ok:
            print("perf gate: FAIL")
            return 1
        print("perf gate: ok")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
