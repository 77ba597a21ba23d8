"""Command-line interface: ``repro-obs``.

Verbs::

    repro-obs run --algorithm nbc --load 0.5 --radix 6 --out obs-out/
        Run one simulation point with full observability and export the
        artifact set (trace, probe series, heatmaps, metrics).

    repro-obs trace obs-out/<point>.trace.ndjson
        Validate a trace file against the repro.obs.trace schema and
        print per-event-type counts.

    repro-obs heatmap obs-out/<point>.heatmap.csv --metric blocked
        Rank the hottest links of an exported heatmap.

    repro-obs profile --algorithm 2pn --load 0.6 --cycles 20000
        Time the engine phases over a fixed-length run and print the
        per-phase wall-clock table.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import List, Optional

from repro.obs.observer import ObsConfig, Observer
from repro.obs.trace import validate_trace_lines
from repro.simulator.config import SimulationConfig
from repro.simulator.engine import Engine
from repro.util.errors import ReproError


def _add_point_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--algorithm", default="ecube")
    parser.add_argument("--traffic", default="uniform")
    parser.add_argument("--load", type=float, default=0.4)
    parser.add_argument("--radix", type=int, default=8)
    parser.add_argument("--dims", type=int, default=2)
    parser.add_argument("--topology", default="torus",
                        choices=("torus", "mesh"))
    parser.add_argument("--switching", default="wormhole",
                        choices=("wormhole", "vct", "saf"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--profile",
        default="quick",
        help=(
            "run profile controlling the sampling schedule "
            "(default quick; geometry always comes from --radix/--dims)"
        ),
    )


def _point_config(args: argparse.Namespace) -> SimulationConfig:
    import dataclasses

    from repro.experiments.profiles import apply_profile

    # The profile contributes only its sampling schedule here: the
    # explicit point flags (geometry, algorithm, load, ...) always win.
    config = apply_profile(SimulationConfig(), args.profile)
    return dataclasses.replace(
        config,
        radix=args.radix,
        n_dims=args.dims,
        topology=args.topology,
        algorithm=args.algorithm,
        switching=args.switching,
        traffic=args.traffic,
        offered_load=args.load,
        seed=args.seed,
    )


def _parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description="Observability tooling for the simulation engine.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    run = sub.add_parser(
        "run", help="run one point with full observability"
    )
    _add_point_arguments(run)
    run.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="export the artifact files into DIR",
    )
    run.add_argument("--stride", type=int, default=32)
    run.add_argument(
        "--trace-flits",
        action="store_true",
        help="also trace individual flit arrivals (high volume)",
    )
    run.add_argument(
        "--trace-limit",
        type=int,
        default=50_000,
        help="retained trace events before dropping (default 50000)",
    )

    trace = sub.add_parser(
        "trace", help="validate a trace file and count its events"
    )
    trace.add_argument("path", help="a .trace.ndjson file")

    heatmap = sub.add_parser(
        "heatmap", help="rank the hottest links of an exported heatmap"
    )
    heatmap.add_argument("path", help="a .heatmap.csv file")
    heatmap.add_argument(
        "--metric", default="blocked", choices=("carried", "blocked")
    )
    heatmap.add_argument("--top", type=int, default=10)

    profile = sub.add_parser(
        "profile", help="time the engine phases over a fixed run"
    )
    _add_point_arguments(profile)
    profile.add_argument(
        "--cycles",
        type=int,
        default=20_000,
        help="cycles to simulate (default 20000)",
    )

    return parser.parse_args(argv)


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.runner import obs_export_prefix, run_point

    config = _point_config(args)
    obs_config = ObsConfig(
        stride=args.stride,
        trace_flits=args.trace_flits,
        trace_limit=args.trace_limit,
        export_dir=args.out,
    )
    engine = Engine(config)
    observer = Observer(obs_config)
    engine.attach_observer(observer)
    result = run_point(config, engine=engine)

    print(result)
    print()
    metrics = result.obs_metrics or observer.metrics_summary()
    print(json.dumps(metrics, indent=2))
    if observer.heatmap is not None:
        print()
        print(observer.heatmap.ascii("blocked"))
    if observer.profiler is not None:
        print()
        print(observer.profiler.format_table())
    if args.out is not None:
        prefix = obs_export_prefix(config)
        print(f"\nartifacts: {args.out}/{prefix}.*")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    with open(args.path) as stream:
        lines = stream.readlines()
    try:
        counts = validate_trace_lines(lines)
    except ValueError as error:
        print(f"INVALID trace: {error}", file=sys.stderr)
        return 1
    total = sum(counts.values())
    print(f"valid trace: {total} events")
    for event, count in sorted(counts.items()):
        print(f"  {event:<14} {count}")
    return 0


def _cmd_heatmap(args: argparse.Namespace) -> int:
    column = (
        "flits_carried" if args.metric == "carried" else "blocked_waits"
    )
    with open(args.path, newline="") as stream:
        rows = list(csv.DictReader(stream))
    if not rows:
        print("empty heatmap file", file=sys.stderr)
        return 1
    missing = {"link", "src", "dst", "dim", "direction", column} - set(rows[0])
    if missing:
        names = ", ".join(sorted(missing))
        print(f"INVALID heatmap: no {names} column", file=sys.stderr)
        return 1
    rows.sort(key=lambda row: int(row[column]), reverse=True)
    print(f"top {min(args.top, len(rows))} links by {column}:")
    for row in rows[: args.top]:
        print(
            f"  link {int(row['link']):4d} "
            f"{row['src']}->{row['dst']} dim={row['dim']} "
            f"dir={row['direction']}: {row[column]}"
        )
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    config = _point_config(args)
    engine = Engine(config)
    observer = Observer(
        ObsConfig(trace=False, heatmap=False, vectors=False)
    )
    engine.attach_observer(observer)
    engine.run_cycles(args.cycles)
    print(
        f"{config.label()} — {args.cycles} cycles, "
        f"{engine.delivered_total} messages delivered"
    )
    assert observer.profiler is not None
    print(observer.profiler.format_table())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "trace": _cmd_trace,
        "heatmap": _cmd_heatmap,
        "profile": _cmd_profile,
    }
    try:
        return handlers[args.verb](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:  # an unreadable input, an unwritable --out
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
