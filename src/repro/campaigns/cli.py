"""Command-line interface: ``repro-campaign``.

Subcommands::

    repro-campaign run --figure 3 --profile quick --tables --check
    repro-campaign run spec.json --store results/store.jsonl --jobs 8
    repro-campaign run --algorithms ecube,nbc --loads 0.2,0.4 --seeds 1,2 \\
                       --set flow_control=conservative --set backend=batch
    repro-campaign status --store store.jsonl [spec.json | --figure N | axis flags]
    repro-campaign gc --store store.jsonl [--purge-sidecars]
                      [--max-age-days D] [--max-size-mb M]
    repro-campaign export spec.json --store store.jsonl --csv out.csv

This is the one place flags become a grid.  ``run``, ``status`` and
``export`` name their campaign the same way: a spec file, ``--figure N``
(a paper artifact's built-in spec) or neither (every algorithm over the
paper's load ladder, uniform traffic) gives the starting grid, and the
axis flags ``--algorithms`` / ``--loads`` / ``--seeds`` / ``--traffic``
and ``--set FIELD=VALUE`` (any other :class:`SimulationConfig` field)
replace parts of it.  Everything is validated before a point simulates.

``run`` simulates only the points the store has never seen (a repeated
campaign is 100% cache hits and performs zero engine invocations);
``status`` reports store contents and a campaign's cache coverage;
``export`` regenerates CSVs and paper-style tables straight from the
store, without simulating anything.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.campaigns.export import (
    IncompleteCampaignError,
    collect,
    format_campaign_tables,
    grid_series,
    write_campaign_csv,
)
from repro.campaigns.orchestrator import run_campaign
from repro.campaigns.spec import CampaignSpec, TrafficSpec
from repro.campaigns.store import ResultStore
from repro.experiments import paper_figures
from repro.experiments.profiles import PROFILES
from repro.simulator.config import SimulationConfig
from repro.stats.summary import SimulationResult
from repro.util.errors import ConfigurationError, ReproError

_T = TypeVar("_T")

#: Default store file: one shared store in the working directory, so
#: every campaign run from the same place memoizes into the same pool.
DEFAULT_STORE = "campaign-store.jsonl"


def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "spec",
        nargs="?",
        default=None,
        metavar="SPEC.json",
        help="campaign spec file (see docs/campaigns.md for the format)",
    )
    parser.add_argument(
        "--figure",
        choices=sorted(paper_figures.FIGURE_GRIDS),
        default=None,
        help="start from the built-in spec of a paper artifact "
             "(3, 4, 5, or vct) instead of a spec file",
    )
    parser.add_argument(
        "--profile",
        choices=sorted(PROFILES),
        default="scaled",
        help="run profile of --figure and flag-built grids (default: "
             "scaled; a spec file names its own)",
    )
    parser.add_argument(
        "--algorithms", default=None, metavar="A1,A2,...",
        help="comma-separated algorithm names replacing the grid's",
    )
    parser.add_argument(
        "--loads", default=None, metavar="L1,L2,...",
        help="comma-separated offered loads replacing the grid's "
             "(default without a spec: the paper's ladder)",
    )
    parser.add_argument(
        "--seeds", default=None, metavar="S1,S2,...",
        help="comma-separated seeds: every (algorithm, load) point runs "
             "once per seed (spread them over cores with --jobs, or run "
             "them in lockstep with --set backend=batch)",
    )
    parser.add_argument(
        "--traffic", default=None, metavar="PATTERN",
        help="traffic pattern (default options) replacing the grid's",
    )
    parser.add_argument(
        "--set", action="append", default=[], metavar="FIELD=VALUE",
        help="override a SimulationConfig field shared by every point "
             "(repeatable; VALUE is JSON, else a string), e.g. --set "
             "switching=vct, --set obs=true --set "
             "'obs_options={\"export_dir\": \"obs/\"}', or --set "
             "flow_control=conservative --set backend=batch (the "
             "vectorized lockstep path: statistically, not bitwise, "
             "equivalent; see docs/performance.md)",
    )


def _add_store_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        default=DEFAULT_STORE,
        metavar="PATH",
        help=f"content-addressed result store file "
             f"(default: {DEFAULT_STORE})",
    )


def _add_output_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--csv", default=None, metavar="PATH",
        help="write the campaign's results to this CSV file",
    )
    parser.add_argument(
        "--tables", action="store_true",
        help="print the paper-style latency/throughput tables",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="with --figure: run the figure's shape checks on the "
             "series (exit 1 when one fails)",
    )


def _parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="repro-campaign",
        description=(
            "Regenerate the figures of Boppana & Chalasani (ISCA 1993) "
            "or run declarative simulation campaigns over a shared, "
            "content-addressed result store: repeated points are served "
            "from disk instead of re-simulated."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="simulate a campaign's missing points into the store"
    )
    _add_spec_arguments(run)
    _add_store_argument(run)
    _add_output_arguments(run)
    run.add_argument(
        "--jobs", "-j", type=int, default=1,
        help="worker processes for the pending points (default 1)",
    )
    run.add_argument(
        "--batch-size", type=int, default=32, metavar="B",
        help="max seeds per lockstep batch for backend='batch' points",
    )
    run.add_argument(
        "--quiet", action="store_true", help="suppress progress output"
    )

    status = commands.add_parser(
        "status", help="store contents and a campaign's cache coverage"
    )
    _add_spec_arguments(status)
    _add_store_argument(status)

    gc = commands.add_parser(
        "gc",
        help="compact the store file (drop superseded record lines)",
    )
    _add_store_argument(gc)
    gc.add_argument(
        "--purge-sidecars", action="store_true",
        help="also delete .corrupt/.stale quarantine sidecars left by "
             "earlier recoveries (inspect them first)",
    )
    gc.add_argument(
        "--max-age-days", type=float, default=None, metavar="D",
        help="evict records older than D days (records without a "
             "recorded_at stamp count as oldest)",
    )
    gc.add_argument(
        "--max-size-mb", type=float, default=None, metavar="M",
        help="evict oldest records until the store file fits M MiB",
    )

    export = commands.add_parser(
        "export",
        help="regenerate CSV/tables from the store (never simulates)",
    )
    _add_spec_arguments(export)
    _add_store_argument(export)
    _add_output_arguments(export)

    return parser.parse_args(argv)


def _items(
    flag: str, text: str, convert: Callable[[str], _T], kind: str
) -> Tuple[_T, ...]:
    """The items of a comma-separated flag value, each through
    *convert*; a ReproError unless every item is non-empty and
    converts."""
    try:
        items = [item.strip() for item in text.split(",")]
        if not all(items):
            raise ValueError(text)
        return tuple(convert(item) for item in items)
    except ValueError:
        raise ReproError(f"{flag} must be {kind}, got {text!r}") from None


def _load(text: str) -> float:
    value = float(text)
    if not 0 <= value < float("inf"):
        raise ValueError(text)
    return value


def _override(text: str) -> Tuple[str, Any]:
    """One ``--set FIELD=VALUE``: the value as JSON, else as written."""
    name, equals, value = text.partition("=")
    if not name or not equals:
        raise ReproError(f"--set takes FIELD=VALUE, got {text!r}")
    try:
        return name, json.loads(value)
    except json.JSONDecodeError:
        return name, value


def _names_a_campaign(args: argparse.Namespace) -> bool:
    return bool(args.set) or any(
        value is not None
        for value in (args.spec, args.figure, args.algorithms, args.loads,
                      args.seeds, args.traffic)
    )


def _load_spec(args: argparse.Namespace) -> CampaignSpec:
    """The campaign the arguments name, its shared config validated."""
    if args.spec is not None and args.figure is not None:
        raise ReproError("give either a spec file or --figure, not both")
    if getattr(args, "check", False) and args.figure is None:
        raise ReproError("--check needs --figure")
    if args.spec is not None:
        spec = CampaignSpec.from_file(args.spec)
    else:
        # Bare, the grid is Figure 3's (every algorithm over the paper's
        # ladder, uniform traffic) under a name of its own.
        spec = paper_figures.figure_campaign_spec(
            args.figure or "3", profile=args.profile
        )
        if args.figure is None:
            spec.name = f"sweep-{args.profile}"
    axes: Dict[str, Any] = {}
    if args.algorithms is not None:
        axes["algorithms"] = _items(
            "--algorithms", args.algorithms, str,
            "comma-separated algorithm names",
        )
    if args.loads is not None:
        axes["loads"] = _items(
            "--loads", args.loads, _load,
            "comma-separated non-negative numbers",
        )
    if args.seeds is not None:
        axes["seeds"] = _items(
            "--seeds", args.seeds, int, "comma-separated integers"
        )
    if args.traffic is not None:
        axes["traffics"] = (TrafficSpec(args.traffic),)
    if args.set:
        axes["base"] = {**spec.base, **dict(map(_override, args.set))}
    spec = dataclasses.replace(spec, **axes)
    try:
        spec.base_config()
    except ConfigurationError as error:
        if (
            spec.base.get("backend") == "batch"
            and spec.base.get("flow_control") != "conservative"
        ):
            raise ConfigurationError(
                f"{error}\nhint: the batch backend needs "
                "--set flow_control=conservative"
            ) from None
        raise
    return spec


def _write_outputs(
    args: argparse.Namespace,
    spec: CampaignSpec,
    pairs: Sequence[Tuple[SimulationConfig, SimulationResult]],
) -> int:
    """What ``--tables`` / ``--check`` / ``--csv`` ask for, from the
    campaign's (config, result) pairs; 1 when a shape check failed."""
    exit_code = 0
    if args.tables:
        print(format_campaign_tables(spec, pairs))
    if args.check:
        (series,) = grid_series(pairs).values()  # a figure is one grid
        checks = paper_figures.FIGURE_CHECKS[args.figure](series)
        if args.tables:
            print()
        print(paper_figures.format_checks(checks))
        if not all(passed for _, passed in checks):
            exit_code = 1
    if args.csv:
        with open(args.csv, "w", newline="") as stream:
            write_campaign_csv(pairs, stream)
        print(f"wrote {args.csv}")
    return exit_code


def _cmd_run(args: argparse.Namespace) -> int:
    for flag, value in (("--jobs", args.jobs),
                        ("--batch-size", args.batch_size)):
        if value < 1:
            raise ReproError(f"{flag} must be >= 1, got {value}")
    spec = _load_spec(args)
    spec.check_buildable()
    with ResultStore(args.store) as store:
        report = run_campaign(
            spec,
            store,
            jobs=args.jobs,
            batch_size=args.batch_size,
            verbose=not args.quiet,
        )
    print(report.summary())
    print(f"store: {args.store} ({len(store)} records)")
    if args.tables or args.check:
        print()
    return _write_outputs(
        args, spec, list(zip(report.configs, report.results))
    )


def _cmd_status(args: argparse.Namespace) -> int:
    spec = _load_spec(args) if _names_a_campaign(args) else None
    with ResultStore(args.store) as store:
        signatures = store.signatures()
        print(f"store: {args.store}")
        print(
            f"records: {len(store)} across {len(signatures)} campaign "
            f"signature(s)"
        )
        if spec is not None:
            cached, missing = store.coverage(spec.expand())
            total = cached + len(missing)
            percent = 100.0 * cached / total if total else 100.0
            print(
                f"campaign {spec.name!r}: {cached}/{total} points cached "
                f"({percent:.1f}%)"
            )
            for config in missing[:5]:
                print(f"  missing: {config.label()}")
            if len(missing) > 5:
                print(f"  ... and {len(missing) - 5} more")
    return 0


def _cmd_gc(args: argparse.Namespace) -> int:
    with ResultStore(args.store) as store:
        stats = store.gc(
            purge_sidecars=args.purge_sidecars,
            max_age_days=args.max_age_days,
            max_size_mb=args.max_size_mb,
        )
    print(f"store: {args.store}")
    print(
        f"records: {stats['live_records']} live; "
        f"{stats['dropped_lines']} superseded line(s) dropped "
        f"({stats['lines_before']} -> {stats['lines_after']})"
    )
    if args.max_age_days is not None:
        print(
            f"evicted {stats['evicted_age']} record(s) older than "
            f"{args.max_age_days:g} day(s)"
        )
    if args.max_size_mb is not None:
        print(
            f"evicted {stats['evicted_size']} record(s) to fit "
            f"{args.max_size_mb:g} MiB"
        )
    print(
        f"bytes: {stats['bytes_before']} -> {stats['bytes_after']}"
    )
    for sidecar in stats["sidecars_removed"]:
        print(f"removed sidecar: {sidecar}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    if not args.csv and not args.tables and not args.check:
        raise ReproError(
            "nothing to export: pass --csv PATH and/or --tables "
            "(and --check with --figure)"
        )
    try:
        with ResultStore(args.store) as store:
            pairs = collect(spec, store)
    except IncompleteCampaignError as error:
        print(str(error), file=sys.stderr)
        return 3
    return _write_outputs(args, spec, pairs)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "status":
            return _cmd_status(args)
        if args.command == "gc":
            return _cmd_gc(args)
        return _cmd_export(args)
    except ReproError as error:
        print(f"repro-campaign {args.command}: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
