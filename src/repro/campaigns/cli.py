"""Command-line interface: ``repro-campaign``.

Subcommands::

    repro-campaign run spec.json --store results/store.jsonl --jobs 8
    repro-campaign run --figure 3 --profile quick --store store.jsonl
    repro-campaign status --store store.jsonl [spec.json]
    repro-campaign gc --store store.jsonl [--purge-sidecars]
                      [--max-age-days D] [--max-size-mb M]
    repro-campaign export spec.json --store store.jsonl --csv out.csv

``run`` simulates only the points the store has never seen (a repeated
campaign is 100% cache hits and performs zero engine invocations);
``status`` reports store contents and a spec's cache coverage; ``export``
regenerates CSVs and paper-style tables straight from the store, without
simulating anything.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.campaigns.export import (
    IncompleteCampaignError,
    collect,
    format_campaign_tables,
    write_campaign_csv,
)
from repro.campaigns.orchestrator import run_campaign
from repro.campaigns.spec import CampaignSpec
from repro.campaigns.store import ResultStore
from repro.experiments import paper_figures
from repro.experiments.profiles import PROFILES
from repro.util.errors import ReproError

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
        help="use the built-in campaign spec of a paper figure instead",
    )
    parser.add_argument(
        "--profile",
        choices=sorted(PROFILES),
        default=None,
        help="run profile for --figure specs (default: REPRO_PROFILE "
             "env var or 'scaled')",
    )
    parser.add_argument(
        "--seed", type=int, default=1, help="seed for --figure specs"
    )


def _add_store_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        default=DEFAULT_STORE,
        metavar="PATH",
        help=f"content-addressed result store file "
             f"(default: {DEFAULT_STORE})",
    )


def _parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="repro-campaign",
        description=(
            "Run declarative simulation campaigns over a shared, "
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
    run.add_argument(
        "--jobs", "-j", type=int, default=1,
        help="worker processes for the pending points (default 1)",
    )
    run.add_argument(
        "--batch-size", type=int, default=32, metavar="B",
        help="max seeds per lockstep batch for backend='batch' points",
    )
    run.add_argument(
        "--csv", default=None, metavar="PATH",
        help="also export the campaign's results to this CSV file",
    )
    run.add_argument(
        "--tables", action="store_true",
        help="also print the paper-style latency/throughput tables",
    )
    run.add_argument(
        "--quiet", action="store_true", help="suppress progress output"
    )

    status = commands.add_parser(
        "status", help="store contents and a spec's cache coverage"
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
    export.add_argument(
        "--csv", default=None, metavar="PATH",
        help="write the campaign's results to this CSV file",
    )
    export.add_argument(
        "--tables", action="store_true",
        help="print the paper-style latency/throughput tables",
    )
    export.add_argument(
        "--check", action="store_true",
        help="with --figure: run the figure's shape checks on the "
             "store-served series",
    )

    return parser.parse_args(argv)


def _load_spec(args: argparse.Namespace) -> Optional[CampaignSpec]:
    """The campaign spec named by the arguments (None when omitted)."""
    if args.spec is not None and args.figure is not None:
        raise ReproError("give either a spec file or --figure, not both")
    if args.figure is not None:
        return paper_figures.figure_campaign_spec(
            args.figure, profile=args.profile, seed=args.seed
        )
    if args.spec is not None:
        return CampaignSpec.from_file(args.spec)
    return None


def _require_spec(args: argparse.Namespace) -> CampaignSpec:
    spec = _load_spec(args)
    if spec is None:
        raise ReproError(
            f"'{args.command}' needs a campaign: give a spec file "
            "or --figure N"
        )
    return spec


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _require_spec(args)
    if args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
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
    if args.csv or args.tables:
        pairs = list(zip(report.configs, report.results))
        if args.tables:
            print()
            print(format_campaign_tables(spec, pairs))
        if args.csv:
            with open(args.csv, "w", newline="") as stream:
                write_campaign_csv(pairs, stream)
            print(f"wrote {args.csv}")
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
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
    spec = _require_spec(args)
    try:
        with ResultStore(args.store) as store:
            pairs = collect(spec, store)
    except IncompleteCampaignError as error:
        print(str(error), file=sys.stderr)
        return 3
    if not args.csv and not args.tables and not args.check:
        print(
            "nothing to export: pass --csv PATH and/or --tables "
            "(and --check with --figure)",
            file=sys.stderr,
        )
        return 2
    exit_code = 0
    if args.tables:
        print(format_campaign_tables(spec, pairs))
    if args.check:
        if args.figure is None:
            print("--check needs --figure", file=sys.stderr)
            return 2
        series: dict = {}
        for config, result in pairs:
            series.setdefault(config.algorithm, []).append(result)
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
