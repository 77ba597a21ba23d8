"""Command-line interface: ``repro-campaign``, the one CLI.

Subcommands::

    repro-campaign run --figure 3 --profile quick --tables --check
    repro-campaign run --figure abl-cc --profile quick --check
    repro-campaign run spec.json --store results/store.jsonl --jobs 8
    repro-campaign run --algorithms ecube,nbc --loads 0.2,0.4 --seeds 1,2 \\
                       --set flow_control=conservative --set backend=batch
    repro-campaign status --store store.jsonl [spec.json | --figure ID | axis flags]
    repro-campaign gc --store store.jsonl
    repro-campaign export spec.json --store store.jsonl --csv out.csv
    repro-campaign verify --fail-on-error --json check-report.json
    repro-campaign equivalence --smoke --json equivalence-smoke.json

This is the one place flags become a grid.  ``run``, ``status`` and
``export`` name their campaign the same way: a spec file, ``--figure ID``
(a paper artifact's built-in specs: one, or one per value of a field the
artifact varies, all against one store) or neither (every algorithm over
the paper's load ladder, uniform traffic) gives the starting grid, and
the axis flags ``--algorithms`` / ``--loads`` / ``--seeds`` /
``--traffic`` and ``--set FIELD=VALUE`` (any other
:class:`SimulationConfig` field) replace parts of each spec.  Everything
is validated before a point simulates.

``run`` simulates only the points the store has never seen (a repeated
campaign is 100% cache hits and performs zero engine invocations);
``status`` reports store contents and a campaign's cache coverage;
``export`` regenerates CSVs and paper-style tables straight from the
store, without simulating anything.

``verify`` runs the deadlock-freedom / structure check battery over the
algorithm registry and a matrix of topologies (``docs/verification.md``);
``equivalence`` holds the batch backend to the object engine,
statistically, over seeds (``docs/performance.md``).  Neither touches a
store: each computes every verdict it reports and writes no file but its
``--json`` report.

Exit status: 0 on success (verify: every verdict pass / skipped / waived,
and with ``--fail-on-error`` no crashed check either; equivalence: every
point passed; run / export: every ``--check`` claim held), 1 otherwise,
2 on a malformed request, 3 when ``export`` finds a campaign incomplete.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.analysis import equivalence
from repro.analysis.verify.checks import CHECKS
from repro.analysis.verify.runner import (
    DEFAULT_TOPOLOGIES,
    format_summary,
    format_table,
    run_verification,
)
from repro.campaigns.export import (
    IncompleteCampaignError,
    collect,
    format_campaign_tables,
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
Pair = Tuple[SimulationConfig, SimulationResult]

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
        choices=sorted(paper_figures.ARTIFACTS),
        default=None,
        help="start from the built-in specs of a paper artifact (a "
             "figure: 3, 4, 5, vct; a study: abl-*, ext-tr) instead of "
             "a spec file",
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
        help="with --figure: judge the artifact's claims on seed "
             "means (exit 1 when one fails)",
    )


def _add_report_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json", metavar="PATH",
        help="also write the structured report to this JSON file",
    )


def _parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="repro-campaign",
        description=(
            "Regenerate the figures of Boppana & Chalasani (ISCA 1993) "
            "or run declarative simulation campaigns over a shared, "
            "content-addressed result store: repeated points are served "
            "from disk instead of re-simulated.  verify and equivalence "
            "check this tree."
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

    export = commands.add_parser(
        "export",
        help="regenerate CSV/tables from the store (never simulates)",
    )
    _add_spec_arguments(export)
    _add_store_argument(export)
    _add_output_arguments(export)

    verify = commands.add_parser(
        "verify",
        help="structural deadlock-freedom claims of every registered "
             "routing algorithm (docs/verification.md)",
    )
    _add_report_argument(verify)
    verify.add_argument(
        "--quiet", action="store_true",
        help="print only the summary, not the full table",
    )
    verify.add_argument(
        "--fail-on-error", action="store_true",
        help="also exit non-zero when a check errors (CI mode; "
             "unwaived failures always do)",
    )
    verify.add_argument(
        "--algorithms", default=None,
        help="comma-separated algorithm names, x<lanes> suffixes allowed "
             "(default: every registered algorithm)",
    )
    verify.add_argument(
        "--topology", action="append", default=None, metavar="KIND:RxR",
        help="topology to verify on, one radix per dimension (torus:4x4 "
             "is a 4-ary 2-cube, unlike a spec file's torus:4x2), e.g. "
             "torus:4x4 or mesh:3x3x3; repeatable "
             f"(default: {', '.join(DEFAULT_TOPOLOGIES)})",
    )
    verify.add_argument(
        "--checks", default=None,
        help=f"comma-separated check names (default: all of "
             f"{', '.join(CHECKS)})",
    )

    suite = commands.add_parser(
        "equivalence",
        help="statistical equivalence of the batch backend against the "
             "object engine, the bit-exact reference (docs/performance.md)",
    )
    _add_report_argument(suite)
    suite.add_argument(
        "--algorithms", default=",".join(equivalence.SUITE_ALGORITHMS),
        help="comma-separated algorithm names",
    )
    suite.add_argument(
        "--topologies", default=",".join(equivalence.SUITE_TOPOLOGIES),
        help="comma-separated topologies",
    )
    for flag, default, text in (
        ("--seeds", 30, "seeds per engine per point"),
        ("--radix", 8, "network radix"),
        ("--load", 0.4, "offered load"),
        ("--rel-tol", 0.05, "practical tolerance on relative mean difference"),
        ("--z", 3.0, "statistical threshold in Welch standard errors"),
    ):
        suite.add_argument(
            flag, type=type(default), default=default,
            help=f"{text} (default {default})",
        )
    suite.add_argument(
        "--smoke", action="store_true",
        help="CI preset: 8 seeds, radix 6, short samples, rel-tol 0.15 "
             "— a fast regression tripwire, not a publication check",
    )

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


def _names(flag: str, text: Optional[str]) -> Optional[Tuple[str, ...]]:
    """A comma-separated list of names, or None (the default) for None."""
    if text is None:
        return None
    return _items(flag, text, str, "comma-separated names")


def _at_least(*bounds: Tuple[str, float, float]) -> None:
    """A ReproError unless each ``(flag, value, least)`` has
    ``value >= least``."""
    for flag, value, least in bounds:
        if not value >= least:
            raise ReproError(f"{flag} must be >= {least}, got {value}")


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


def _load_specs(args: argparse.Namespace) -> List[CampaignSpec]:
    """The campaigns the arguments name, their shared configs validated."""
    if args.spec is not None and args.figure is not None:
        raise ReproError("give either a spec file or --figure, not both")
    if getattr(args, "check", False) and args.figure is None:
        raise ReproError("--check needs --figure")
    if args.spec is not None:
        specs = [CampaignSpec.from_file(args.spec)]
    else:
        # Bare, the grid is Figure 3's (every algorithm over the paper's
        # ladder, uniform traffic) under a name of its own.
        specs = paper_figures.artifact_specs(
            args.figure or "3", profile=args.profile
        )
        if args.figure is None:
            specs[0].name = f"sweep-{args.profile}"
    return [_with_flags(args, spec) for spec in specs]


def _with_flags(args: argparse.Namespace, spec: CampaignSpec) -> CampaignSpec:
    """*spec* with the axis flags and ``--set`` applied, validated."""
    axes: Dict[str, Any] = {}
    if args.algorithms is not None:
        axes["algorithms"] = _names("--algorithms", args.algorithms)
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
    campaigns: Sequence[Tuple[CampaignSpec, List[Pair]]],
) -> int:
    """What ``--tables`` / ``--check`` / ``--csv`` ask for, from each
    campaign's (config, result) pairs; 1 when a claim failed."""
    exit_code = 0
    pairs = [pair for _, own in campaigns for pair in own]
    if args.tables:
        print("\n\n".join(
            format_campaign_tables(spec, own) for spec, own in campaigns
        ))
    if args.check:
        checks = paper_figures.evaluate(
            paper_figures.ARTIFACTS[args.figure].claims,
            paper_figures.pair_rows(pairs),
        )
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


def _print_to_stderr(line: str) -> None:
    print(line, file=sys.stderr)


def _cmd_run(args: argparse.Namespace) -> int:
    _at_least(("--jobs", args.jobs, 1), ("--batch-size", args.batch_size, 1))
    specs = _load_specs(args)
    for spec in specs:
        spec.check_buildable()
    progress = None if args.quiet else _print_to_stderr
    with ResultStore(args.store) as store:
        reports = [
            run_campaign(
                spec,
                store,
                jobs=args.jobs,
                progress=progress,
                batch_size=args.batch_size,
            )
            for spec in specs
        ]
    for report in reports:
        print(report.summary())
    print(f"store: {args.store} ({len(store)} records)")
    if args.tables or args.check:
        print()
    return _write_outputs(args, [
        (spec, list(zip(report.configs, report.results)))
        for spec, report in zip(specs, reports)
    ])


def _cmd_status(args: argparse.Namespace) -> int:
    specs = _load_specs(args) if _names_a_campaign(args) else []
    with ResultStore(args.store) as store:
        signatures = store.signatures()
        print(f"store: {args.store}")
        print(
            f"records: {len(store)} across {len(signatures)} campaign "
            f"signature(s)"
        )
        for spec in specs:
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
        stats = store.gc()
    print(f"store: {args.store}")
    print(
        f"records: {stats['live_records']} live; "
        f"{stats['dropped_lines']} superseded line(s) dropped "
        f"({stats['lines_before']} -> {stats['lines_after']})"
    )
    print(f"bytes: {stats['bytes_before']} -> {stats['bytes_after']}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    specs = _load_specs(args)
    if not args.csv and not args.tables and not args.check:
        raise ReproError(
            "nothing to export: pass --csv PATH and/or --tables "
            "(and --check with --figure)"
        )
    try:
        with ResultStore(args.store) as store:
            campaigns = [(spec, collect(spec, store)) for spec in specs]
    except IncompleteCampaignError as error:
        print(str(error), file=sys.stderr)
        return 3
    return _write_outputs(args, campaigns)


def _write_json(path: str, payload: Any, indent: int, sort_keys: bool) -> None:
    """*payload* as a JSON file, newline-terminated."""
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(payload, stream, indent=indent, sort_keys=sort_keys)
        stream.write("\n")


def _cmd_verify(args: argparse.Namespace) -> int:
    run = run_verification(
        topology_specs=args.topology,
        algorithms=_names("--algorithms", args.algorithms),
        checks=_names("--checks", args.checks),
    )
    if not args.quiet:
        print(format_table(run))
        print()
    print(format_summary(run))
    if args.json:
        _write_json(args.json, run.to_dict(), indent=1, sort_keys=True)
        print(f"wrote {args.json}")
    return 0 if run.ok(args.fail_on_error) else 1


def _cmd_equivalence(args: argparse.Namespace) -> int:
    _at_least(
        ("--seeds", args.seeds, 2), ("--rel-tol", args.rel_tol, 0),
        ("--z", args.z, 0),
    )
    options: Dict[str, Any] = dict(
        algorithms=_names("--algorithms", args.algorithms),
        topologies=_names("--topologies", args.topologies),
        num_seeds=args.seeds,
        radix=args.radix,
        offered_load=args.load,
        rel_tol=args.rel_tol,
        z=args.z,
    )
    if args.smoke:
        options.update(
            num_seeds=min(args.seeds, 8),
            radix=6,
            message_length=8,
            samples=2,
            warmup_cycles=500,
            sample_cycles=600,
            rel_tol=max(args.rel_tol, 0.15),
        )
    reports = equivalence.run_suite(
        progress=lambda line: print(line, flush=True), **options
    )
    for report in reports:
        if report.passed:
            continue
        print(
            f"\nDiscrepant point {report.topology}/{report.algorithm} "
            f"(load {report.offered_load}, {report.num_seeds} seeds):"
        )
        for metric in report.failures:
            print("  " + metric.describe())
    if args.json:
        # The format the archived equivalence reports were written in.
        payload = [dataclasses.asdict(report) for report in reports]
        _write_json(args.json, payload, indent=2, sort_keys=False)
    passed = sum(report.passed for report in reports)
    print(
        f"\nequivalence: {passed}/{len(reports)} points passed",
        file=sys.stderr,
    )
    return 0 if passed == len(reports) else 1


_COMMANDS: Dict[str, Callable[[argparse.Namespace], int]] = {
    "run": _cmd_run,
    "status": _cmd_status,
    "gc": _cmd_gc,
    "export": _cmd_export,
    "verify": _cmd_verify,
    "equivalence": _cmd_equivalence,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"repro-campaign {args.command}: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
