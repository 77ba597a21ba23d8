"""Command-line interface: ``repro-check``, the one "check this tree" CLI.

* ``repro-check lint [ROOT]`` — the determinism / hot-path rule battery
  over the ``repro`` source tree or any directory
  (``docs/static-analysis.md``);
* ``repro-check verify`` — the deadlock-freedom / structure check
  battery over the algorithm registry and a matrix of topologies
  (``docs/verification.md``);
* ``repro-check equivalence`` — the batch backend held to the object
  engine, statistically, over seeds (``docs/performance.md``);
* ``repro-check`` alone — lint and verify on the installed tree with
  their defaults, one report: the CI gate.

Nothing is kept between runs: every form computes every verdict it
reports and writes no file but the ``--json`` report.

Examples::

    repro-check --fail-on-error --json check-report.json       # CI gate
    repro-check lint --rules DET001,DET003 src/repro
    repro-check verify --algorithms 2pn,nlast --topology torus:4x4
    repro-check equivalence --smoke --json equivalence-smoke.json

Exit status: 0 when every verdict holds or is waived (lint: no open
finding; verify: pass / skipped / waived, and with ``--fail-on-error``
no crashed check either; equivalence: every point passed), 1 otherwise,
2 on a malformed request.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis import equivalence
from repro.analysis.battery import (
    Run,
    format_summary,
    format_table,
    write_json,
)
from repro.analysis.lint import RULES, run_lint
from repro.analysis.verify import (
    CHECKS,
    DEFAULT_TOPOLOGIES,
    run_verification,
)
from repro.util.errors import ConfigurationError


def _split(value: Optional[str]) -> Optional[List[str]]:
    if value is None:
        return None
    return [part.strip() for part in value.split(",") if part.strip()]


def _build_parser() -> argparse.ArgumentParser:
    # The shared flags are spelled once, on parent parsers: ``report``
    # for every form, ``tree`` for lint and verify.  They default to
    # SUPPRESS so that a subcommand's parser never resets what was given
    # before its name; main() parses into a namespace of the defaults.
    report = argparse.ArgumentParser(
        add_help=False, argument_default=argparse.SUPPRESS
    )
    report.add_argument(
        "--json", metavar="PATH",
        help="also write the structured report to this JSON file",
    )
    tree = argparse.ArgumentParser(
        add_help=False, argument_default=argparse.SUPPRESS
    )
    tree.add_argument(
        "--quiet", action="store_true",
        help="print only the summary, not the full table",
    )
    tree.add_argument(
        "--fail-on-error", action="store_true",
        help=(
            "also exit non-zero when a check errors (CI mode; open "
            "findings and unwaived failures always do)"
        ),
    )
    parser = argparse.ArgumentParser(
        prog="repro-check",
        parents=[report, tree],
        description=(
            "Check this tree.  With no subcommand, lint and verify run "
            "on the installed repro package with their defaults."
        ),
    )
    batteries = parser.add_subparsers(dest="battery", metavar="BATTERY")

    lint = batteries.add_parser(
        "lint", parents=[report, tree],
        help=(
            "determinism and hot-path discipline of the source tree "
            "(docs/static-analysis.md)"
        ),
    )
    lint.add_argument(
        "root", nargs="?", default=None,
        help="directory to analyze (default: the installed repro package)",
    )
    lint.add_argument(
        "--rules", default=None,
        help=f"comma-separated rule ids (default: all of {', '.join(RULES)})",
    )

    verify = batteries.add_parser(
        "verify", parents=[report, tree],
        help=(
            "structural deadlock-freedom claims of every registered "
            "routing algorithm (docs/verification.md)"
        ),
    )
    verify.add_argument(
        "--algorithms", default=None,
        help=(
            "comma-separated algorithm names, x<lanes> suffixes allowed "
            "(default: every registered algorithm)"
        ),
    )
    verify.add_argument(
        "--topology", action="append", default=None, metavar="KIND:RxR",
        help=(
            "topology to verify on, e.g. torus:4x4 or mesh:3x3x3; "
            f"repeatable (default: {', '.join(DEFAULT_TOPOLOGIES)})"
        ),
    )
    verify.add_argument(
        "--checks", default=None,
        help=(
            "comma-separated check names "
            f"(default: all of {', '.join(CHECKS)})"
        ),
    )

    suite = batteries.add_parser(
        "equivalence", parents=[report],
        help=(
            "statistical equivalence of the batch backend against the "
            "object engine, the bit-exact reference (docs/performance.md)"
        ),
    )
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
        help=(
            "CI preset: 8 seeds, radix 6, short samples, rel-tol 0.15 "
            "— a fast regression tripwire, not a publication check"
        ),
    )
    return parser


def _check_tree(args: argparse.Namespace) -> int:
    """Run the battery the arguments name — or, with none named, lint
    and verify with their defaults."""
    runs: Dict[str, Run] = {}
    if args.battery in (None, "lint"):
        runs["lint"] = run_lint(
            root=Path(args.root) if args.root is not None else None,
            rules=_split(args.rules),
        )
    if args.battery in (None, "verify"):
        runs["verify"] = run_verification(
            topology_specs=args.topology,
            algorithms=_split(args.algorithms),
            checks=_split(args.checks),
        )
    for index, run in enumerate(runs.values()):
        if index:
            print()
        if not args.quiet:
            print(format_table(run))
            print()
        print(format_summary(run))
    if args.json:
        # A named battery's report is its run; the tree check's report
        # holds one run per battery.
        payload: Any = {name: run.to_dict() for name, run in runs.items()}
        write_json(args.json, payload.get(args.battery, payload))
        print(f"wrote {args.json}")
    passed = all(run.ok(args.fail_on_error) for run in runs.values())
    return 0 if passed else 1


def _check_equivalence(args: argparse.Namespace) -> int:
    options: Dict[str, Any] = dict(
        algorithms=_split(args.algorithms),
        topologies=_split(args.topologies),
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
        write_json(args.json, payload, indent=2, sort_keys=False)
    passed = sum(report.passed for report in reports)
    print(
        f"\nequivalence: {passed}/{len(reports)} points passed",
        file=sys.stderr,
    )
    return 0 if passed == len(reports) else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    defaults = argparse.Namespace(
        json=None, quiet=False, fail_on_error=False,
        # What lint and verify default to, for the form that names neither.
        root=None, rules=None, topology=None, algorithms=None, checks=None,
    )
    args = _build_parser().parse_args(argv, defaults)
    try:
        if args.battery == "equivalence":
            return _check_equivalence(args)
        return _check_tree(args)
    except ConfigurationError as exc:
        print(f"repro-check: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
