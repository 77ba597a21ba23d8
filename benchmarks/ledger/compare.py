"""Compare two ledger reports, metric by metric and workload by workload.

    python -m benchmarks.ledger.compare PARENT.json CHANGE.json [--same-code]

Every (end-to-end metric, workload) pair gets its own row and one of
four verdicts, by the rules of the choosing-metrics guide:

* **worse** — the change's median is worse than the parent's by more
  than the metric's bound;
* **unresolved** — the parent's own run-to-run spread (interquartile
  range over median) is wider than the bound, so the bound cannot be
  checked; not the same as unchanged.  Overridden only when every run
  of the change reads better than every run of the parent;
* **better** — the medians differ, in the good direction, by more than
  the parent's spread;
* **within bound** — anything else.

With at least ten runs a side, taken alternately (``--append``), the
runs are also read as pairs: a *gain* needs the change to win at least
nine tenths of the decided pairs and the medians to differ by more than
the parent's interquartile range.

``--same-code`` is the stability check: both reports come from the same
code, so every row must be within bound (or better, by luck), and every
count that repeats exactly for a fixed seed must be identical.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Any, Dict, List, NamedTuple, Optional, Sequence

from benchmarks.ledger.metrics import END_TO_END, PER_LAYER, EndToEnd

#: Pairs needed before the wins rule is applied.
MIN_PAIRS = 10
WIN_SHARE = 0.9


class Row(NamedTuple):
    workload: str
    metric: str
    parent: float
    change: float
    #: Relative move of the median in the *worse* direction (negative:
    #: the change reads better).
    worse_by: float
    spread: float
    bound: float
    verdict: str
    #: "yes" / "no" under the pairs rule, "-" below MIN_PAIRS pairs.
    gain: str


def _iqr(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return quartiles[2] - quartiles[0]


def _beats(metric: EndToEnd, left: float, right: float) -> bool:
    """*left* reads strictly better than *right*."""
    return left < right if metric.better == "lower" else left > right


def judge(
    metric: EndToEnd,
    workload: str,
    parent: Sequence[float],
    change: Sequence[float],
) -> Row:
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    scale = abs(parent_median) or 1.0
    gap = change_median - parent_median
    worse_by = (gap if metric.better == "lower" else -gap) / scale
    iqr = _iqr(parent)
    spread = iqr / scale

    if spread > metric.bound:
        clean_sweep = all(
            _beats(metric, c, p) for c in change for p in parent
        )
        verdict = "better" if clean_sweep else "unresolved"
    elif worse_by > metric.bound:
        verdict = "worse"
    elif -worse_by > spread:
        verdict = "better"
    else:
        verdict = "within bound"

    gain = "-"
    pairs = list(zip(parent, change))
    if len(pairs) >= MIN_PAIRS:
        wins = sum(1 for p, c in pairs if _beats(metric, c, p))
        losses = sum(1 for p, c in pairs if _beats(metric, p, c))
        decided = wins + losses
        won = decided > 0 and wins >= WIN_SHARE * decided
        gain = "yes" if won and abs(gap) > iqr and worse_by < 0 else "no"
    return Row(
        workload, metric.name, parent_median, change_median,
        worse_by, spread, metric.bound, verdict, gain,
    )


def _values(entry: Dict[str, Any], metric: str) -> List[float]:
    return [run["metrics"][metric] for run in entry["runs"]]


def compare(parent: Dict[str, Any], change: Dict[str, Any]) -> List[Row]:
    rows = []
    for workload, parent_entry in parent["workloads"].items():
        change_entry = change["workloads"].get(workload)
        if change_entry is None:
            continue
        for metric in END_TO_END:
            rows.append(judge(
                metric, workload,
                _values(parent_entry, metric.name),
                _values(change_entry, metric.name),
            ))
    return rows


def exact_differences(
    parent: Dict[str, Any], change: Dict[str, Any]
) -> List[str]:
    """Everything that repeats exactly for a fixed seed and yet differs
    between (or within) the two reports."""
    if parent["seed"] != change["seed"]:
        return [
            f"seeds differ ({parent['seed']} vs {change['seed']}): "
            "exact counts cannot be compared"
        ]
    count_names = [m.name for m in PER_LAYER if m.unit == "count"]
    problems = []
    for workload, parent_entry in parent["workloads"].items():
        change_entry = change["workloads"].get(workload)
        if change_entry is None:
            problems.append(f"{workload}: missing from the second report")
            continue
        runs = parent_entry["runs"] + change_entry["runs"]
        seen = {
            (
                run["attempted"], run["failed"],
                run["metrics"]["passed_share"],
                run["metrics"]["ref_match_share"],
                run["metrics"]["paper_claims_held"],
                run.get("detail", {}).get("results_digest"),
            )
            for run in runs
        }
        if len(seen) != 1:
            problems.append(
                f"{workload}: attempted / failed / shares / results digest "
                f"take {len(seen)} different values across the runs"
            )
        traced = [
            entry["traced"]["metrics"]
            for entry in (parent_entry, change_entry) if "traced" in entry
        ]
        if len(traced) == 2:
            for name in count_names:
                if traced[0][name] != traced[1][name]:
                    problems.append(
                        f"{workload}: {name} {traced[0][name]:g} vs "
                        f"{traced[1][name]:g}"
                    )
    return problems


def format_rows(rows: Sequence[Row]) -> str:
    lines = [
        f"{'workload':<15}{'metric':<21}{'parent':>13}{'change':>13}"
        f"{'worse by':>10}{'spread':>9}{'bound':>8}  {'verdict':<13}gain"
    ]
    for row in rows:
        lines.append(
            f"{row.workload:<15}{row.metric:<21}{row.parent:>13.6g}"
            f"{row.change:>13.6g}{row.worse_by:>+10.2%}{row.spread:>9.2%}"
            f"{row.bound:>8.2%}  {row.verdict:<13}{row.gain}"
        )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.ledger.compare",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("parent", help="report of the parent commit")
    parser.add_argument("change", help="report of the change")
    parser.add_argument(
        "--same-code", action="store_true",
        help="both reports measure the same code: fail unless every row "
             "is within its bound and every exact count is identical",
    )
    args = parser.parse_args(argv)
    with open(args.parent, encoding="utf-8") as stream:
        parent = json.load(stream)
    with open(args.change, encoding="utf-8") as stream:
        change = json.load(stream)

    rows = compare(parent, change)
    print(format_rows(rows))
    off = [row for row in rows if row.verdict in ("worse", "unresolved")]
    differences = exact_differences(parent, change)
    for line in differences:
        print(f"exact: {line}")
    if args.same_code:
        stable = not off and not differences
        print(
            "same code: stable" if stable else
            f"same code: NOT stable ({len(off)} rows off, "
            f"{len(differences)} exact differences)"
        )
        return 0 if stable else 1
    worse = [row for row in rows if row.verdict == "worse"]
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
