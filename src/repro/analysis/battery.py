"""How the verify battery's verdicts are named, rendered and archived.

:mod:`repro.analysis.verify` runs structural checks over (algorithm,
topology) pairs and returns one check result per verdict; the status
vocabulary and the renderer (:func:`format_table`, :func:`format_summary`)
live here, and so does :func:`write_json`, which the verify and the
equivalence reports are both written through.  A run keeps no state
between invocations: every run computes every verdict it reports.
``repro-check`` (:mod:`repro.analysis.check`) is the one CLI.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.analysis.verify.runner import VerificationRun

#: Verdict statuses, in increasing order of severity.  ``fail`` /
#: ``error`` are a check that did not hold / that crashed; ``waived`` is
#: a failure a registered waiver explains, still reported.
STATUS_PASS = "pass"
STATUS_SKIPPED = "skipped"
STATUS_WAIVED = "waived"
STATUS_FAIL = "fail"
STATUS_ERROR = "error"

#: The ``version`` every run's ``to_dict()`` report carries.
REPORT_VERSION = 2


def clip(text: str, limit: int) -> str:
    """*text* on one line, cut to *limit* characters for a table cell."""
    text = text.replace("\n", " ")
    return text if len(text) <= limit else text[: limit - 3] + "..."


def format_table(run: VerificationRun) -> str:
    """Every verdict of *run* as a fixed-width text table."""
    rows = [result.row() for result in run.results]
    if not rows:
        return "no verdicts"
    widths = [
        max([len(title)] + [len(row[column]) for row in rows])
        for column, title in enumerate(run.header)
    ]
    lines = [
        "  ".join(
            title.ljust(width) for title, width in zip(run.header, widths)
        ),
        "  ".join("-" * width for width in widths),
    ]
    for row in rows:
        lines.append(
            "  ".join(
                cell.ljust(width) for cell, width in zip(row, widths)
            ).rstrip()
        )
    return "\n".join(lines)


def format_summary(run: VerificationRun) -> str:
    """One line of totals — how many verdicts over what, the status
    counts, the wall time — then one line per verdict that has something
    to say (waiver reasons, failures)."""
    counts = ", ".join(
        f"{count} {status}"
        for status, count in run.summary().items()
        if count
    )
    lines = [
        f"{len(run.results)} verdicts over {', '.join(run.topologies)}: "
        f"{counts or 'none'} ({run.wall_time:.2f}s)"
    ]
    lines.extend(filter(None, (result.note() for result in run.results)))
    return "\n".join(lines)


def write_json(
    path: str, payload: Any, indent: int = 1, sort_keys: bool = True
) -> None:
    """*payload* as a JSON file (the shape every report is written in)."""
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(payload, stream, indent=indent, sort_keys=sort_keys)
        stream.write("\n")


__all__ = [
    "REPORT_VERSION",
    "STATUS_ERROR",
    "STATUS_FAIL",
    "STATUS_PASS",
    "STATUS_SKIPPED",
    "STATUS_WAIVED",
    "clip",
    "format_summary",
    "format_table",
    "write_json",
]
