"""What every "check this tree" battery shares.

A *battery* sweeps a registry of checks over a set of subjects and
returns one record per verdict: :mod:`repro.analysis.lint` runs rules
over source files and returns findings, :mod:`repro.analysis.verify`
runs structural checks over (algorithm, topology) pairs and returns
check results.  What they check differs; how a verdict is named,
counted, cached, rendered and archived does not, and lives here once:
the status vocabulary, the :class:`Run` base the batteries' run objects
subclass, the source-hash :class:`Cache` (one JSON file, a section per
battery) and the renderer (:func:`format_table`, :func:`format_summary`,
:func:`write_json`).  ``repro-check`` (:mod:`repro.analysis.check`) is
the one CLI over them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
import hashlib
import json
import os
from pathlib import Path
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    Iterable,
    Optional,
    Sequence,
    Tuple,
)

#: Verdict statuses, in increasing order of severity.  ``open`` is a lint
#: finding no waiver covers; ``fail`` / ``error`` are a check that did not
#: hold / that crashed; ``waived`` is either, explained by a registered
#: or inline waiver and still reported.
STATUS_PASS = "pass"
STATUS_SKIPPED = "skipped"
STATUS_WAIVED = "waived"
STATUS_OPEN = "open"
STATUS_FAIL = "fail"
STATUS_ERROR = "error"

_CACHE_VERSION = 2

#: The ``version`` every run's ``to_dict()`` report carries.
REPORT_VERSION = 1


class Run(ABC):
    """Base of a battery's run object: what renderer and CLI read.

    A subclass is a dataclass holding the verdicts and the run's
    metadata.  It names its records (``noun``: "findings", "verdicts"),
    the ``statuses`` they take and the column titles (``header``) of
    their ``row()``; each record also has a ``status`` and a ``note()``
    — its line under the summary (a waiver's reason, an open finding, a
    failure) or None.
    """

    noun: ClassVar[str]
    statuses: ClassVar[Tuple[str, ...]]
    header: ClassVar[Tuple[str, ...]]
    wall_time: float

    @property
    @abstractmethod
    def records(self) -> Sequence[Any]:
        """The verdicts, in report order."""

    @abstractmethod
    def scope(self) -> str:
        """What the battery ran over, for the summary line."""

    @abstractmethod
    def to_dict(self) -> Dict[str, Any]:
        """The run as its JSON report."""

    def ok(self, fail_on_error: bool = False) -> bool:
        """False when a record must fail the invocation: one that is not
        ``ok`` (an open finding, an unwaived failure), and with
        *fail_on_error* a crashed check as well."""
        return all(
            record.ok
            and not (fail_on_error and record.status == STATUS_ERROR)
            for record in self.records
        )

    def summary(self) -> Dict[str, int]:
        """Status histogram of the records (every status always a key)."""
        summary = {status: 0 for status in self.statuses}
        for record in self.records:
            summary[record.status] += 1
        return summary


def source_hash(root: Path, directories: Iterable[Path]) -> str:
    """SHA-256 over every ``*.py`` file under *directories*, each named
    relative to *root*: any edit there changes the hash."""
    digest = hashlib.sha256()
    for directory in directories:
        for path in sorted(directory.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
    return digest.hexdigest()


class Cache:
    """One battery's section of the shared JSON cache file.

    The file holds ``{battery: {"source_hash": ..., "entries": {...}}}``;
    a section written under another hash is dropped at load, an
    unreadable file is an empty one, and :meth:`save` rewrites this
    battery's section beside the others as found.  *path* ``None`` is a
    cache that never hits and never writes.
    """

    def __init__(
        self, path: Optional[str], battery: str, code_hash: str
    ) -> None:
        self.path = path
        self.battery = battery
        self.code_hash = code_hash
        self._sections: Dict[str, Any] = {}
        self._entries: Dict[str, Any] = {}
        self._dirty = False
        if path is not None and os.path.exists(path):
            self._load(path)

    def _load(self, path: str) -> None:
        try:
            with open(path, "r", encoding="utf-8") as stream:
                data = json.load(stream)
            if data["version"] != _CACHE_VERSION:
                return
            sections = dict(data["batteries"])
            section = sections.pop(self.battery, None) or {}
            if section.get("source_hash") == self.code_hash:
                self._entries = dict(section["entries"])
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            return  # unreadable cache: start fresh
        self._sections = sections

    def get(self, key: str, decode: Callable[[Any], Any]) -> Any:
        """``decode(entry)`` of the entry under *key*; None when there is
        none or it does not decode (a malformed entry is a miss)."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        try:
            return decode(entry)
        except (KeyError, TypeError, ValueError):
            return None

    def put(self, key: str, entry: Any) -> None:
        self._entries[key] = entry
        self._dirty = True

    def save(self) -> None:
        if self.path is None or not self._dirty:
            return
        section = {"source_hash": self.code_hash, "entries": self._entries}
        write_json(
            self.path,
            {
                "version": _CACHE_VERSION,
                "batteries": {**self._sections, self.battery: section},
            },
        )


def clip(text: str, limit: int) -> str:
    """*text* on one line, cut to *limit* characters for a table cell."""
    text = text.replace("\n", " ")
    return text if len(text) <= limit else text[: limit - 3] + "..."


def format_table(run: Run) -> str:
    """Every record of *run* as a fixed-width text table."""
    rows = [record.row() for record in run.records]
    if not rows:
        return f"no {run.noun}"
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


def format_summary(run: Run) -> str:
    """One line of totals — how many records over what, the status
    counts, the wall time — then one line per record that has something
    to say (waiver reasons, open findings, failures)."""
    counts = ", ".join(
        f"{count} {status}"
        for status, count in run.summary().items()
        if count
    )
    lines = [
        f"{len(run.records)} {run.noun} over {run.scope()}: "
        f"{counts or 'none'} ({run.wall_time:.2f}s)"
    ]
    lines.extend(filter(None, (record.note() for record in run.records)))
    return "\n".join(lines)


def write_json(
    path: str, payload: Any, indent: int = 1, sort_keys: bool = True
) -> None:
    """*payload* as a JSON file (the shape every report and the cache
    are written in)."""
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(payload, stream, indent=indent, sort_keys=sort_keys)
        stream.write("\n")


__all__ = [
    "Cache",
    "REPORT_VERSION",
    "Run",
    "STATUS_ERROR",
    "STATUS_FAIL",
    "STATUS_OPEN",
    "STATUS_PASS",
    "STATUS_SKIPPED",
    "STATUS_WAIVED",
    "clip",
    "format_summary",
    "format_table",
    "source_hash",
    "write_json",
]
