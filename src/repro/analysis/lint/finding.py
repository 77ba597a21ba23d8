"""Structured findings produced by the lint rules.

One :class:`Finding` records one rule violation at one source location.
Findings serialise to plain JSON dictionaries so CI can archive them and
diff runs — the same contract as
:class:`repro.analysis.verify.result.CheckResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.battery import STATUS_OPEN, STATUS_WAIVED, clip

#: Finding severities.  ``error`` findings gate CI; ``warning`` findings
#: are advisory (no current rule emits one, but the report machinery
#: keeps the distinction so a future rule can soft-launch).
SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

#: How a status reads in the finding table.
_STATUS_MARK = {STATUS_OPEN: "OPEN", STATUS_WAIVED: "waived"}


@dataclass
class Finding:
    """One rule violation at one source location.

    * ``rule`` — the rule identifier (``DET001``, ``SER001``, ...).
    * ``severity`` — ``error`` or ``warning``.
    * ``path`` — file path relative to the analyzed root.
    * ``line``/``col`` — 1-based line and 0-based column of the witness.
    * ``message`` — what invariant the code violates.
    * ``witness`` — the offending source snippet (the flagged line,
      stripped), so reports are readable without opening the file.
    * ``hint`` — how to fix it (or how to waive it when the code is
      intentionally exempt).
    * ``status``/``waiver`` — a finding is ``open`` unless a well-formed
      inline waiver comment (``repro-check: ignore[RULE] reason``) covers
      its line, in which case it is ``waived`` but still reported —
      suppressions stay auditable; ``waiver`` carries the mandatory
      reason text of the covering comment.
    """

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str
    witness: str = ""
    hint: str = ""
    status: str = STATUS_OPEN
    waiver: str = ""

    @property
    def ok(self) -> bool:
        """True unless the finding is an open (unwaived) error."""
        return not (
            self.status == STATUS_OPEN and self.severity == SEVERITY_ERROR
        )

    @property
    def location(self) -> str:
        """``path:line`` — the clickable anchor used by reports."""
        return f"{self.path}:{self.line}"

    def row(self) -> Tuple[str, ...]:
        """The finding under :attr:`LintRun.header`."""
        return (
            self.rule,
            self.severity,
            self.location,
            _STATUS_MARK.get(self.status, self.status),
            clip(self.message, 64),
        )

    def note(self) -> Optional[str]:
        """The waiver's reason, or the open finding and how to fix it."""
        if self.status == STATUS_WAIVED:
            return f"waived: {self.rule} at {self.location} -- {self.waiver}"
        if self.ok:
            return None
        hint = f" (hint: {self.hint})" if self.hint else ""
        return (
            f"OPEN: {self.rule} at {self.location} -- {self.message}{hint}"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "witness": self.witness,
            "hint": self.hint,
            "status": self.status,
            "waiver": self.waiver,
        }


@dataclass
class Waiver:
    """One parsed ``# repro-check: ignore[...]`` comment.

    ``line`` is the source line the waiver *covers*: the comment's own
    line for a trailing comment, the following line for a comment that
    stands alone.  ``rules`` is the set of rule ids inside the brackets;
    ``reason`` the mandatory free text after them.  ``used`` flips when a
    finding consumes the waiver, so unconsumed waivers can be reported
    (rule WVR002).
    """

    line: int
    comment_line: int
    rules: List[str] = field(default_factory=list)
    reason: str = ""
    used: bool = False

    def covers(self, rule: str, line: int) -> bool:
        return line == self.line and rule in self.rules


__all__ = [
    "Finding",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "Waiver",
]
