"""Structured verdicts produced by the verification checks.

One :class:`CheckResult` records the outcome of one (check, algorithm,
topology) cell of the verification matrix.  Results serialise to plain
JSON dictionaries so CI can archive them and diff runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.battery import (
    STATUS_ERROR,
    STATUS_FAIL,
    STATUS_PASS,
    STATUS_SKIPPED,
    STATUS_WAIVED,
    clip,
)

#: One virtual channel, as named in witnesses: (link index, vc class).
Witness = List[Tuple[int, int]]

#: How a status reads in the verdict table.
_STATUS_MARK = {
    STATUS_PASS: "ok",
    STATUS_SKIPPED: "--",
    STATUS_WAIVED: "WAIVED",
    STATUS_FAIL: "FAIL",
    STATUS_ERROR: "ERROR",
}


@dataclass
class CheckResult:
    """The verdict of one check on one (algorithm, topology) pair.

    * ``status`` — ``pass``, ``fail``, ``waived`` (the check failed but a
      registered waiver explains why that is acceptable), ``skipped``
      (check or algorithm not applicable) or ``error`` (the check itself
      crashed).
    * ``witness`` — for cycle checks, the resources along one offending
      cycle; empty otherwise.
    * ``counts`` — check-specific work counters (transitions walked,
      paths enumerated, ...), useful for spotting vacuous passes.
    """

    check: str
    algorithm: str
    topology: str
    status: str
    detail: str = ""
    waiver: Optional[str] = None
    witness: Witness = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        """True unless the result is an unwaived failure."""
        return self.status != STATUS_FAIL

    def row(self) -> Tuple[str, ...]:
        """The result under :attr:`VerificationRun.header`."""
        return (
            self.topology,
            self.algorithm,
            self.check,
            _STATUS_MARK.get(self.status, self.status),
            f"{self.wall_time:.2f}s",
            clip(self.detail, 60),
        )

    def note(self) -> Optional[str]:
        """The waiver's reason, or what failed."""
        where = f"{self.algorithm}/{self.check} on {self.topology}"
        if self.status == STATUS_WAIVED and self.waiver:
            return f"waived: {where} -- {self.waiver}"
        if self.status in (STATUS_FAIL, STATUS_ERROR):
            return f"{self.status.upper()}: {where} -- {self.detail}"
        return None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "check": self.check,
            "algorithm": self.algorithm,
            "topology": self.topology,
            "status": self.status,
            "detail": self.detail,
            "waiver": self.waiver,
            "witness": [list(resource) for resource in self.witness],
            "counts": dict(self.counts),
            "wall_time": round(self.wall_time, 6),
        }


__all__ = [
    "CheckResult",
    "Witness",
]
