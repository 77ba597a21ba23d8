"""Run the check battery over algorithms x topologies, and report it.

The runner sweeps every registered routing algorithm (or a chosen subset)
over a matrix of mesh/torus topologies, evaluates every check of
:data:`~repro.analysis.verify.checks.CHECKS`, collects one
:class:`~repro.analysis.verify.checks.CheckResult` per verdict and
renders them (:func:`format_table`, :func:`format_summary`).  Every run
walks every check: a report holds only verdicts the run that wrote it
computed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, List, Optional, Sequence, Tuple

from repro.analysis.verify.checks import (
    CHECKS,
    STATUS_ERROR,
    STATUS_FAIL,
    STATUS_PASS,
    STATUS_SKIPPED,
    STATUS_WAIVED,
    CheckResult,
    evaluate,
)
from repro.routing.registry import iter_algorithms
from repro.topology import split_topology
from repro.topology.base import Topology
from repro.topology.mesh import Mesh
from repro.topology.torus import Torus
from repro.util.errors import ConfigurationError

#: The ``version`` every run's ``to_dict()`` report carries.
REPORT_VERSION = 2

#: Result emitted when an algorithm refuses a topology altogether.
INSTANTIATE_CHECK = "instantiate"

#: Default verification matrix: small enough for exhaustive walks, wrap
#: and no-wrap variants of the paper's 2-D networks.
DEFAULT_TOPOLOGIES = ("torus:4x4", "mesh:4x4")

#: How a status reads in the verdict table.
_STATUS_MARK = {
    STATUS_PASS: "ok",
    STATUS_SKIPPED: "--",
    STATUS_WAIVED: "WAIVED",
    STATUS_FAIL: "FAIL",
    STATUS_ERROR: "ERROR",
}


def clip(text: str, limit: int) -> str:
    """*text* on one line, cut to *limit* characters for a table cell."""
    text = text.replace("\n", " ")
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _row(result: CheckResult) -> Tuple[str, ...]:
    """*result* under :attr:`VerificationRun.header`."""
    return (
        result.topology,
        result.algorithm,
        result.check,
        _STATUS_MARK.get(result.status, result.status),
        f"{result.wall_time:.2f}s",
        clip(result.detail, 60),
    )


def _note(result: CheckResult) -> Optional[str]:
    """*result*'s waiver reason, or what failed."""
    where = f"{result.algorithm}/{result.check} on {result.topology}"
    if result.status == STATUS_WAIVED and result.waiver:
        return f"waived: {where} -- {result.waiver}"
    if result.status in (STATUS_FAIL, STATUS_ERROR):
        return f"{result.status.upper()}: {where} -- {result.detail}"
    return None


def parse_topology(spec: str) -> Tuple[str, Topology]:
    """Build the topology named by a ``kind:RxR[xR...]`` spec string.

    ``torus:4x4`` is a 4-ary 2-cube; ``mesh:3x3x3`` a 3-ary 3-mesh: one
    radix per dimension (a campaign spec gives it once), uniform across
    dimensions (the paper's k-ary n-cubes).  Returns the normalised
    label together with the topology.
    """
    kind, radices = split_topology(spec, "torus:16x16")
    if len(set(radices)) != 1:
        raise ConfigurationError(
            f"topology spec {spec!r}: non-uniform radix; k-ary n-cubes "
            "need the same radix in every dimension"
        )
    radix, n_dims = radices[0], len(radices)
    topology = (
        Torus(radix, n_dims) if kind == "torus" else Mesh(radix, n_dims)
    )
    return f"{kind}:" + "x".join(map(str, radices)), topology


@dataclass
class VerificationRun:
    """All verdicts of one runner invocation plus run metadata."""

    statuses: ClassVar[Tuple[str, ...]] = (
        STATUS_PASS, STATUS_SKIPPED, STATUS_WAIVED, STATUS_FAIL, STATUS_ERROR
    )
    header: ClassVar[Tuple[str, ...]] = (
        "topology", "algorithm", "check", "status", "time", "detail"
    )

    results: List[CheckResult] = field(default_factory=list)
    topologies: List[str] = field(default_factory=list)
    wall_time: float = 0.0

    def ok(self, fail_on_error: bool = False) -> bool:
        """False when a verdict must fail the invocation: an unwaived
        failure, and with *fail_on_error* a crashed check as well."""
        return all(
            result.ok
            and not (fail_on_error and result.status == STATUS_ERROR)
            for result in self.results
        )

    def summary(self) -> Dict[str, int]:
        """Status histogram of the verdicts (every status always a key)."""
        summary = {status: 0 for status in self.statuses}
        for result in self.results:
            summary[result.status] += 1
        return summary

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": REPORT_VERSION,
            "topologies": list(self.topologies),
            "wall_time": round(self.wall_time, 6),
            "summary": self.summary(),
            "results": [result.to_dict() for result in self.results],
        }


def format_table(run: VerificationRun) -> str:
    """Every verdict of *run* as a fixed-width text table."""
    rows = [_row(result) for result in run.results]
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
    lines.extend(filter(None, (_note(result) for result in run.results)))
    return "\n".join(lines)


def run_verification(
    topology_specs: Optional[Sequence[str]] = None,
    algorithms: Optional[Sequence[str]] = None,
    checks: Optional[Sequence[str]] = None,
) -> VerificationRun:
    """Evaluate the check battery and return every verdict.

    *topology_specs* defaults to :data:`DEFAULT_TOPOLOGIES`; *algorithms*
    defaults to the whole registry; *checks* defaults to every check.  An
    empty selection is an error: a run that checks nothing proves nothing.
    """
    started = time.perf_counter()
    specs = list(
        DEFAULT_TOPOLOGIES if topology_specs is None else topology_specs
    )
    for what, selection in (
        ("topologies", specs), ("algorithms", algorithms), ("checks", checks)
    ):
        if selection is not None and not selection:
            raise ConfigurationError(f"verify needs at least one of {what}")
    if checks is not None:
        unknown = [name for name in checks if name not in CHECKS]
        if unknown:
            raise ConfigurationError(
                f"unknown checks: {', '.join(unknown)}; "
                f"available: {', '.join(CHECKS)}"
            )
    selected = list(CHECKS) if checks is None else list(checks)

    run = VerificationRun()
    for spec in specs:
        label, topology = parse_topology(spec)
        run.topologies.append(label)
        for name, algorithm, skip_reason in iter_algorithms(
            topology, algorithms
        ):
            if algorithm is None:
                run.results.append(
                    CheckResult(
                        check=INSTANTIATE_CHECK,
                        algorithm=name,
                        topology=label,
                        status=STATUS_SKIPPED,
                        detail=skip_reason or "not instantiable",
                    )
                )
                continue
            run.results.extend(
                evaluate(check, algorithm, label) for check in selected
            )
    run.wall_time = time.perf_counter() - started
    return run


__all__ = [
    "DEFAULT_TOPOLOGIES",
    "INSTANTIATE_CHECK",
    "REPORT_VERSION",
    "VerificationRun",
    "clip",
    "format_summary",
    "format_table",
    "parse_topology",
    "run_verification",
]
