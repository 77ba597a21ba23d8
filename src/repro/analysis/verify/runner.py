"""Run the check battery over algorithms x topologies.

The runner sweeps every registered routing algorithm (or a chosen subset)
over a matrix of mesh/torus topologies, evaluates every applicable check,
and collects :class:`~repro.analysis.verify.result.CheckResult` verdicts.
Every run walks every check: a report holds only verdicts the run that
wrote it computed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, List, Optional, Tuple

from repro.analysis.battery import (
    REPORT_VERSION,
    Run,
    STATUS_ERROR,
    STATUS_FAIL,
    STATUS_PASS,
    STATUS_SKIPPED,
    STATUS_WAIVED,
)
from repro.analysis.verify.checks import CHECKS, evaluate
from repro.analysis.verify.result import CheckResult
from repro.routing.registry import iter_algorithms
from repro.topology import split_topology
from repro.topology.base import Topology
from repro.topology.mesh import Mesh
from repro.topology.torus import Torus
from repro.util.errors import ConfigurationError

#: Result emitted when an algorithm refuses a topology altogether.
INSTANTIATE_CHECK = "instantiate"

#: Default verification matrix: small enough for exhaustive walks, wrap
#: and no-wrap variants of the paper's 2-D networks.
DEFAULT_TOPOLOGIES = ("torus:4x4", "mesh:4x4")


def parse_topology(spec: str) -> Tuple[str, Topology]:
    """Build the topology named by a ``kind:RxR[xR...]`` spec string.

    ``torus:4x4`` is a 4-ary 2-cube; ``mesh:3x3x3`` a 3-ary 3-mesh: one
    radix per dimension (a campaign spec gives it once), uniform across
    dimensions (the paper's k-ary n-cubes).  Returns the normalised
    label together with the topology.
    """
    kind, radices = split_topology(spec)
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
class VerificationRun(Run):
    """All verdicts of one runner invocation plus run metadata."""

    noun: ClassVar[str] = "verdicts"
    statuses: ClassVar[Tuple[str, ...]] = (
        STATUS_PASS, STATUS_SKIPPED, STATUS_WAIVED, STATUS_FAIL, STATUS_ERROR
    )
    header: ClassVar[Tuple[str, ...]] = (
        "topology", "algorithm", "check", "status", "time", "detail"
    )

    results: List[CheckResult] = field(default_factory=list)
    topologies: List[str] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def records(self) -> List[CheckResult]:
        return self.results

    def scope(self) -> str:
        return ", ".join(self.topologies)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": REPORT_VERSION,
            "topologies": list(self.topologies),
            "wall_time": round(self.wall_time, 6),
            "summary": self.summary(),
            "results": [result.to_dict() for result in self.results],
        }


def run_verification(
    topology_specs: Optional[List[str]] = None,
    algorithms: Optional[List[str]] = None,
    checks: Optional[List[str]] = None,
) -> VerificationRun:
    """Evaluate the check battery and return every verdict.

    *topology_specs* defaults to :data:`DEFAULT_TOPOLOGIES`; *algorithms*
    defaults to the whole registry; *checks* defaults to every registered
    check.
    """
    started = time.perf_counter()
    specs = (
        list(topology_specs)
        if topology_specs
        else list(DEFAULT_TOPOLOGIES)
    )
    if checks is not None:
        unknown = [name for name in checks if name not in CHECKS]
        if unknown:
            raise ConfigurationError(
                f"unknown checks: {', '.join(unknown)}; "
                f"available: {', '.join(CHECKS)}"
            )
        selected = [CHECKS[name] for name in checks]
    else:
        selected = list(CHECKS.values())

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
            for check in selected:
                check_started = time.perf_counter()
                result = evaluate(check, algorithm, label)
                result.wall_time = time.perf_counter() - check_started
                run.results.append(result)
    run.wall_time = time.perf_counter() - started
    return run


__all__ = [
    "DEFAULT_TOPOLOGIES",
    "INSTANTIATE_CHECK",
    "VerificationRun",
    "parse_topology",
    "run_verification",
]
