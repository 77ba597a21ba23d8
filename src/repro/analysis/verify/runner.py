"""Run the check battery over algorithms x topologies, with caching.

The runner sweeps every registered routing algorithm (or a chosen subset)
over a matrix of mesh/torus topologies, evaluates every applicable check,
and collects :class:`~repro.analysis.verify.result.CheckResult` verdicts.

Verdicts are pure functions of the source code, so they are cached in
the ``verify`` section of the battery cache
(:class:`repro.analysis.battery.Cache`), keyed on a hash of the packages
the checks depend on (``repro.routing``, ``repro.topology``,
``repro.analysis``, ``repro.util``): a CI re-run on an unchanged tree
replays the cache instead of re-walking every state space.  Any edit to
those packages changes the hash and invalidates the whole section —
conservative, but never stale.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, ClassVar, Dict, List, Optional, Tuple

import repro
from repro.analysis.battery import (
    Cache,
    REPORT_VERSION,
    Run,
    STATUS_ERROR,
    STATUS_FAIL,
    STATUS_PASS,
    STATUS_SKIPPED,
    STATUS_WAIVED,
    source_hash,
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

#: Packages whose source determines every verdict.
_HASHED_SUBPACKAGES = ("routing", "topology", "analysis", "util")

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


def verification_code_hash() -> str:
    """SHA-256 over the source files the verdicts depend on."""
    package_root = Path(repro.__file__).resolve().parent
    return source_hash(
        package_root,
        [package_root / subpackage for subpackage in _HASHED_SUBPACKAGES],
    )


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
    code_hash: str = ""
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
            "code_hash": self.code_hash,
            "topologies": list(self.topologies),
            "wall_time": round(self.wall_time, 6),
            "summary": self.summary(),
            "results": [result.to_dict() for result in self.results],
        }


def _replay(entry: Dict[str, Any]) -> CheckResult:
    return CheckResult.from_dict(dict(entry, cached=True))


def run_verification(
    topology_specs: Optional[List[str]] = None,
    algorithms: Optional[List[str]] = None,
    checks: Optional[List[str]] = None,
    cache_path: Optional[str] = None,
) -> VerificationRun:
    """Evaluate the check battery and return every verdict.

    *topology_specs* defaults to :data:`DEFAULT_TOPOLOGIES`; *algorithms*
    defaults to the whole registry; *checks* defaults to every registered
    check.  *cache_path* enables the source-hash result cache.
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

    code_hash = verification_code_hash()
    cache = Cache(cache_path, "verify", code_hash)
    run = VerificationRun(code_hash=code_hash)

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
                key = f"{label}|{name}|{check.name}"
                cached = cache.get(key, _replay)
                if cached is not None:
                    run.results.append(cached)
                    continue
                check_started = time.perf_counter()
                result = evaluate(check, algorithm, label)
                result.wall_time = time.perf_counter() - check_started
                run.results.append(result)
                if result.status != STATUS_ERROR:
                    cache.put(key, result.to_dict())
    cache.save()
    run.wall_time = time.perf_counter() - started
    return run


__all__ = [
    "DEFAULT_TOPOLOGIES",
    "INSTANTIATE_CHECK",
    "VerificationRun",
    "parse_topology",
    "run_verification",
    "verification_code_hash",
]
