"""The table of named deadlock-freedom / structure checks.

A check is a plain function from one routing algorithm instance (which
carries its topology) to a :class:`CheckResult` holding what the check
knows: status, detail, witness, counts.  The statuses and
:class:`CheckResult` live here, where the verdicts are made.
:data:`CHECKS` maps each name to its description and function,
in presentation order; :func:`evaluate` runs one by name and adds the
check name, algorithm, topology and wall time.  The battery encodes the
paper's correctness claims — Lemma 1 for the hop schemes
(``rank_monotonicity``), minimality (``candidate_minimality``),
Dally–Seitz acyclicity with a cycle witness (``acyclicity``; it waives
2pn's failure on tori itself: the claim rests only on the reachability
argument of the paper's companion report), Table 1's VC budgets
(``vc_provisioning``), the adaptivity classes by exact path counts
(``adaptivity``), no dead end (``escape_reachability``) — plus the
engines' route-table memo contract (``route_memo``).  All but
``vc_provisioning`` read one walk per algorithm instance,
:func:`~repro.routing.relation.routing_relation` (its first check pays
for it).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import (
    Any, Callable, Dict, Hashable, List, Mapping, Optional, Tuple
)

from repro.analysis.dependency_graph import (
    build_dependency_graph,
    find_cycle,
)
from repro.analysis.invariants import (
    InvariantViolation,
    check_candidates_minimal,
    check_rank_monotonicity,
    count_minimal_paths,
)
from repro.routing.base import RoutingAlgorithm
from repro.routing.hop_base import HopClassScheme
from repro.routing.multilane import MultiLane
from repro.routing.relation import routing_relation

#: Verdict statuses, in increasing order of severity.  ``fail`` /
#: ``error`` are a check that did not hold / that crashed; ``waived`` is
#: a failure its check explains, still reported.
STATUS_PASS = "pass"
STATUS_SKIPPED = "skipped"
STATUS_WAIVED = "waived"
STATUS_FAIL = "fail"
STATUS_ERROR = "error"


@dataclass
class CheckResult:
    """The verdict of one check on one (algorithm, topology) pair.

    A check fills in what it knows (``status``, ``detail``, ``witness``,
    ``counts``, and ``waiver`` when it waives its own failure);
    :func:`evaluate` adds the check name,
    the algorithm, the topology and the wall time.

    * ``status`` — ``pass``, ``fail``, ``waived`` (the check failed but
      explains why that is acceptable, in ``waiver``), ``skipped`` (check
      or algorithm not applicable) or ``error`` (the check itself
      crashed).
    * ``witness`` — for cycle checks, the resources ``(link index, vc
      class)`` along one offending cycle; for ``route_memo``, the first
      conflicting row key ``(node, dst, state key)``; empty otherwise.
    * ``counts`` — check-specific work counters (transitions walked,
      paths enumerated, ...), useful for spotting vacuous passes.
    """

    check: str = ""
    algorithm: str = ""
    topology: str = ""
    status: str = STATUS_ERROR
    detail: str = ""
    waiver: Optional[str] = None
    witness: List[Tuple[Hashable, ...]] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        """True unless the result is an unwaived failure."""
        return self.status != STATUS_FAIL

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


#: What a check is: one algorithm in, the verdict's known fields out.
CheckFn = Callable[[RoutingAlgorithm], CheckResult]


def _unwrap(algorithm: RoutingAlgorithm) -> Tuple[RoutingAlgorithm, int]:
    """The algorithm under a lane wrapper, and its lane count."""
    if isinstance(algorithm, MultiLane):
        return algorithm.inner, algorithm.lanes
    return algorithm, 1


def _has_wrap(algorithm: RoutingAlgorithm) -> bool:
    return any(link.wraps for link in algorithm.topology.links)


def _invariant(
    check: Callable[[Any], int], algorithm: RoutingAlgorithm, unit: str, ok: str
) -> CheckResult:
    """An :mod:`~repro.analysis.invariants` check as a verdict."""
    try:
        count = check(algorithm)
    except InvariantViolation as exc:
        return CheckResult(status=STATUS_FAIL, detail=str(exc))
    return CheckResult(
        status=STATUS_PASS,
        detail=f"{count} {unit} {ok} over all rows",
        counts={unit: count},
    )


def rank_monotonicity(algorithm: RoutingAlgorithm) -> CheckResult:
    if not isinstance(algorithm, HopClassScheme):
        return CheckResult(
            status=STATUS_SKIPPED,
            detail=f"not applicable to {algorithm.name}",
        )
    return _invariant(
        check_rank_monotonicity, algorithm, "transitions", "increase rank"
    )


def candidate_minimality(algorithm: RoutingAlgorithm) -> CheckResult:
    return _invariant(
        check_candidates_minimal, algorithm, "candidates", "minimal"
    )


_2PN_WAIVER_REASON = (
    "2pn's may-wait dependency graph is cyclic on tori (mixed wrap/"
    "non-wrap messages share one tag class), but a message waits on its "
    "whole candidate set, so Dally-Seitz acyclicity is sufficient, not "
    "necessary.  The waiver rests only on the reachability argument of "
    "the paper's companion report: nothing in this repository shows 2pn "
    "deadlock-free, and a partial deadlock the global watchdog cannot "
    "see forms at 16x16, load 0.5, seed 1 (ROADMAP item 1)."
)


def acyclicity(algorithm: RoutingAlgorithm) -> CheckResult:
    """Dally–Seitz; a cycle of 2pn or one of its lane wrappers on a
    topology with wrap links is waived, by the inner algorithm's name
    (an algorithm merely registered as ``2pnxalt`` is judged alone)."""
    edges = build_dependency_graph(algorithm)
    n_edges = sum(len(targets) for targets in edges.values())
    counts = {"resources": len(edges), "dependencies": n_edges}
    cycle = find_cycle(edges)
    if cycle is None:
        return CheckResult(
            status=STATUS_PASS,
            detail=f"acyclic: {len(edges)} resources, {n_edges} dependencies",
            counts=counts,
        )
    waived = _unwrap(algorithm)[0].name == "2pn" and _has_wrap(algorithm)
    return CheckResult(
        status=STATUS_WAIVED if waived else STATUS_FAIL,
        detail=(
            f"may-wait cycle of {len(cycle)} resources "
            f"(link, vc_class): {cycle}"
        ),
        waiver=_2PN_WAIVER_REASON if waived else None,
        witness=list(cycle),
        counts=counts,
    )


def _expected_virtual_channels(algorithm: RoutingAlgorithm) -> Optional[int]:
    """The paper's closed-form VC requirement, or None when unknown.

    A lane wrapper (:class:`MultiLane`, the paper's Section 4 study)
    multiplies its inner algorithm's requirement.
    """
    topology = algorithm.topology
    inner, lanes = _unwrap(algorithm)
    has_wrap = _has_wrap(algorithm)
    negative_hop = (topology.diameter + 1) // 2 + 1
    base = {
        "ecube": 2 if has_wrap else 1,
        "nlast": topology.n_dims + 1 if has_wrap else 1,
        "2pn": 2**topology.n_dims,
        "phop": topology.diameter + 1,
        "nhop": negative_hop,
        "nbc": negative_hop,
    }.get(inner.name)
    return None if base is None else base * lanes


def vc_provisioning(algorithm: RoutingAlgorithm) -> CheckResult:
    expected = _expected_virtual_channels(algorithm)
    actual = algorithm.num_virtual_channels
    if expected is None:
        return CheckResult(
            status=STATUS_SKIPPED,
            detail=(
                f"no closed-form VC requirement known for "
                f"{algorithm.name!r} (provisions {actual})"
            ),
        )
    counts = {"expected": expected, "actual": actual}
    if actual != expected:
        return CheckResult(
            status=STATUS_FAIL,
            detail=(
                f"{algorithm.name} provisions {actual} virtual channels; "
                f"the paper's formula requires {expected}"
            ),
            counts=counts,
        )
    return CheckResult(
        status=STATUS_PASS,
        detail=f"{actual} virtual channels per physical channel, as required",
        counts=counts,
    )


def adaptivity(algorithm: RoutingAlgorithm) -> CheckResult:
    relation = routing_relation(algorithm)
    pairs = len(relation.starts)
    adaptive_pairs = restricted_pairs = total_paths = 0
    for src, dst in relation.starts:
        permitted = relation.path_count(src, dst)
        minimal = count_minimal_paths(algorithm, src, dst)
        if not 0 < permitted <= minimal:
            return CheckResult(
                status=STATUS_FAIL,
                detail=(
                    f"{algorithm.name} permits {permitted} paths "
                    f"{src}->{dst}, where {minimal} minimal paths exist"
                ),
            )
        total_paths += permitted
        adaptive_pairs += permitted > 1
        restricted_pairs += permitted < minimal
    counts = {
        "pairs": pairs,
        "paths": total_paths,
        "adaptive_pairs": adaptive_pairs,
        "restricted_pairs": restricted_pairs,
    }
    fully, adaptive = algorithm.fully_adaptive, algorithm.adaptive
    if fully and restricted_pairs:
        wrong = (
            f"claims full adaptivity but restricts {restricted_pairs}/"
            f"{pairs} pairs below the minimal-path count"
        )
    elif not adaptive and adaptive_pairs:
        wrong = (
            f"claims determinism but offers a choice on "
            f"{adaptive_pairs}/{pairs} pairs"
        )
    elif adaptive and not fully and pairs and not adaptive_pairs:
        wrong = "claims partial adaptivity but offers no choice on any pair"
    else:
        kind = "fully adaptive" if fully else (
            "partially adaptive" if adaptive else "deterministic"
        )
        return CheckResult(
            status=STATUS_PASS,
            detail=(
                f"{kind} classification confirmed over {pairs} pairs "
                f"({total_paths} permitted paths)"
            ),
            counts=counts,
        )
    return CheckResult(
        status=STATUS_FAIL, detail=f"{algorithm.name} {wrong}", counts=counts
    )


def escape_reachability(algorithm: RoutingAlgorithm) -> CheckResult:
    relation = routing_relation(algorithm)
    for (node, dst, key), (flats, _successors) in relation.rows.items():
        if not flats:
            return CheckResult(
                status=STATUS_FAIL,
                detail=(
                    f"{algorithm.name}: dead end at node {node} while "
                    f"routing to {dst} (state key {key!r}): a worm holding "
                    "channels here could never drain"
                ),
            )
    for (node, dst, key), (link, vc_class) in relation.unprovisioned.items():
        return CheckResult(
            status=STATUS_FAIL,
            detail=(
                f"{algorithm.name}: class {vc_class} on link {link} at node "
                f"{node} (to {dst}, state key {key!r}) is outside the "
                f"{relation.num_vcs} provisioned virtual channels"
            ),
        )
    candidates = sum(len(flats) for flats, _ in relation.rows.values())
    return CheckResult(
        status=STATUS_PASS,
        detail=(
            f"{len(relation.rows)} reachable rows, none a dead end; "
            f"{candidates} candidates all provisioned"
        ),
        counts={"rows": len(relation.rows), "candidates": candidates},
    )


def route_memo(algorithm: RoutingAlgorithm) -> CheckResult:
    relation = routing_relation(algorithm)
    conflicts = relation.conflicts
    counts = {"rows": len(relation.rows), "conflicts": len(conflicts)}
    for key, other in conflicts.items():
        return CheckResult(
            status=STATUS_FAIL,
            detail=(
                f"{algorithm.name}: {len(conflicts)} route-table keys stand "
                f"for states that route differently; first (node, dst, key) "
                f"{key!r}: row {relation.rows[key]!r} vs {other!r}"
            ),
            witness=[key],
            counts=counts,
        )
    return CheckResult(
        status=STATUS_PASS,
        detail=f"{len(relation.rows)} rows, one per key",
        counts=counts,
    )


#: Every check, name -> (description, function), in presentation order.
CHECKS: Mapping[str, Tuple[str, CheckFn]] = MappingProxyType({
    "rank_monotonicity": (
        "Lemma 1: buffer-class ranks strictly increase along every hop",
        rank_monotonicity,
    ),
    "candidate_minimality": (
        "every candidate hop moves strictly closer to the destination",
        candidate_minimality,
    ),
    "acyclicity": (
        "Dally-Seitz: the may-wait channel dependency graph has no cycle",
        acyclicity,
    ),
    "vc_provisioning": (
        "virtual-channel budget matches the paper's Table 1 formula",
        vc_provisioning,
    ),
    "adaptivity": (
        "the permitted-path count matches the declared adaptivity class",
        adaptivity,
    ),
    "escape_reachability": (
        "no reachable routing state is a dead end; all candidates provisioned",
        escape_reachability,
    ),
    "route_memo": (
        "states with one route-table key route alike (the engines' memo)",
        route_memo,
    ),
})


def evaluate(
    check: str, algorithm: RoutingAlgorithm, topology_label: str
) -> CheckResult:
    """Run the check named *check* on one algorithm, never raising: an
    exception the check raises is an ``error`` verdict naming its type."""
    function = CHECKS[check][1]
    started = time.perf_counter()
    try:
        result = function(algorithm)
    except Exception as exc:  # a crashed check is a verdict, not a crash
        result = CheckResult(
            status=STATUS_ERROR, detail=f"{type(exc).__name__}: {exc}"
        )
    result.check = check
    result.algorithm = algorithm.name
    result.topology = topology_label
    result.wall_time = time.perf_counter() - started
    return result


__all__ = [
    "CHECKS",
    "CheckFn",
    "CheckResult",
    "STATUS_ERROR",
    "STATUS_FAIL",
    "STATUS_PASS",
    "STATUS_SKIPPED",
    "STATUS_WAIVED",
    "evaluate",
]
