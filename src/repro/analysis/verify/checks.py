"""The registry of named deadlock-freedom / structure checks.

Each check inspects one routing algorithm instance (which carries its
topology) and returns an :class:`Outcome`; :func:`evaluate` turns one
(check, algorithm) cell into a
:class:`~repro.analysis.verify.result.CheckResult`, applying the waiver
table for known, documented failures.  The battery encodes the paper's
correctness claims — Lemma 1 for the hop schemes
(``rank_monotonicity``), minimality (``candidate_minimality``),
Dally–Seitz acyclicity with a cycle witness (``acyclicity``; 2pn on tori
is waived: its claim rests only on the reachability argument of the
paper's companion report), Table 1's VC budgets (``vc_provisioning``),
the adaptivity classes by exact path counts (``adaptivity``), no dead
end (``escape_reachability``) — plus the engines' route-table memo
contract (``route_memo``).  All but ``vc_provisioning`` read one walk
per algorithm instance, :func:`~repro.routing.relation.routing_relation`
(its first check pays for it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

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
from repro.analysis.battery import (
    STATUS_ERROR,
    STATUS_FAIL,
    STATUS_PASS,
    STATUS_SKIPPED,
    STATUS_WAIVED,
)
from repro.analysis.verify.result import CheckResult, Witness
from repro.routing.base import RoutingAlgorithm
from repro.routing.hop_base import HopClassScheme
from repro.routing.multilane import MultiLane
from repro.routing.relation import routing_relation
from repro.util.errors import ReproError


@dataclass
class Outcome:
    """What a check function reports before waivers are applied."""

    status: str
    detail: str = ""
    witness: Witness = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)


#: What a check is: one algorithm in, one outcome out.
CheckFn = Callable[[RoutingAlgorithm], Outcome]


@dataclass(frozen=True)
class Check:
    """One registered check."""

    name: str
    description: str
    applies: Callable[[RoutingAlgorithm], bool]
    run: CheckFn

#: Registered checks, in registration (= presentation) order.
CHECKS: Dict[str, Check] = {}


def register_check(
    name: str,
    description: str,
    applies: Optional[Callable[[RoutingAlgorithm], bool]] = None,
) -> Callable[[CheckFn], CheckFn]:
    """Class-decorator-style registration of a check function."""

    def decorator(run: CheckFn) -> CheckFn:
        if name in CHECKS:
            raise ValueError(f"check {name!r} is already registered")
        CHECKS[name] = Check(
            name=name,
            description=description,
            applies=applies if applies is not None else lambda _: True,
            run=run,
        )
        return run

    return decorator


# ---------------------------------------------------------------------------
# waivers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Waiver:
    """A documented, accepted failure of one (check, algorithm) pair."""

    check: str
    algorithm: str
    reason: str
    condition: Callable[[RoutingAlgorithm], bool] = lambda _: True


def _has_wrap(algorithm: RoutingAlgorithm) -> bool:
    return any(link.wraps for link in algorithm.topology.links)


_2PN_WAIVER_REASON = (
    "2pn's may-wait dependency graph is cyclic on tori (mixed wrap/"
    "non-wrap messages share one tag class), but a message waits on its "
    "whole candidate set, so Dally-Seitz acyclicity is sufficient, not "
    "necessary.  The waiver rests only on the reachability argument of "
    "the paper's companion report: nothing in this repository shows 2pn "
    "deadlock-free, and a partial deadlock the global watchdog cannot "
    "see forms at 16x16, load 0.5, seed 1 (ROADMAP item 1)."
)

#: Known acceptable failures.  Base names only: a lane wrapper
#: (:class:`MultiLane`, e.g. ``2pnx2``) inherits its inner algorithm's.
WAIVERS: List[Waiver] = [
    Waiver(
        check="acyclicity",
        algorithm="2pn",
        reason=_2PN_WAIVER_REASON,
        condition=_has_wrap,
    ),
]


def _unwrap(algorithm: RoutingAlgorithm) -> Tuple[RoutingAlgorithm, int]:
    """The algorithm under a lane wrapper, and its lane count."""
    if isinstance(algorithm, MultiLane):
        return algorithm.inner, algorithm.lanes
    return algorithm, 1


def find_waiver(check: str, algorithm: RoutingAlgorithm) -> Optional[str]:
    """The waiver reason for (check, algorithm), or None."""
    names = (algorithm.name, _unwrap(algorithm)[0].name)
    for waiver in WAIVERS:
        if waiver.check == check and waiver.algorithm in names:
            if waiver.condition(algorithm):
                return waiver.reason
    return None


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------


def _invariant(
    check: Callable[[Any], int], algorithm: RoutingAlgorithm, unit: str, ok: str
) -> Outcome:
    """An :mod:`~repro.analysis.invariants` check as an outcome."""
    try:
        count = check(algorithm)
    except InvariantViolation as exc:
        return Outcome(STATUS_FAIL, str(exc))
    return Outcome(
        STATUS_PASS, f"{count} {unit} {ok} over all rows", counts={unit: count}
    )


@register_check(
    "rank_monotonicity",
    "Lemma 1: buffer-class ranks strictly increase along every hop",
    applies=lambda algorithm: isinstance(algorithm, HopClassScheme),
)
def _check_rank_monotonicity(algorithm: RoutingAlgorithm) -> Outcome:
    return _invariant(
        check_rank_monotonicity, algorithm, "transitions", "increase rank"
    )


@register_check(
    "candidate_minimality",
    "every candidate hop moves strictly closer to the destination",
)
def _check_minimality(algorithm: RoutingAlgorithm) -> Outcome:
    return _invariant(
        check_candidates_minimal, algorithm, "candidates", "minimal"
    )


@register_check(
    "acyclicity",
    "Dally-Seitz: the may-wait channel dependency graph has no cycle",
)
def _check_acyclicity(algorithm: RoutingAlgorithm) -> Outcome:
    edges = build_dependency_graph(algorithm)
    n_edges = sum(len(targets) for targets in edges.values())
    counts = {"resources": len(edges), "dependencies": n_edges}
    cycle = find_cycle(edges)
    if cycle is None:
        return Outcome(
            STATUS_PASS,
            f"acyclic: {len(edges)} resources, {n_edges} dependencies",
            counts=counts,
        )
    return Outcome(
        STATUS_FAIL,
        f"may-wait cycle of {len(cycle)} resources "
        f"(link, vc_class): {cycle}",
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


@register_check(
    "vc_provisioning",
    "virtual-channel budget matches the paper's Table 1 formula",
)
def _check_vc_provisioning(algorithm: RoutingAlgorithm) -> Outcome:
    expected = _expected_virtual_channels(algorithm)
    actual = algorithm.num_virtual_channels
    if expected is None:
        return Outcome(
            STATUS_SKIPPED,
            f"no closed-form VC requirement known for "
            f"{algorithm.name!r} (provisions {actual})",
        )
    counts = {"expected": expected, "actual": actual}
    if actual != expected:
        return Outcome(
            STATUS_FAIL,
            f"{algorithm.name} provisions {actual} virtual channels; "
            f"the paper's formula requires {expected}",
            counts=counts,
        )
    return Outcome(
        STATUS_PASS,
        f"{actual} virtual channels per physical channel, as required",
        counts=counts,
    )


@register_check(
    "adaptivity",
    "the permitted-path count matches the declared adaptivity class",
)
def _check_adaptivity(algorithm: RoutingAlgorithm) -> Outcome:
    relation = routing_relation(algorithm)
    pairs = len(relation.starts)
    adaptive_pairs = restricted_pairs = total_paths = 0
    for src, dst in relation.starts:
        permitted = relation.path_count(src, dst)
        minimal = count_minimal_paths(algorithm, src, dst)
        if not 0 < permitted <= minimal:
            return Outcome(
                STATUS_FAIL,
                f"{algorithm.name} permits {permitted} paths {src}->{dst}, "
                f"where {minimal} minimal paths exist",
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
        return Outcome(
            STATUS_PASS,
            f"{kind} classification confirmed over {pairs} pairs "
            f"({total_paths} permitted paths)",
            counts=counts,
        )
    return Outcome(STATUS_FAIL, f"{algorithm.name} {wrong}", counts=counts)


@register_check(
    "escape_reachability",
    "no reachable routing state is a dead end; all candidates provisioned",
)
def _check_escape_reachability(algorithm: RoutingAlgorithm) -> Outcome:
    relation = routing_relation(algorithm)
    for (node, dst, key), (flats, _successors) in relation.rows.items():
        if not flats:
            return Outcome(
                STATUS_FAIL,
                f"{algorithm.name}: dead end at node {node} while routing "
                f"to {dst} (state key {key!r}): a worm holding channels "
                "here could never drain",
            )
    for (node, dst, key), (link, vc_class) in relation.unprovisioned.items():
        return Outcome(
            STATUS_FAIL,
            f"{algorithm.name}: class {vc_class} on link {link} at node "
            f"{node} (to {dst}, state key {key!r}) is outside the "
            f"{relation.num_vcs} provisioned virtual channels",
        )
    candidates = sum(len(flats) for flats, _ in relation.rows.values())
    return Outcome(
        STATUS_PASS,
        f"{len(relation.rows)} reachable rows, none a dead end; "
        f"{candidates} candidates all provisioned",
        counts={"rows": len(relation.rows), "candidates": candidates},
    )


@register_check(
    "route_memo",
    "states with one route-table key route alike (the engines' memo)",
)
def _check_route_memo(algorithm: RoutingAlgorithm) -> Outcome:
    relation = routing_relation(algorithm)
    conflicts = relation.conflicts
    counts = {"rows": len(relation.rows), "conflicts": len(conflicts)}
    for key, other in conflicts.items():
        return Outcome(
            STATUS_FAIL,
            f"{algorithm.name}: {len(conflicts)} route-table keys stand for "
            f"states that route differently; first (node, dst, key) "
            f"{key!r}: row {relation.rows[key]!r} vs {other!r}",
            witness=[key],
            counts=counts,
        )
    return Outcome(
        STATUS_PASS, f"{len(relation.rows)} rows, one per key", counts=counts
    )


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def evaluate(
    check: Check, algorithm: RoutingAlgorithm, topology_label: str
) -> CheckResult:
    """Run one check on one algorithm, applying waivers, never raising."""
    if not check.applies(algorithm):
        outcome = Outcome(STATUS_SKIPPED, f"not applicable to {algorithm.name}")
    else:
        try:
            outcome = check.run(algorithm)
        except ReproError as exc:
            outcome = Outcome(STATUS_ERROR, f"{type(exc).__name__}: {exc}")
    waiver: Optional[str] = None
    if outcome.status == STATUS_FAIL:
        waiver = find_waiver(check.name, algorithm)
    return CheckResult(
        check=check.name,
        algorithm=algorithm.name,
        topology=topology_label,
        status=outcome.status if waiver is None else STATUS_WAIVED,
        detail=outcome.detail,
        waiver=waiver,
        witness=outcome.witness,
        counts=outcome.counts,
    )


__all__ = [
    "CHECKS",
    "Check",
    "Outcome",
    "WAIVERS",
    "Waiver",
    "evaluate",
    "find_waiver",
    "register_check",
]
