"""The registry of named deadlock-freedom / structure checks.

Each check inspects one routing algorithm instance (which carries its
topology) and returns an :class:`Outcome`.  The registry maps check names
to :class:`Check` records; :func:`evaluate` turns one (check, algorithm)
cell into a :class:`~repro.analysis.verify.result.CheckResult`, applying
the waiver table for known, documented failures.

The battery encodes the paper's correctness claims:

* ``rank_monotonicity`` — Lemma 1 for the hop schemes: buffer-class ranks
  strictly increase along every reachable hop.
* ``candidate_minimality`` — every algorithm is minimal (which also rules
  out livelock).
* ``acyclicity`` — Dally–Seitz channel-dependency acyclicity, with a
  cycle witness on failure.  2pn on tori carries a documented waiver: its
  *may-wait* graph is cyclic, and the paper's deadlock-freedom claim
  rests on a reachability argument plus the empirical watchdog evidence.
* ``vc_provisioning`` — the virtual-channel budget matches the paper's
  closed-form requirements (Table 1).
* ``adaptivity`` — the fully/partially/non-adaptive classification is
  real: path enumeration against the minimal-path count.
* ``escape_reachability`` — no reachable routing state is a dead end:
  every undelivered configuration offers at least one provisioned
  candidate, so a blocked worm always has a channel whose grant lets it
  drain (the escape-style progress property that carries 2pn and nlast
  where acyclicity alone does not certify them).
"""

from __future__ import annotations

import copy
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Optional, Set, Tuple

from repro.analysis.dependency_graph import (
    build_dependency_graph,
    find_cycle,
)
from repro.analysis.invariants import (
    InvariantViolation,
    check_candidates_minimal,
    check_rank_monotonicity,
    count_minimal_paths,
    enumerate_paths,
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
from repro.util.errors import ReproError
from repro.util.fingerprint import state_fingerprint


@dataclass
class Outcome:
    """What a check function reports before waivers are applied."""

    status: str
    detail: str = ""
    witness: Witness = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class Check:
    """One registered check."""

    name: str
    description: str
    applies: Callable[[RoutingAlgorithm], bool]
    run: Callable[[RoutingAlgorithm], Outcome]


#: Registered checks, in registration (= presentation) order.
CHECKS: Dict[str, Check] = {}


def register_check(
    name: str,
    description: str,
    applies: Optional[Callable[[RoutingAlgorithm], bool]] = None,
) -> Callable[[Callable[[RoutingAlgorithm], Outcome]], Callable[
        [RoutingAlgorithm], Outcome]]:
    """Class-decorator-style registration of a check function."""

    def decorator(
        run: Callable[[RoutingAlgorithm], Outcome]
    ) -> Callable[[RoutingAlgorithm], Outcome]:
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
    "necessary.  The paper's deadlock-freedom claim rests on the "
    "reachability argument of its companion report; empirically backed "
    "here by the watchdog overload stress tests "
    "(tests/test_engine_congestion_watchdog.py) and the "
    "escape_reachability check."
)

#: Known acceptable failures.  Base names only: a multilane wrapper
#: (e.g. ``2pnx2``) inherits its inner algorithm's waiver by base name.
WAIVERS: List[Waiver] = [
    Waiver(
        check="acyclicity",
        algorithm="2pn",
        reason=_2PN_WAIVER_REASON,
        condition=_has_wrap,
    ),
]


def find_waiver(check: str, algorithm: RoutingAlgorithm) -> Optional[str]:
    """The waiver reason for (check, algorithm), or None."""
    base_name = algorithm.name.split("x")[0]
    for waiver in WAIVERS:
        if waiver.check != check:
            continue
        if waiver.algorithm not in (algorithm.name, base_name):
            continue
        if waiver.condition(algorithm):
            return waiver.reason
    return None


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------


@register_check(
    "rank_monotonicity",
    "Lemma 1: buffer-class ranks strictly increase along every hop",
    applies=lambda algorithm: isinstance(algorithm, HopClassScheme),
)
def _check_rank_monotonicity(algorithm: RoutingAlgorithm) -> Outcome:
    assert isinstance(algorithm, HopClassScheme)
    try:
        checked = check_rank_monotonicity(algorithm)
    except InvariantViolation as exc:
        return Outcome(STATUS_FAIL, str(exc))
    return Outcome(
        STATUS_PASS,
        f"{checked} rank transitions strictly increasing",
        counts={"transitions": checked},
    )


@register_check(
    "candidate_minimality",
    "every candidate hop moves strictly closer to the destination",
)
def _check_minimality(algorithm: RoutingAlgorithm) -> Outcome:
    topology = algorithm.topology
    checked = 0
    for src in range(topology.num_nodes):
        for dst in range(topology.num_nodes):
            if src == dst:
                continue
            try:
                checked += check_candidates_minimal(algorithm, src, dst)
            except InvariantViolation as exc:
                return Outcome(STATUS_FAIL, str(exc))
    return Outcome(
        STATUS_PASS,
        f"{checked} candidates minimal over all pairs",
        counts={"candidates": checked},
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

    A trailing ``x<lanes>`` multiplies the base requirement (the multilane
    wrapper of the paper's Section 4 study).
    """
    topology = algorithm.topology
    name = algorithm.name
    lanes = 1
    match = re.fullmatch(r"(?P<base>.+?)x(?P<lanes>\d+)", name)
    if match is not None:
        name = match.group("base")
        lanes = int(match.group("lanes"))
    has_wrap = _has_wrap(algorithm)
    base: Optional[int]
    if name == "ecube":
        base = 2 if has_wrap else 1
    elif name == "nlast":
        base = topology.n_dims + 1 if has_wrap else 1
    elif name == "2pn":
        base = 2**topology.n_dims
    elif name == "phop":
        base = topology.diameter + 1
    elif name in ("nhop", "nbc"):
        base = (topology.diameter + 1) // 2 + 1
    else:
        base = None
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
    "path enumeration matches the declared adaptivity class",
)
def _check_adaptivity(algorithm: RoutingAlgorithm) -> Outcome:
    topology = algorithm.topology
    pairs = 0
    adaptive_pairs = 0
    restricted_pairs = 0
    total_paths = 0
    for src in range(topology.num_nodes):
        for dst in range(topology.num_nodes):
            if src == dst:
                continue
            pairs += 1
            permitted = len(enumerate_paths(algorithm, src, dst))
            minimal = count_minimal_paths(algorithm, src, dst)
            total_paths += permitted
            if permitted == 0:
                return Outcome(
                    STATUS_FAIL,
                    f"{algorithm.name} permits no path {src}->{dst}",
                )
            if permitted > minimal:
                return Outcome(
                    STATUS_FAIL,
                    f"{algorithm.name} permits {permitted} paths "
                    f"{src}->{dst} but only {minimal} minimal paths "
                    "exist (non-minimal or duplicated routes)",
                )
            if permitted > 1:
                adaptive_pairs += 1
            if permitted < minimal:
                restricted_pairs += 1
    counts = {
        "pairs": pairs,
        "paths": total_paths,
        "adaptive_pairs": adaptive_pairs,
        "restricted_pairs": restricted_pairs,
    }
    if algorithm.fully_adaptive and restricted_pairs:
        return Outcome(
            STATUS_FAIL,
            f"{algorithm.name} claims full adaptivity but restricts "
            f"{restricted_pairs}/{pairs} pairs below the minimal-path "
            "count",
            counts=counts,
        )
    if not algorithm.adaptive and adaptive_pairs:
        return Outcome(
            STATUS_FAIL,
            f"{algorithm.name} claims determinism but offers a choice "
            f"on {adaptive_pairs}/{pairs} pairs",
            counts=counts,
        )
    if (
        algorithm.adaptive
        and not algorithm.fully_adaptive
        and adaptive_pairs == 0
        and pairs > 0
    ):
        return Outcome(
            STATUS_FAIL,
            f"{algorithm.name} claims partial adaptivity but offers no "
            "choice on any pair",
            counts=counts,
        )
    kind = (
        "fully adaptive"
        if algorithm.fully_adaptive
        else ("partially adaptive" if algorithm.adaptive else "deterministic")
    )
    return Outcome(
        STATUS_PASS,
        f"{kind} classification confirmed over {pairs} pairs "
        f"({total_paths} permitted paths)",
        counts=counts,
    )


@register_check(
    "escape_reachability",
    "no reachable routing state is a dead end; all candidates provisioned",
)
def _check_escape_reachability(algorithm: RoutingAlgorithm) -> Outcome:
    topology = algorithm.topology
    num_vcs = algorithm.num_virtual_channels
    configurations = 0
    candidates_seen = 0
    for src in range(topology.num_nodes):
        for dst in range(topology.num_nodes):
            if src == dst:
                continue
            frontier: List[Tuple[Any, int]] = [
                (algorithm.new_state(src, dst), src)
            ]
            seen: Set[Tuple[Hashable, int]] = set()
            while frontier:
                state, node = frontier.pop()
                marker = (state_fingerprint(state), node)
                if marker in seen or node == dst:
                    continue
                seen.add(marker)
                configurations += 1
                choices = algorithm.candidates(state, node, dst)
                if not choices:
                    return Outcome(
                        STATUS_FAIL,
                        f"{algorithm.name}: dead end at node {node} while "
                        f"routing {src}->{dst} (no candidate channel; a "
                        "worm holding channels here could never drain)",
                    )
                for link, vc_class in choices:
                    candidates_seen += 1
                    if not 0 <= vc_class < num_vcs:
                        return Outcome(
                            STATUS_FAIL,
                            f"{algorithm.name}: candidate class "
                            f"{vc_class} on link {link.index} outside "
                            f"the {num_vcs} provisioned virtual channels",
                        )
                    next_state = algorithm.advance(
                        copy.copy(state), node, link, vc_class
                    )
                    frontier.append((next_state, link.dst))
    return Outcome(
        STATUS_PASS,
        f"{configurations} reachable configurations, none a dead end; "
        f"{candidates_seen} candidates all provisioned",
        counts={
            "configurations": configurations,
            "candidates": candidates_seen,
        },
    )


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def evaluate(
    check: Check, algorithm: RoutingAlgorithm, topology_label: str
) -> CheckResult:
    """Run one check on one algorithm, applying waivers, never raising."""
    if not check.applies(algorithm):
        return CheckResult(
            check=check.name,
            algorithm=algorithm.name,
            topology=topology_label,
            status=STATUS_SKIPPED,
            detail=f"not applicable to {algorithm.name}",
        )
    try:
        outcome = check.run(algorithm)
    except ReproError as exc:
        return CheckResult(
            check=check.name,
            algorithm=algorithm.name,
            topology=topology_label,
            status=STATUS_ERROR,
            detail=f"{type(exc).__name__}: {exc}",
        )
    status = outcome.status
    waiver: Optional[str] = None
    if status == STATUS_FAIL:
        waiver = find_waiver(check.name, algorithm)
        if waiver is not None:
            status = STATUS_WAIVED
    return CheckResult(
        check=check.name,
        algorithm=algorithm.name,
        topology=topology_label,
        status=status,
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
