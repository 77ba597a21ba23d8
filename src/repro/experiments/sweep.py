"""Load sweeps: the x-axis of every figure in the paper.

Every sweep point is run from a fresh, fully self-contained
:class:`~repro.simulator.config.SimulationConfig`: the topology, routing
algorithm and traffic pattern are rebuilt per point rather than shared
across the sweep.  (Earlier versions shared one algorithm/traffic
instance across all engines of a sweep; although the shipped objects are
stateless after construction — traffic patterns only memoize
deterministic analytics, algorithms keep per-message state on the
messages themselves — sharing made the serial path's semantics subtly
different *in principle* from any parallel execution.  Rebuilding per
point makes the serial path and the process-pool path of
:mod:`repro.experiments.parallel` identical by construction, which the
test suite pins down bit-for-bit.)

One thing does outlive a point: the route table
(:mod:`repro.routing.tables`), a process-level memo of ``(node, dst,
state_key) -> candidate VC indices`` that the engines of one (network,
algorithm) share, so the rungs of a load ladder stop re-deriving each
other's candidate sets.  It cannot change a result, and does not weaken
the serial == pool identity: the table computes every entry with a
topology and algorithm of its own, from the key alone, so an entry's
value is the same whichever point asked first and whatever process it
sits in — history decides only which entries are already there.  A
worker process simply starts with an empty one.

``jobs`` fans the independent points of a sweep out to worker processes;
``checkpoint`` persists per-point results to an append-only result-store
file (:mod:`repro.campaigns.store`) so interrupted campaigns (e.g. a
full-ladder 16x16 figure) resume instead of restarting — and so other
campaigns sharing points (see ``repro-campaign``) reuse them for free.
"""

from __future__ import annotations

import sys
from typing import Dict, Iterable, List, Optional, Sequence

from repro.experiments.parallel import run_points, run_sweep_points
from repro.simulator.config import SimulationConfig
from repro.stats.summary import SimulationResult

#: The offered loads used by the paper's figures (fraction of capacity).
PAPER_LOADS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


def sweep_algorithms(
    base_config: SimulationConfig,
    algorithms: Iterable[str],
    offered_loads: Sequence[float] = PAPER_LOADS,
    verbose: bool = False,
    jobs: int = 1,
    checkpoint: Optional[str] = None,
    seeds: Optional[Sequence[int]] = None,
    batch_size: int = 32,
) -> Dict[str, List[SimulationResult]]:
    """One load sweep per algorithm — the data behind one paper figure.

    All (algorithm x load) points are scheduled in a single pool so the
    slow algorithms and the fast ones share the workers evenly.  With
    several *seeds* and ``base_config.backend == "batch"``, each
    (algorithm, load) point's seeds run in one lockstep batch.
    """
    names = list(algorithms)
    loads = list(offered_loads)
    if verbose and jobs > 1:
        print(
            f"sweeping {len(names)} algorithms x {len(loads)} loads "
            f"on {jobs} workers ...",
            file=sys.stderr,
        )
    configs = run_sweep_points(base_config, names, loads, seeds=seeds)
    results = run_points(
        configs,
        jobs=jobs,
        checkpoint_path=checkpoint,
        verbose=verbose,
        batch_size=batch_size,
    )
    per_algorithm = len(results) // len(names) if names else 0
    return {
        name: results[i * per_algorithm: (i + 1) * per_algorithm]
        for i, name in enumerate(names)
    }


def peak_throughput(results: Sequence[SimulationResult]) -> float:
    """Highest achieved utilization across a sweep (a figure's headline)."""
    return max(
        (result.achieved_utilization for result in results), default=0.0
    )


__all__ = [
    "PAPER_LOADS",
    "peak_throughput",
    "sweep_algorithms",
]
