"""Parallel sweep execution: fan independent points out to worker processes.

Every point of a load sweep — one (algorithm, traffic, offered load, seed)
combination — is an independent simulation: nothing is shared between
points except the immutable :class:`~repro.simulator.config.SimulationConfig`
that describes each one.  This module exploits that by scheduling points
over a :class:`~concurrent.futures.ProcessPoolExecutor`:

* **Nothing mutable crosses process boundaries.**  Each worker receives a
  pickled config and builds its own topology, algorithm and traffic
  pattern from it, exactly as the serial path does per point, so serial
  and parallel sweeps are bit-identical (the test suite asserts this).
* **Determinism.**  A point's result is a pure function of its config
  (the rng streams derive from ``config.seed`` via an explicit integer
  mix, never from process state), so completion order cannot affect
  results; they are reassembled in submission order.
* **Checkpointing.**  With a checkpoint path, every finished point is
  appended to a content-addressed result-store file
  (:class:`repro.campaigns.store.ResultStore`) keyed by the point's
  identity and campaign signature (a hash of the shared config fields).
  Re-running an interrupted campaign skips completed points — including
  individual members of a batch-backend seed group — and a worker
  failure never discards finished sibling points: everything completed
  is persisted before the error propagates.  Corrupt or stale
  checkpoint files are surfaced with a warning and preserved as
  ``.corrupt``/``.stale`` sidecars, never silently overwritten; legacy
  (v1, whole-file JSON) checkpoints are migrated in place.
* **Ordered progress reporting.**  Progress lines are emitted as points
  finish, tagged ``[done/total]``, so a long 16x16 campaign is watchable
  from the terminal.

Worker processes are only worth their startup cost for real campaigns;
``jobs=1`` (the default everywhere) runs the exact same point list in
process, through the same checkpoint logic.
"""

from __future__ import annotations

import dataclasses
import sys
from contextlib import closing
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

from repro.campaigns.identity import (
    SIGNATURE_EXCLUDED,
    campaign_signature,
    config_record_dict,
    point_key,
)
from repro.campaigns.store import LEGACY_CHECKPOINT_VERSION, ResultStore
from repro.experiments.runner import run_batch, run_point
from repro.simulator.config import SimulationConfig
from repro.stats.summary import SimulationResult

#: Schema version of the legacy whole-file checkpoint layout (kept for
#: the in-place migration; new checkpoints are store records).
CHECKPOINT_VERSION = LEGACY_CHECKPOINT_VERSION


class ResultSink(Protocol):
    """What run_points needs from a checkpoint/result store.

    :class:`SweepCheckpoint` (one campaign's resume guard) and
    :class:`repro.campaigns.orchestrator.StoreSink` (the campaign
    orchestrator's store adapter) both speak it.
    """

    def get(self, key: str) -> Optional[SimulationResult]:
        """A previously recorded result for *key*, if any."""

    def record(
        self,
        key: str,
        result: SimulationResult,
        config: Optional[SimulationConfig] = None,
    ) -> None:
        """Persist one finished point."""


class SweepCheckpoint:
    """Per-point resume guard for one campaign, backed by a ResultStore.

    Thin adapter: the store holds one append-only record per finished
    point (shared across campaigns — recording a point is O(that
    record), not O(points so far)); this class scopes lookups to one
    campaign's signature so ``repro-sweep --checkpoint`` behaves exactly
    as before.  Legacy whole-file checkpoints are migrated on open;
    corrupt or foreign files are quarantined with a warning instead of
    silently overwritten.
    """

    def __init__(self, path: str, signature: str) -> None:
        self.path = path
        self.signature = signature
        self._store = ResultStore(path, legacy_signature=signature)

    def get(self, key: str) -> Optional[SimulationResult]:
        return self._store.get_record(self.signature, key)

    def __len__(self) -> int:
        return len(self._store)

    def close(self) -> None:
        self._store.close()

    def record(
        self,
        key: str,
        result: SimulationResult,
        config: Optional[SimulationConfig] = None,
    ) -> None:
        """Append one finished point (O(record) bytes, not O(N))."""
        config_dict = config_record_dict(config) if config is not None else None
        self._store.put_record(self.signature, key, result, config_dict)


def _run_point_worker(config: SimulationConfig) -> SimulationResult:
    """Worker entry: build everything from the config, run to convergence.

    Top-level (picklable) on purpose.  The worker shares nothing with the
    parent: topology, algorithm, traffic and rng streams are all built
    from the pickled config inside :func:`run_point`.
    """
    return run_point(config)


def _run_batch_worker(
    configs: Sequence[SimulationConfig],
) -> List[SimulationResult]:
    """Worker entry for one seed-batch: configs differ only by seed.

    The whole batch advances in lockstep inside one
    :class:`~repro.simulator.batch.BatchEngine`; results come back in
    the order of *configs* (= seed order), each what that seed yields
    in a batch of any other composition.
    """
    return run_batch(configs[0], [config.seed for config in configs])


def _batch_groups(
    configs: Sequence[SimulationConfig],
    pending: Sequence[int],
    batch_size: int,
) -> List[List[int]]:
    """Chunk pending batch-backend points into seed-batches.

    Points sharing every field but the seed land in one group (in
    submission order), split into chunks of at most *batch_size*; a
    worker claims a whole chunk per task instead of one seed.  Only
    *pending* (un-checkpointed) members are grouped, so resuming an
    interrupted campaign re-runs exactly the missing seeds of a group,
    never its already-recorded siblings.
    """
    by_key: Dict[Tuple[object, ...], List[int]] = {}
    for index in pending:
        config = configs[index]
        # The signature stands for every campaign-shared field.
        key = (campaign_signature(config),) + tuple(
            getattr(config, name)
            for name in SIGNATURE_EXCLUDED
            if name != "seed"
        )
        by_key.setdefault(key, []).append(index)
    groups: List[List[int]] = []
    for members in by_key.values():
        for start in range(0, len(members), batch_size):
            groups.append(members[start:start + batch_size])
    return groups


def run_points(
    configs: Sequence[SimulationConfig],
    jobs: int = 1,
    checkpoint_path: Optional[str] = None,
    verbose: bool = False,
    progress: Optional[Callable[[str], None]] = None,
    batch_size: int = 32,
    checkpoint: Optional[ResultSink] = None,
) -> List[SimulationResult]:
    """Run every config, fanning out to *jobs* worker processes.

    Results come back in the order of *configs* regardless of completion
    order.  With a checkpoint (a path, or any object speaking the
    ``get``/``record`` protocol — e.g. a campaign store sink),
    previously completed points are skipped and new completions are
    persisted as they land.

    Points whose config selects ``backend="batch"`` are grouped into
    seed-batches of at most *batch_size*: a worker claims a whole batch
    (points identical except for the seed) and runs it in one lockstep
    :class:`~repro.simulator.batch.BatchEngine`, instead of one point.
    Per-seed results and checkpoint records do not depend on the
    grouping.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if progress is None:
        def progress(line: str) -> None:
            if verbose:
                print(line, file=sys.stderr)

    if checkpoint is None and checkpoint_path is not None:
        signature = (
            campaign_signature(configs[0]) if configs else "empty"
        )
        with closing(SweepCheckpoint(checkpoint_path, signature)) as owned:
            return run_points(
                configs, jobs, progress=progress, batch_size=batch_size,
                checkpoint=owned,
            )

    total = len(configs)
    results: List[Optional[SimulationResult]] = [None] * total
    pending: List[int] = []
    for index, config in enumerate(configs):
        cached = (
            checkpoint.get(point_key(config)) if checkpoint else None
        )
        if cached is not None:
            results[index] = cached
            progress(f"  [skip] {config.label()} (checkpointed)")
        else:
            pending.append(index)

    done = total - len(pending)

    def finish(index: int, result: SimulationResult) -> None:
        nonlocal done
        results[index] = result
        if checkpoint is not None:
            checkpoint.record(
                point_key(configs[index]), result, configs[index]
            )
        done += 1
        progress(f"  [{done}/{total}] {result}")

    # One task per point for the object backend; one task per
    # seed-batch for the batch backend.  Mixed lists are handled
    # point-by-point within each class.
    batch_pending = [
        index for index in pending
        if configs[index].backend == "batch"
    ]
    single_pending = [
        index for index in pending
        if configs[index].backend != "batch"
    ]
    groups = _batch_groups(configs, batch_pending, batch_size)

    def finish_group(members: List[int],
                     group_results: List[SimulationResult]) -> None:
        for index, result in zip(members, group_results):
            finish(index, result)

    if jobs == 1 or len(pending) <= 1:
        for index in single_pending:
            finish(index, _run_point_worker(configs[index]))
        for members in groups:
            finish_group(
                members,
                _run_batch_worker([configs[index] for index in members]),
            )
    else:
        workers = min(jobs, len(single_pending) + len(groups))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            point_futures = {
                pool.submit(_run_point_worker, configs[index]): index
                for index in single_pending
            }
            group_futures = {
                pool.submit(
                    _run_batch_worker,
                    [configs[index] for index in members],
                ): members
                for members in groups
            }
            # Deterministic drain order (the `finished` sets below are
            # hash-ordered): process completions by submission index.
            submit_order: Dict[Future, int] = {
                future: index for future, index in point_futures.items()
            }
            for future, members in group_futures.items():
                submit_order[future] = members[0]
            remaining = set(point_futures) | set(group_futures)
            error: Optional[Exception] = None
            while remaining:
                finished, remaining = wait(
                    remaining, return_when=FIRST_COMPLETED
                )
                for future in sorted(finished, key=submit_order.__getitem__):
                    # A failed worker must not discard its finished
                    # siblings: every completed point (including the
                    # other members of this `finished` set) is recorded
                    # before the first error propagates.
                    try:
                        if future in point_futures:
                            finish(point_futures[future], future.result())
                        else:
                            finish_group(
                                group_futures[future], future.result()
                            )
                    except Exception as exc:
                        if error is None:
                            error = exc
                if error is not None and checkpoint is None:
                    break  # nothing to persist: fail fast
            if error is not None:
                raise error

    return [result for result in results if result is not None]


def run_sweep_points(
    base_config: SimulationConfig,
    algorithms: Sequence[str],
    offered_loads: Sequence[float],
    seeds: Optional[Sequence[int]] = None,
) -> List[SimulationConfig]:
    """The full (algorithm x load [x seed]) point grid of one campaign."""
    seed_list: Iterable[int] = (
        seeds if seeds is not None else (base_config.seed,)
    )
    return [
        dataclasses.replace(
            base_config,
            algorithm=algorithm,
            offered_load=load,
            seed=seed,
        )
        for algorithm in algorithms
        for load in offered_loads
        for seed in seed_list
    ]


__all__ = [
    "CHECKPOINT_VERSION",
    "ResultSink",
    "SweepCheckpoint",
    "campaign_signature",
    "point_key",
    "run_points",
    "run_sweep_points",
]
