"""The one scheduler: every point list meets the result store here.

Every point of a load sweep — one (algorithm, traffic, offered load, seed)
combination — is an independent simulation: nothing is shared between
points except the immutable :class:`~repro.simulator.config.SimulationConfig`
that describes each one.  :func:`run_points` is the only function that
takes a list of them to results, for ``repro-campaign`` and the
library's :func:`~repro.experiments.sweep.sweep_algorithms` alike,
serially or over a
:class:`~concurrent.futures.ProcessPoolExecutor`:

* **Nothing mutable crosses process boundaries.**  Each worker receives a
  pickled config and builds its own topology, algorithm and traffic
  pattern from it, exactly as the serial path does per point, so serial
  and parallel sweeps are bit-identical (the test suite asserts this).
* **Determinism.**  A point's result is a pure function of its config
  (the rng streams derive from ``config.seed`` via an explicit integer
  mix, never from process state), so completion order cannot affect
  results; they are reassembled in submission order.
* **One sink.**  With a :class:`repro.campaigns.store.ResultStore`
  (``store=``, opened and closed by the caller) every config is looked
  up with ``store.get(config)`` — under its *own* content address,
  checked against the config stored beside the result — and every
  completion is appended with ``store.put(config, result)`` as it
  lands.  A list may mix campaigns freely; the store is the one
  ``repro-campaign`` reads and writes.  Re-running an interrupted list
  skips completed points — including individual members of a
  batch-backend seed group — and a worker failure never discards
  finished sibling points: everything completed is persisted before the
  error propagates.  Without a store the first failure cancels the
  points still queued and propagates at once.  Files the store does not
  recognise (v1 whole-file checkpoints included) are preserved as a
  ``.corrupt`` sidecar with a warning, never silently overwritten.
* **Ordered progress reporting.**  With a *progress* callable, a header
  counts the points found in the store, each of those gets a ``[skip]``
  line, and each completion a ``[done/total]`` line with the ETA its
  rate implies, so a long 16x16 campaign is watchable from the terminal.

Worker processes are only worth their startup cost for real campaigns;
``jobs=1`` (the default everywhere) runs the exact same point list in
process, through the same store logic.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from time import monotonic
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.campaigns.identity import (
    SIGNATURE_EXCLUDED,
    campaign_signature,
    point_key,
)
from repro.campaigns.store import ResultStore
from repro.experiments.runner import run_batch, run_point
from repro.simulator.config import SimulationConfig
from repro.stats.summary import SimulationResult

def format_eta(seconds: float) -> str:
    """*seconds* as ``H:MM:SS`` (progress lines, campaign summaries)."""
    seconds = max(int(round(seconds)), 0)
    hours, rest = divmod(seconds, 3600)
    minutes, secs = divmod(rest, 60)
    return f"{hours}:{minutes:02d}:{secs:02d}"


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
    progress: Optional[Callable[[str], None]] = None,
    batch_size: int = 32,
    store: Optional[ResultStore] = None,
) -> List[SimulationResult]:
    """Run every config, fanning out to *jobs* worker processes.

    Results come back in the order of *configs* regardless of completion
    order.  With a *store*, every config it already holds a result for
    is served from it and every new completion is appended as it lands;
    each config is addressed on its own, so one list may mix message
    lengths, switching modes or whole campaigns.

    Points whose config selects ``backend="batch"`` are grouped into
    seed-batches of at most *batch_size*: a worker claims a whole batch
    (points identical except for the seed) and runs it in one lockstep
    :class:`~repro.simulator.batch.BatchEngine`, instead of one point.
    Per-seed results and store records do not depend on the grouping.

    Progress lines go to *progress*; without it, none is formatted.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")

    total = len(configs)
    results: List[Optional[SimulationResult]] = (
        [None] * total if store is None
        else [store.get(config) for config in configs]
    )
    pending = [index for index in range(total) if results[index] is None]
    done = hits = total - len(pending)
    if progress is not None and store is not None:
        progress(
            f"{total} points: {hits} in the store, "
            f"{len(pending)} to simulate"
        )
        for config, cached in zip(configs, results):
            if cached is not None:
                progress(f"  [skip] {config.label()} (checkpointed)")
    started = monotonic()

    def finish(index: int, result: SimulationResult) -> None:
        nonlocal done
        results[index] = result
        if store is not None:
            store.put(configs[index], result)
        done += 1
        if progress is not None:
            # The ETA the simulation rate so far implies.
            rate = (monotonic() - started) / (done - hits)
            progress(
                f"  [{done}/{total}] {result} "
                f"| eta {format_eta((total - done) * rate)}"
            )

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
                if error is not None and store is None:
                    # Nothing to persist: fail fast.  Cancel the queued
                    # points, or leaving the pool would run them all
                    # first; started ones still finish.
                    for future in remaining:
                        future.cancel()
                    break
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
    "campaign_signature",
    "format_eta",
    "point_key",
    "run_points",
    "run_sweep_points",
]
