"""Campaign orchestration: spec -> ``run_points`` over the store -> report.

:func:`run_campaign` expands a :class:`~repro.campaigns.spec.CampaignSpec`
and hands the whole point list, with the
:class:`~repro.campaigns.store.ResultStore`, to
:func:`repro.experiments.parallel.run_points` — the one place a point
list meets the store.  Every point already stored is served from disk (a
cache hit costs no simulation at all) and each fresh completion is
appended as it lands, so an interrupted campaign resumes per point, and
the *next* campaign (or ``run_points(..., store=)`` call) that shares
points starts from them for free.  The caller opens and closes the
store, and receives progress lines only through *progress*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import monotonic
from typing import Callable, List, Optional

from repro.campaigns import executors
from repro.campaigns.spec import CampaignSpec
from repro.campaigns.store import ResultStore
from repro.experiments.parallel import format_eta
from repro.simulator.config import SimulationConfig
from repro.stats.summary import SimulationResult


@dataclass
class CampaignReport:
    """What one campaign run did: totals, cache hits, timing, results."""

    name: str
    total: int
    cached: int
    simulated: int
    seconds: float
    configs: List[SimulationConfig] = field(default_factory=list)
    results: List[SimulationResult] = field(default_factory=list)

    @property
    def all_cached(self) -> bool:
        return self.simulated == 0 and self.cached == self.total

    def summary(self) -> str:
        return (
            f"campaign {self.name!r}: {self.total} points, "
            f"cache hits: {self.cached}/{self.total}, "
            f"simulated {self.simulated} in {format_eta(self.seconds)}"
        )


def run_campaign(
    spec: CampaignSpec,
    store: ResultStore,
    jobs: int = 1,
    progress: Optional[Callable[[str], None]] = None,
    batch_size: int = 32,
) -> CampaignReport:
    """Run every point of *spec*, serving repeats from *store*.

    Results come back in the spec's expansion order.  Fresh points are
    appended to the store as they finish; a second identical run is
    100% cache hits and performs zero engine invocations.  *progress*
    receives ``run_points``' header, ``[skip]`` and ETA lines; the
    report's :meth:`~CampaignReport.summary` is the caller's to print.

    The report's cached / simulated split is read off the store's
    growth — every fresh point is exactly one new record — so the store
    is probed once per point, by ``run_points``.  A spec that lists the
    same point twice simulates it twice into one record, and the report
    counts the second copy as cached.
    """
    started = monotonic()
    configs = spec.expand()
    held = len(store)
    # Through the module attribute the ledger's tracer patches.
    results = executors.run_points(
        configs,
        jobs=jobs,
        progress=progress,
        batch_size=batch_size,
        store=store,
    )
    simulated = len(store) - held
    return CampaignReport(
        name=spec.name,
        total=len(configs),
        cached=len(configs) - simulated,
        simulated=simulated,
        seconds=round(monotonic() - started, 3),
        configs=configs,
        results=results,
    )


__all__ = ["CampaignReport", "run_campaign"]
