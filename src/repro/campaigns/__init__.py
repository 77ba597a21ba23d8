"""repro.campaigns — declarative campaigns over a memoized result store.

The pieces, layered bottom-up:

* :mod:`repro.campaigns.identity` — content addresses of simulation
  points (``campaign_signature`` / ``point_key`` / ``result_key``).
* :mod:`repro.campaigns.store` — :class:`ResultStore`, the append-only
  content-addressed store shared across campaigns.
* :mod:`repro.campaigns.spec` — :class:`CampaignSpec`, the declarative
  (topology x traffic x algorithm x load x seed) grid.
* :mod:`repro.campaigns.orchestrator` — :func:`run_campaign`: expand,
  :func:`repro.experiments.parallel.run_points` over the store, report.
  (:mod:`repro.campaigns.executors` is the one binding it calls through,
  kept until the ledger stops patching it.)
* :mod:`repro.campaigns.export` — CSV/tables straight from the store.
* :mod:`repro.campaigns.cli` — the ``repro-campaign`` entry point.

Exports resolve lazily: :mod:`repro.experiments.parallel` imports the
store layer from here, so importing this package must not (circularly)
pull in the orchestrator.
"""

from types import MappingProxyType

__all__ = [
    "CampaignReport",
    "CampaignSpec",
    "ResultStore",
    "TrafficSpec",
    "campaign_signature",
    "point_key",
    "run_campaign",
]

# Read-only lazy-import table (immutable so ProcessPool workers can never
# drift from the parent — the DET005 worker-shared-state discipline).
_LAZY_EXPORTS = MappingProxyType(
    {
        "CampaignReport": ("repro.campaigns.orchestrator", "CampaignReport"),
        "CampaignSpec": ("repro.campaigns.spec", "CampaignSpec"),
        "ResultStore": ("repro.campaigns.store", "ResultStore"),
        "TrafficSpec": ("repro.campaigns.spec", "TrafficSpec"),
        "campaign_signature": (
            "repro.campaigns.identity",
            "campaign_signature",
        ),
        "point_key": ("repro.campaigns.identity", "point_key"),
        "run_campaign": ("repro.campaigns.orchestrator", "run_campaign"),
    }
)


def __getattr__(name: str) -> object:
    """Lazily resolve exports so the store layer imports stay acyclic."""
    target = _LAZY_EXPORTS.get(name)
    if target is None:
        raise AttributeError(
            f"module 'repro.campaigns' has no attribute {name!r}"
        )
    module_name, attr = target
    import importlib

    value = getattr(importlib.import_module(module_name), attr)
    globals()[name] = value
    return value
