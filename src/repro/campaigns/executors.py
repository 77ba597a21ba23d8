"""The binding :func:`~repro.campaigns.orchestrator.run_campaign` reaches
``run_points`` through — what is left of the executor seam.  The frozen
ledger (``benchmarks/ledger/trace.py``) patches this attribute by name;
the module goes with the next ``benchmark`` PR.
"""

from repro.experiments.parallel import run_points

__all__ = ["run_points"]
