"""Deadlock-freedom verification.

A table of named structural checks (:mod:`~repro.analysis.verify.checks`)
runs over every registered routing algorithm x a matrix of mesh/torus
topologies (:mod:`~repro.analysis.verify.runner`, which also names the
statuses and renders the report), producing structured
pass/fail/waived verdicts with witnesses.  ``repro-campaign verify`` is the
CLI.  See ``docs/verification.md``.
"""

from repro.analysis.verify.runner import run_verification

__all__ = ["run_verification"]
