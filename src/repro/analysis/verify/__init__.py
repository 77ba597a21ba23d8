"""Deadlock-freedom verification framework.

A registry of named structural checks (:mod:`~repro.analysis.verify.checks`)
runs over every registered routing algorithm x a matrix of mesh/torus
topologies (:mod:`~repro.analysis.verify.runner`), producing structured
pass/fail/waived verdicts with witnesses (:mod:`~repro.analysis.verify.result`).
Statuses, cache and report formats are the battery seam's
(:mod:`repro.analysis.battery`); ``repro-check verify`` is the CLI.  See
``docs/verification.md``.
"""

from repro.analysis.verify.checks import (
    CHECKS,
    Check,
    Outcome,
    WAIVERS,
    Waiver,
    evaluate,
    find_waiver,
    register_check,
)
from repro.analysis.verify.result import CheckResult
from repro.analysis.verify.runner import (
    DEFAULT_TOPOLOGIES,
    VerificationRun,
    parse_topology,
    run_verification,
    verification_code_hash,
)

__all__ = [
    "CHECKS",
    "Check",
    "CheckResult",
    "DEFAULT_TOPOLOGIES",
    "Outcome",
    "VerificationRun",
    "WAIVERS",
    "Waiver",
    "evaluate",
    "find_waiver",
    "parse_topology",
    "register_check",
    "run_verification",
    "verification_code_hash",
]
