"""``repro.analysis.lint`` — AST-based determinism & hot-path analyzer.

A rule-registry static analyzer in the mould of
:mod:`repro.analysis.verify`: where the verify battery proves the
*routing algorithms'* statically checkable properties (escape-channel
discipline, dependency acyclicity), this package proves the *engine's*
statically checkable determinism discipline — no global random state, no
wall-clock in the core, no hash-ordered decisions, no worker-shared
mutable state, full serializer coverage, and allocation-free hot paths.

Statuses and report formats are the battery seam's
(:mod:`repro.analysis.battery`).  See ``docs/static-analysis.md`` for
the rule catalogue and the waiver syntax; ``repro-check lint`` is the
CLI.
"""

from repro.analysis.lint.finding import (
    Finding,
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    Waiver,
)
from repro.analysis.lint.rules import (
    ModuleContext,
    RULES,
    Rule,
    SERIALIZE_EXCLUDE_ATTR,
    build_context,
    register_rule,
)
from repro.analysis.lint.runner import (
    LintRun,
    analyze_source,
    apply_waivers,
    default_root,
    parse_waivers,
    run_lint,
)

__all__ = [
    "Finding",
    "LintRun",
    "ModuleContext",
    "RULES",
    "Rule",
    "SERIALIZE_EXCLUDE_ATTR",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "Waiver",
    "analyze_source",
    "apply_waivers",
    "build_context",
    "default_root",
    "parse_waivers",
    "register_rule",
    "run_lint",
]
