"""Run the rule battery over a source tree.

The runner walks every ``*.py`` file under the analyzed root (by default
the installed ``repro`` package), parses it once, runs every applicable
rule, applies inline waivers, and collects
:class:`~repro.analysis.lint.finding.Finding` records.  Every run
analyzes every file: nothing is kept from one run to the next.

Waiver discipline (the auditable-suppression contract):

* ``# repro-check: ignore[DET003] reason`` waives matching findings on
  its own line, or on the next line when the comment stands alone.
* A waiver **must** carry a reason; a bare ``ignore[...]`` does not
  waive anything and is itself reported (rule ``WVR001``).
* A waiver that matches no finding is reported too (rule ``WVR002``),
  so stale suppressions cannot linger — the static-analysis analogue of
  mypy's ``warn_unused_ignores``.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, ClassVar, Dict, List, Optional, Tuple

import repro
from repro.analysis.battery import (
    REPORT_VERSION,
    Run,
    STATUS_OPEN,
    STATUS_WAIVED,
)
from repro.analysis.lint.finding import Finding, Waiver
from repro.analysis.lint.rules import (
    ModuleContext,
    RULES,
    build_context,
    register_rule,
)
from repro.util.errors import ConfigurationError

#: Waiver comments: ``repro-check: ignore[RULE1,RULE2] mandatory reason``.
WAIVER_PATTERN = re.compile(
    r"#\s*repro-check:\s*ignore\[([A-Za-z0-9_,\s]+)\]\s*(.*)$"
)

# The waiver-audit meta rules are emitted by the runner itself (never
# scheduled per module), registered so reports and the catalogue know
# their severity and summary.
register_rule(
    "WVR001",
    "every waiver carries a reason",
    applies=lambda _: False,
)(lambda ctx: [])
register_rule(
    "WVR002",
    "no waiver outlives the finding it suppresses",
    applies=lambda _: False,
)(lambda ctx: [])


def parse_waivers(ctx: ModuleContext) -> List[Waiver]:
    """Extract every waiver comment from a parsed module.

    Only real ``#`` comments count (tokenize-extracted), so docstrings
    that merely *describe* the waiver syntax never register as waivers.
    A trailing waiver covers its own line; a comment standing alone on
    its line covers the next line.
    """
    waivers: List[Waiver] = []
    for number, comment in sorted(ctx.comments.items()):
        match = WAIVER_PATTERN.search(comment)
        if match is None:
            continue
        rules = [
            part.strip()
            for part in match.group(1).split(",")
            if part.strip()
        ]
        standalone = ctx.lines[number - 1].strip().startswith("#")
        waivers.append(
            Waiver(
                line=number + 1 if standalone else number,
                comment_line=number,
                rules=rules,
                reason=match.group(2).strip(),
            )
        )
    return waivers


def apply_waivers(
    findings: List[Finding],
    waivers: List[Waiver],
    relpath: str,
    lines: List[str],
    audit: bool = True,
) -> List[Finding]:
    """Mark waived findings and, when *audit* is set, report waiver
    hygiene problems (``WVR001``/``WVR002``)."""
    for finding in findings:
        for waiver in waivers:
            if waiver.covers(finding.rule, finding.line):
                waiver.used = True
                if waiver.reason:
                    finding.status = STATUS_WAIVED
                    finding.waiver = waiver.reason
                break
    if not audit:
        return findings
    audited = list(findings)
    for waiver in waivers:
        witness = lines[waiver.comment_line - 1].strip()
        if not waiver.reason:
            audited.append(
                Finding(
                    rule="WVR001",
                    severity=RULES["WVR001"].severity,
                    path=relpath,
                    line=waiver.comment_line,
                    col=0,
                    message=(
                        "waiver without a reason does not waive anything"
                    ),
                    witness=witness,
                    hint=(
                        "append the why: # repro-check: "
                        "ignore[RULE] <reason>"
                    ),
                )
            )
        elif not waiver.used:
            audited.append(
                Finding(
                    rule="WVR002",
                    severity=RULES["WVR002"].severity,
                    path=relpath,
                    line=waiver.comment_line,
                    col=0,
                    message=(
                        "unused waiver: no "
                        f"{'/'.join(waiver.rules)} finding on line "
                        f"{waiver.line}"
                    ),
                    witness=witness,
                    hint="delete the stale waiver comment",
                )
            )
    return audited


def analyze_source(
    source: str,
    relpath: str,
    rules: Optional[List[str]] = None,
) -> List[Finding]:
    """Run the (selected) rule battery over one module's *source*.

    *relpath* places the module in the package layout the path-scoped
    rules understand (e.g. ``simulator/engine.py``).  Waiver hygiene is
    audited only when the full rule set runs — a subset cannot tell a
    stale waiver from one whose rule was deselected.
    """
    full_battery = rules is None
    selected = _select_rules(rules)
    ctx = build_context(relpath, source)
    findings: List[Finding] = []
    for rule in selected:
        if rule.applies(relpath):
            findings.extend(rule.run(ctx))
    findings.sort(key=lambda finding: (finding.line, finding.col))
    return apply_waivers(
        findings,
        parse_waivers(ctx),
        relpath,
        ctx.lines,
        audit=full_battery,
    )


def _select_rules(names: Optional[List[str]]) -> List[Any]:
    if names is None:
        return [
            rule for name, rule in RULES.items()
            if not name.startswith("WVR")
        ]
    unknown = [name for name in names if name not in RULES]
    if unknown:
        raise ConfigurationError(
            f"unknown rules: {', '.join(unknown)}; "
            f"available: {', '.join(RULES)}"
        )
    return [RULES[name] for name in names if not name.startswith("WVR")]


@dataclass
class LintRun(Run):
    """All findings of one runner invocation plus run metadata."""

    noun: ClassVar[str] = "findings"
    statuses: ClassVar[Tuple[str, ...]] = (STATUS_OPEN, STATUS_WAIVED)
    header: ClassVar[Tuple[str, ...]] = (
        "rule", "severity", "location", "status", "message"
    )

    findings: List[Finding] = field(default_factory=list)
    root: str = ""
    files_analyzed: int = 0
    wall_time: float = 0.0

    @property
    def records(self) -> List[Finding]:
        return self.findings

    def scope(self) -> str:
        return f"{self.files_analyzed} analyzed files"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": REPORT_VERSION,
            "root": self.root,
            "files_analyzed": self.files_analyzed,
            "wall_time": round(self.wall_time, 6),
            "summary": self.summary(),
            "findings": [finding.to_dict() for finding in self.findings],
        }


def default_root() -> Path:
    """The installed ``repro`` package — what ``repro-check lint`` scans
    when given no root."""
    return Path(repro.__file__).resolve().parent


def run_lint(
    root: Optional[Path] = None,
    rules: Optional[List[str]] = None,
) -> LintRun:
    """Analyze every ``*.py`` file under *root* and return the findings.

    *root* defaults to :func:`default_root`; *rules* defaults to the
    whole registry.
    """
    started = time.perf_counter()
    base = root if root is not None else default_root()
    base = base.resolve()
    if not base.is_dir():
        raise ConfigurationError(f"lint root {base} is not a directory")
    run = LintRun(root=str(base))
    for path in sorted(base.rglob("*.py")):
        relpath = path.relative_to(base).as_posix()
        source = path.read_text(encoding="utf-8")
        try:
            findings = analyze_source(source, relpath, rules)
        except SyntaxError as exc:
            findings = [
                Finding(
                    rule="PARSE",
                    severity="error",
                    path=relpath,
                    line=exc.lineno or 1,
                    col=exc.offset or 0,
                    message=f"could not parse module: {exc.msg}",
                    hint="fix the syntax error",
                )
            ]
        run.findings.extend(findings)
        run.files_analyzed += 1
    run.wall_time = time.perf_counter() - started
    return run


__all__ = [
    "LintRun",
    "WAIVER_PATTERN",
    "analyze_source",
    "apply_waivers",
    "default_root",
    "parse_waivers",
    "run_lint",
]
