"""Tests for ``repro.analysis.lint``: rules, waivers, the runner, and
the ``repro-check lint`` CLI.

Rule behaviour is proven against the fixture tree in
``tests/lint_fixtures``: every ``bad/`` module must trigger exactly its
rule, every ``good/`` counterpart must stay silent under the full
battery.  The fixture layout mirrors the package layout because several
rules are path-scoped (DET002 only fires inside the deterministic core,
DET001 exempts ``util/rng.py``, ...).
"""

import json
from pathlib import Path

import pytest

from repro.analysis.battery import STATUS_OPEN, STATUS_WAIVED
from repro.analysis.check import main as check_main
from repro.analysis.lint import (
    RULES,
    analyze_source,
    run_lint,
)
from repro.util.errors import ConfigurationError

FIXTURES = Path(__file__).parent / "lint_fixtures"
BAD = FIXTURES / "bad"
GOOD = FIXTURES / "good"

#: (fixture path, the one rule it must trigger).
BAD_CASES = [
    ("simulator/det001_random.py", "DET001"),
    ("simulator/det002_clock.py", "DET002"),
    ("simulator/engine.py", "DET002"),
    ("simulator/det003_sets.py", "DET003"),
    ("det004_id.py", "DET004"),
    ("simulator/det005_state.py", "DET005"),
    ("ser001_dropped.py", "SER001"),
]

#: Compliant counterparts that must produce zero findings.
GOOD_CASES = [
    "simulator/det001_ok.py",
    "util/rng.py",
    "simulator/det003_ok.py",
    "det004_ok.py",
    "simulator/det005_ok.py",
    "ser001_ok.py",
]


def lint_main(argv):
    """``repro-check lint ARGV``."""
    return check_main(["lint", *argv])


def analyze_fixture(root, relpath, rules=None):
    source = (root / relpath).read_text(encoding="utf-8")
    return analyze_source(source, relpath, rules)


class TestFixtureTreeIsComplete:
    def test_every_real_rule_has_a_bad_fixture(self):
        covered = {rule for _, rule in BAD_CASES}
        real = {
            name
            for name in RULES
            if not name.startswith("WVR")  # exercised by TestWaivers
        }
        assert covered == real

    def test_case_lists_match_the_tree(self):
        on_disk = {
            path.relative_to(BAD).as_posix() for path in BAD.rglob("*.py")
        }
        assert on_disk == {relpath for relpath, _ in BAD_CASES}
        on_disk = {
            path.relative_to(GOOD).as_posix() for path in GOOD.rglob("*.py")
        }
        assert on_disk == set(GOOD_CASES)


class TestRulesFire:
    @pytest.mark.parametrize("relpath,rule", BAD_CASES)
    def test_bad_fixture_triggers_exactly_its_rule(self, relpath, rule):
        findings = analyze_fixture(BAD, relpath)
        assert findings, f"{relpath} produced no findings"
        assert {finding.rule for finding in findings} == {rule}
        for finding in findings:
            assert finding.status == STATUS_OPEN
            assert not finding.ok
            assert finding.path == relpath
            assert finding.line >= 1
            assert finding.message and finding.witness and finding.hint

    @pytest.mark.parametrize("relpath,rule", BAD_CASES)
    def test_rule_subset_selection(self, relpath, rule):
        findings = analyze_fixture(BAD, relpath, rules=[rule])
        assert findings
        assert all(finding.rule == rule for finding in findings)

    def test_det003_catches_every_ordering_shape(self):
        messages = " ".join(
            finding.message
            for finding in analyze_fixture(BAD, "simulator/det003_sets.py")
        )
        assert "iteration over a set" in messages
        assert "materialises a set" in messages
        assert "set.pop()" in messages

    def test_path_scoping_disarms_core_rules(self):
        """The same wall-clock source is fine outside the core."""
        source = (BAD / "simulator/det002_clock.py").read_text(
            encoding="utf-8"
        )
        assert analyze_source(source, "experiments/det002_clock.py") == []

    def test_unknown_rule_is_rejected(self):
        with pytest.raises(ConfigurationError):
            analyze_source("x = 1\n", "mod.py", rules=["NOPE999"])


class TestRulesSilent:
    @pytest.mark.parametrize("relpath", GOOD_CASES)
    def test_good_fixture_is_clean(self, relpath):
        assert analyze_fixture(GOOD, relpath) == []


WAIVED_SOURCE = (
    "def order(items):\n"
    "    key = lambda item: id(item)"
    "  # repro-check: ignore[DET004] documented tie-break\n"
    "    return sorted(items, key=key)\n"
)

REASONLESS_SOURCE = (
    "def order(items):\n"
    "    key = lambda item: id(item)  # repro-check: ignore[DET004]\n"
    "    return sorted(items, key=key)\n"
)

STANDALONE_SOURCE = (
    "def order(items):\n"
    "    # repro-check: ignore[DET004] documented tie-break\n"
    "    key = lambda item: id(item)\n"
    "    return sorted(items, key=key)\n"
)

UNUSED_SOURCE = (
    "# repro-check: ignore[DET004] nothing here to waive\n"
    "def order(items):\n"
    "    return sorted(items)\n"
)


class TestWaivers:
    def test_trailing_waiver_with_reason_waives(self):
        findings = analyze_source(WAIVED_SOURCE, "mod.py")
        assert [finding.rule for finding in findings] == ["DET004"]
        finding = findings[0]
        assert finding.status == STATUS_WAIVED
        assert finding.waiver == "documented tie-break"
        assert finding.ok

    def test_standalone_waiver_covers_the_next_line(self):
        findings = analyze_source(STANDALONE_SOURCE, "mod.py")
        assert [finding.status for finding in findings] == [STATUS_WAIVED]

    def test_waiver_without_reason_does_not_waive(self):
        findings = analyze_source(REASONLESS_SOURCE, "mod.py")
        by_rule = {finding.rule: finding for finding in findings}
        assert set(by_rule) == {"DET004", "WVR001"}
        assert by_rule["DET004"].status == STATUS_OPEN
        assert not by_rule["WVR001"].ok

    def test_unused_waiver_is_reported(self):
        findings = analyze_source(UNUSED_SOURCE, "mod.py")
        assert [finding.rule for finding in findings] == ["WVR002"]
        assert "unused waiver" in findings[0].message

    def test_waiver_for_the_wrong_rule_does_not_waive(self):
        source = WAIVED_SOURCE.replace("DET004", "DET001")
        findings = analyze_source(source, "mod.py")
        by_rule = {finding.rule for finding in findings}
        assert "DET004" in by_rule  # still open
        assert "WVR002" in by_rule  # and the DET001 waiver is unused

    def test_subset_runs_skip_waiver_hygiene(self):
        """A partial battery cannot tell stale from deselected."""
        findings = analyze_source(UNUSED_SOURCE, "mod.py", rules=["DET004"])
        assert findings == []

    def test_docstring_mentions_are_not_waivers(self):
        source = (
            '"""Docs quoting repro-check: ignore[DET004] syntax."""\n'
            "def order(items):\n"
            "    return sorted(items, key=lambda item: id(item))\n"
        )
        findings = analyze_source(source, "mod.py")
        assert [finding.rule for finding in findings] == ["DET004"]
        assert findings[0].status == STATUS_OPEN


class TestRunner:
    def test_syntax_error_becomes_a_parse_finding(self, tmp_path):
        root = tmp_path / "pkg"
        root.mkdir()
        (root / "broken.py").write_text("def f(:\n", encoding="utf-8")
        run = run_lint(root=root)
        assert [finding.rule for finding in run.findings] == ["PARSE"]
        assert not run.ok()


class TestRealTree:
    def test_installed_package_has_zero_open_findings(self):
        """The acceptance gate: the lint battery runs clean on
        src/repro."""
        run = run_lint()
        open_findings = [
            finding
            for finding in run.findings
            if finding.status == STATUS_OPEN
        ]
        assert run.ok(), [str(finding) for finding in open_findings]
        assert open_findings == []

    def test_every_shipped_waiver_carries_a_reason(self):
        run = run_lint()
        waived = [
            finding
            for finding in run.findings
            if finding.status == STATUS_WAIVED
        ]
        for finding in waived:
            assert finding.waiver, f"reasonless waiver: {finding.location}"


class TestCli:
    def test_clean_root_exits_zero(self, capsys):
        assert lint_main([str(GOOD), "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "0 findings" in out

    def test_bad_root_exits_one(self, capsys):
        assert lint_main([str(BAD), "--fail-on-error"]) == 1
        out = capsys.readouterr().out
        for _, rule in BAD_CASES:
            assert rule in out

    def test_json_report(self, tmp_path):
        report = tmp_path / "lint.json"
        code = lint_main(
            [str(BAD), "--quiet", "--json", str(report)]
        )
        assert code == 1
        data = json.loads(report.read_text(encoding="utf-8"))
        assert data["summary"]["open"] == len(data["findings"])
        reported = {item["rule"] for item in data["findings"]}
        assert reported == {rule for _, rule in BAD_CASES}

    def test_rule_subset(self, capsys):
        assert (
            lint_main(
                [str(GOOD), "--quiet", "--rules", "DET001"]
            )
            == 0
        )

    def test_unknown_rule_exits_two(self, capsys):
        """A retired rule's name is as unknown as a made-up one."""
        for rule in ("NOPE", "HOT001"):
            assert lint_main([str(GOOD), "--rules", rule]) == 2
            assert "unknown rules" in capsys.readouterr().err

    def test_root_and_all_conflict(self, capsys):
        """``--all`` named the default and went with the old script: with
        a root, as before, a usage error."""
        with pytest.raises(SystemExit) as exit_info:
            lint_main([str(GOOD), "--all"])
        assert exit_info.value.code == 2
