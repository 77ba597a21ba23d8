"""The battery seam (``repro.analysis.battery``) and the one CLI over it.

What each battery checks is tested where it lives (``test_lint.py``,
``test_verify.py``, ``test_equivalence.py``, each through its
``repro-check`` subcommand).  Here: what they share — the bare
``repro-check`` tree gate, where the shared flags may stand, that no
form keeps state between runs — and the names other code holds the seam
to: the two console scripts, and ``run_verification`` as the artifact
ledger's probe calls it.
"""

import inspect
import json
import re
from pathlib import Path

import pytest

from repro.analysis.check import main as check_main
from repro.analysis.lint import run_lint
from repro.analysis.verify.runner import VerificationRun, run_verification

REPO = Path(__file__).resolve().parent.parent
GOOD = Path(__file__).parent / "lint_fixtures" / "good"


def _untimed(text):
    """*text* without its wall times, the one thing two runs may differ in."""
    return re.sub(r"\d+\.\d\ds\b", "", text)


def test_console_scripts_are_exactly_the_two():
    text = (REPO / "pyproject.toml").read_text(encoding="utf-8")
    section = text.split("[project.scripts]\n")[1].split("\n[")[0]
    scripts = dict(re.findall(r'^([\w-]+) = "(.+)"$', section, re.M))
    assert scripts == {
        "repro-campaign": "repro.campaigns.cli:main",
        "repro-check": "repro.analysis.check:main",
    }


class TestTreeGate:
    """``repro-check`` with no subcommand: lint + verify, one report."""

    def test_every_run_computes_every_verdict(
        self, tmp_path, monkeypatch, capsys
    ):
        """Two bare runs in a row print the same verdicts, row for row,
        and leave no file behind but the report asked for."""
        monkeypatch.chdir(tmp_path)
        assert check_main(["--fail-on-error"]) == 0
        first = capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []
        report = tmp_path / "check-report.json"
        assert check_main(["--fail-on-error", "--json", str(report)]) == 0
        second = capsys.readouterr().out
        assert list(tmp_path.iterdir()) == [report]
        assert _untimed(second) == _untimed(first) + f"wrote {report}\n"
        assert "84 verdicts over torus:4x4, mesh:4x4" in second
        data = json.loads(report.read_text(encoding="utf-8"))
        assert sorted(data) == ["lint", "verify"]
        assert data["lint"]["summary"] == {"open": 0, "waived": 1}
        assert data["lint"]["files_analyzed"] > 0
        assert data["verify"]["topologies"] == ["torus:4x4", "mesh:4x4"]
        assert data["verify"]["summary"]["waived"] == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["lint", str(GOOD)],
            ["verify", "--algorithms", "ecube", "--topology", "mesh:4x4"],
        ],
        ids=["lint", "verify"],
    )
    def test_the_check_keeps_no_state(
        self, argv, tmp_path, monkeypatch, capsys
    ):
        """A named battery writes nothing but the report it is asked for
        (the bare form: ``test_every_run_computes_every_verdict``)."""
        monkeypatch.chdir(tmp_path)
        assert check_main(argv + ["--quiet"]) == 0
        assert list(tmp_path.iterdir()) == []
        report = tmp_path / "report.json"
        assert check_main(argv + ["--quiet", "--json", str(report)]) == 0
        assert list(tmp_path.iterdir()) == [report]
        capsys.readouterr()

    def test_a_named_battery_reports_its_run_alone(self, tmp_path, capsys):
        report = tmp_path / "verify.json"
        code = check_main(
            [
                "verify", "--algorithms", "ecube", "--topology", "mesh:4x4",
                "--quiet", "--json", str(report),
            ]
        )
        assert code == 0
        data = json.loads(report.read_text(encoding="utf-8"))
        assert sorted(data) == [
            "results", "summary", "topologies", "version", "wall_time",
        ]
        assert data["version"] == 2

    def test_shared_flags_stand_before_or_after_the_subcommand(
        self, capsys
    ):
        before = check_main(["--quiet", "lint", str(GOOD)])
        out_before = capsys.readouterr().out
        after = check_main(["lint", str(GOOD), "--quiet"])
        out_after = capsys.readouterr().out
        assert before == after == 0
        assert "no findings" not in out_before + out_after  # --quiet held
        assert out_before.startswith("0 findings over 6 analyzed files")

    def test_retired_spellings_are_usage_errors(self, capsys):
        # ... and equivalence gains no flag its old script did not have.
        for argv in (
            ["--all"], ["verify", "--all"], ["equivalence", "--smoke", "--quiet"],
            ["--cache", "X"], ["--no-cache"],
        ):
            with pytest.raises(SystemExit) as exit_info:
                check_main(argv)
            assert exit_info.value.code == 2
        capsys.readouterr()


class TestLedgerProbeContract:
    """``benchmarks/ledger/probes.py`` is frozen: it imports
    ``run_verification`` from ``repro.analysis.verify.runner``, calls it
    with a list of specs, and reads ``.results[*].status`` and
    ``.wall_time``."""

    def test_signature(self):
        parameters = inspect.signature(run_verification).parameters
        assert list(parameters) == ["topology_specs", "algorithms", "checks"]
        assert all(p.default is None for p in parameters.values())
        assert list(inspect.signature(run_lint).parameters) == [
            "root", "rules"
        ]

    def test_probe_call(self):
        run = run_verification(["torus:4x4", "mesh:4x4"])
        assert isinstance(run, VerificationRun)
        assert isinstance(run.wall_time, float) and run.wall_time > 0
        assert len(run.results) == 84
        statuses = {result.status for result in run.results}
        assert statuses == {"pass", "skipped", "waived"}
