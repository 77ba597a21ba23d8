"""The one CLI, ``repro-check``, and what other code holds it to.

What each battery checks is tested where it lives (``test_verify.py``,
``test_equivalence.py``, each through its ``repro-check`` subcommand).
Here: the ``verify`` tree gate CI runs, where the shared flags may
stand, that no form keeps state between runs, the spellings that are
gone — and the names other code holds the CLI to: the two console
scripts, and ``run_verification`` as the artifact ledger's probe calls
it.
"""

import inspect
import json
import re
from pathlib import Path

import pytest

from repro.analysis.check import main as check_main
from repro.analysis.verify.runner import VerificationRun, run_verification

REPO = Path(__file__).resolve().parent.parent
ECUBE_ON_MESH = ["verify", "--algorithms", "ecube", "--topology", "mesh:4x4"]


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
    """``repro-check verify`` with its defaults: CI's tree check."""

    def test_every_run_computes_every_verdict(
        self, tmp_path, monkeypatch, capsys
    ):
        """Two runs in a row print the same verdicts, row for row, and
        leave no file behind but the report asked for."""
        monkeypatch.chdir(tmp_path)
        assert check_main(["verify", "--fail-on-error"]) == 0
        first = capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []
        report = tmp_path / "check-report.json"
        argv = ["verify", "--fail-on-error", "--json", str(report)]
        assert check_main(argv) == 0
        second = capsys.readouterr().out
        assert list(tmp_path.iterdir()) == [report]
        assert _untimed(second) == _untimed(first) + f"wrote {report}\n"
        assert "84 verdicts over torus:4x4, mesh:4x4" in second
        data = json.loads(report.read_text(encoding="utf-8"))
        assert data["topologies"] == ["torus:4x4", "mesh:4x4"]
        assert data["summary"]["waived"] == 1

    @pytest.mark.parametrize("argv", [ECUBE_ON_MESH], ids=["verify"])
    def test_the_check_keeps_no_state(
        self, argv, tmp_path, monkeypatch, capsys
    ):
        """A battery writes nothing but the report it is asked for (the
        default matrix: ``test_every_run_computes_every_verdict``)."""
        monkeypatch.chdir(tmp_path)
        assert check_main(argv + ["--quiet"]) == 0
        assert list(tmp_path.iterdir()) == []
        report = tmp_path / "report.json"
        assert check_main(argv + ["--quiet", "--json", str(report)]) == 0
        assert list(tmp_path.iterdir()) == [report]
        capsys.readouterr()

    def test_a_named_battery_reports_its_run_alone(self, tmp_path, capsys):
        report = tmp_path / "verify.json"
        code = check_main(ECUBE_ON_MESH + ["--quiet", "--json", str(report)])
        assert code == 0
        data = json.loads(report.read_text(encoding="utf-8"))
        assert sorted(data) == [
            "results", "summary", "topologies", "version", "wall_time",
        ]
        assert data["version"] == 2

    def test_shared_flags_stand_before_or_after_the_subcommand(
        self, capsys
    ):
        before = check_main(["--quiet"] + ECUBE_ON_MESH)
        out_before = capsys.readouterr().out
        after = check_main(ECUBE_ON_MESH + ["--quiet"])
        out_after = capsys.readouterr().out
        assert before == after == 0
        assert _untimed(out_before) == _untimed(out_after)
        assert "detail" not in out_before  # --quiet held: no table header
        assert out_before.startswith("7 verdicts over mesh:4x4: 6 pass")

    def test_retired_spellings_are_usage_errors(self, capsys):
        # ... and equivalence gains no flag its old script did not have;
        # the lint battery and the bare tree check are gone.
        for argv in (
            ["--all"], ["verify", "--all"], ["equivalence", "--smoke", "--quiet"],
            ["--cache", "X"], ["--no-cache"],
            ["lint"], ["lint", "--rules", "DET001"], [],
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

    def test_probe_call(self):
        run = run_verification(["torus:4x4", "mesh:4x4"])
        assert isinstance(run, VerificationRun)
        assert isinstance(run.wall_time, float) and run.wall_time > 0
        assert len(run.results) == 84
        statuses = {result.status for result in run.results}
        assert statuses == {"pass", "skipped", "waived"}
