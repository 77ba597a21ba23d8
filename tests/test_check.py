"""The checking half of the one CLI, ``repro-campaign verify|equivalence``,
and what other code holds it to.

What each battery checks is tested where it lives (``test_verify.py``,
``test_equivalence.py``, each through its subcommand).  Here: the
``verify`` tree gate CI runs, the options each subcommand takes, that no
form keeps state between runs, that an empty selection checks nothing
and so is refused, the spellings that are gone — and the names other
code holds the CLI to: the one console script, and ``run_verification``
as the artifact ledger's probe calls it.
"""

import inspect
import json
import re
from pathlib import Path

import pytest

from repro.analysis.equivalence import run_suite
from repro.analysis.verify.runner import VerificationRun, run_verification
from repro.campaigns.cli import main as check_main
from repro.util.errors import ConfigurationError

REPO = Path(__file__).resolve().parent.parent
ECUBE_ON_MESH = ["verify", "--algorithms", "ecube", "--topology", "mesh:4x4"]


def _untimed(text):
    """*text* without its wall times, the one thing two runs may differ in."""
    return re.sub(r"\d+\.\d\ds\b", "", text)


def test_console_scripts_are_exactly_the_one():
    text = (REPO / "pyproject.toml").read_text(encoding="utf-8")
    section = text.split("[project.scripts]\n")[1].split("\n[")[0]
    scripts = dict(re.findall(r'^([\w-]+) = "(.+)"$', section, re.M))
    assert scripts == {"repro-campaign": "repro.campaigns.cli:main"}


#: The option strings of ``verify --help`` and ``equivalence --help`` as
#: the retired second console script printed them: the subcommands moved
#: into ``repro-campaign`` with every flag and no new one.
MOVED_OPTIONS = {
    "verify": [
        "-h", "--help", "--json", "--quiet", "--fail-on-error",
        "--algorithms", "--topology", "--checks",
    ],
    "equivalence": [
        "-h", "--help", "--json", "--algorithms", "--topologies", "--seeds",
        "--radix", "--load", "--rel-tol", "--z", "--smoke",
    ],
}


@pytest.mark.parametrize("command", sorted(MOVED_OPTIONS))
def test_the_moved_subcommands_take_exactly_their_old_options(
    command, capsys
):
    with pytest.raises(SystemExit) as exit_info:
        check_main([command, "--help"])
    assert exit_info.value.code == 0
    options = capsys.readouterr().out.split("\noptions:\n")[1]
    listed = re.findall(r"^  (-[\w-]+)(?:, (--[\w-]+))?", options, re.M)
    assert [o for pair in listed for o in pair if o] == MOVED_OPTIONS[command]


class TestTreeGate:
    """``repro-campaign verify`` with its defaults: CI's tree check."""

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

    def test_shared_flags_before_the_subcommand_are_usage_errors(
        self, capsys
    ):
        """The one parser takes a subcommand's flags after its name only."""
        for flags in (["--quiet"], ["--fail-on-error"], ["--json", "r.json"]):
            with pytest.raises(SystemExit) as exit_info:
                check_main(flags + ECUBE_ON_MESH)
            assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert check_main(ECUBE_ON_MESH + ["--quiet"]) == 0
        out = capsys.readouterr().out
        assert "detail" not in out  # --quiet held: no table header
        assert out.startswith("7 verdicts over mesh:4x4: 6 pass")

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


class TestEmptySelections:
    """A list flag with an empty item is a usage error, and a battery
    asked to check nothing raises: neither may pass a gate vacuously."""

    @pytest.mark.parametrize("argv", [
        ["verify", "--checks", ""],
        ["verify", "--algorithms", ","],
        ["verify", "--algorithms", "ecube,,nbc"],
        ["equivalence", "--smoke", "--algorithms", ","],
        ["equivalence", "--smoke", "--topologies", ""],
    ])
    def test_an_empty_item_exits_2(self, argv, capsys):
        assert check_main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"repro-campaign {argv[0]}: {argv[-2]} must be")

    @pytest.mark.parametrize("selection", [
        {"topology_specs": []}, {"algorithms": []}, {"checks": []},
    ])
    def test_verify_refuses_an_empty_selection(self, selection):
        with pytest.raises(ConfigurationError, match="at least one"):
            run_verification(**selection)

    @pytest.mark.parametrize("selection", [
        {"algorithms": []}, {"topologies": ()},
    ])
    def test_equivalence_refuses_an_empty_selection(self, selection):
        with pytest.raises(ConfigurationError, match="at least one"):
            run_suite(**selection)


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
