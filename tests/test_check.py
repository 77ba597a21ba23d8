"""The battery seam (``repro.analysis.battery``) and the one CLI over it.

What each battery checks is tested where it lives (``test_lint.py``,
``test_verify.py``, ``test_equivalence.py``, each through its
``repro-check`` subcommand).  Here: what they share — the cache file,
the bare ``repro-check`` tree gate, where the shared flags may stand —
and the names other code holds the seam to: the two console scripts,
and ``run_verification`` as the artifact ledger's probe calls it.
"""

import inspect
import json
import re
from pathlib import Path

import pytest

from repro.analysis.battery import Cache
from repro.analysis.check import main as check_main
from repro.analysis.lint import run_lint
from repro.analysis.verify.runner import VerificationRun, run_verification

REPO = Path(__file__).resolve().parent.parent
GOOD = Path(__file__).parent / "lint_fixtures" / "good"


def test_console_scripts_are_exactly_the_two():
    text = (REPO / "pyproject.toml").read_text(encoding="utf-8")
    section = text.split("[project.scripts]\n")[1].split("\n[")[0]
    scripts = dict(re.findall(r'^([\w-]+) = "(.+)"$', section, re.M))
    assert scripts == {
        "repro-campaign": "repro.campaigns.cli:main",
        "repro-check": "repro.analysis.check:main",
    }


class TestCacheFile:
    """One file, a section per battery, each replayed only under the
    source hash it was written under."""

    @staticmethod
    def _fill(path, battery, code_hash, entries):
        cache = Cache(str(path), battery, code_hash)
        for key, entry in entries.items():
            cache.put(key, entry)
        cache.save()

    @pytest.mark.parametrize("battery", ["lint", "verify"])
    def test_stale_hash_misses_and_leaves_the_other_section(
        self, tmp_path, battery
    ):
        other = {"lint": "verify", "verify": "lint"}[battery]
        path = tmp_path / "cache.json"
        self._fill(path, battery, "hash-a", {"k": {"v": 1}})
        self._fill(path, other, "hash-o", {"k": {"v": 2}})

        assert Cache(str(path), battery, "hash-a").get("k", dict) == {"v": 1}
        assert Cache(str(path), battery, "hash-b").get("k", dict) is None
        # Rewriting one battery's section under a new hash keeps the
        # other's entries, and drops its own stale ones.
        self._fill(path, battery, "hash-b", {"k2": {"v": 3}})
        assert Cache(str(path), other, "hash-o").get("k", dict) == {"v": 2}
        fresh = Cache(str(path), battery, "hash-b")
        assert fresh.get("k", dict) is None
        assert fresh.get("k2", dict) == {"v": 3}

    @pytest.mark.parametrize(
        "text", ["{not json", "[]", '{"version": 2}', '{"version": 1}', ""]
    )
    def test_unreadable_file_starts_fresh(self, tmp_path, text):
        path = tmp_path / "cache.json"
        path.write_text(text, encoding="utf-8")
        cache = Cache(str(path), "lint", "hash-a")
        assert cache.get("k", dict) is None
        cache.put("k", {"v": 1})
        cache.save()
        assert Cache(str(path), "lint", "hash-a").get("k", dict) == {"v": 1}

    def test_entry_that_does_not_decode_is_a_miss(self, tmp_path):
        path = tmp_path / "cache.json"
        self._fill(path, "verify", "hash-a", {"k": {"status": "pass"}})
        cache = Cache(str(path), "verify", "hash-a")
        assert cache.get("k", lambda entry: entry["check"]) is None

    def test_no_path_never_hits_and_never_writes(self, tmp_path):
        cache = Cache(None, "lint", "hash-a")
        cache.put("k", {"v": 1})
        cache.save()
        assert list(tmp_path.iterdir()) == []

    def test_both_batteries_never_serve_across_a_source_edit(self, tmp_path):
        """Lint keys each file on its content, verify its whole section
        on the source it walks (``test_verify.py`` edits that source);
        through one file, an edited module is re-analyzed and the verify
        section beside it still replays."""
        root = tmp_path / "pkg"
        root.mkdir()
        module = root / "mod.py"
        module.write_text("VALUE = 1\n", encoding="utf-8")
        cache = str(tmp_path / "cache.json")
        specs, algorithms = ["mesh:4x4"], ["ecube"]

        assert run_lint(root=root, cache_path=cache).files_cached == 0
        first = run_verification(specs, algorithms, cache_path=cache)
        assert not any(result.cached for result in first.results)
        assert run_lint(root=root, cache_path=cache).files_cached == 1

        module.write_text(
            "VALUE = sorted([], key=lambda item: id(item))\n",
            encoding="utf-8",
        )
        edited = run_lint(root=root, cache_path=cache)
        assert (edited.files_analyzed, edited.files_cached) == (1, 0)
        assert [finding.rule for finding in edited.findings] == ["DET004"]
        again = run_verification(specs, algorithms, cache_path=cache)
        assert all(result.cached for result in again.results)


class TestTreeGate:
    """``repro-check`` with no subcommand: lint + verify, one cache file,
    one report."""

    def test_warm_run_replays_both_batteries_from_one_file(
        self, tmp_path, capsys
    ):
        cache = str(tmp_path / "cache.json")
        report = tmp_path / "check-report.json"
        argv = [
            "--fail-on-error", "--quiet", "--cache", cache,
            "--json", str(report),
        ]
        assert check_main(argv) == 0
        cold = json.loads(report.read_text(encoding="utf-8"))
        assert sorted(cold) == ["lint", "verify"]
        assert cold["lint"]["summary"] == {"open": 0, "waived": 1}
        assert cold["lint"]["files_cached"] == 0
        assert cold["verify"]["topologies"] == ["torus:4x4", "mesh:4x4"]
        assert cold["verify"]["summary"]["waived"] == 1
        assert not any(r["cached"] for r in cold["verify"]["results"])
        capsys.readouterr()

        assert check_main(argv) == 0
        warm = json.loads(report.read_text(encoding="utf-8"))
        assert warm["lint"]["files_analyzed"] == 0
        assert warm["lint"]["files_cached"] == cold["lint"]["files_analyzed"]
        assert all(r["cached"] for r in warm["verify"]["results"])
        assert [r["status"] for r in warm["verify"]["results"]] == [
            r["status"] for r in cold["verify"]["results"]
        ]
        out = capsys.readouterr().out
        assert "findings over 0 analyzed files" in out
        assert "72 verdicts over torus:4x4, mesh:4x4" in out
        with open(cache, encoding="utf-8") as stream:
            assert sorted(json.load(stream)["batteries"]) == [
                "lint", "verify"
            ]

    def test_a_named_battery_reports_its_run_alone(self, tmp_path, capsys):
        report = tmp_path / "verify.json"
        code = check_main(
            [
                "verify", "--algorithms", "ecube", "--topology", "mesh:4x4",
                "--no-cache", "--quiet", "--json", str(report),
            ]
        )
        assert code == 0
        assert sorted(json.loads(report.read_text(encoding="utf-8"))) == [
            "code_hash", "results", "summary", "topologies", "version",
            "wall_time",
        ]

    def test_shared_flags_stand_before_or_after_the_subcommand(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)  # a default cache would land here
        before = check_main(["--quiet", "--no-cache", "lint", str(GOOD)])
        out_before = capsys.readouterr().out
        after = check_main(["lint", str(GOOD), "--no-cache", "--quiet"])
        out_after = capsys.readouterr().out
        assert before == after == 0
        assert "no findings" not in out_before + out_after  # --quiet held
        assert out_before.startswith("0 findings over 7 analyzed files")
        assert list(tmp_path.iterdir()) == []  # --no-cache held

    def test_retired_spellings_are_usage_errors(self, capsys):
        # ... and equivalence gains no flag its old script did not have.
        for argv in (
            ["--all"], ["verify", "--all"], ["equivalence", "--smoke", "--quiet"]
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
        assert list(parameters) == [
            "topology_specs", "algorithms", "checks", "cache_path"
        ]
        assert all(p.default is None for p in parameters.values())
        assert list(inspect.signature(run_lint).parameters) == [
            "root", "rules", "cache_path"
        ]

    def test_probe_call(self):
        run = run_verification(["torus:4x4", "mesh:4x4"])
        assert isinstance(run, VerificationRun)
        assert isinstance(run.wall_time, float) and run.wall_time > 0
        assert len(run.results) == 72
        statuses = {result.status for result in run.results}
        assert statuses == {"pass", "skipped", "waived"}
