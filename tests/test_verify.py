"""The deadlock-freedom verification framework and its CLI,
``repro-check verify``."""

import json
import shutil
from pathlib import Path

import pytest

from repro.analysis.battery import Cache, format_summary, format_table
from repro.analysis.check import main as check_main
from repro.analysis.verify import (
    CHECKS,
    evaluate,
    find_waiver,
    parse_topology,
    run_verification,
    verification_code_hash,
)
from repro.analysis.verify.result import CheckResult
from repro.analysis.verify.runner import INSTANTIATE_CHECK, VerificationRun
from repro.routing.positive_hop import PositiveHop
from repro.routing.registry import make_algorithm
from repro.util.errors import ConfigurationError


def verify_main(argv):
    """``repro-check verify ARGV``."""
    return check_main(["verify", *argv])


class TestTopologyParsing:
    def test_torus_spec(self):
        label, topology = parse_topology("torus:4x4")
        assert label == "torus:4x4"
        assert topology.radix == 4 and topology.n_dims == 2
        assert any(link.wraps for link in topology.links)

    def test_mesh_3d_spec(self):
        label, topology = parse_topology("mesh:3x3x3")
        assert label == "mesh:3x3x3"
        assert topology.n_dims == 3
        assert not any(link.wraps for link in topology.links)

    @pytest.mark.parametrize("spelling", ["Torus:4x4", "torus:4X4", " TORUS:4x4"])
    def test_kind_and_shape_are_read_in_any_case(self, spelling):
        """As the verify battery always read them; the campaign grammar
        shares the reader, so it accepts them too."""
        from repro.campaigns.spec import parse_topology as parse_campaign

        label, topology = parse_topology(spelling)
        assert label == "torus:4x4"
        assert (topology.radix, topology.n_dims) == (4, 2)
        assert parse_campaign(spelling) == ("torus", 4, 4)

    @pytest.mark.parametrize(
        "bad", ["grid:4x4", "torus", "torus:4x8", "torus:axb", ":4x4"]
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            parse_topology(bad)

    @pytest.mark.parametrize("bad", ["grid:4x4", ":4x4", "torus", "torus:axb"])
    def test_malformed_specs_read_the_same_to_both_grammars(self, bad):
        """One radix per dimension here, ``<radix>x<dims>`` in campaign
        specs: two meanings of ``4x4``, one reading of the string."""
        from repro.campaigns.spec import parse_topology as parse_campaign

        with pytest.raises(ConfigurationError) as here:
            parse_topology(bad)
        with pytest.raises(ConfigurationError) as there:
            parse_campaign(bad)
        assert str(here.value) == str(there.value)
        assert repr(bad) in str(here.value)

    def test_the_two_grammars_differ_in_what_the_integers_mean(self):
        from repro.campaigns.spec import parse_topology as parse_campaign

        _, topology = parse_topology("torus:4x4")
        assert (topology.radix, topology.n_dims) == (4, 2)
        assert parse_campaign("torus:4x4") == ("torus", 4, 4)


class TestChecks:
    def test_registry_has_the_battery(self):
        assert set(CHECKS) == {
            "rank_monotonicity",
            "candidate_minimality",
            "acyclicity",
            "vc_provisioning",
            "adaptivity",
            "escape_reachability",
        }

    @pytest.mark.parametrize("name", ["ecube", "nlast", "phop", "nhop", "nbc"])
    def test_paper_algorithms_pass_acyclicity(self, name, torus4):
        algorithm = make_algorithm(name, torus4)
        result = evaluate(CHECKS["acyclicity"], algorithm, "torus:4x4")
        assert result.status == "pass", result.detail

    def test_2pn_acyclicity_waived_with_witness_on_torus(self, torus4):
        algorithm = make_algorithm("2pn", torus4)
        result = evaluate(CHECKS["acyclicity"], algorithm, "torus:4x4")
        assert result.status == "waived"
        assert result.waiver is not None and "may-wait" in result.waiver
        # The witness is a genuine cycle of (link, vc_class) resources.
        assert len(result.witness) >= 2

    def test_2pn_acyclicity_passes_on_mesh(self, mesh4):
        algorithm = make_algorithm("2pn", mesh4)
        result = evaluate(CHECKS["acyclicity"], algorithm, "mesh:4x4")
        assert result.status == "pass"
        assert find_waiver("acyclicity", algorithm) is None

    def test_rank_check_skipped_for_non_hop_schemes(self, torus4):
        algorithm = make_algorithm("ecube", torus4)
        result = evaluate(
            CHECKS["rank_monotonicity"], algorithm, "torus:4x4"
        )
        assert result.status == "skipped"

    def test_vc_provisioning_catches_wrong_budget(self, torus4):
        class Overprovisioned(PositiveHop):
            @property
            def num_virtual_channels(self):
                return 99

        result = evaluate(
            CHECKS["vc_provisioning"], Overprovisioned(torus4), "torus:4x4"
        )
        assert result.status == "fail"
        assert result.counts == {"expected": 5, "actual": 99}

    def test_vc_provisioning_understands_lanes(self, torus4):
        algorithm = make_algorithm("ecubex2", torus4)
        result = evaluate(
            CHECKS["vc_provisioning"], algorithm, "torus:4x4"
        )
        assert result.status == "pass"
        assert result.counts["expected"] == 4

    def test_adaptivity_catches_false_full_adaptivity(self, torus4):
        class NotReallyFull(PositiveHop):
            def candidates(self, state, current, dst):
                return super().candidates(state, current, dst)[:1]

        result = evaluate(
            CHECKS["adaptivity"], NotReallyFull(torus4), "torus:4x4"
        )
        assert result.status == "fail"
        assert "claims full adaptivity" in result.detail

    def test_escape_check_catches_dead_ends(self, torus4):
        class DeadEnd(PositiveHop):
            def candidates(self, state, current, dst):
                if current == 5:
                    return []
                return super().candidates(state, current, dst)

        result = evaluate(
            CHECKS["escape_reachability"], DeadEnd(torus4), "torus:4x4"
        )
        assert result.status == "fail"
        assert "dead end" in result.detail


class TestRunner:
    def test_full_battery_on_torus(self):
        run = run_verification(["torus:4x4"])
        summary = run.summary()
        assert summary["fail"] == 0 and summary["error"] == 0
        assert summary["waived"] == 1  # 2pn acyclicity
        assert run.ok() and run.ok(fail_on_error=True)
        # Every registered algorithm appears.
        assert {r.algorithm for r in run.results} >= {
            "ecube", "nlast", "2pn", "phop", "nhop", "nbc"
        }

    def test_inapplicable_algorithms_are_skipped(self):
        # nlast is 2-D only, so it refuses a 3-D torus; nhop is fine there.
        run = run_verification(
            ["torus:4x4x4"],
            algorithms=["nlast", "nhop"],
            checks=["vc_provisioning"],
        )
        instantiate = [
            r for r in run.results if r.check == INSTANTIATE_CHECK
        ]
        assert {r.algorithm for r in instantiate} == {"nlast"}
        assert all(r.status == "skipped" for r in instantiate)
        assert run.ok()

    def test_unknown_check_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown checks"):
            run_verification(["torus:4x4"], checks=["nonsense"])

    def test_cache_replays_results(self, tmp_path):
        cache = str(tmp_path / "cache.json")
        first = run_verification(
            ["torus:4x4"], algorithms=["ecube"], cache_path=cache
        )
        assert not any(r.cached for r in first.results)
        second = run_verification(
            ["torus:4x4"], algorithms=["ecube"], cache_path=cache
        )
        assert all(r.cached for r in second.results)
        assert [r.to_dict()["status"] for r in second.results] == [
            r.to_dict()["status"] for r in first.results
        ]

    def test_cache_invalidated_by_code_hash(self, tmp_path):
        cache_path = str(tmp_path / "cache.json")
        run_verification(
            ["torus:4x4"], algorithms=["ecube"], cache_path=cache_path
        )
        key = "torus:4x4|ecube|candidate_minimality"
        fresh = Cache(cache_path, "verify", verification_code_hash())
        assert fresh.get(key, dict)["status"] == "pass"
        stale = Cache(cache_path, "verify", "something-else")
        assert stale.get(key, dict) is None

    @staticmethod
    def _touch_invalidates(tmp_path, monkeypatch, relative):
        """Appending a comment to *relative* (under src/repro) re-runs
        every check instead of replaying the cache."""
        import repro

        package = Path(repro.__file__).resolve().parent
        copy = tmp_path / "repro"
        shutil.copytree(
            package, copy, ignore=shutil.ignore_patterns("__pycache__")
        )
        # The hash reads the source tree beside repro/__init__.py.
        monkeypatch.setattr(repro, "__file__", str(copy / "__init__.py"))
        cache = str(tmp_path / "cache.json")

        def run():
            return run_verification(
                ["torus:4x4"], algorithms=["ecube"], cache_path=cache
            )

        first = run()
        assert not any(r.cached for r in first.results)
        assert all(r.cached for r in run().results)
        with open(copy / relative, "a") as source:
            source.write("# touched\n")
        rerun = run()
        assert not any(r.cached for r in rerun.results)
        assert rerun.code_hash != first.code_hash

    def test_touching_topology_base_invalidates_the_cache(
        self, tmp_path, monkeypatch
    ):
        """Geometry lives in ``topology/base.py``: an edit there must
        re-run every check, not replay verdicts walked on other tables."""
        self._touch_invalidates(tmp_path, monkeypatch, "topology/base.py")

    def test_touching_routing_tables_invalidates_the_cache(
        self, tmp_path, monkeypatch
    ):
        """Candidate sets have one owner, ``routing/tables.py``: verdicts
        walked before an edit there are not evidence about it."""
        self._touch_invalidates(tmp_path, monkeypatch, "routing/tables.py")

    def test_code_hash_is_stable(self):
        assert verification_code_hash() == verification_code_hash()

    def test_reports_render(self):
        run = run_verification(["mesh:4x4"], algorithms=["ecube"])
        table = format_table(run)
        assert "ecube" in table and "mesh:4x4" in table
        summary = format_summary(run)
        assert "verdicts" in summary


class TestResultSerialization:
    def test_round_trip(self):
        result = CheckResult(
            check="acyclicity",
            algorithm="2pn",
            topology="torus:4x4",
            status="waived",
            detail="cycle found",
            waiver="documented",
            witness=[(3, 1), (5, 0)],
            counts={"resources": 7},
            wall_time=0.5,
        )
        clone = CheckResult.from_dict(result.to_dict())
        assert clone.witness == [(3, 1), (5, 0)]
        assert clone.status == "waived" and clone.ok

    def test_summarize_counts_all_statuses(self):
        results = [
            CheckResult("c", "a", "t", status)
            for status in ("pass", "pass", "fail", "waived")
        ]
        assert VerificationRun(results=results).summary() == {
            "pass": 2,
            "fail": 1,
            "waived": 1,
            "skipped": 0,
            "error": 0,
        }


class TestCli:
    def test_acceptance_invocation(self, tmp_path, capsys):
        """repro-check verify --topology torus:4x4 --json out.json"""
        out = tmp_path / "out.json"
        code = verify_main(
            [
                "--topology",
                "torus:4x4",
                "--json",
                str(out),
                "--cache",
                str(tmp_path / "cache.json"),
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["summary"]["fail"] == 0
        waived = [
            r
            for r in data["results"]
            if r["status"] == "waived" and r["algorithm"] == "2pn"
        ]
        assert len(waived) == 1
        assert waived[0]["check"] == "acyclicity"
        assert len(waived[0]["witness"]) >= 2  # the may-wait cycle
        assert waived[0]["waiver"]  # ... and its documented waiver
        captured = capsys.readouterr()
        assert "WAIVED" in captured.out

    def test_algorithm_subset_and_quiet(self, tmp_path, capsys):
        code = verify_main(
            [
                "--algorithms",
                "ecube,phop",
                "--topology",
                "mesh:4x4",
                "--quiet",
                "--no-cache",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "verdicts" in captured.out

    def test_bad_topology_is_usage_error(self, capsys):
        assert verify_main(["--topology", "klein-bottle:4x4"]) == 2
        assert "repro-check: topology spec" in capsys.readouterr().err
