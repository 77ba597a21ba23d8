"""The deadlock-freedom verification framework and its CLI,
``repro-campaign verify``."""

import json

import pytest

from repro.campaigns.cli import main as check_main
from repro.analysis.verify.checks import CHECKS, CheckResult, evaluate
from repro.analysis.verify.runner import (
    INSTANTIATE_CHECK,
    VerificationRun,
    format_summary,
    format_table,
    parse_topology,
    run_verification,
)
from repro.routing import registry
from repro.routing.ecube import ECube
from repro.routing.positive_hop import PositiveHop
from repro.routing.registry import (
    ALGORITHM_NAMES,
    make_algorithm,
    register_algorithm,
)
from repro.routing.two_power_n import TwoPowerN
from repro.util.errors import ConfigurationError


def verify_main(argv):
    """``repro-campaign verify ARGV``."""
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
        # ... but for the example each grammar gives of itself.
        assert str(here.value).replace("16x16", "16x2") == str(there.value)
        assert repr(bad) in str(here.value)

    @pytest.mark.parametrize("bad", ["torus:", "torus:axb", "mesh:4x"])
    def test_each_grammar_names_its_own_example(self, bad):
        from repro.campaigns.spec import parse_topology as parse_campaign

        with pytest.raises(ConfigurationError, match="e.g. 'torus:16x16'$"):
            parse_topology(bad)
        with pytest.raises(ConfigurationError, match="e.g. 'torus:16x2'$"):
            parse_campaign(bad)
        parse_topology("torus:16x16")
        parse_campaign("torus:16x2")

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
            "route_memo",
        }

    @pytest.mark.parametrize("name", ["ecube", "nlast", "phop", "nhop", "nbc"])
    def test_paper_algorithms_pass_acyclicity(self, name, torus4):
        algorithm = make_algorithm(name, torus4)
        result = evaluate("acyclicity", algorithm, "torus:4x4")
        assert result.status == "pass", result.detail

    def test_2pn_acyclicity_waived_with_witness_on_torus(self, torus4):
        algorithm = make_algorithm("2pn", torus4)
        result = evaluate("acyclicity", algorithm, "torus:4x4")
        assert result.status == "waived"
        assert result.waiver is not None and "may-wait" in result.waiver
        # The witness is a genuine cycle of (link, vc_class) resources.
        assert len(result.witness) >= 2

    def test_2pn_acyclicity_passes_on_mesh(self, mesh4):
        algorithm = make_algorithm("2pn", mesh4)
        result = evaluate("acyclicity", algorithm, "mesh:4x4")
        assert result.status == "pass"
        assert result.waiver is None

    def test_2pn_cycle_on_mesh_is_not_waived(self, mesh4):
        """The waiver needs wrap links: a cycle of an algorithm named
        ``2pn`` on a mesh is a failure."""

        class OneClass(TwoPowerN):
            # Fully adaptive minimal routing on one class: turn cycles.
            def candidates(self, state, current, dst):
                return [
                    (link, 0) for link, _ in super().candidates(
                        state, current, dst
                    )
                ]

        algorithm = OneClass(mesh4)
        assert algorithm.name == "2pn"
        result = evaluate("acyclicity", algorithm, "mesh:4x4")
        assert result.status == "fail"
        assert result.waiver is None
        assert result.witness

    def test_unknown_check_name_raises(self, torus4):
        with pytest.raises(KeyError):
            evaluate("no_such_check", make_algorithm("ecube", torus4), "t")

    def test_rank_check_skipped_for_non_hop_schemes(self, torus4):
        algorithm = make_algorithm("ecube", torus4)
        result = evaluate(
            "rank_monotonicity", algorithm, "torus:4x4"
        )
        assert result.status == "skipped"

    def test_vc_provisioning_catches_wrong_budget(self, torus4):
        class Overprovisioned(PositiveHop):
            @property
            def num_virtual_channels(self):
                return 99

        result = evaluate(
            "vc_provisioning", Overprovisioned(torus4), "torus:4x4"
        )
        assert result.status == "fail"
        assert result.counts == {"expected": 5, "actual": 99}

    def test_vc_provisioning_understands_lanes(self, torus4):
        algorithm = make_algorithm("ecubex2", torus4)
        result = evaluate(
            "vc_provisioning", algorithm, "torus:4x4"
        )
        assert result.status == "pass"
        assert result.counts["expected"] == 4

    def test_adaptivity_catches_false_full_adaptivity(self, torus4):
        class NotReallyFull(PositiveHop):
            def candidates(self, state, current, dst):
                return super().candidates(state, current, dst)[:1]

        result = evaluate(
            "adaptivity", NotReallyFull(torus4), "torus:4x4"
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
            "escape_reachability", DeadEnd(torus4), "torus:4x4"
        )
        assert result.status == "fail"
        assert "dead end" in result.detail

    def test_escape_check_catches_unprovisioned_classes(self, torus4):
        """A class past the budget would spell another channel's flat
        index; the relation records it before flattening."""

        class Underprovisioned(PositiveHop):
            @property
            def num_virtual_channels(self):
                return 2

        result = evaluate(
            "escape_reachability",
            Underprovisioned(torus4),
            "torus:4x4",
        )
        assert result.status == "fail"
        assert "outside the 2 provisioned" in result.detail


class TestRouteMemo:
    @pytest.mark.parametrize("spec", ["torus:4x4", "mesh:4x4", "torus:6x6"])
    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_paper_algorithms_keep_the_memo_contract(self, name, spec):
        _, topology = parse_topology(spec)
        result = evaluate(
            "route_memo", make_algorithm(name, topology), spec
        )
        assert result.status == "pass", result.detail
        assert result.counts["rows"] > 0
        assert result.counts["conflicts"] == 0

    def test_a_key_that_drops_what_candidates_read_fails(self, torus4):
        """phop's candidates read the class pointer; a key without it
        stands for states that route differently."""

        class Keyless(PositiveHop):
            def state_key(self, state):
                return ()

        result = evaluate("route_memo", Keyless(torus4), "torus:4x4")
        assert result.status == "fail"
        assert result.counts["conflicts"] > 0
        [(node, dst, key)] = result.witness
        assert key == () and node != dst
        assert "route differently" in result.detail


class TestLaneInheritance:
    def test_a_name_starting_2pnx_inherits_no_waiver(self):
        """Only a lane wrapper inherits its inner algorithm's waiver: an
        algorithm registered as ``2pnxalt`` is judged on its own."""

        class TwoPowerNAlt(TwoPowerN):
            name = "2pnxalt"

        register_algorithm("2pnxalt", TwoPowerNAlt)
        try:
            run = run_verification(
                ["torus:4x4"], algorithms=["2pnxalt"], checks=["acyclicity"]
            )
        finally:
            del registry._FACTORIES["2pnxalt"]
        [result] = run.results
        assert result.status == "fail" and result.waiver is None
        assert len(result.witness) >= 2

    @pytest.mark.parametrize(
        "name, status, lanes_budget",
        [("ecubex2", "pass", 4), ("2pnx2", "waived", 8)],
    )
    def test_lane_wrappers_keep_their_verdicts(
        self, name, status, lanes_budget, torus4
    ):
        algorithm = make_algorithm(name, torus4)
        acyclicity = evaluate("acyclicity", algorithm, "torus:4x4")
        assert acyclicity.status == status
        budget = evaluate("vc_provisioning", algorithm, "torus:4x4")
        assert budget.status == "pass"
        assert budget.counts["expected"] == lanes_budget


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

    def test_a_crashing_check_is_an_error_verdict(self, capsys):
        """Any exception a check raises is an ``error`` verdict naming its
        type, not a traceback; the other verdicts are still computed."""

        class Crashing(ECube):
            name = "crashing"

            def candidates(self, state, current, dst):
                raise IndexError("no such link")

        register_algorithm("crashing", Crashing)
        try:
            run = run_verification(["torus:4x4"], algorithms=["crashing"])
            code = verify_main(
                ["--algorithms", "crashing", "--topology", "torus:4x4",
                 "--fail-on-error"]
            )
        finally:
            del registry._FACTORIES["crashing"]
        assert {result.check: result.status for result in run.results} == {
            "rank_monotonicity": "skipped",
            "candidate_minimality": "error",
            "acyclicity": "error",
            "vc_provisioning": "skipped",
            "adaptivity": "error",
            "escape_reachability": "error",
            "route_memo": "error",
        }
        assert all(
            result.detail == "IndexError: no such link"
            for result in run.results
            if result.status == "error"
        )
        assert run.ok() and not run.ok(fail_on_error=True)
        assert code == 1
        assert "ERROR: crashing/acyclicity" in capsys.readouterr().out

    def test_unknown_check_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown checks"):
            run_verification(["torus:4x4"], checks=["nonsense"])

    def test_reports_render(self):
        run = run_verification(["mesh:4x4"], algorithms=["ecube"])
        table = format_table(run)
        assert "ecube" in table and "mesh:4x4" in table
        summary = format_summary(run)
        assert "verdicts" in summary


class TestResultSerialization:
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
        """repro-campaign verify --topology torus:4x4 --json out.json"""
        out = tmp_path / "out.json"
        code = verify_main(
            [
                "--topology",
                "torus:4x4",
                "--json",
                str(out),
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
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "verdicts" in captured.out

    def test_lane_wrappers_pass_the_battery(self):
        """A lane wrapper takes its adaptivity class from its inner
        algorithm: a choice among lanes of one class is no choice of
        path, so ``ecubex2`` is deterministic, as e-cube is."""
        run = run_verification(algorithms=["ecubex2", "ecubex4", "2pnx2"])
        assert run.ok(fail_on_error=True)
        adaptivity = [
            result.detail for result in run.results
            if result.check == "adaptivity" and result.algorithm != "2pnx2"
        ]
        assert len(adaptivity) == 4
        assert all(detail.startswith("deterministic") for detail in adaptivity)

    def test_bad_topology_is_usage_error(self, capsys):
        assert verify_main(["--topology", "klein-bottle:4x4"]) == 2
        assert "repro-campaign verify: topology spec" in capsys.readouterr().err

    def test_a_malformed_spec_is_answered_in_this_grammar(self, capsys):
        """``torus:16x2``, a spec file's example, is not one to verify."""
        assert verify_main(["--topology", "torus:"]) == 2
        err = capsys.readouterr().err
        assert "e.g. 'torus:16x16'" in err and "16x2" not in err
