"""`repro-campaign run` as the sweep front-end: flags in, tables out.

What `repro-sweep` did, case for case, on the one CLI that is left, and
an observed point (`--set obs=true`) with its exported artifacts.  The
store-side subcommands are in `tests/test_campaigns.py::TestCampaignCli`.
"""

import json

import pytest

from repro.campaigns.cli import main
from repro.campaigns.orchestrator import CampaignReport
from repro.campaigns.spec import CampaignSpec


@pytest.fixture
def store(tmp_path):
    return tmp_path / "store.jsonl"


@pytest.fixture
def run(store):
    """`main(["run", ...])` on the tiny profile over the test's store."""

    def call(*argv):
        return main(["run", "--profile", "tiny", "--quiet",
                     "--store", str(store), *argv])

    return call


class TestCli:
    def test_custom_sweep_runs(self, run, capsys, tmp_path):
        exit_code = run(
            "--algorithms", "ecube", "--loads", "0.2", "--tables",
            "--csv", str(tmp_path / "out.csv"),
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Campaign 'sweep-tiny': uniform traffic on torus:4x2" in out
        assert "ecube: peak normalized throughput" in out
        assert (tmp_path / "out.csv").exists()

    def test_figure_mode_reports_checks(self, run, capsys):
        exit_code = run(
            "--figure", "vct", "--loads", "0.6", "--tables", "--check"
        )
        out = capsys.readouterr().out
        assert "Campaign 'figure-vct-tiny': uniform/vct traffic" in out
        assert "[PASS] " in out or "[FAIL] " in out
        assert exit_code == (1 if "[FAIL] " in out else 0)

    def test_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            main(["run", "--figure", "99"])

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--loads", "0.2,,0.4"], "--loads must be"),
            (["--loads", "0.2,fast"], "--loads must be"),
            (["--loads", "-0.1"], "--loads must be"),
            (["--algorithms", "bogus"], "unknown routing algorithm 'bogus'"),
            (["--algorithms", "ecube,"], "--algorithms must be"),
            (["--figure", "3", "--algorithms", "bogus"],
             "unknown routing algorithm 'bogus'"),
            (["--seeds", "1,x"], "--seeds must be"),
            (["--seeds", ","], "--seeds must be"),
            (["--set", "radix"], "--set takes FIELD=VALUE"),
            (["--set", "warp=9"], "unexpected keyword argument 'warp'"),
            (["--set", "seed=3"], "conflict with the spec's own grid axes"),
            (["--check"], "--check needs --figure"),
        ],
    )
    def test_bad_lists_exit_2_before_simulating(
        self, argv, message, run, store, capsys, monkeypatch
    ):
        def boobytrap(*args, **kwargs):
            raise AssertionError("a point simulated")

        monkeypatch.setattr(
            "repro.experiments.parallel.run_points", boobytrap
        )
        monkeypatch.setattr(
            "repro.campaigns.executors.run_points", boobytrap
        )
        assert run(*argv) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "Traceback" not in captured.err and not captured.out
        assert not store.exists()

    def test_identity_is_not_a_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--identity", "relaxed"])
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_backend_batch_fills_in_its_identity(self, run, monkeypatch):
        seen = []

        def record(spec, store, **kwargs):
            seen.append(spec.expand()[0])
            return CampaignReport(spec.name, 0, 0, 0, 0.0)

        monkeypatch.setattr("repro.campaigns.cli.run_campaign", record)
        argv = ["--loads", "0.2", "--set", "flow_control=conservative"]
        assert run(*argv, "--set", "backend=batch") == 0
        assert run(*argv, "--set", "backend=object") == 0
        assert run(*argv) == 0
        assert [(c.backend, c.identity) for c in seen] == [
            ("batch", "relaxed"), ("object", "strict"), ("object", "strict"),
        ]
        # Filled in by the spec, so a spec file gets it too.
        from_file = CampaignSpec.from_dict({
            "name": "file", "algorithms": ["ecube"], "loads": [0.2],
            "base": {"flow_control": "conservative", "backend": "batch"},
        })
        assert from_file.base["identity"] == "relaxed"

    def test_backend_batch_without_conservative_exits_2(self, run, capsys):
        assert run("--set", "backend=batch") == 2
        err = capsys.readouterr().err
        assert "backend='batch' requires flow_control='conservative'" in err
        assert "hint: the batch backend needs --set flow_control=" in err


class TestObservedPoint:
    """One observed tiny point, run once and shared by the class."""

    @pytest.fixture(scope="class")
    def observed(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("observed")
        out, store = root / "obs", root / "store.jsonl"
        options = json.dumps({"export_dir": str(out), "stride": 16})
        exit_code = main([
            "run", "--profile", "tiny", "--quiet", "--store", str(store),
            "--algorithms", "ecube", "--loads", "0.4",
            "--set", "obs=true", "--set", f"obs_options={options}",
        ])
        return exit_code, out, store

    def test_exits_zero(self, observed):
        exit_code, _, _ = observed
        assert exit_code == 0

    def test_exports_artifacts(self, observed):
        _, out, _ = observed
        suffixes = sorted(
            ".".join(path.name.rsplit(".", 2)[-2:]) for path in out.iterdir()
        )
        assert suffixes == [
            "heatmap.csv",
            "heatmap.txt",
            "metrics.json",
            "probes.csv",
            "probes.ndjson",
            "trace.ndjson",
        ]

    def test_metrics_json_is_schema_versioned(self, observed):
        _, out, _ = observed
        metrics = json.loads(next(out.glob("*.metrics.json")).read_text())
        assert metrics["schema"] == "repro.obs.metrics"
        assert metrics["events"]["msg_created"] > 0

    def test_store_record_carries_obs_metrics(self, observed):
        _, out, store = observed
        metrics = json.loads(next(out.glob("*.metrics.json")).read_text())
        (record,) = map(json.loads, store.read_text().splitlines())
        assert record["result"]["obs_metrics"] == metrics
