"""The ``repro-obs`` command-line interface."""

import json

import pytest

from repro.obs import cli


def _run(argv):
    return cli.main(argv)


class TestRunVerb:
    @pytest.fixture(scope="class")
    def run_output(self, tmp_path_factory, capsys=None):
        out = tmp_path_factory.mktemp("obs-cli")
        argv = [
            "run",
            "--algorithm", "ecube",
            "--load", "0.4",
            "--radix", "4",
            "--profile", "tiny",
            "--stride", "16",
            "--out", str(out),
        ]
        code = _run(argv)
        return code, out

    def test_exits_zero(self, run_output):
        code, _ = run_output
        assert code == 0

    def test_exports_artifacts(self, run_output):
        _, out = run_output
        suffixes = sorted(
            ".".join(path.name.rsplit(".", 2)[-2:])
            for path in out.iterdir()
        )
        assert suffixes == [
            "heatmap.csv",
            "heatmap.txt",
            "metrics.json",
            "probes.csv",
            "probes.ndjson",
            "trace.ndjson",
        ]

    def test_metrics_json_is_schema_versioned(self, run_output):
        _, out = run_output
        metrics_path = next(out.glob("*.metrics.json"))
        metrics = json.loads(metrics_path.read_text())
        assert metrics["schema"] == "repro.obs.metrics"
        assert metrics["events"]["msg_created"] > 0

    def test_explicit_radix_wins_over_profile(self, run_output):
        # --radix 4 with --profile tiny-independent geometry: the
        # heatmap CSV has one row per link of a 4x4 torus (64 links).
        _, out = run_output
        heatmap = next(out.glob("*.heatmap.csv")).read_text()
        assert len(heatmap.splitlines()) == 1 + 64

    def test_prints_summary(self, capsys):
        code = _run(
            [
                "run", "--algorithm", "ecube", "--load", "0.2",
                "--radix", "4", "--profile", "tiny",
            ]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "repro.obs.metrics" in captured
        assert "phase" in captured  # profiler table


class TestTraceVerb:
    def test_valid_trace_accepted(self, tmp_path, capsys):
        out = tmp_path / "art"
        assert _run(
            [
                "run", "--algorithm", "ecube", "--load", "0.2",
                "--radix", "4", "--profile", "tiny", "--out", str(out),
            ]
        ) == 0
        capsys.readouterr()
        trace = next(out.glob("*.trace.ndjson"))
        assert _run(["trace", str(trace)]) == 0
        printed = capsys.readouterr().out
        assert "valid trace" in printed
        assert "msg_created" in printed

    def test_invalid_trace_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.ndjson"
        bad.write_text('{"record": "header", "schema": "nope"}\n{}\n')
        assert _run(["trace", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().err


    def test_missing_file_is_one_error_line(self, tmp_path, capsys):
        assert _run(["trace", str(tmp_path / "nonexistent")]) == 1
        error = capsys.readouterr().err
        assert error.startswith("error: ") and error.count("\n") == 1
        assert "nonexistent" in error

    def test_non_object_line_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.ndjson"
        bad.write_text(
            '{"record": "header", "schema": "repro.obs.trace",'
            ' "version": 2}\n[1]\n'
            '{"record": "footer", "events": 1, "dropped": 0}\n'
        )
        assert _run(["trace", str(bad)]) == 1
        error = capsys.readouterr().err
        assert error.startswith("INVALID trace: ")
        assert error.count("\n") == 1

    def test_version_1_trace_rejected(self, tmp_path, capsys):
        old = tmp_path / "v1.ndjson"
        old.write_text(
            '{"record": "header", "schema": "repro.obs.trace",'
            ' "version": 1, "meta": {}}\n'
            '{"record": "footer", "events": 0, "dropped": 0}\n'
        )
        assert _run(["trace", str(old)]) == 1
        assert "unexpected version 1" in capsys.readouterr().err


class TestHeatmapVerb:
    def test_ranks_links(self, tmp_path, capsys):
        out = tmp_path / "art"
        assert _run(
            [
                "run", "--algorithm", "nbc", "--load", "0.5",
                "--radix", "4", "--profile", "tiny", "--out", str(out),
            ]
        ) == 0
        capsys.readouterr()
        heatmap = next(out.glob("*.heatmap.csv"))
        assert _run(
            ["heatmap", str(heatmap), "--metric", "carried", "--top", "3"]
        ) == 0
        printed = capsys.readouterr().out
        assert "top 3 links by flits_carried" in printed

    def test_foreign_csv_is_one_error_line(self, tmp_path, capsys):
        foreign = tmp_path / "probes.csv"
        foreign.write_text("cycle,in_flight_messages\n0,3\n")
        assert _run(["heatmap", str(foreign)]) == 1
        error = capsys.readouterr().err
        assert error.startswith("INVALID heatmap: ")
        assert "blocked_waits" in error and error.count("\n") == 1
        assert _run(["heatmap", str(tmp_path / "nonexistent")]) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestProfileVerb:
    def test_prints_phase_table(self, capsys):
        code = _run(
            [
                "profile", "--algorithm", "ecube", "--load", "0.3",
                "--radix", "4", "--cycles", "2000",
            ]
        )
        printed = capsys.readouterr().out
        assert code == 0
        assert "transmission" in printed
        assert "total" in printed
