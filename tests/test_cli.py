"""Tests for the repro-sweep command-line interface."""

import pytest

from repro.experiments.cli import main


class TestCli:
    def test_custom_sweep_runs(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_PROFILE", "tiny")
        exit_code = main(
            [
                "--profile",
                "tiny",
                "--algorithms",
                "ecube",
                "--loads",
                "0.2",
                "--quiet",
                "--csv",
                str(tmp_path / "out.csv"),
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Custom sweep" in out
        assert "ecube" in out
        assert (tmp_path / "out.csv").exists()

    def test_figure_mode_reports_checks(self, capsys):
        exit_code = main(
            [
                "--figure",
                "vct",
                "--profile",
                "tiny",
                "--algorithms",
                "ecube,2pn,nbc",
                "--loads",
                "0.6",
                "--quiet",
            ]
        )
        out = capsys.readouterr().out
        assert "Paper figure vct" in out
        assert "PASS" in out or "FAIL" in out
        assert exit_code in (0, 1)

    def test_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            main(["--figure", "99"])

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
        ],
    )
    def test_bad_lists_exit_2_before_simulating(
        self, argv, message, capsys, monkeypatch
    ):
        def boobytrap(*args, **kwargs):
            raise AssertionError("a point simulated")

        monkeypatch.setattr(
            "repro.experiments.parallel.run_points", boobytrap
        )
        monkeypatch.setattr(
            "repro.experiments.sweep.run_points", boobytrap
        )
        assert main(["--profile", "tiny", "--quiet"] + argv) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "Traceback" not in captured.err and not captured.out

    def test_identity_is_not_a_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["--identity", "relaxed"])
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_backend_batch_fills_in_its_identity(self, monkeypatch):
        seen = []
        monkeypatch.setattr(
            "repro.experiments.cli.sweep_algorithms",
            lambda config, *args, **kwargs: seen.append(config) or {},
        )
        argv = ["--profile", "tiny", "--quiet", "--loads", "0.2",
                "--flow-control", "conservative"]
        assert main(argv + ["--backend", "batch"]) == 0
        assert main(argv + ["--backend", "object"]) == 0
        assert main(argv) == 0
        assert [(c.backend, c.identity) for c in seen] == [
            ("batch", "relaxed"), ("object", "strict"), ("object", "strict"),
        ]

    def test_backend_batch_without_conservative_exits_2(self, capsys):
        assert main(
            ["--profile", "tiny", "--quiet", "--backend", "batch"]
        ) == 2
        assert "--flow-control conservative" in capsys.readouterr().err
