"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_wavelet_defaults(self):
        args = build_parser().parse_args(["wavelet"])
        assert args.size == 512 and args.filter_length == 8 and args.levels == 1

    def test_invalid_filter_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["wavelet", "--filter", "6"])

    def test_invalid_machine_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nbody", "--machine", "cray1"])


class TestCommands:
    def test_wavelet_runs(self, capsys):
        assert main(["wavelet", "--size", "64", "--procs", "4", "--levels", "1"]) == 0
        out = capsys.readouterr().out
        assert "virtual time" in out and "performance budget" in out

    def test_wavelet_maspar(self, capsys):
        assert main(["wavelet", "--size", "64", "--machine", "maspar"]) == 0
        assert "images/second" in capsys.readouterr().out

    def test_wavelet_timeline(self, capsys):
        assert main(
            ["wavelet", "--size", "64", "--procs", "4", "--timeline"]
        ) == 0
        out = capsys.readouterr().out
        assert "legend" in out and "r0" in out

    def test_nbody_runs(self, capsys):
        assert main(
            ["nbody", "--bodies", "128", "--procs", "2", "--steps", "1"]
        ) == 0
        assert "interactions/step" in capsys.readouterr().out

    def test_pic_runs(self, capsys):
        assert main(
            [
                "pic", "--particles", "512", "--grid", "8",
                "--procs", "2", "--steps", "1",
            ]
        ) == 0
        assert "adaptive dt" in capsys.readouterr().out

    def test_pic_gssum(self, capsys):
        assert main(
            [
                "pic", "--particles", "256", "--grid", "8",
                "--procs", "2", "--steps", "1", "--global-sum", "gssum",
            ]
        ) == 0

    def test_workload_runs(self, capsys):
        assert main(["workload", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "smooth" in out and "similarity" in out

    def test_nbody_t3d(self, capsys):
        assert main(
            ["nbody", "--bodies", "128", "--procs", "2", "--steps", "1",
             "--machine", "t3d"]
        ) == 0


class TestScheduleCommand:
    def test_default_two_jobs(self, capsys):
        assert main(["schedule"]) == 0
        out = capsys.readouterr().out
        assert "space-shared" in out and "makespan" in out

    def test_seeded_arrival_staggering(self, capsys):
        assert main(
            [
                "schedule", "--job", "workload:8", "--arrival", "poisson:2.0",
                "--seed", "7", "--count", "4",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "staggering 4 submission(s)" in out
        assert "poisson(rate=2/s, seed=7)" in out
        assert "workload#3" in out

    def test_arrival_replay_is_deterministic(self, capsys):
        argv = [
            "schedule", "--job", "workload:8", "--arrival", "poisson:3.0",
            "--seed", "5", "--count", "3",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_fair_policy_accepted(self, capsys):
        assert main(
            ["schedule", "--job", "workload:8", "--job", "workload:8",
             "--policy", "fair"]
        ) == 0
        assert "space-shared" in capsys.readouterr().out

    def test_bad_arrival_spec_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(["schedule", "--arrival", "weibull:2.0"])


class TestServeCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.mix == "default" and args.policy == "fair"
        assert args.load == 0.7 and not args.sweep

    def test_single_run_human(self, capsys):
        assert main(
            ["serve", "--horizon", "5", "--seed", "1", "--load", "0.5"]
        ) == 0
        out = capsys.readouterr().out
        assert "service on" in out
        assert "latency (virtual seconds)" in out
        assert "per-tenant" in out and "utilization" in out

    def test_single_run_json_is_schema_valid(self, capsys):
        import json

        from repro.service import validate_snapshot

        assert main(
            ["serve", "--horizon", "5", "--seed", "1", "--format", "json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        validate_snapshot(doc)
        assert doc["config"]["seed"] == 1

    def test_admission_flags_shed(self, capsys):
        assert main(
            [
                "serve", "--horizon", "5", "--seed", "1", "--load", "2.0",
                "--queue-limit", "4",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "queue-full" in out

    def test_sweep_writes_valid_report(self, tmp_path, capsys):
        import json

        from repro.service import validate_loadsweep

        out_path = tmp_path / "sweep.json"
        assert main(
            [
                "serve", "--sweep", "--horizon", "5", "--seed", "2",
                "--sweep-loads", "0.25,0.5,1.0,1.5,2.0",
                "--out", str(out_path),
            ]
        ) == 0
        text = capsys.readouterr().out
        assert "offered-load sweep" in text
        assert "knee" in text or "no saturation knee" in text
        doc = json.loads(out_path.read_text())
        validate_loadsweep(doc)
        assert len(doc["points"]) == 5

    def test_fifo_policy_accepted(self, capsys):
        assert main(
            ["serve", "--horizon", "5", "--policy", "fifo"]
        ) == 0
        assert "policy=fifo" in capsys.readouterr().out
