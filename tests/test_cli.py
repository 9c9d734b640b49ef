"""Tests for the command-line interface."""

from __future__ import annotations

import argparse
import json

import pytest

from repro.cli import (
    EXPERIMENTS,
    build_parser,
    list_experiments,
    main,
    run_experiment,
    run_load,
    run_topk,
)


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_experiment_command_defaults(self):
        args = build_parser().parse_args(["experiment", "table10"])
        assert args.command == "experiment"
        assert args.name == "table10"
        assert args.scale == "tiny"
        assert args.uid is None

    def test_experiment_rejects_unknown_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_topk_command(self):
        args = build_parser().parse_args(["topk", "--k", "5", "--scale", "tiny"])
        assert args.command == "topk"
        assert args.k == 5

    def test_topk_reuse_index_flag(self):
        """Gone with the second pair-index class it switched to."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["topk", "--reuse-index"])

    def test_topk_json_flag(self):
        args = build_parser().parse_args(["topk", "--json"])
        assert args.as_json is True

    def test_capacity_and_weight_flags(self):
        """Gone: no session is resident, so there is no capacity to bound,
        and no flag shapes the op mix: every run draws the benign default
        of all five op kinds."""
        for command in ("load", "stats"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--capacity", "8"])
        for kind in ("read", "update", "insert", "delete", "data-update"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["load", f"--{kind}-weight", "1"])

    def test_serve_replay_shards_flag(self):
        """Gone with the in-process cluster it partitioned users across."""
        for command in ("load", "stats"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--shards", "4"])

    def test_backend_flag(self):
        """Gone: SQLite is the one engine a command's world lives on."""
        for command in ("topk", "load", "stats"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--backend", "sqlite"])

    def test_repair_delta_flag(self):
        """Gone with the invalidate-only mode its negative values selected:
        every cached answer is a repairable buffer of depth ``3k``."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["load", "--repair-delta", "8"])

    def test_load_defaults(self):
        args = build_parser().parse_args(["load"])
        assert args.command == "load"
        assert args.threads == 2
        assert args.duration == 2.0
        assert args.qps is None  # closed loop by default
        assert args.audit_interval == 0.5
        assert args.output is None and args.as_json is False

    def test_load_options(self):
        args = build_parser().parse_args(
            ["load", "--threads", "4", "--qps", "500", "--duration", "1.5",
             "--output", "BENCH_loadgen.json", "--json"])
        assert (args.threads, args.qps) == (4, 500.0)
        assert args.duration == 1.5
        assert args.output == "BENCH_loadgen.json" and args.as_json

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_commands_and_load_options_are_pinned(self):
        """The replay command, the workload-family and named-mix flags are
        gone: ``load`` builds a DBLP world and draws the benign mix, and
        ``stats`` is the short serial replay.  A new command or ``load``
        option is a deliberate edit of these lists."""
        (commands,) = [action for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction)]
        assert sorted(commands.choices) == [
            "experiment", "list", "load", "stats", "topk"]
        options = sorted(option for action
                         in commands.choices["load"]._actions
                         for option in action.option_strings)
        assert options == sorted([
            "-h", "--help", "--scale", "--k", "--json", "--users", "--seed",
            "--telemetry", "--threads", "--duration", "--qps",
            "--audit-interval", "--output"])


class TestListAndDispatch:
    def test_list_mentions_every_experiment(self):
        text = list_experiments()
        for name in EXPERIMENTS:
            assert name in text

    def test_run_experiment_unknown_name(self):
        with pytest.raises(ValueError):
            run_experiment("fig99")

    def test_run_counting_experiment_without_context(self):
        text = run_experiment("prop3_4")
        assert "AND-only" in text

    def test_run_table10(self):
        text = run_experiment("table10", scale="tiny")
        assert "papers" in text

    def test_run_fig28(self):
        text = run_experiment("fig28", scale="tiny")
        assert "HYPRE_Graph" in text

    def test_run_topk(self):
        text = run_topk("tiny", k=5)
        assert "Top-5" in text
        assert "intensity" in text
        assert "pair index" in text
        assert "pre-filtered" in text


class TestJsonOutput:
    def test_topk_json_is_machine_readable(self):
        payload = json.loads(run_topk("tiny", k=3, as_json=True))
        assert payload["k"] == 3
        assert payload["scale"] == "tiny"
        assert len(payload["results"]) == 3
        first = payload["results"][0]
        assert set(first) == {"pid", "intensity", "venue", "year", "title"}
        index = payload["index"]
        assert index["pairs"] > 0
        assert index["pairs_counted"] + index["pairs_prefiltered"] == index["pairs"]
        assert index["refreshes"] == 1

class TestLoad:
    def test_load_json_reports_slos_and_clean_audit(self):
        payload = json.loads(run_load(
            scale="tiny", users=8, threads=2, duration=0.4, k=3,
            audit_interval=0.2, as_json=True))
        run = payload["run"]
        assert run["mode"] == "closed"
        assert run["ops"] > 0 and run["throughput_ops_per_sec"] > 0
        latency = run["latency"]
        assert latency["p50_ms"] <= latency["p95_ms"] <= latency["p99_ms"]
        assert run["audit"]["mismatches"] == 0 and run["errors"] == []
        assert payload["config"]["threads"] == 2

    def test_load_open_loop(self):
        payload = json.loads(run_load(
            scale="tiny", users=8, threads=2, duration=0.4, qps=100.0,
            k=3, audit_interval=0.2, as_json=True))
        run = payload["run"]
        assert run["mode"] == "open" and run["target_qps"] == 100.0
        assert run["ops"] > 0 and run["audit"]["mismatches"] == 0

    def test_load_text_report_names_the_slos(self):
        text = run_load(scale="tiny", users=8, threads=2, duration=0.4,
                        k=3, audit_interval=0.2)
        assert "p50" in text and "p95" in text and "p99" in text
        assert "at saturation" in text
        assert "audit:" in text and "0 mismatches" in text

    def test_load_writes_a_valid_bench_document(self, tmp_path):
        from repro.loadgen import load_and_validate
        path = tmp_path / "BENCH_loadgen.json"
        run_load(scale="tiny", users=8, threads=2, duration=0.4, k=3,
                 audit_interval=0.2, output=str(path))
        document = load_and_validate(str(path))
        assert len(document["payload"]["runs"]) == 1

    def test_load_rejects_unknown_scale(self):
        with pytest.raises(ValueError):
            run_load(scale="galactic")



class TestMainEntryPoint:
    def test_main_list(self, capsys):
        assert main(["list"]) == 0
        assert "table10" in capsys.readouterr().out

    def test_main_experiment(self, capsys):
        assert main(["experiment", "fig26_27", "--scale", "tiny"]) == 0
        output = capsys.readouterr().out
        assert "graph_count" in output

    def test_main_topk(self, capsys):
        assert main(["topk", "--scale", "tiny", "--k", "3"]) == 0
        assert "Top-3" in capsys.readouterr().out

    def test_main_topk_json(self, capsys):
        assert main(["topk", "--scale", "tiny", "--k", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["k"] == 3

    def test_main_load(self, capsys):
        assert main(["load", "--scale", "tiny", "--users", "8",
                     "--threads", "2", "--duration", "0.4", "--k", "3",
                     "--audit-interval", "0.2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["run"]["ops"] > 0
        assert payload["run"]["audit"]["mismatches"] == 0


class TestStats:
    def test_stats_json_snapshot_covers_every_layer(self):
        from repro.cli import run_stats
        from repro.telemetry import validate_snapshot
        document = json.loads(run_stats(scale="tiny", users=8, requests=30,
                                        k=3))
        assert validate_snapshot(document)
        layers = {name.split(".", 1)[0] for name in document["metrics"]}
        assert {"serving", "index", "backend", "concurrency",
                "telemetry"} <= layers
        assert document["traces"]["buffer"]["recorded"] > 0

    def test_stats_prometheus_exposition(self):
        from repro.cli import run_stats
        text = run_stats(scale="tiny", users=8, requests=30, k=3,
                         prometheus=True)
        assert "repro_serving_server_reads " in text
        assert "repro_concurrency_lock_server_acquisitions " in text
        assert text.endswith("\n")

    def test_main_stats(self, capsys):
        assert main(["stats", "--scale", "tiny", "--users", "8",
                     "--requests", "30", "--k", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] >= 1

    def test_parser_rejects_json_with_prometheus(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stats", "--json", "--prometheus"])


class TestTelemetryFlags:
    def test_load_telemetry_carries_snapshot(self):
        payload = json.loads(run_load(
            scale="tiny", users=8, threads=2, duration=0.4, k=3,
            audit_interval=0.2, as_json=True, telemetry=True))
        snapshot = payload["run"]["telemetry"]
        assert snapshot["metrics"]["loadgen.audit.mismatches"] == 0
        assert snapshot["traces"]["buffer"]["recorded"] > 0

    def test_load_text_mentions_telemetry(self):
        text = run_load(scale="tiny", users=6, threads=1, duration=0.2,
                        k=3, audit_interval=0.1, telemetry=True)
        assert "telemetry:" in text and "traces recorded" in text
