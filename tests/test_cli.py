"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import (
    EXPERIMENTS,
    build_parser,
    list_experiments,
    main,
    run_experiment,
    run_load,
    run_serve_replay,
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

    def test_serve_replay_defaults(self):
        args = build_parser().parse_args(["serve-replay"])
        assert args.command == "serve-replay"
        assert args.users == 50
        assert args.requests == 300
        assert args.as_json is False
        assert args.no_baseline is False

    def test_serve_replay_options(self):
        args = build_parser().parse_args(
            ["serve-replay", "--users", "20", "--requests", "80",
             "--no-baseline", "--json"])
        assert (args.users, args.requests) == (20, 80)
        assert args.no_baseline and args.as_json

    def test_capacity_and_weight_flags(self):
        """Gone: no session is resident, so there is no capacity to bound,
        and ``--mix`` (default: the benign mix of all five op kinds) is the
        one way to shape a replay."""
        for command in ("serve-replay", "load", "stats"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--capacity", "8"])
        for kind in ("read", "update", "insert", "delete", "data-update"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    ["serve-replay", f"--{kind}-weight", "1"])

    def test_serve_replay_shards_flag(self):
        """Gone with the in-process cluster it partitioned users across."""
        for command in ("serve-replay", "load", "stats"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--shards", "4"])

    def test_backend_flag(self):
        """Gone: SQLite is the one engine a command's world lives on."""
        for command in ("topk", "serve-replay", "load", "stats"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--backend", "sqlite"])

    def test_repair_delta_flag(self):
        """Gone with the invalidate-only mode its negative values selected:
        every cached answer is a repairable buffer of depth ``3k``."""
        for command in ("serve-replay", "load"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--repair-delta", "8"])

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

    def test_serve_replay_json_reports_both_arms(self):
        payload = json.loads(run_serve_replay(
            scale="tiny", users=8, requests=30, k=3,
            as_json=True))
        assert payload["serving"]["ops"] == 30
        assert payload["baseline"]["ops"] == 30
        assert payload["serving"]["sql_statements"] < \
            payload["baseline"]["sql_statements"]
        assert payload["server"]["serving.sessions.sessions_built"] > 0

    def test_serve_replay_json_without_baseline(self):
        payload = json.loads(run_serve_replay(
            scale="tiny", users=6, requests=20, k=3,
            baseline=False, as_json=True))
        assert payload["baseline"] is None
        assert set(payload) == {"config", "serving", "baseline", "server",
                                "mutations", "telemetry"}

    def test_serve_replay_json_reports_per_kind_mutation_counters(self):
        """The JSON report surfaces the server's per-kind mutation counters
        (inserts / deletes / tuple_updates), matching the replay arm."""
        payload = json.loads(run_serve_replay(
            scale="tiny", users=8, requests=40, k=3, seed=2,
            baseline=False, as_json=True))
        mutations = payload["mutations"]
        assert set(mutations) == {"inserts", "deletes", "tuple_updates"}
        assert mutations == {
            kind: payload["server"][f"serving.server.{kind}"]
            for kind in ("inserts", "deletes", "tuple_updates")}
        kinds = payload["serving"]["kind_counts"]
        assert mutations["inserts"] == kinds["insert"]
        assert mutations["deletes"] == kinds["delete"]
        assert mutations["tuple_updates"] == kinds["data_update"]

    def test_serve_replay_repairs_in_place(self):
        """The serving arm repairs touched answers in place rather than
        dropping them."""
        repaired = json.loads(run_serve_replay(
            scale="tiny", users=8, requests=40, k=3, seed=2,
            baseline=False, as_json=True))
        server = repaired["server"]
        assert server["serving.result_cache.repairs"] > \
            server["serving.result_cache.repair_fallbacks"]


class TestServeReplayText:
    def test_text_report_mentions_both_arms(self):
        text = run_serve_replay(scale="tiny", users=8, requests=30, k=3)
        assert "serving" in text and "baseline" in text
        assert "SQL statements saved" in text
        assert "mutations:" in text and "in-place updates" in text

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            run_serve_replay(scale="galactic")


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

    def test_main_serve_replay(self, capsys):
        assert main(["serve-replay", "--scale", "tiny", "--users", "6",
                     "--requests", "20", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["users"] == 6

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
    def test_serve_replay_telemetry_json_section(self):
        payload = json.loads(run_serve_replay(
            scale="tiny", users=6, requests=20, baseline=False,
            as_json=True, telemetry=True))
        snapshot = payload["telemetry"]
        assert snapshot is not None
        assert snapshot["metrics"]["serving.server.reads"] > 0
        assert snapshot["traces"]["buffer"]["recorded"] > 0

    def test_serve_replay_text_mentions_telemetry(self):
        text = run_serve_replay(scale="tiny", users=6, requests=20,
                                baseline=False, telemetry=True)
        assert "telemetry:" in text and "traces recorded" in text

    def test_load_telemetry_carries_snapshot(self):
        payload = json.loads(run_load(
            scale="tiny", users=8, threads=2, duration=0.4, k=3,
            audit_interval=0.2, as_json=True, telemetry=True))
        snapshot = payload["run"]["telemetry"]
        assert snapshot["metrics"]["loadgen.audit.mismatches"] == 0
        assert snapshot["traces"]["buffer"]["recorded"] > 0
