"""Tests of the benchmark's own machinery.

Run explicitly — tier-1 ``testpaths`` stays ``tests/``::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for _path in (str(ROOT / "src"), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from e2ebench import oracle, stats, tracing  # noqa: E402
from e2ebench.config import load_benchmark, load_config  # noqa: E402
from e2ebench.schedule import (Schedule, schedule_digest,  # noqa: E402
                               systematic_sample)
from e2ebench.world import build_world, populations  # noqa: E402

RUN = [sys.executable, str(HERE / "run.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")


@pytest.fixture(scope="module")
def cfg():
    return load_config()


@pytest.fixture(scope="module")
def world():
    built = build_world("sqlite", 8)
    yield built
    built.close()


@pytest.fixture(scope="module")
def pops(cfg, world):
    return populations(world.registry, cfg["typical_max_preferences"])


# -- schedule -------------------------------------------------------------------


def test_schedule_is_a_function_of_the_seed(cfg, world, pops):
    spec = cfg.workloads["mixed-churn"]
    first = schedule_digest(spec, 5, world.dataset, pops, 3)
    assert first == schedule_digest(spec, 5, world.dataset, pops, 3)
    assert first != schedule_digest(spec, 6, world.dataset, pops, 3)


def test_engine_differential_replays_the_identical_schedule(cfg, world, pops):
    digests = {name: schedule_digest(cfg.workloads[name], 5, world.dataset, pops, 2)
               for name in ("mixed-churn", "mixed-churn-memory", "mixed-churn-2c")}
    assert digests["mixed-churn"] == digests["mixed-churn-memory"]
    assert digests["mixed-churn"] != digests["mixed-churn-2c"]


def test_pinned_digests_match_the_default_seed(cfg, world, pops):
    for name, spec in cfg.workloads.items():
        assert cfg["pinned"]["schedule_digests"][name] == schedule_digest(
            spec, cfg["default_seed"], world.dataset, pops,
            spec.warmup_units + spec.trace_units), name


def test_clients_never_share_a_tuple(cfg, world, pops):
    schedule = Schedule(cfg.workloads["mixed-churn-2c"], 9, world.dataset, pops)
    touched = [set(), set()]
    for _ in range(20):
        for client, ops in enumerate(schedule.next_unit().segments[0]):
            for op in ops:
                if op[0] in (2, 4):      # insert, update: papers
                    touched[client].update(paper.pid for paper in op[1])
                elif op[0] == 3:         # delete: pids
                    touched[client].update(op[1])
    assert touched[0] and touched[1] and not touched[0] & touched[1]


def test_cold_units_read_each_user_once_and_keep_the_tail(cfg, world, pops):
    spec = cfg.workloads["cold-read"]
    schedule = Schedule(spec, 3, world.dataset, pops)
    tail = set(pops["all"][-spec.tail_users:])
    for _ in range(3):
        unit = schedule.next_unit()
        uids = [op[1] for segment in unit.segments for op in segment[0]]
        assert unit.fresh_server and len(uids) == len(set(uids)) == spec.users
        assert len(tail & set(uids)) == 1


def test_systematic_sample_takes_one_user_per_slice_whatever_the_seed(cfg, world, pops):
    ranked = list(range(100))
    assert systematic_sample(ranked, 10) == [5, 15, 25, 35, 45, 55, 65, 75, 85, 95]
    assert systematic_sample(ranked, 10, member=12) == [2 + 10 * i for i in range(10)]
    with pytest.raises(ValueError):
        systematic_sample(ranked, 101)
    spec = cfg.workloads["mixed-churn"]
    first, second = (Schedule(spec, seed, world.dataset, pops) for seed in (1, 2))
    assert sorted(first.users) == sorted(second.users) and first.users != second.users


def test_hot_ranks_hold_one_user_of_each_size_class(cfg, world, pops):
    spec = cfg.workloads["mixed-churn"]
    users = Schedule(spec, 7, world.dataset, pops).users
    by_size = sorted(users, key=pops["typical"].index)
    width = len(users) // 8
    classes = [by_size.index(uid) // width for uid in users]
    for start in range(0, len(users), 8):
        assert sorted(classes[start:start + 8]) == list(range(8))


def test_every_unit_has_the_exact_mix_and_rotates_payload_sizes(cfg, world, pops):
    spec = cfg.workloads["mixed-churn"]
    schedule = Schedule(spec, 11, world.dataset, pops)
    authors = world.dataset.authors_of()
    sizes = []
    for _ in range(6):
        ops = schedule.next_unit().segments[0][0]
        kinds = [op[0] for op in ops]
        assert [kinds.count(kind) for kind in range(5)] == [42, 2, 2, 2, 2]
        sizes += [len(authors[op[1][0]]) for op in ops if op[0] == 3]
    assert sizes[:8] == [1, 4, 2, 3, 1, 4, 2, 3]


# -- spans ----------------------------------------------------------------------


def test_self_time_is_duration_minus_direct_children():
    # root 0..100 (name 0) ── a 10..40 (name 1) ── b 20..30 (name 2)
    #                      └─ c 50..90 (name 1)
    folded = tracing.fold(names=[0, 1, 2, 1], starts=[0, 10, 20, 50],
                          ends=[100, 40, 30, 90], parents=[-1, 0, 1, 0],
                          scales=[1.0, 1.0, 1.0, 1.0])
    assert folded[0] == (1, 30.0, 100.0)      # 100 - (30 + 40)
    assert folded[1] == (2, 60.0, 70.0)       # (30 - 10) + 40
    assert folded[2] == (1, 10.0, 10.0)
    assert sum(entry[1] for entry in folded.values()) == 100.0


def test_span_times_are_calibrated_per_span():
    folded = tracing.fold([0, 0], [0, 0], [10, 10], [-1, -1], [1.0, 0.5])
    assert folded[0] == (2, 15.0, 15.0)


def test_recorder_nests_spans_and_restores_the_classes():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    recorder = tracing.SpanRecorder()
    original = Layer.outer
    Layer.outer = recorder._wrap(Layer.outer, 0)
    Layer.inner = recorder._wrap(Layer.inner, 1)
    recorder.op = 7
    assert Layer().outer() == 2
    assert list(recorder.parent) == [-1, 0] and list(recorder.op_id) == [7, 7]
    assert recorder.start[0] <= recorder.start[1] <= recorder.end[1] <= recorder.end[0]
    assert Layer.outer.__wrapped__ is original

    from repro import TopKServer
    before = TopKServer.top_k
    recorder.install(type("Backend", (), {
        name: (lambda self: None) for _, name, _ in tracing.WRAP_POINTS}))
    assert TopKServer.top_k is not before
    recorder.uninstall()
    assert TopKServer.top_k is before


# -- oracle ---------------------------------------------------------------------


def test_oracle_agrees_with_the_server_and_flags_a_corrupted_ranking(world, pops):
    def spread(uid):
        ranking = world.server.top_k(uid, 10).ranking
        return len(ranking) == 10 and ranking[0][1] - ranking[-1][1] > 1e-6

    uid = next(uid for uid in pops["typical"][150:] if spread(uid))
    served = list(world.server.top_k(uid, 10).ranking)
    scores = oracle.Oracle(world.db).scores(uid)
    assert oracle.agrees(served, scores, 10)
    low, high = served[-1], served[0]
    assert not oracle.agrees([low] + served[1:-1] + [high], scores, 10)   # order
    assert not oracle.agrees([(high[0], high[1] - 1e-6)] + served[1:], scores, 10)
    assert not oracle.agrees(served[:-1], scores, 10)                     # short
    assert not oracle.agrees(served[:-1] + [served[0]], scores, 10)       # repeat
    outsider = next(pid for pid in range(1, 3000) if pid not in scores)
    assert not oracle.agrees(served[:-1] + [(outsider, low[1])], scores, 10)
    assert oracle.wrong_answers(world.server, oracle.Oracle(world.db), [uid], 10) == 0


def test_oracle_accepts_either_order_of_a_tie():
    scores = {1: 0.5, 2: 0.5 + 1e-16, 3: 0.25}
    assert oracle.agrees([(2, 0.5), (1, 0.5)], scores, 2)
    assert oracle.agrees([(1, 0.5), (2, 0.5)], scores, 2)
    assert not oracle.agrees([(1, 0.5), (3, 0.25)], scores, 2)


# -- statistics -----------------------------------------------------------------


def test_percentile_needs_ten_samples_beyond_it():
    values = [float(i) for i in range(1, 101)]
    assert stats.percentile(values, 0.9, 10) == 90.0
    assert stats.percentile(values[:99], 0.9, 10) is None
    assert stats.percentile(values[:20], 0.5, 10) == 10.0
    assert stats.percentile(values[:19], 0.5, 10) is None


def test_percentile_of_a_large_sample_reads_a_subsample():
    values = [float(i) for i in range(1_000_000)]
    assert abs(stats.percentile(values, 0.5, 10) - 500_000) < 10


def test_compare_separates_ok_worse_and_unresolved():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert stats.compare(steady, [v * 1.02 for v in steady], "lower", 0.05)["verdict"] == "ok"
    assert stats.compare(steady, [v * 1.10 for v in steady], "lower", 0.05)["verdict"] == "worse"
    assert stats.compare(steady, [v * 0.90 for v in steady], "higher", 0.05)["verdict"] == "worse"
    assert stats.compare(steady, [v * 0.90 for v in steady], "lower", 0.05)["verdict"] == "ok"
    noisy = [100.0, 80.0, 120.0, 90.0, 110.0]
    assert stats.compare(noisy, steady, "lower", 0.05)["verdict"] == "unresolved"


# -- BENCHMARK.json and the command ---------------------------------------------


def test_benchmark_json_meets_the_contract(cfg):
    declared = load_benchmark()
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert declared["paths"] == ["benchmarks/e2e"]
    assert declared["run_seconds"] == cfg["run_seconds"]
    assert [w["name"] for w in declared["workloads"]] == list(cfg.workloads)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in declared["workloads"])
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    names += [w["name"] for w in declared["workloads"]]
    assert len(names) == len(set(names)) and all(NAME.fullmatch(n) for n in names)
    assert all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
               for m in declared["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in declared["per_layer"])
    setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in declared["end_to_end"])
    assert 1 <= len(declared["per_layer"]) <= 128


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_output_validates_against_benchmark_json(trace, section):
    done = subprocess.run(
        RUN + ["--workload", "write-heavy", "--seed", "4", "--seconds", "0.4",
               "--trace", str(trace), "--smoke"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=170)
    assert done.returncode == 0
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in load_benchmark()[section]}
    assert {n: v["unit"] for n, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = {line.split(" ")[1] for line in lines[:-1]}
    assert set(declared) <= printed
    assert all(len(line.split(" ")) == 4 for line in lines[:-1])


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "warm-read",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=tmp_path,
        timeout=170)
    assert done.returncode != 0 and done.stdout == ""
