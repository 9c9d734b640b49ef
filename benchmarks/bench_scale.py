"""The scale curve: world build, cold and warm Top-K and one mutation of each
kind, from 300 to 30 000 papers.

Every other benchmark in this directory runs at 220–800 papers; this one
publishes how the serving path grows with the *relation*.  Per size and
backend it builds the world through the public front doors, serves 40 users
once cold (fresh server) and then warm, and writes ``BENCH_scale.json``:
build phases (``extract_s_per_1k`` is mining time per 1 000 of the
``mined_preferences``, so a mining cost that grows faster than its output
shows), cold/warm latency, the two work counters
:class:`~repro.algorithms.peps.PEPSAlgorithm` records per call, and ``cold_id_fetches`` — the id lists the shared runner fetched over
the cold reads, which is every statement a cold read issues besides its
profile read.  Then, with the 40 answers cached, it inserts, rewrites in
place and deletes one 2-author paper: latency per kind, plus what the sweep
did — ``predicate_row_tests`` (the ``exact_match_row`` evaluations its
one :class:`~repro.index.RowMatch` made), ``index_entries_patched`` (stale id
lists the shared memo patched in place) and ``index_entries_dropped`` (those
it dropped on an undecidable row) — and asserts that it visited exactly the
cached answers it repaired or invalidated.

The gate is on the counters, not the clock.  A cold read folds every
preference's id list once, so ``memberships_folded`` (= Σ|ids|, pinned to
that meaning by ``tests/test_peps_cold_path.py``) is the input size of the
read; ``tuples_scored`` is what PEPS does with it: one score per covered
tuple.  Their ratio must not grow with the relation, at any machine speed.
Serving counts no pair, so the shared count cache must see no miss.  The
counters must also be equal on both engines: they count answers, not
storage work — and so must the mutation counters, which depend on the
cached answers' predicates and the mutation rows alone: a sweep decides
every held ``attr = literal`` conjunct by looking its rows' values up in
its buckets, and evaluates each other held conjunct once per row.  A mined
preference is one ``attr = literal`` conjunct, so every
``*_predicate_row_tests`` is 0: no evaluator call on a sweep over mined
profiles.

The 40 users are a systematic sample of the *typical* mined profiles (at
most 64 preferences, the same cut the end-to-end benchmark's ``typical``
population uses).  That holds profile width steady while the relation grows
100×: the productive authors of a 30 000-paper world mine thousands of
preferences.

``pytest benchmarks/bench_scale.py -q -s`` runs 300 and 3 000 papers (2 s);
the 30 000-paper row (15 s, most of it mining 6 400 profiles) is opt-in:
``pytest benchmarks/bench_scale.py -q -s -m scale_large``.
"""

from __future__ import annotations

import time
from statistics import mean, median

import pytest

from repro import (PreferenceExtractor, TopKServer, create_backend,
                   generate_dblp)
from repro.experiments import reporting
from repro.telemetry import Telemetry
from repro.workload import load_dataset, load_profiles
from repro.workload.dblp import DblpConfig, Paper

from bench_utils import run_once, write_bench_json

SIZES = (300, 3_000, 30_000)
BACKENDS = ("sqlite", "memory")
USERS = 40
K = 5
WARM_ROUNDS = 50
#: A profile is *typical* up to this many mined preferences.
TYPICAL_PREFERENCES = 64
#: How far the work-per-membership ratio may drift above the smallest size's.
RATIO_SLACK = 2.0
MUTATIONS = ("insert", "update", "delete")
#: The sweep's machine-independent counters, per mutation kind.
MUTATION_COUNTERS = ("predicate_row_tests", "index_entries_patched",
                     "index_entries_dropped")
#: Every machine-independent field of a row: equal on both engines here, and
#: equal to the committed ``BENCH_scale.json``'s in CI's ``scale-benchmark`` job.
WORK_COUNTERS = ("mined_preferences", "tuples_scored", "memberships_folded",
                 "cold_id_fetches",
                 *(f"{kind}_{counter}" for kind in MUTATIONS
                   for counter in MUTATION_COUNTERS))


def _config(papers: int) -> DblpConfig:
    """The default world's proportions (2000 papers, 600 authors) at ``papers``."""
    return DblpConfig(n_papers=papers, n_authors=max(40, papers * 3 // 10),
                      n_venues=24, seed=42)


def _sample_users(registry) -> list:
    typical = sorted(profile.uid for profile in registry
                     if len(profile.quantitative) + len(profile.qualitative)
                     <= TYPICAL_PREFERENCES)
    return typical[::max(1, len(typical) // USERS)][:USERS]


def _mutate(server: TopKServer, dataset) -> dict:
    """Insert, rewrite in place and delete one 2-author paper each, with
    every answer cached; per kind: latency and what the sweep did.

    The three papers sit in three different venues, so no kind finds its
    cache entries already dropped by the one before it.
    """
    telemetry = Telemetry()
    telemetry.observe(server)
    authors_of = dataset.authors_of()
    by_venue = {paper.venue: paper for paper in dataset.papers
                if len(authors_of[paper.pid]) == 2}
    cloned, rewritten, deleted = list(by_venue.values())[:3]
    pid = max(paper.pid for paper in dataset.papers) + 1
    doors = {
        "insert": lambda: server.insert_tuples(
            [Paper(pid, "scale probe", cloned.venue, cloned.year)],
            paper_authors=[(pid, aid) for aid in authors_of[cloned.pid]]),
        "update": lambda: server.update_tuples(
            [Paper(rewritten.pid, rewritten.title, rewritten.venue,
                   rewritten.year + 1)]),
        "delete": lambda: server.delete_tuples([deleted.pid]),
    }
    # Every text a sweep can judge: a conjunct of a predicate a cached
    # answer was scored with (the id-list memo holds the same keys).
    resident_texts = set().union(*(
        key for uid in server.results.cached_users()
        for key in server.results.peek(uid, K).conjuncts))
    measured = {}
    for kind in MUTATIONS:
        started = time.perf_counter()
        report = doors[kind]()
        measured[f"{kind}_ms"] = (time.perf_counter() - started) * 1e3
        sweep = telemetry.traces.snapshot()[-1].find("server.on_data_mutation")
        distinct = sweep.annotation("distinct_predicates")
        assert 0 < distinct <= len(resident_texts)
        assert sweep.annotation("predicate_row_tests") == 0
        measured[f"{kind}_predicate_row_tests"] = sweep.annotation(
            "predicate_row_tests")
        measured[f"{kind}_index_entries_patched"] = report.index_entries_patched
        measured[f"{kind}_index_entries_dropped"] = report.index_entries_dropped
    return measured


def _measure(papers: int) -> list:
    """One row per backend for a world of ``papers`` papers."""
    now = time.perf_counter
    started = now()
    dataset = generate_dblp(_config(papers))
    generate_s = now() - started
    started = now()
    registry = PreferenceExtractor(dataset).extract_all()
    extract_s = now() - started
    mined = sum(len(profile) for profile in registry)
    uids = _sample_users(registry)

    rows = []
    for backend in BACKENDS:
        started = now()
        db = create_backend(backend, path=":memory:")
        load_dataset(db, dataset)
        load_profiles(db, registry)
        load_s = now() - started
        server = TopKServer(db)
        try:
            cold_ms = []
            work = {"tuples_scored": 0, "memberships_folded": 0}
            runner = server.sessions.runner
            fetched = runner.queries_executed
            # Keep each cold read's PEPS for its counters: serving keeps
            # only the answer.
            built, build = [], server.sessions.get_or_create

            def keep(uid, basis=None):
                built.append(build(uid, basis))
                return built[-1]

            server.sessions.get_or_create = keep
            for uid in uids:
                started = now()
                result = server.top_k(uid, K)
                cold_ms.append((now() - started) * 1e3)
                assert not result.cache_hit
            del server.sessions.get_or_create
            assert len(built) == len(uids)
            for peps, _ in built:
                for counter in work:
                    work[counter] += getattr(peps, counter)
            work["cold_id_fetches"] = runner.queries_executed - fetched
            started = now()
            for _ in range(WARM_ROUNDS):
                for uid in uids:
                    server.top_k(uid, K)
            warm_us = (now() - started) * 1e6 / (WARM_ROUNDS * len(uids))
            mutated = _mutate(server, dataset)
            assert server.metrics()["index.count_cache.misses"] == 0, (
                "serving counted a predicate")
        finally:
            server.close()
            db.close()
        rows.append({
            "papers": papers, "backend": backend, "users": len(uids), "k": K,
            "generate_s": generate_s, "extract_s": extract_s, "load_s": load_s,
            "build_s": generate_s + extract_s + load_s,
            "mined_preferences": mined,
            "extract_s_per_1k": extract_s * 1000 / max(1, mined),
            "cold_ms_mean": mean(cold_ms), "cold_ms_p50": median(cold_ms),
            "cold_ms_max": max(cold_ms), "warm_us_mean": warm_us,
            **work, **mutated,
            "work_per_membership": (
                work["tuples_scored"] / max(1, work["memberships_folded"])),
        })
    return rows


def _sweep(sizes) -> list:
    return [row for papers in sizes for row in _measure(papers)]


def _publish(rows) -> None:
    reporting.print_report(
        f"Scale curve — {USERS} typical users, k={K}",
        reporting.format_table([
            {"papers": row["papers"], "backend": row["backend"],
             "build_s": f"{row['build_s']:.2f}",
             "mined": row["mined_preferences"],
             "extract_s/1k": f"{row['extract_s_per_1k']:.3f}",
             "cold_ms": f"{row['cold_ms_mean']:.2f}",
             "warm_us": f"{row['warm_us_mean']:.1f}",
             "memberships": row["memberships_folded"],
             "scored": row["tuples_scored"],
             "id_fetches": row["cold_id_fetches"],
             "work/membership": f"{row['work_per_membership']:.3f}"}
            for row in rows]))
    reporting.print_report(
        f"Mutation curve — one 2-author paper, {USERS} cached answers",
        reporting.format_table([
            {"papers": row["papers"], "backend": row["backend"], "kind": kind,
             "ms": f"{row[f'{kind}_ms']:.2f}",
             **{counter: row[f"{kind}_{counter}"]
                for counter in MUTATION_COUNTERS}}
            for row in rows for kind in MUTATIONS]))
    write_bench_json("scale", {
        "users": USERS, "k": K, "warm_rounds": WARM_ROUNDS,
        "typical_preferences": TYPICAL_PREFERENCES, "rows": rows})

    by_backend = {backend: [row for row in rows if row["backend"] == backend]
                  for backend in BACKENDS}
    for sqlite_row, memory_row in zip(*by_backend.values()):
        assert ([sqlite_row[counter] for counter in WORK_COUNTERS]
                == [memory_row[counter] for counter in WORK_COUNTERS]), (
            "the engines disagree on the work a cold read or a sweep does")
    for curve in by_backend.values():
        smallest = curve[0]
        for row in curve[1:]:
            assert row["memberships_folded"] > smallest["memberships_folded"]
            assert (row["work_per_membership"]
                    <= RATIO_SLACK * smallest["work_per_membership"]), (
                f"cold-read work grows faster than the id lists it reads: "
                f"{row['work_per_membership']:.3f} per membership at "
                f"{row['papers']} papers, {smallest['work_per_membership']:.3f} "
                f"at {smallest['papers']}")


def test_scale_curve(benchmark):
    """300 and 3 000 papers on both backends (the CI job)."""
    _publish(run_once(benchmark, _sweep, SIZES[:2]))


@pytest.mark.scale_large
def test_scale_curve_with_30k(benchmark):
    """The full curve, 30 000-paper row included (opt-in, see module doc)."""
    _publish(run_once(benchmark, _sweep, SIZES))
