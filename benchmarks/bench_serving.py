"""Multi-user serving engine vs ad-hoc recomputation (ISSUE 2 tentpole,
extended by ISSUE 3 to the full update spectrum).

A 50+-user Zipf-skewed serial replay (reads / profile updates / tuple
inserts, deletes and in-place updates) runs twice over identical worlds —
the one-worker run of :class:`repro.loadgen.LoadGenerator`, so both arms
apply the identical op list: once through :class:`repro.serving.TopKServer`
(one shared id-list memo, update-aware result cache) and once through
:class:`repro.serving.Uncached`, which recomputes every read from scratch —
the seed behaviour the serving layer replaces.

The printed report and the assertions cover the acceptance criteria:

(a) warm ``top_k`` requests are served from the result cache with **zero**
    SQL statements;
(b) every data-mutation kind — insert, delete, in-place update —
    invalidates only the affected users' cached results: inserts always
    drop a strict subset of a multi-entry cache, and each kind spares
    entries across the replay (spared count > 0, never a blanket flush);
(c) the end-to-end replay issues strictly fewer SQL statements than the
    no-cache baseline;
(d) the server's per-kind mutation counters equal the ops the replay
    applied of each kind.

(c) and (d) compare the two runner reports.  (a) and (b) are per-request claims,
so a third, identical world steps the same one-worker op list through
:func:`repro.serving.apply_op` and keeps each read's
:class:`~repro.serving.ServeResult` and each mutation's
:class:`~repro.serving.DataMutationReport`.

Equivalence (served results == fresh recomputation after every op) is the
state machine's, ``tests/test_server_machine.py``.
"""

from __future__ import annotations

from repro.experiments import reporting
from repro.experiments.context import SCALES
from itertools import islice

from repro.loadgen import LoadConfig, LoadGenerator, build_world, population
from repro.serving import (MUTATION_KINDS, READ, TopKServer, Uncached,
                           apply_op, build_streams)
from repro.serving.ops import ZIPF_EXPONENT

from bench_utils import run_once

#: ≥50 users, Zipf-skewed; small enough to keep the smoke job quick.
USERS = 50
REPLAY = LoadConfig(threads=1, requests=300, k=5, seed=17,
                    audit_interval=None)
SCALE = "tiny"


def _run(target):
    return LoadGenerator(REPLAY).run(target)


def _step(server):
    """The replay's op list, one op at a time: ``(reads, events)`` — each
    read's result, and per data mutation its kind, the answers cached just
    before it and its report."""
    (stream,) = build_streams(server.db, 1, REPLAY.mix, population(USERS),
                              REPLAY.k, REPLAY.seed)
    reads, events = [], []
    for op in islice(stream, REPLAY.requests):
        cached_before = len(server.results)
        outcome = apply_op(server, op)
        if op.kind == READ:
            reads.append(outcome)
        elif op.kind in MUTATION_KINDS:
            events.append((op.kind, cached_before, outcome))
    return reads, events


def test_serving_replay_beats_no_cache_baseline(benchmark):
    """The acceptance benchmark: cache behaviour + SQL-statement comparison."""
    serving_db = build_world(SCALES[SCALE], USERS)
    server = TopKServer(serving_db)
    serving = run_once(benchmark, _run, server)
    metrics = serving.server_stats
    baseline_db = build_world(SCALES[SCALE], USERS)
    baseline = _run(Uncached(baseline_db))
    stepped_db = build_world(SCALES[SCALE], USERS)
    with TopKServer(stepped_db) as stepped:
        reads, events = _step(stepped)
    server.close()
    for db in (serving_db, baseline_db, stepped_db):
        db.close()

    reporting.print_report(
        f"Serving replay — {USERS} users, {REPLAY.requests} requests "
        f"(Zipf {ZIPF_EXPONENT})",
        reporting.format_table([
            {"arm": label, **arm.kind_counts, "read_hits": arm.read_hits,
             "sql_statements": arm.sql_statements,
             "seconds": f"{arm.duration_seconds:.3f}"}
            for label, arm in (("serving", serving),
                               ("baseline", baseline))])
        + f"\nbuilds: {metrics['serving.sessions.sessions_built']}; "
          f"result cache: {metrics['serving.results.hits']} hits, "
          f"{metrics['serving.results.data_invalidations']} data-invalidated, "
          f"{metrics['serving.results.data_spared']} spared"
        + f"\nmutations: {metrics['serving.server.inserts']} inserts, "
          f"{metrics['serving.server.deletes']} deletes, "
          f"{metrics['serving.server.tuple_updates']} in-place updates"
        + f"\nSQL statements saved vs no-cache baseline: "
          f"{baseline.sql_statements - serving.sql_statements} "
          f"({baseline.sql_statements} -> {serving.sql_statements})")
    reporting.print_report(
        "Result-cache behaviour under data mutations",
        reporting.format_table([
            {"op": position, "kind": kind, "cached_before": cached_before,
             "results_invalidated": report.results_invalidated,
             "results_spared": report.results_spared,
             "results_repaired": report.results_repaired,
             "index_entries_patched": report.index_entries_patched,
             "index_entries_dropped": report.index_entries_dropped}
            for position, (kind, cached_before, report)
            in enumerate(events)]))

    # The stepped world replayed the runner's op list.
    hits = [read for read in reads if read.cache_hit]
    assert len(hits) == serving.read_hits
    assert len(events) == sum(serving.kind_counts[kind]
                              for kind in MUTATION_KINDS)

    # (a) Warm requests answer from the materialised result cache with zero
    # SQL statements — and the skew guarantees plenty of warm requests.
    assert hits
    assert all(read.sql_statements == 0 for read in hits)
    assert metrics["serving.results.hits"] == serving.read_hits

    # (b) Every mutation kind invalidates *selectively*.  Inserts touch one
    # venue, so against every multi-entry cache strictly fewer than all
    # cached answers are dropped or repaired (a single-entry cache may
    # legitimately lose its only — affected — entry); and for each of
    # insert/delete/update the replay leaves cached answers untouched
    # (spared > 0) — no kind ever degenerates into a blanket cache flush.
    populated = [(cached_before, report) for kind, cached_before, report
                 in events if kind == "insert" and cached_before >= 2]
    assert populated, "replay produced no insert against a warm cache"
    for cached_before, report in populated:
        assert (report.results_invalidated
                + report.results_repaired) < cached_before
    for kind in MUTATION_KINDS:
        spared = [report.results_spared for event_kind, _, report in events
                  if event_kind == kind]
        assert spared, f"replay produced no {kind} operations"
        assert sum(spared) > 0

    # (c) End to end, the serving engine does strictly less SQL work than
    # ad-hoc recomputation over the identical schedule.
    assert serving.sql_statements < baseline.sql_statements

    # (d) The per-kind mutation counters match the replay's op counts.
    assert [metrics[f"serving.server.{counter}"]
            for counter in ("inserts", "deletes", "tuple_updates")] == [
        serving.kind_counts[kind] for kind in MUTATION_KINDS]

    # Serving counts no predicate: every cold read is the fold over id
    # lists from the one shared memo.
    assert metrics["index.count_cache.misses"] == 0

