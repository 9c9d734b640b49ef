"""Shared conformance contract every storage backend must satisfy.

One test class, parametrised over every registered backend
(:data:`repro.backend.BACKEND_NAMES`): SQLite, the served engine, and the
columnar engine kept as its differential arm must agree on schema
statistics, image capture, lifecycle/notify semantics, op accounting and
predicate rejection.  The protocol's member list is pinned in
``test_public_api.py``.
"""

from __future__ import annotations

import pytest

from repro.backend import BACKEND_NAMES, StorageBackend, create_backend
from repro.core.preference import ProfileRegistry, UserProfile
from repro.exceptions import PredicateError, RelationalError, WorkloadError
from repro.sqldb.events import TUPLES_DELETED, TUPLES_INSERTED, TUPLES_UPDATED
from repro.workload.dblp import DblpConfig, Paper, generate_dblp
from repro.workload.loader import (
    append_papers,
    delete_papers,
    load_dataset,
    load_profiles,
    profile_rows,
    read_profiles,
    update_papers,
)

DATASET = generate_dblp(DblpConfig(n_papers=150, n_authors=60, n_venues=8, seed=11))


def _row_key(row):
    return tuple(sorted(row.items()))


def _event_signature(event):
    """Order-insensitive identity of a DataMutation payload."""
    return (event.kind,
            sorted(map(_row_key, event.rows)),
            sorted(map(_row_key, event.old_rows)),
            tuple(event.pids))


@pytest.fixture(params=sorted(BACKEND_NAMES))
def backend(request):
    db = create_backend(request.param)
    yield db
    db.close()


@pytest.fixture()
def loaded(backend):
    load_dataset(backend, DATASET)
    return backend


@pytest.fixture()
def events(loaded):
    captured = []
    loaded.subscribe(captured.append)
    return captured


class TestBackendContract:
    """The conformance suite (parametrised over every registered backend)."""

    # -- registry / protocol ------------------------------------------------------

    def test_satisfies_protocol(self, backend):
        assert isinstance(backend, StorageBackend)
        assert backend.backend_name in BACKEND_NAMES

    def test_factory_rejects_unknown_names(self):
        with pytest.raises(RelationalError):
            create_backend("postgres")

    # -- schema / statistics ------------------------------------------------------

    def test_load_reports_schema_statistics(self, loaded):
        counts = loaded.table_counts()
        assert counts["dblp"] == len(DATASET.papers)
        assert counts["author"] == len(DATASET.authors)
        assert counts["dblp_author"] == len(DATASET.paper_authors)
        assert counts["citation"] == len(DATASET.citations)

    def test_workload_shape(self, loaded):
        venues, lo, hi = loaded.workload_shape()
        assert venues == sorted({paper.venue for paper in DATASET.papers})
        assert lo == min(paper.year for paper in DATASET.papers)
        assert hi == max(paper.year for paper in DATASET.papers)
        assert loaded.max_paper_id() == max(paper.pid for paper in DATASET.papers)
        assert loaded.paper_ids() == sorted(paper.pid for paper in DATASET.papers)

    def test_empty_backend_shape(self, backend):
        assert backend.workload_shape() == ([], 0, 0)
        assert backend.paper_ids() == []
        assert backend.max_paper_id() == 0
        assert backend.max_author_id() == 0
        assert backend.count_matching(None) == 0

    # -- mutation images ----------------------------------------------------------

    def test_insert_carries_post_image(self, loaded, events):
        paper = Paper(pid=90_001, title="T", venue="NEWVENUE", year=2012)
        append_papers(loaded, [paper], [(90_001, 3), (90_001, 4)])
        assert [event.kind for event in events] == [TUPLES_INSERTED]
        rows = sorted(events[0].rows, key=lambda row: row["aid"])
        assert [(row["pid"], row["aid"], row["venue"]) for row in rows] == [
            (90_001, 3, "NEWVENUE"), (90_001, 4, "NEWVENUE")]
        assert events[0].old_rows == ()

    def test_unlinked_insert_carries_no_rows(self, loaded, events):
        append_papers(loaded, [Paper(pid=90_002, title="T", venue="V", year=2000)])
        assert events[0].rows == () and events[0].old_rows == ()

    def test_replace_carries_pre_image(self, loaded, events):
        paper = Paper(pid=90_003, title="Old", venue="V1", year=2001)
        append_papers(loaded, [paper], [(90_003, 5)])
        events.clear()
        replacement = Paper(pid=90_003, title="New", venue="V2", year=2002)
        append_papers(loaded, [replacement])
        (event,) = events
        assert event.kind == TUPLES_INSERTED
        # Pre-image: the old tuple values; post-image: new values joined
        # against the *surviving* author link.
        assert [row["venue"] for row in event.old_rows] == ["V1"]
        assert [(row["venue"], row["aid"]) for row in event.rows] == [("V2", 5)]

    def test_delete_carries_pre_image(self, loaded, events):
        append_papers(loaded, [Paper(pid=90_004, title="T", venue="V9", year=2003)],
                      [(90_004, 6)])
        events.clear()
        removed = delete_papers(loaded, [90_004, 123_456])
        assert removed["dblp"] == 1
        (event,) = events
        assert event.kind == TUPLES_DELETED
        assert [(row["pid"], row["venue"]) for row in event.old_rows] == [(90_004, "V9")]
        assert event.rows == ()

    def test_delete_unknown_pids_is_noop(self, loaded, events):
        assert delete_papers(loaded, [555_555]) == {
            "dblp": 0, "dblp_author": 0, "citation": 0}
        assert events == []

    def test_update_carries_both_images(self, loaded, events):
        append_papers(loaded, [Paper(pid=90_005, title="T", venue="A", year=2004)],
                      [(90_005, 7)])
        events.clear()
        update_papers(loaded, [Paper(pid=90_005, title="T", venue="B", year=2005)])
        (event,) = events
        assert event.kind == TUPLES_UPDATED
        assert [row["venue"] for row in event.old_rows] == ["A"]
        assert [row["venue"] for row in event.rows] == ["B"]

    def test_update_unknown_pid_raises(self, loaded):
        with pytest.raises(WorkloadError):
            update_papers(loaded, [Paper(pid=777_777, title="X", venue="V", year=2000)])

    def test_mutations_change_counts(self, loaded):
        predicate = "dblp.venue = 'CONTRACT'"
        assert loaded.count_matching(predicate) == 0
        append_papers(loaded, [Paper(pid=91_000, title="T", venue="CONTRACT",
                                     year=2010)], [(91_000, 1)])
        assert loaded.count_matching(predicate) == 1
        assert loaded.matching_paper_ids(predicate) == [91_000]
        delete_papers(loaded, [91_000])
        assert loaded.count_matching(predicate) == 0

    # -- profiles -----------------------------------------------------------------

    def test_profile_round_trip_preserves_order(self, loaded):
        registry = ProfileRegistry()
        profile = UserProfile(uid=42)
        profile.add_quantitative("dblp.year >= 2005", 0.9)
        profile.add_quantitative("dblp.venue = 'VLDB'", 0.5)
        profile.add_qualitative("dblp.venue = 'VLDB'", "dblp.venue = 'ICDE'", 0.3)
        registry.add(profile)
        counts = load_profiles(loaded, registry)
        assert counts == {"quantitative_pref": 2, "qualitative_pref": 1}
        restored = read_profiles(loaded, [42]).get(42)
        assert [pref.predicate_sql for pref in restored.quantitative] == [
            "dblp.year >= 2005", "dblp.venue = 'VLDB'"]
        assert len(restored.qualitative) == 1
        assert 999 not in read_profiles(loaded, [999])

    def test_profile_rows_are_one_users_staged_rows(self, loaded):
        """``profile_rows``: plain tuples of one user, in staging order,
        canonical text, raw strengths, duplicates kept; empty for an
        unknown user; two statements either way."""
        registry = ProfileRegistry()
        profile = UserProfile(uid=42)
        profile.add_quantitative("dblp.year>=2005", 0.9)
        profile.add_quantitative("dblp.venue = 'VLDB'", 0.5)
        profile.add_quantitative("dblp.year >= 2005", -0.25)
        profile.add_qualitative("dblp.venue = 'VLDB'", "dblp.venue = 'ICDE'", -0.3)
        profile.add_qualitative("dblp.venue = 'ICDE'", "dblp.venue = 'ICDE'", 0.5)
        registry.add(profile)
        other = registry.get_or_create(7)
        other.add_quantitative("dblp.venue = 'PODS'", 0.4)
        load_profiles(loaded, registry)
        before = loaded.statements_executed
        rows = profile_rows(loaded, 42)
        assert loaded.statements_executed - before == 2
        assert rows == (
            [("dblp.year >= 2005", 0.9), ("dblp.venue = 'VLDB'", 0.5),
             ("dblp.year >= 2005", -0.25)],
            [("dblp.venue = 'VLDB'", "dblp.venue = 'ICDE'", -0.3),
             ("dblp.venue = 'ICDE'", "dblp.venue = 'ICDE'", 0.5)])
        assert all(type(row) is tuple for part in rows for row in part)
        assert profile_rows(loaded, 7) == ([("dblp.venue = 'PODS'", 0.4)], [])
        before = loaded.statements_executed
        assert profile_rows(loaded, 999) == ([], [])
        assert loaded.statements_executed - before == 2

    # -- lifecycle / notify-after-close -------------------------------------------

    def test_notify_after_close_raises(self, loaded, events):
        from repro.sqldb.events import DataMutation
        loaded.close()
        assert loaded.is_closed
        with pytest.raises(RelationalError):
            loaded.notify(DataMutation(TUPLES_INSERTED, "dblp"))
        # The listener list is cleared too: a closed backend can never
        # mutate again, so subscriptions must not pin caches alive.
        assert not loaded.has_subscribers

    def test_operations_after_close_raise(self, loaded):
        loaded.close()
        for call in (lambda: loaded.count_matching("dblp.year >= 2000"),
                     lambda: loaded.matching_paper_ids(None),
                     lambda: loaded.table_counts(),
                     lambda: loaded.paper_ids(),
                     lambda: profile_rows(loaded, 1),
                     lambda: delete_papers(loaded, [1])):
            with pytest.raises(RelationalError):
                call()

    def test_close_is_idempotent(self, backend):
        backend.close()
        backend.close()
        assert backend.is_closed

    # -- predicate rejection ------------------------------------------------------

    def test_unknown_attributes_raise_like_sql(self, loaded):
        """Unresolvable columns fail fast on every engine — never count 0.

        ``author.venue`` is the treacherous case: the bare suffix exists in
        the joined view, but the qualifier names a table outside the FROM
        clause, so SQL rejects it and so must every backend.
        """
        for predicate in ("bogus = 1", "dblp.bogus = 1",
                          "author.venue = 'V1'", "citation.pid = 3"):
            with pytest.raises(RelationalError):
                loaded.count_matching(predicate)
        # Legal qualified spellings still resolve (dblp_author.pid equals
        # dblp.pid under the join).
        assert (loaded.count_matching("dblp_author.pid >= 0")
                == loaded.count_matching(None))

    def test_empty_in_rejected_before_reaching_engine(self, loaded):
        from repro.exceptions import PredicateParseError
        with pytest.raises((PredicateError, PredicateParseError)):
            loaded.count_matching("dblp.venue IN ()")
        from repro.core.predicate import in_set
        with pytest.raises(PredicateError):
            in_set("dblp.venue", [])

    # -- concurrency --------------------------------------------------------------

    def test_mutations_notify_outside_the_backend_lock(self, loaded):
        """A listener that re-enters the backend from another thread's
        perspective must not deadlock: notifications are delivered after the
        engine releases its own lock (the serving layer's listeners grab the
        server lock and then issue backend queries — delivering under the
        backend lock would invert that order)."""
        import threading

        barrier_hit = threading.Event()

        def listener(mutation):
            probe = {}

            def other_thread():
                # Re-enter the backend from a different thread while the
                # mutation's notification is still being delivered.
                probe["count"] = loaded.count_matching("dblp.year >= 0")

            worker = threading.Thread(target=other_thread)
            worker.start()
            worker.join(timeout=5)
            assert not worker.is_alive(), "backend lock held across notify"
            barrier_hit.set()

        loaded.subscribe(listener)
        append_papers(loaded, [Paper(pid=96_000, title="T", venue="V", year=2001)],
                      [(96_000, 1)])
        assert barrier_hit.is_set()

    # -- op accounting ------------------------------------------------------------

    def test_rows_touched_counts_real_work(self, backend):
        before = backend.rows_touched
        load_dataset(backend, DATASET)
        written = (len(DATASET.papers) + len(DATASET.authors)
                   + len(DATASET.paper_authors) + len(DATASET.citations))
        assert backend.rows_touched - before == written
        before = backend.rows_touched
        append_papers(backend, [Paper(pid=95_000, title="T", venue="V", year=2001)],
                      [(95_000, 1)])
        assert backend.rows_touched - before == 2
        before_ops = backend.statements_executed
        backend.count_matching("dblp.year >= 2000")
        assert backend.statements_executed > before_ops
