"""Unit and integration tests for the SQLite relational substrate."""

from __future__ import annotations

import pytest

from repro.core.predicate import equals, parse_predicate
from repro.exceptions import (
    QueryBuildError,
    RelationalError,
    SchemaError,
    WorkloadError,
)
from repro.sqldb import (
    BASE_FROM,
    Database,
    SelectQuery,
    TUPLES_DELETED,
    TUPLES_INSERTED,
    TUPLES_UPDATED,
    DataMutation,
    count_matching_papers,
    count_query,
    create_schema,
    drop_schema,
    existing_tables,
    matching_paper_ids,
    paper_ids_query,
    verify_schema,
)
from repro.sqldb import schema as schema_module
from repro.workload.dblp import Paper
from repro.workload.loader import (
    append_papers,
    delete_papers,
    load_dataset,
    update_papers,
)


class TestSchema:
    def test_fresh_database_has_all_tables(self):
        with Database(":memory:") as db:
            assert existing_tables(db.connection) == sorted(schema_module.TABLES)
            verify_schema(db.connection)

    def test_drop_then_verify_fails(self):
        with Database(":memory:") as db:
            drop_schema(db.connection)
            with pytest.raises(SchemaError):
                verify_schema(db.connection)

    def test_create_schema_idempotent(self):
        with Database(":memory:") as db:
            create_schema(db.connection)
            create_schema(db.connection)
            verify_schema(db.connection)

    def test_table_counts_empty(self):
        with Database(":memory:") as db:
            counts = db.table_counts()
            assert set(counts) == set(schema_module.TABLES)
            assert all(count == 0 for count in counts.values())


class TestDatabase:
    def test_query_returns_dict_rows(self, tiny_db):
        rows = tiny_db.query("SELECT pid, venue FROM dblp LIMIT 3")
        assert len(rows) == 3
        assert set(rows[0]) == {"pid", "venue"}

    def test_query_one_and_scalar(self, tiny_db):
        row = tiny_db.query_one("SELECT COUNT(*) AS n FROM dblp")
        assert row["n"] > 0
        assert tiny_db.scalar("SELECT COUNT(*) FROM dblp") == row["n"]

    def test_query_one_none_when_empty(self, tiny_db):
        assert tiny_db.query_one("SELECT pid FROM dblp WHERE pid = -1") is None

    def test_count_handles_missing(self, tiny_db):
        assert tiny_db.count("SELECT COUNT(*) FROM dblp WHERE pid = -5") == 0

    def test_invalid_sql_raises_relational_error(self, tiny_db):
        with pytest.raises(RelationalError):
            tiny_db.query("SELECT nonsense FROM nowhere")

    def test_distinct_count_validates_table(self, tiny_db):
        assert tiny_db.distinct_count("dblp", "venue") > 1
        with pytest.raises(RelationalError):
            tiny_db.distinct_count("not_a_table", "x")

    def test_total_papers_matches_dataset(self, tiny_db, tiny_dataset):
        assert tiny_db.total_papers() == len(tiny_dataset.papers)

    def test_load_dataset_counts(self, tiny_dataset):
        with Database(":memory:") as db:
            counts = load_dataset(db, tiny_dataset)
            assert counts["dblp"] == len(tiny_dataset.papers)
            assert counts["author"] == len(tiny_dataset.authors)
            assert counts["citation"] == len(tiny_dataset.citations)
            assert counts["dblp_author"] == len(tiny_dataset.paper_authors)

    def test_failed_write_transaction_rolls_back(self, tiny_db):
        papers = tiny_db.total_papers()
        with pytest.raises(RuntimeError, match="midway"):
            with tiny_db.write_transaction():
                tiny_db.execute("DELETE FROM dblp")
                raise RuntimeError("midway")
        assert not tiny_db.connection.in_transaction
        assert tiny_db.total_papers() == papers > 0


class TestClosedDatabase:
    def test_close_is_idempotent(self):
        db = Database(":memory:")
        db.close()
        db.close()  # promised double-close safety
        assert db.is_closed

    def test_execute_after_close_raises_clear_error(self):
        db = Database(":memory:")
        db.close()
        with pytest.raises(RelationalError, match="database is closed"):
            db.execute("SELECT 1")

    def test_query_and_commit_after_close_raise(self):
        db = Database(":memory:")
        db.close()
        with pytest.raises(RelationalError, match="database is closed"):
            db.query("SELECT 1")
        with pytest.raises(RelationalError, match="database is closed"):
            db.commit()

    def test_connection_property_after_close_raises(self):
        db = Database(":memory:")
        db.close()
        with pytest.raises(RelationalError, match="database is closed"):
            _ = db.connection

    def test_context_manager_closes(self):
        with Database(":memory:") as db:
            assert not db.is_closed
        assert db.is_closed

    def test_close_clears_listeners(self):
        db = Database(":memory:")
        db.subscribe(lambda mutation: None)
        assert db.has_subscribers
        db.close()
        # A closed database can never mutate again; dropping the
        # subscriptions stops it pinning the serving layer's caches alive.
        assert not db.has_subscribers

    def test_notify_after_close_raises(self):
        db = Database(":memory:")
        db.close()
        with pytest.raises(RelationalError, match="database is closed"):
            db.notify(DataMutation(TUPLES_INSERTED, "dblp"))


class TestDataMutationEvents:
    def test_append_papers_notifies_with_joined_rows(self, tiny_dataset):
        with Database(":memory:") as db:
            load_dataset(db, tiny_dataset)
            events = []
            db.subscribe(events.append)
            append_papers(
                db,
                [Paper(pid=9001, title="T", venue="VLDB", year=2012)],
                paper_authors=[(9001, 1), (9001, 2)])
            assert len(events) == 1
            mutation = events[0]
            assert mutation.kind == TUPLES_INSERTED
            assert mutation.pids == (9001,)
            assert len(mutation.rows) == 2
            assert {row["aid"] for row in mutation.rows} == {1, 2}
            assert all(row["venue"] == "VLDB" for row in mutation.rows)

    def test_append_commits_rows(self, tiny_dataset):
        with Database(":memory:") as db:
            load_dataset(db, tiny_dataset)
            counts = append_papers(
                db, [Paper(pid=9002, title="T", venue="ICDE", year=2011)],
                paper_authors=[(9002, 3)])
            assert counts == {"dblp": 1, "dblp_author": 1, "citation": 0}
            assert db.scalar("SELECT venue FROM dblp WHERE pid = 9002") == "ICDE"

    def test_link_only_append_fetches_paper_for_notification(self, tiny_dataset):
        with Database(":memory:") as db:
            load_dataset(db, tiny_dataset)
            append_papers(db, [Paper(pid=9003, title="T", venue="PODS", year=2010)])
            events = []
            db.subscribe(events.append)
            append_papers(db, [], paper_authors=[(9003, 4)])
            (mutation,) = events
            assert len(mutation.rows) == 1
            assert mutation.rows[0]["venue"] == "PODS"
            assert mutation.rows[0]["aid"] == 4

    def test_unsubscribe_stops_delivery(self, tiny_dataset):
        with Database(":memory:") as db:
            load_dataset(db, tiny_dataset)
            events = []
            listener = db.subscribe(events.append)
            db.unsubscribe(listener)
            append_papers(db, [Paper(pid=9004, title="T", venue="CIKM", year=2009)],
                          paper_authors=[(9004, 1)])
            assert events == []

    def test_bulk_load_notifies_only_with_subscribers(self, tiny_dataset):
        with Database(":memory:") as db:
            events = []
            db.subscribe(events.append)
            load_dataset(db, tiny_dataset)
            assert len(events) == 1
            assert len(events[0].rows) == len(tiny_dataset.paper_authors)

    def test_replace_pre_image_rides_in_old_rows(self, tiny_dataset):
        with Database(":memory:") as db:
            load_dataset(db, tiny_dataset)
            append_papers(db, [Paper(pid=9005, title="T", venue="VLDB", year=2001)],
                          paper_authors=[(9005, 1)])
            events = []
            db.subscribe(events.append)
            append_papers(db, [Paper(pid=9005, title="T", venue="ICDE", year=2002)])
            (mutation,) = events
            assert {row["venue"] for row in mutation.old_rows} == {"VLDB"}
            assert {row["venue"] for row in
                    mutation.invalidation_rows()} >= {"VLDB", "ICDE"}

    def test_unlinked_paper_append_carries_no_rows(self, tiny_dataset):
        """A paper without author links is invisible to the inner join every
        query runs over, so its insertion must not invalidate anything —
        the later link-only append carries the real joined row instead."""
        with Database(":memory:") as db:
            load_dataset(db, tiny_dataset)
            events = []
            db.subscribe(events.append)
            append_papers(db, [Paper(pid=9009, title="T", venue="VLDB", year=2001)])
            (mutation,) = events
            assert mutation.rows == ()
            assert mutation.pids == (9009,)

    def test_replace_post_image_keeps_surviving_author_links(self, tiny_dataset):
        """A REPLACE keeps the paper's dblp_author rows, so the post-image
        must carry the surviving aid — synthesizing aid=None would let a
        venue+author conjunction be unsoundly spared."""
        with Database(":memory:") as db:
            load_dataset(db, tiny_dataset)
            append_papers(db, [Paper(pid=9008, title="T", venue="VLDB", year=2001)],
                          paper_authors=[(9008, 7)])
            events = []
            db.subscribe(events.append)
            append_papers(db, [Paper(pid=9008, title="T", venue="ICDE", year=2002)])
            (mutation,) = events
            post = [row for row in mutation.rows if row["pid"] == 9008]
            assert [row["aid"] for row in post] == [7]
            assert post[0]["venue"] == "ICDE"

    def test_delete_papers_notifies_with_pre_image(self, tiny_dataset):
        with Database(":memory:") as db:
            load_dataset(db, tiny_dataset)
            append_papers(db, [Paper(pid=9006, title="T", venue="EDBT", year=2003)],
                          paper_authors=[(9006, 1), (9006, 2)])
            events = []
            db.subscribe(events.append)
            removed = delete_papers(db, [9006])
            assert removed["dblp"] == 1
            assert removed["dblp_author"] == 2
            assert db.scalar("SELECT COUNT(*) FROM dblp WHERE pid = 9006") == 0
            (mutation,) = events
            assert mutation.kind == TUPLES_DELETED
            assert mutation.rows == ()
            assert len(mutation.old_rows) == 2
            assert all(row["venue"] == "EDBT" for row in mutation.old_rows)
            assert mutation.invalidation_rows() == mutation.old_rows

    def test_delete_of_unknown_pid_is_silent(self, tiny_dataset):
        with Database(":memory:") as db:
            load_dataset(db, tiny_dataset)
            events = []
            db.subscribe(events.append)
            removed = delete_papers(db, [777_777])
            assert removed == {"dblp": 0, "dblp_author": 0, "citation": 0}
            assert events == []

    def test_update_papers_notifies_with_both_images(self, tiny_dataset):
        with Database(":memory:") as db:
            load_dataset(db, tiny_dataset)
            append_papers(db, [Paper(pid=9007, title="Old", venue="PODS", year=2004)],
                          paper_authors=[(9007, 3)])
            events = []
            db.subscribe(events.append)
            updated = update_papers(
                db, [Paper(pid=9007, title="New", venue="CIKM", year=2006)])
            assert updated == {"dblp": 1}
            assert db.scalar("SELECT venue FROM dblp WHERE pid = 9007") == "CIKM"
            (mutation,) = events
            assert mutation.kind == TUPLES_UPDATED
            assert [row["venue"] for row in mutation.old_rows] == ["PODS"]
            assert [row["venue"] for row in mutation.rows] == ["CIKM"]
            assert [row["year"] for row in mutation.rows] == [2006]

    def test_update_of_unknown_pid_raises(self, tiny_dataset):
        with Database(":memory:") as db:
            load_dataset(db, tiny_dataset)
            with pytest.raises(WorkloadError, match="unknown papers"):
                update_papers(
                    db, [Paper(pid=555_555, title="G", venue="VLDB", year=2000)])


class TestSelectQuery:
    def test_default_shape(self):
        sql = SelectQuery().to_sql()
        assert sql == f"SELECT * FROM {BASE_FROM}"

    def test_where_accepts_predicate_and_string(self):
        query = SelectQuery(columns=["dblp.pid"]).where(equals("dblp.venue", "VLDB"))
        query.where("dblp.year >= 2010")
        sql = query.to_sql()
        assert "(dblp.venue = ?)" in sql
        assert "AND (dblp.year >= 2010)" in sql
        assert query.statement() == (sql, ("VLDB",))

    def test_empty_condition_rejected(self):
        with pytest.raises(QueryBuildError):
            SelectQuery().where("   ")

    def test_order_and_limit(self):
        sql = (SelectQuery(columns=["dblp.pid"], distinct=True)
               .order_by("dblp.year DESC").limit(5).to_sql())
        assert sql.endswith("ORDER BY dblp.year DESC LIMIT 5")
        assert sql.startswith("SELECT DISTINCT")

    def test_negative_limit_rejected(self):
        with pytest.raises(QueryBuildError):
            SelectQuery().limit(-1)

    def test_no_columns_rejected(self):
        with pytest.raises(QueryBuildError):
            SelectQuery(columns=[]).to_sql()

    def test_count_query_wrapper(self):
        sql, parameters = count_query("dblp.venue = 'VLDB'")
        assert sql.startswith("SELECT COUNT(DISTINCT dblp.pid)")
        assert "dblp.venue = ?" in sql and parameters == ("VLDB",)

    def test_paper_ids_query_wrapper(self):
        sql, parameters = paper_ids_query("dblp.venue = 'VLDB'", limit=10)
        assert "ORDER BY dblp.pid" in sql
        assert sql.endswith("LIMIT 10")
        assert parameters == ("VLDB",)


class TestQueryExecution:
    def test_count_matches_ids(self, tiny_db):
        predicate = parse_predicate("dblp.venue = 'VLDB'")
        count = count_matching_papers(tiny_db, predicate)
        ids = matching_paper_ids(tiny_db, predicate)
        assert count == len(ids)
        assert count > 0

    def test_count_whole_table(self, tiny_db):
        assert count_matching_papers(tiny_db) == tiny_db.total_papers()

    def test_one_statement_text_per_predicate_shape(self, tiny_db, monkeypatch):
        """Literals are bound: ``dblp.venue = 'A'`` and ``dblp.venue = 'B'``
        execute the same statement text (sqlite3 prepares it once), on each
        method of the query surface, with the venue as the parameter."""
        executed = []
        execute = tiny_db.execute

        def recorded(sql, parameters=()):
            executed.append((sql, tuple(parameters)))
            return execute(sql, parameters)

        monkeypatch.setattr(tiny_db, "execute", recorded)
        for run in (tiny_db.matching_paper_ids, tiny_db.count_matching,
                    lambda predicate: tiny_db.count_many([predicate])):
            executed.clear()
            for venue in ("A", "B"):
                run(parse_predicate(f"dblp.venue = '{venue}'"))
            (first, a), (second, b) = executed
            assert first == second and "'" not in first
            assert (a, b) == (("A",), ("B",))

    def test_author_join_predicate(self, tiny_db):
        aid = tiny_db.scalar("SELECT aid FROM dblp_author LIMIT 1")
        ids = matching_paper_ids(tiny_db, f"dblp_author.aid = {aid}")
        assert ids
        expected = {row["pid"] for row in tiny_db.query(
            "SELECT pid FROM dblp_author WHERE aid = ?", (aid,))}
        assert set(ids) == expected

    def test_impossible_conjunction_returns_zero(self, tiny_db):
        predicate = parse_predicate("dblp.venue = 'VLDB' AND dblp.venue = 'PODS'")
        assert count_matching_papers(tiny_db, predicate) == 0

    def test_ids_ordered_and_limited(self, tiny_db):
        ids = matching_paper_ids(tiny_db, "dblp.year >= 2000", limit=5)
        assert ids == sorted(ids)
        assert len(ids) <= 5

    def test_sql_matches_inmemory_evaluation(self, tiny_db, tiny_dataset):
        """The SQL path and the predicate evaluator agree on matching papers."""
        predicate = parse_predicate("dblp.venue = 'SIGMOD' AND dblp.year >= 2005")
        sql_ids = set(matching_paper_ids(tiny_db, predicate))
        memory_ids = {paper.pid for paper in tiny_dataset.papers
                      if predicate.evaluate({"venue": paper.venue, "year": paper.year})}
        assert sql_ids == memory_ids


class TestStatementAccounting:
    """The executemany accounting fix: per-batch statements + rows_touched."""

    def test_executemany_counts_one_statement_per_batch(self):
        with Database(":memory:") as db:
            before = db.statements_executed
            db.executemany(
                "INSERT INTO dblp (pid, title, venue, year) VALUES (?, ?, ?, ?)",
                [(1, "A", "V", 2000), (2, "B", "V", 2001), (3, "C", "W", 2002)])
            assert db.statements_executed - before == 1

    def test_empty_executemany_counts_nothing(self):
        """An empty batch issues no statement — the historical accounting
        charged a phantom statement for it."""
        with Database(":memory:") as db:
            before = db.statements_executed
            db.executemany(
                "INSERT INTO dblp (pid, title, venue, year) VALUES (?, ?, ?, ?)",
                [])
            assert db.statements_executed == before
            assert db.rows_touched == 0

    def test_rows_touched_tracks_dml_rows(self):
        with Database(":memory:") as db:
            db.executemany(
                "INSERT INTO dblp (pid, title, venue, year) VALUES (?, ?, ?, ?)",
                [(1, "A", "V", 2000), (2, "B", "V", 2001), (3, "C", "W", 2002)])
            assert db.rows_touched == 3
            db.execute("DELETE FROM dblp WHERE year >= 2001")
            assert db.rows_touched == 5
            # SELECTs touch nothing.
            db.query("SELECT * FROM dblp")
            assert db.rows_touched == 5

    def test_load_dataset_skips_empty_batches(self, tiny_dataset):
        """A dataset bulk load charges one statement per non-empty table."""
        from dataclasses import replace
        with Database(":memory:") as db:
            before = db.statements_executed
            load_dataset(db, replace(tiny_dataset, citations=[]))
            # papers + authors + links batches; no citation statement, and
            # table_counts goes through the raw connection (uncounted).
            assert db.statements_executed - before == 3
