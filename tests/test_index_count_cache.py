"""Tests for the runner-owned count cache and the batched counting SQL."""

from __future__ import annotations

import pytest

from repro.algorithms.base import PreferenceQueryRunner
from repro.core.predicate import parse_predicate
from repro.index import CountCache, RowMatch
from repro.sqldb.query_builder import (
    batched_count_query,
    count_matching_papers,
    count_matching_papers_many,
)
from repro.exceptions import QueryBuildError


PREDICATES = [
    "dblp.year >= 2005",
    "dblp.year < 2000",
    "dblp.venue = 'VLDB'",
    "dblp.venue = 'SIGMOD'",
    "dblp.year >= 2005 AND dblp.venue = 'VLDB'",
]


class TestBatchedCountQuery:
    def test_batched_matches_individual_counts(self, tiny_db):
        expected = [count_matching_papers(tiny_db, parse_predicate(sql))
                    for sql in PREDICATES]
        got = count_matching_papers_many(
            tiny_db, [parse_predicate(sql) for sql in PREDICATES])
        assert got == expected

    def test_one_statement_per_chunk(self, tiny_db):
        before = tiny_db.statements_executed
        count_matching_papers_many(
            tiny_db, [parse_predicate(sql) for sql in PREDICATES], chunk_size=2)
        # 5 predicates at chunk size 2 -> ceil(5/2) = 3 statements.
        assert tiny_db.statements_executed - before == 3

    def test_union_all_shape(self):
        sql, parameters = batched_count_query(["dblp.year >= 2005", "dblp.venue = 'VLDB'"])
        assert sql.count("UNION ALL") == 1
        assert "0 AS ord" in sql and "1 AS ord" in sql
        assert parameters == (2005, "VLDB")

    def test_empty_batch_rejected(self):
        with pytest.raises(QueryBuildError):
            batched_count_query([])


class TestCountCache:
    def test_count_is_memoised(self, tiny_db):
        cache = CountCache(tiny_db)
        predicate = parse_predicate("dblp.year >= 2005")
        first = cache.count(predicate)
        assert cache.misses == 1
        assert cache.count(predicate) == first
        assert cache.misses == 1
        assert cache.hits == 1

    def test_count_many_single_round_trip(self, tiny_db):
        cache = CountCache(tiny_db)
        before = tiny_db.statements_executed
        values = cache.count_many([parse_predicate(sql) for sql in PREDICATES])
        assert tiny_db.statements_executed - before == 1
        assert cache.statements == 1
        assert values == [count_matching_papers(tiny_db, parse_predicate(sql))
                          for sql in PREDICATES]

    def test_count_many_serves_cached_entries(self, tiny_db):
        cache = CountCache(tiny_db)
        cache.count(parse_predicate(PREDICATES[0]))
        misses_before = cache.misses
        cache.count_many([parse_predicate(sql) for sql in PREDICATES])
        # Only the four uncached predicates were counted.
        assert cache.misses - misses_before == len(PREDICATES) - 1

    def test_count_many_deduplicates_batch(self, tiny_db):
        cache = CountCache(tiny_db)
        predicate = parse_predicate("dblp.venue = 'VLDB'")
        values = cache.count_many([predicate, predicate, predicate])
        assert len(set(values)) == 1
        assert cache.misses == 1
        # Duplicate occurrences are hits: hits + misses == lookups.
        assert cache.hits == 2

    def test_peek_never_queries(self, tiny_db):
        cache = CountCache(tiny_db)
        predicate = parse_predicate("dblp.venue = 'NOWHERE'")
        assert cache.peek(predicate) is None
        assert (cache.hits, cache.misses) == (0, 0)
        assert cache.count(predicate) == 0
        assert cache.peek(predicate) == 0
        assert (cache.hits, cache.misses) == (0, 1)

    def test_a_conjunction_is_keyed_by_its_members_in_no_order(self, tiny_db):
        cache = CountCache(tiny_db)
        forward = "dblp.year >= 2005 AND dblp.venue = 'VLDB'"
        backward = "dblp.venue = 'VLDB' AND dblp.year >= 2005"
        assert CountCache.key(forward) == CountCache.key(backward) == {
            "dblp.year >= 2005", "dblp.venue = 'VLDB'"}
        assert CountCache.key("dblp.venue = 'VLDB'") == {"dblp.venue = 'VLDB'"}
        assert cache.count(forward) == cache.count(backward)
        assert (cache.hits, cache.misses, len(cache)) == (1, 1, 1)

    def test_a_raised_backend_call_memoises_nothing(self):
        predicate = parse_predicate("dblp.venue = 'VLDB'")

        class FlakyBackend:
            answers = [RuntimeError("backend down"), 41]

            def count_matching(self, _predicate):
                answer = self.answers.pop(0)
                if isinstance(answer, Exception):
                    raise answer
                return answer

            def count_many(self, _predicates):
                raise RuntimeError("backend down")

        cache = CountCache(FlakyBackend())
        with pytest.raises(RuntimeError):
            cache.count(predicate)
        with pytest.raises(RuntimeError):
            cache.count_many([predicate])
        assert cache.peek(predicate) is None and len(cache) == 0
        assert cache.count(predicate) == 41
        assert cache.peek(predicate) == 41

    def test_clear_resets_statistics(self, tiny_db):
        cache = CountCache(tiny_db)
        cache.count(parse_predicate("dblp.year >= 2005"))
        cache.clear()
        assert len(cache) == 0
        assert (cache.hits, cache.misses, cache.statements) == (0, 0, 0)


class TestInvalidateMatching:
    def test_drops_only_entries_the_rows_may_match(self, tiny_db):
        cache = CountCache(tiny_db)
        vldb = parse_predicate("dblp.venue = 'VLDB'")
        icde = parse_predicate("dblp.venue = 'ICDE'")
        recent = parse_predicate("dblp.year >= 2010")
        bare = parse_predicate("venue = 'VLDB'")
        cache.count_many([vldb, icde, recent, bare])
        row = {"pid": 901, "title": "t", "venue": "VLDB", "year": 2003,
               "abstract": "", "aid": 1}
        dropped = cache.invalidate_matching(RowMatch([row]))
        assert dropped == 2  # the qualified and the bare spelling alike
        assert cache.peek(vldb) is None and cache.peek(bare) is None
        assert cache.peek(icde) is not None
        assert cache.peek(recent) is not None

    def test_missing_attribute_invalidates_conservatively(self, tiny_db):
        cache = CountCache(tiny_db)
        author = parse_predicate("dblp_author.aid = 5")
        cache.count(author)
        row = {"pid": 902, "venue": "VLDB", "year": 2003}  # no aid column
        assert cache.invalidate_matching(RowMatch([row])) == 1
        assert cache.peek(author) is None

    def test_a_definitely_false_conjunct_spares_the_conjunction(self, tiny_db):
        """Conjunct by conjunct is never looser than the conjunction whole:
        with ``aid`` absent the whole is unknown, yet no ICDE count can have
        changed for a VLDB row."""
        cache = CountCache(tiny_db)
        icde = parse_predicate("dblp.venue = 'ICDE' AND dblp_author.aid = 5")
        vldb = parse_predicate("dblp.venue = 'VLDB' AND dblp_author.aid = 5")
        cache.count_many([icde, vldb])
        row = {"pid": 902, "venue": "VLDB", "year": 2003}  # no aid column
        assert cache.invalidate_matching(RowMatch([row])) == 1
        assert cache.peek(icde) is not None and cache.peek(vldb) is None


class TestSharedCache:
    """Algorithms share one count store by sharing the runner that owns it."""

    def test_runner_clear_drops_owned_cache(self, tiny_db):
        runner = PreferenceQueryRunner(tiny_db)
        predicate = parse_predicate("dblp.venue = 'VLDB'")
        runner.count(predicate)
        runner.clear()
        assert runner.count_cache.peek(predicate) is None

    def test_runner_count_many_batches(self, tiny_db):
        runner = PreferenceQueryRunner(tiny_db)
        before = tiny_db.statements_executed
        values = runner.count_many([parse_predicate(sql) for sql in PREDICATES])
        assert len(values) == len(PREDICATES)
        assert tiny_db.statements_executed - before == 1
        assert runner.queries_executed == len(PREDICATES)
