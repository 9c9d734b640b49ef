"""Tests for the update-aware materialised result cache."""

from __future__ import annotations

from repro.core.predicate import parse_predicate
from repro.serving.results import ResultCache
from repro.sqldb.events import (
    TUPLES_DELETED,
    TUPLES_INSERTED,
    TUPLES_UPDATED,
    DataMutation,
)

VLDB = parse_predicate("dblp.venue = 'VLDB'")
ICDE = parse_predicate("dblp.venue = 'ICDE'")
RECENT = parse_predicate("dblp.year >= 2010")

VLDB_ROW = {"pid": 901, "title": "t", "venue": "VLDB", "year": 2005,
            "abstract": "", "aid": 3}


def insert(rows) -> DataMutation:
    return DataMutation(TUPLES_INSERTED, "dblp", rows=rows,
                        pids=[row["pid"] for row in rows])


def delete(old_rows) -> DataMutation:
    return DataMutation(TUPLES_DELETED, "dblp", old_rows=old_rows,
                        pids=[row["pid"] for row in old_rows])


def update(old_rows, new_rows) -> DataMutation:
    return DataMutation(TUPLES_UPDATED, "dblp", rows=new_rows,
                        old_rows=old_rows,
                        pids=[row["pid"] for row in old_rows])


class TestLookups:
    def test_hit_and_miss_accounting(self):
        cache = ResultCache()
        assert cache.get(1, 5) is None
        cache.put(1, 5, [(10, 0.9)], [VLDB])
        entry = cache.get(1, 5)
        assert entry is not None and entry.ranking == ((10, 0.9),)
        assert (cache.hits, cache.misses) == (1, 1)

    def test_keyed_by_uid_and_k(self):
        cache = ResultCache()
        cache.put(1, 5, [(10, 0.9)], [VLDB])
        assert cache.peek(1, 10) is None
        assert cache.peek(2, 5) is None


class TestProfileInvalidation:
    def test_result_affecting_mutation_drops_only_that_user(self):
        """A profile update reaches the cache as ``invalidate_user``."""
        cache = ResultCache()
        cache.put(1, 5, [(10, 0.9)], [VLDB])
        cache.put(1, 10, [(10, 0.9)], [VLDB])
        cache.put(2, 5, [(11, 0.8)], [ICDE])
        epoch = cache.epoch
        assert cache.invalidate_user(1) == 2
        assert cache.peek(1, 5) is None and cache.peek(1, 10) is None
        assert cache.peek(2, 5) is not None
        assert cache.profile_invalidations == 2
        # An answer computed before the update must lose the put race.
        assert cache.put(1, 5, [(10, 0.9)], [VLDB], epoch=epoch) is None
        assert cache.stale_puts_rejected == 1


class TestDataInvalidation:
    def test_insert_drops_only_matching_users(self):
        cache = ResultCache()
        cache.put(1, 5, [(10, 0.9)], [VLDB])          # matches the new row
        cache.put(2, 5, [(11, 0.8)], [ICDE])          # provably unaffected
        cache.put(3, 5, [(12, 0.7)], [RECENT])        # 2005 < 2010: unaffected
        dropped = cache.on_data_mutation(insert([VLDB_ROW]))
        assert dropped == 1
        assert cache.peek(1, 5) is None
        assert cache.peek(2, 5) is not None
        assert cache.peek(3, 5) is not None
        assert cache.data_invalidations == 1
        assert cache.data_spared == 2

    def test_any_matching_predicate_invalidates(self):
        cache = ResultCache()
        cache.put(1, 5, [(10, 0.9)], [ICDE, RECENT])
        row = {**VLDB_ROW, "year": 2012}               # matches RECENT only
        assert cache.on_data_mutation(insert([row])) == 1

    def test_missing_attribute_is_conservative(self):
        cache = ResultCache()
        author_pred = parse_predicate("dblp_author.aid = 77")
        cache.put(1, 5, [(10, 0.9)], [author_pred])
        # A notification row without the aid column cannot prove the entry
        # fresh, so it must be dropped.
        row = {"pid": 902, "title": "t", "venue": "ICDE", "year": 2001,
               "abstract": ""}
        assert cache.on_data_mutation(insert([row])) == 1

    def test_delete_drops_only_users_matching_the_pre_image(self):
        cache = ResultCache()
        cache.put(1, 5, [(10, 0.9)], [VLDB])          # matched the old row
        cache.put(2, 5, [(11, 0.8)], [ICDE])          # provably unaffected
        dropped = cache.on_data_mutation(delete([VLDB_ROW]))
        assert dropped == 1
        assert cache.peek(1, 5) is None
        assert cache.peek(2, 5) is not None
        assert cache.data_spared == 1

    def test_update_drops_users_matching_either_image(self):
        cache = ResultCache()
        cache.put(1, 5, [(10, 0.9)], [VLDB])          # matches the pre-image
        cache.put(2, 5, [(11, 0.8)], [ICDE])          # matches the post-image
        cache.put(3, 5, [(12, 0.7)], [RECENT])        # matches neither
        moved = {**VLDB_ROW, "venue": "ICDE"}
        dropped = cache.on_data_mutation(update([VLDB_ROW], [moved]))
        assert dropped == 2
        assert cache.peek(1, 5) is None
        assert cache.peek(2, 5) is None
        assert cache.peek(3, 5) is not None

    def test_clear_resets_everything(self):
        cache = ResultCache()
        cache.put(1, 5, [(10, 0.9)], [VLDB])
        cache.get(1, 5)
        cache.clear()
        assert len(cache) == 0
        assert (cache.hits, cache.misses) == (0, 0)

    def test_cached_users_lists_distinct_uids(self):
        cache = ResultCache()
        cache.put(2, 5, [(10, 0.9)], [VLDB])
        cache.put(1, 5, [(11, 0.8)], [ICDE])
        cache.put(1, 10, [(11, 0.8)], [ICDE])
        assert cache.cached_users() == [1, 2]
