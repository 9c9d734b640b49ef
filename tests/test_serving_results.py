"""Tests for the update-aware materialised result cache."""

from __future__ import annotations

from repro.core.predicate import parse_predicate
from repro.index import CountCache, RowMatch
from repro.serving.results import CachedResult, ResultCache
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


def put(cache, uid, k, buffer, predicates, complete=True, epoch=None):
    """Cache ``buffer`` as an answer scored with ``predicates`` at 0.9 each."""
    return cache.put(uid, k, buffer, complete,
                     [CountCache.key(predicate) for predicate in predicates],
                     [0.9] * len(predicates), epoch=epoch)


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


def sweep(cache, mutation) -> int:
    """Sweep ``mutation`` through ``cache`` as a server does; the number of
    entries dropped."""
    return cache.on_data_mutation(RowMatch.of(mutation))["results_invalidated"]


class TestLookups:
    def test_hit_and_miss_accounting(self):
        cache = ResultCache()
        assert cache.get(1, 5) is None
        put(cache, 1, 5, [(10, 0.9)], [VLDB])
        entry = cache.get(1, 5)
        assert entry is not None and entry.ranking == ((10, 0.9),)
        assert (cache.hits, cache.misses) == (1, 1)

    def test_one_answer_per_uid_serves_every_smaller_k(self):
        """A user's one answer serves every k up to its own; a larger k,
        a k below 1 and another user miss."""
        cache = ResultCache()
        entry = put(cache, 1, 5, [(10, 0.9), (11, 0.8)], [VLDB])
        assert cache.peek(1, 3) is entry and cache.peek(1, 5) is entry
        assert cache.peek(1, 10) is None
        assert cache.peek(1, 0) is None and cache.peek(1, -2) is None
        assert cache.peek(2, 5) is None
        assert cache.get(1, 0) is None and cache.get(1, 3) is entry
        assert (cache.hits, cache.misses) == (1, 1)
        # A deeper answer replaces the user's old one.
        deeper = put(cache, 1, 10, [(10, 0.9), (11, 0.8)], [ICDE])
        assert cache.peek(1, 5) is deeper and len(cache) == 1
        assert sweep(cache, insert([VLDB_ROW])) == 0
        assert cache.repairs == cache.data_invalidations == 0


class TestProfileInvalidation:
    def test_result_affecting_mutation_drops_only_that_user(self):
        """A profile update reaches the cache as ``invalidate_user``."""
        cache = ResultCache()
        put(cache, 1, 10, [(10, 0.9)], [VLDB])
        put(cache, 2, 5, [(11, 0.8)], [ICDE])
        epoch = cache.epoch
        assert cache.invalidate_user(1) == 1
        assert cache.peek(1, 5) is None and cache.peek(1, 10) is None
        assert cache.peek(2, 5) is not None
        assert cache.profile_invalidations == 1
        # A second update finds the basis, not an answer.
        assert cache.invalidate_user(1) == 0
        assert cache.stats()["bases.entries"] == 1
        # An answer computed before the update must lose the put race.
        assert put(cache, 1, 5, [(10, 0.9)], [VLDB], epoch=epoch) is None
        assert cache.stale_puts_rejected == 1


class TestDataInvalidation:
    def test_insert_touches_only_matching_users(self):
        cache = ResultCache()
        put(cache, 1, 5, [(10, 0.9)], [VLDB])          # matches the new row
        put(cache, 2, 5, [(11, 0.8)], [ICDE])          # provably unaffected
        put(cache, 3, 5, [(12, 0.7)], [RECENT])        # 2005 < 2010: unaffected
        assert cache.on_data_mutation(RowMatch.of(insert([VLDB_ROW]))) == {
            "results_invalidated": 0, "results_repaired": 1,
            "results_spared": 2}
        assert cache.peek(1, 5).ranking == ((10, 0.9), (901, 0.9))
        assert cache.peek(2, 5).ranking == ((11, 0.8),)
        assert cache.peek(3, 5).ranking == ((12, 0.7),)
        assert (cache.repairs, cache.data_invalidations) == (1, 0)
        assert cache.data_spared == 2

    def test_any_matching_predicate_touches(self):
        cache = ResultCache()
        put(cache, 1, 5, [(10, 0.9)], [ICDE, RECENT])
        row = {**VLDB_ROW, "year": 2012}               # matches RECENT only
        assert sweep(cache, insert([row])) == 0
        assert cache.repairs == 1
        assert cache.peek(1, 5).ranking == ((10, 0.9), (901, 0.9))

    def test_missing_attribute_is_conservative(self):
        cache = ResultCache()
        author_pred = parse_predicate("dblp_author.aid = 77")
        put(cache, 1, 5, [(10, 0.9)], [author_pred])
        # A notification row without the aid column cannot prove the entry
        # fresh, nor score the new tuple, so the entry must be dropped.
        row = {"pid": 902, "title": "t", "venue": "ICDE", "year": 2001,
               "abstract": ""}
        assert sweep(cache, insert([row])) == 1

    def test_delete_drops_only_users_matching_the_pre_image(self):
        cache = ResultCache()
        # A truncated one-deep buffer: removing its tuple underflows it.
        put(cache, 1, 1, [(901, 0.9)], [VLDB], complete=False)
        put(cache, 2, 1, [(11, 0.9)], [ICDE], complete=False)
        dropped = sweep(cache, delete([VLDB_ROW]))
        assert dropped == 1
        assert cache.peek(1, 1) is None
        assert cache.peek(2, 1) is not None
        assert cache.data_spared == 1
        assert cache.repair_underflows == 1

    def test_update_touches_users_matching_either_image(self):
        cache = ResultCache()
        put(cache, 1, 5, [(901, 0.9), (10, 0.9)], [VLDB])  # the pre-image
        put(cache, 2, 5, [(11, 0.9)], [ICDE])              # the post-image
        put(cache, 3, 5, [(12, 0.9)], [RECENT])            # neither
        moved = {**VLDB_ROW, "venue": "ICDE"}
        assert sweep(cache, update([VLDB_ROW], [moved])) == 0
        assert cache.peek(1, 5).ranking == ((10, 0.9),)
        assert cache.peek(2, 5).ranking == ((11, 0.9), (901, 0.9))
        assert cache.peek(3, 5).ranking == ((12, 0.9),)
        assert (cache.repairs, cache.data_spared) == (2, 1)

    def test_clear_resets_everything(self):
        """``clear`` resets every entry, holder and in-flight put; the
        statistics are exported counters and keep counting."""
        cache = ResultCache()
        put(cache, 1, 5, [(10, 0.9)], [VLDB])
        cache.get(1, 5)
        cache.get(2, 5)
        epoch = cache.epoch
        cache.clear()
        assert len(cache) == 0 and cache.cached_users() == []
        assert cache.epoch > epoch
        # No conjunct is held any more: a matching sweep visits nothing.
        assert sweep(cache, insert([VLDB_ROW])) == 0
        assert cache.repairs == cache.data_invalidations == 0
        assert put(cache, 1, 5, [(10, 0.9)], [VLDB], epoch=epoch) is None
        stats = cache.stats()
        assert (stats["hits"], stats["misses"]) == (1, 1)
        assert stats["stale_puts_rejected"] == 1

    def test_cached_users_lists_distinct_uids(self):
        cache = ResultCache()
        put(cache, 2, 5, [(10, 0.9)], [VLDB])
        put(cache, 1, 5, [(11, 0.8)], [ICDE])
        assert cache.cached_users() == [1, 2]


class TestPublication:
    """A warm ``get`` takes no lock, so a sweep must change what it can see
    in one step: every dropped answer leaves first, then every repaired one
    appears at once."""

    def test_a_sweep_publishes_its_repairs_at_once(self, monkeypatch):
        cache = ResultCache()
        # Truncated one-deep buffers holding the moved tuple: underflow.
        put(cache, 1, 1, [(901, 0.9)], [VLDB], complete=False)
        put(cache, 5, 1, [(901, 0.9)], [VLDB], complete=False)
        put(cache, 2, 1, [(11, 0.9)], [ICDE])               # gains 901
        put(cache, 3, 1, [(901, 0.9), (10, 0.9)], [VLDB])   # loses 901
        put(cache, 4, 1, [(12, 0.9)], [RECENT])             # spared
        uids = (1, 2, 3, 4, 5)
        before = {uid: cache.peek(uid, 1) for uid in uids}
        inside = []

        def probe():
            inside.append({uid: cache.get(uid, 1) for uid in uids})

        def probed(method):
            def wrapper(*args, **kwargs):
                probe()
                result = method(*args, **kwargs)
                probe()
                return result
            return wrapper

        monkeypatch.setattr(CachedResult, "apply_delta",
                            probed(CachedResult.apply_delta))
        monkeypatch.setattr(ResultCache, "_move", probed(ResultCache._move))
        moved = {**VLDB_ROW, "venue": "ICDE"}
        assert cache.on_data_mutation(RowMatch.of(update([VLDB_ROW],
                                                         [moved]))) == {
            "results_invalidated": 2, "results_repaired": 2,
            "results_spared": 1}
        after = {uid: cache.get(uid, 1) for uid in uids}
        assert after[1] is after[5] is None
        assert after[4] is before[4]
        assert after[2].buffer == ((11, 0.9), (901, 0.9))
        assert after[3].buffer == ((10, 0.9),)
        # Probed before and after every repair and every holdings move.
        assert len(inside) >= 2 * 5
        for seen in inside:
            for uid, entry in seen.items():
                # The answer from before the sweep, or a miss once dropped:
                # never a repaired answer before the sweep returns.
                assert entry is before[uid] or (
                    entry is None and after[uid] is None), (uid, seen)
