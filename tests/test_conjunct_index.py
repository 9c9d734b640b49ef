"""Differential tests for the sweep's conjunct index.

``ConjunctIndex`` holds the conjunct keys of a server's two stores and
buckets every ``attr = literal`` conjunct by its literal, so a mutation row
judges only the conjuncts its values can reach, and ``stale(match)`` names
the keys some one row may match, once per sweep.  The oracle is the scan it
replaced: a fresh ``RowMatch`` asked about every held conjunct and key.
Held keys, literals and rows (every stored kind, NULL, absent attributes,
qualified or bare keys) come from ``tests/strategies.py``.

* The live set, the stale keys and every ``mask`` / ``exact`` bit a sweep
  reads equal the full scan's; a conjunct never judged has mask 0 there.
* Reach is the verdict: the bits ``live`` records from its bucket lookup
  equal ``exact_match_row``'s, and only generic keys and the keys of an
  attribute holding an odd-typed value are evaluated.  (That a bucket
  reaches exactly the rows SQLite's ``=`` selects is
  ``test_predicate_sqlite_differential.py``'s.)
* A result cache and an id-list memo sharing one index run one bucket pass
  per sweep.  ``ResultCache.on_data_mutation`` repairs and drops exactly
  the entries the plain loop — ``any(shared(c) for c in entry.conjuncts)``
  — calls affected, each to the very entry a full-width ``apply_delta``
  builds, and leaves every other entry untouched; the memo patches and
  drops exactly the lists the plain loop calls stale.  The score bound
  changes nothing but the number of ``apply_delta`` calls — over
  multi-conjunct preferences, ties at the floor, ``complete`` entries,
  unscorable rows, buffers shorter than ``k`` and intensities of 0 and 1.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st
from strategies import (bound_state, cache_bound_state, conjunct_texts,
                        held_keys, intensities, literals, names,
                        pools, rows, stored, ODD_VALUE)

from repro.algorithms.base import PreferenceQueryRunner
from repro.core.intensity import combine_and
from repro.core.predicate import Condition, conjunction, parse_predicate
from repro.index import ConjunctIndex, CountCache, RowMatch
from repro.index.selectivity import exact_match_row
from repro.serving import TopKServer
from repro.serving.results import CachedResult, ResultCache
from repro.sqldb.database import Database
from repro.sqldb.events import (TUPLES_DELETED, TUPLES_INSERTED,
                                TUPLES_UPDATED, DataMutation)
from repro.workload import PreferenceExtractor
from repro.workload.dblp import DblpConfig, generate_dblp
from repro.workload.loader import load_dataset, load_profiles

pytestmark = pytest.mark.differential


def scan(keys, rows):
    """The oracle: a fresh match asked about every held key."""
    full = RowMatch(rows)
    return full, {key for key in keys if full.mask(key)}


@settings(deadline=None)
@given(st.lists(st.sets(conjunct_texts(), min_size=1, max_size=3)
                .map(frozenset), min_size=1, max_size=14),
       st.lists(st.booleans(), max_size=14),
       st.lists(rows(), min_size=1, max_size=4))
def test_live_keys_and_every_bit_read_equal_a_full_scan(held, released,
                                                        rows):
    index = ConjunctIndex()
    for key in held:
        index.add(key)
    # Release some stores again: the index must forget a conjunct's buckets
    # exactly when the last held key containing it goes.
    kept = list(held)
    for position, key in enumerate(held):
        if position < len(released) and released[position]:
            index.remove(key)
            kept.remove(key)
    conjuncts = set().union(*kept)
    assert set(index._holders) == conjuncts
    assert held_keys(index) == {key: kept.count(key) for key in kept}

    match = RowMatch(rows)
    live = index.live(match)
    full, expected = scan(conjuncts, rows)
    assert live == expected
    judged = set(match._masks)
    assert live <= judged <= conjuncts
    for key in judged:
        assert match.mask(key) == full.mask(key)
        assert match.exact([key]) == full.exact([key])
    for key in conjuncts - judged:
        assert full.mask(key) == 0
    stale = index.stale(match)
    assert stale == {key for key in kept if full.shared(key)}
    assert index.stale(match) is stale
    # Only the generic conjuncts were evaluated: the bucket lookup decided
    # the rest, and ``stale`` read only decided verdicts.
    assert match.predicate_row_tests == len(
        {key for key in conjuncts if not bucketed(key)}) * len(rows)


def bucketed(text):
    """Whether a held key is an ``attr = literal`` (the NULL literal is
    bucketed under no value)."""
    parsed = parse_predicate(text)
    return isinstance(parsed, Condition) and parsed.op == "="


def test_exact_takes_the_conjunct_forms_shared_takes():
    """``exact`` and ``shared`` key a conjunct the same way, text or parsed."""
    match = RowMatch([{"pid": 1, "venue": "VLDB"}])
    conjunct = parse_predicate("dblp.venue = 'VLDB'")
    assert match.shared([conjunct]) == match.exact([conjunct]) == 1
    assert match.exact(["dblp.venue = 'VLDB'"]) == 1
    assert match.distinct_predicates == 1


@settings(deadline=None)
@given(st.data())
def test_a_bucket_lookup_records_exact_match_rows_verdicts(data):
    """Reach is the verdict: for every equality key and row value, the
    may- and sure-bits ``live`` records equal ``exact_match_row``'s, and
    only a key whose attribute carries an odd-typed value is evaluated —
    through ``RowMatch.mask``, once per row.  Keys and row values share a
    drawn pool, so rows often hold a key's literal or another spelling."""
    pool = data.draw(pools(literals, max_size=6), label="pool")
    equalities = data.draw(st.lists(st.tuples(names, st.sampled_from(pool)),
                                    min_size=1, max_size=8))
    held = [value for value in pool if value is not None]
    values = st.one_of(st.sampled_from(held), stored) if held else stored
    rows_ = data.draw(st.lists(rows(values=values, odd=True), min_size=1,
                               max_size=4))
    keys = {Condition(attribute, "=", literal).to_sql()
            for attribute, literal in equalities}
    index = ConjunctIndex()
    for key in keys:
        index.add(frozenset({key}))
    match = RowMatch(rows_)
    live = index.live(match)
    expected = {}
    for key in keys:
        may = surely = 0
        for bit, row in enumerate(rows_):
            verdict = exact_match_row(key, row)
            may |= (verdict is not False) << bit
            surely |= bool(verdict) << bit
        expected[key] = (may, surely)
    assert live == {key for key, (may, _) in expected.items() if may}
    for key, bits in expected.items():
        if key in match._masks:
            assert (match._masks[key], match._exact[key]) == bits, key
        else:
            assert bits == (0, 0), key
    odd = {name.split(".")[-1] for row in rows_
           for name, value in row.items() if value is ODD_VALUE}
    evaluated = {key for key in keys if not bucketed(key) or parse_predicate(
        key).attribute.split(".")[-1] in odd}
    assert match.predicate_row_tests == len(evaluated) * len(rows_)


kinds = st.sampled_from([TUPLES_INSERTED, TUPLES_DELETED, TUPLES_UPDATED])


@st.composite
def entries(draw, conjunct_sets):
    """One cached answer's fields: an exact-looking buffer over pids 1..16
    whose scores can tie the floor of another (``1 − 0.5 · 0.5 = 0.75``)."""
    preferences = draw(st.lists(st.tuples(conjunct_sets, intensities()),
                                min_size=1, max_size=5))
    pids = draw(st.lists(st.integers(min_value=1, max_value=16), unique=True,
                         max_size=6))
    scores = draw(st.lists(intensities(0.05), min_size=len(pids),
                           max_size=len(pids)))
    buffer = sorted(zip(pids, scores), key=lambda hit: (-hit[1], hit[0]))
    k = draw(st.integers(min_value=1, max_value=3))
    return (buffer, draw(st.sampled_from((False, False, False, True))),
            [conjuncts for conjuncts, _ in preferences],
            [intensity for _, intensity in preferences], k)


def unfiltered_sweep(entries, mutation):
    """The loop the bound replaced: ``apply_delta`` on every affected entry,
    each affected key's outcome."""
    full = RowMatch.of(mutation)
    return {key: entry.apply_delta(RowMatch.of(mutation))[0]
            for key, entry in entries.items()
            if any(full.shared(conjuncts) for conjuncts in entry.conjuncts)}


def plain_patch(lists, mutation):
    """The memo's plain loop: every stale list patched from the pid images,
    or dropped (``None``) on an undecidable post row."""
    full = RowMatch.of(mutation)
    touched = {pid for pid, _ in full.images}
    outcomes = {}
    for key, ids in lists.items():
        shared = full.shared(key)
        if not shared:
            continue
        post = shared & full.post_rows
        surely = full.exact(key) & post
        outcomes[key] = None if post != surely else tuple(sorted(
            set(ids) - touched
            | {pid for pid, image in full.images if image & surely}))
    return outcomes


class DrawnLists:
    """A backend stand-in whose id list for each key is drawn."""

    def __init__(self, lists):
        self.lists = lists

    def matching_paper_ids(self, predicate):
        return self.lists[CountCache.key(predicate)]


@settings(deadline=None)
@given(st.data())
def test_sweep_repairs_and_drops_exactly_what_the_plain_loop_affects(data):
    pool = data.draw(st.lists(conjunct_texts(), min_size=1, max_size=6,
                              unique=True))
    conjunct_sets = st.sets(st.sampled_from(pool), min_size=1,
                            max_size=3).map(frozenset)
    # An id-list memo and a result cache sharing one index, as a server's.
    lists = data.draw(st.dictionaries(conjunct_sets, st.lists(
        st.integers(min_value=1, max_value=16), unique=True).map(sorted),
        max_size=4))
    runner = PreferenceQueryRunner(DrawnLists(lists))
    for key in lists:
        runner.ids(conjunction([parse_predicate(text) for text in key]))
    cache = ResultCache(runner.conjunct_index)
    for uid in range(data.draw(st.integers(min_value=1, max_value=8))):
        buffer, complete, conjuncts, intensities, k = data.draw(
            entries(conjunct_sets))
        cache.put(uid, k, buffer, complete, conjuncts, intensities)
    kind = data.draw(kinds)
    # Mostly rows that carry every attribute, so the bound is what decides.
    row = st.one_of(rows(absent=False), rows(absent=False), rows())
    post = data.draw(st.lists(row, max_size=3)) \
        if kind != TUPLES_DELETED else []
    pre = data.draw(st.lists(row, max_size=3)) \
        if kind != TUPLES_INSERTED else []
    mutation = DataMutation(kind, "dblp", rows=post, old_rows=pre,
                            pids=sorted({row["pid"] for row in post + pre}))

    before = dict(cache._entries)
    outcomes = unfiltered_sweep(before, mutation)
    patches = plain_patch(runner._ids_cache, mutation)
    memo = dict(runner._ids_cache)
    calls, passes = [], []
    apply_delta, live = CachedResult.apply_delta, ConjunctIndex.live

    def counted(entry, *args, **kwargs):
        calls.append(entry.uid)
        return apply_delta(entry, *args, **kwargs)

    def bucket_pass(index, match):
        passes.append(index)
        return live(index, match)
    CachedResult.apply_delta, ConjunctIndex.live = counted, bucket_pass
    try:
        match = RowMatch.of(mutation)
        # A server asks the result cache first; either order finds one set.
        if data.draw(st.booleans()):
            impact = cache.on_data_mutation(match)
            memo_impact = runner.invalidate_matching(match)
        else:
            memo_impact = runner.invalidate_matching(match)
            impact = cache.on_data_mutation(match)
    finally:
        CachedResult.apply_delta, ConjunctIndex.live = apply_delta, live
    assert passes == [runner.conjunct_index]

    fallbacks = sum(1 for outcome in outcomes.values() if outcome is None)
    assert impact["results_invalidated"] == cache.data_invalidations == \
        cache.stats()["repair_fallbacks"] == fallbacks
    assert impact["results_repaired"] == cache.repairs == \
        len(outcomes) - fallbacks
    assert cache.deltas_applied == len(calls) == len(set(calls))
    for key, entry in before.items():
        outcome = outcomes.get(key, entry)
        if outcome is None:
            assert key not in cache
        elif outcome is entry:
            assert cache.peek(key, entry.k) is entry
        else:
            assert cache.peek(key, entry.k) == outcome
    changed = {key for key, outcome in outcomes.items()
               if outcome is not before[key]}
    assert changed <= set(calls) <= set(outcomes)

    drops = {key for key, ids in patches.items() if ids is None}
    assert memo_impact == {"index_entries_patched": len(patches) - len(drops),
                           "index_entries_dropped": len(drops)}
    assert runner._ids_cache == {
        key: patches.get(key, ids) for key, ids in memo.items()
        if key not in drops}
    # The index forgot the dropped entries and lists, and the bound's state
    # still equals a recomputation from the entries left.
    assert bound_state(cache) == cache_bound_state(cache)
    assert held_keys(runner.conjunct_index) == {
        key: (key in cache._factors) + (key in runner._ids_cache)
        for key in {*cache._factors, *runner._ids_cache}}


def test_a_tie_at_the_floor_reaches_apply_delta():
    """A tuple scoring exactly the floor enters ahead of a larger pid.  The
    bound multiplies ``0.65 · 0.8 · 0.9`` in conjunct order, the repair in
    preference order, and four of the six orders land an ulp below the
    floor's ``0.532``: the margin still hands the entry to ``apply_delta``.
    A tuple the bound keeps below the floor is not handed over."""
    conjuncts = [frozenset({"dblp.venue = 'VLDB'"}),
                 frozenset({"dblp.year = 2005"}),
                 frozenset({"dblp_author.aid = 7"})]
    floor = 0.532
    cache = ResultCache()
    entry = cache.put(1, 1, [(5, floor), (8, floor)], False, conjuncts,
                      [0.35, 0.2, 0.1])
    below = {"pid": 3, "venue": "VLDB", "year": 2005, "aid": 9}
    cache.on_data_mutation(RowMatch([below], post=1))
    assert cache.deltas_applied == 0 and cache.repairs == 1
    assert cache.peek(1, 1) is entry
    tie = dict(below, aid=7)
    cache.on_data_mutation(RowMatch([tie], post=1))
    assert cache.deltas_applied == 1 and cache.repairs == 2
    assert cache.peek(1, 1).buffer == ((3, floor), (5, floor))


def test_a_multi_conjunct_preference_enters_the_bound():
    """A conjunction enters the bound, under its own key, only when some
    one row may match all of its conjuncts."""
    pair = frozenset({"dblp.venue = 'VLDB'", "dblp.year = 2005"})
    vldb = frozenset({"dblp.venue = 'VLDB'"})
    cache = ResultCache()
    entry = cache.put(1, 1, [(5, 0.5), (8, 0.5)], False, [pair, vldb],
                      [0.9, 0.2])
    assert cache._factors == {pair: {1: 1 - 0.9}, vldb: {1: 1 - 0.2}}
    row = {"pid": 3, "venue": "VLDB", "year": 2004, "aid": 1}
    cache.on_data_mutation(RowMatch([row], post=1))
    assert cache.deltas_applied == 0 and cache.peek(1, 1) is entry
    cache.on_data_mutation(RowMatch([dict(row, year=2005)], post=1))
    assert cache.deltas_applied == 1
    assert cache.peek(1, 1).ranking == ((3, combine_and([0.9, 0.2])),)


def test_memo_prunes_exactly_the_stale_keys(tiny_db):
    """The id-list memo patches the keys the plain loop calls stale — the
    row surely matches, so its pid joins each — and keeps every other list
    as it was; nothing else is asked about."""
    runner = PreferenceQueryRunner(tiny_db)
    venues, lo, hi = tiny_db.workload_shape()
    texts = [f"dblp.venue = '{venue}'" for venue in venues[:4]]
    texts += [f"dblp.year >= {hi - 1}", f"dblp.venue = '{venues[0]}' AND "
              f"dblp.year >= {hi - 1}"]
    for text in texts:
        runner.ids(parse_predicate(text))
    keys = [CountCache.key(text) for text in texts]
    row = {"pid": 1, "venue": venues[0], "year": lo, "aid": 1}
    full = RowMatch([row])
    stale = {key for key in keys if full.shared(key)}
    match = RowMatch([row], post=1)
    before = dict(runner._ids_cache)
    assert runner.invalidate_matching(match) == {
        "index_entries_patched": len(stale), "index_entries_dropped": 0}
    assert len(stale) == 1
    assert (runner.id_lists_patched, runner.id_lists_dropped) == (1, 0)
    assert runner._ids_cache == {
        key: tuple(sorted({*before[key], 1})) if key in stale else before[key]
        for key in keys}
    assert held_keys(runner.conjunct_index) == dict.fromkeys(
        runner._ids_cache, 1)
    # Judged: the row's venue key and the generic year range — no other.
    assert set(match._masks) == {texts[0], f"dblp.year >= {hi - 1}"}


@pytest.mark.parametrize("door", ["insert", "delete", "update"])
def test_one_server_mutation_runs_one_bucket_pass(door, monkeypatch):
    """A server's result cache and id-list memo share one index: a mutation
    through any door runs its bucket pass once, for both stores, and both
    stores still find their stale keys in it."""
    dataset = generate_dblp(
        DblpConfig(n_papers=200, n_authors=60, n_venues=6, seed=7))
    db = Database(":memory:")
    load_dataset(db, dataset)
    load_profiles(db, PreferenceExtractor(dataset).extract_all())
    with TopKServer(db) as server:
        for profile in db.read_profiles():
            server.top_k(profile.uid, 5)
        index = server.sessions.runner.conjunct_index
        assert server.results._index is index
        passes = []
        live = ConjunctIndex.live

        def bucket_pass(self, match):
            passes.append(self)
            return live(self, match)
        monkeypatch.setattr(ConjunctIndex, "live", bucket_pass)
        paper = dict(db.joined_rows([1])[0])
        if door == "insert":
            report = server.insert_tuples([dict(paper, pid=90_001,
                                                aids=[paper["aid"]])])
        elif door == "delete":
            report = server.delete_tuples([1])
        else:
            report = server.update_tuples([dict(paper, year=paper["year"] + 1)])
        assert passes == [index]
        assert report.results_repaired + report.results_invalidated > 0
        assert report.index_entries_patched + report.index_entries_dropped > 0
    db.close()
