"""Differential tests for the sweep's conjunct index.

``ConjunctIndex`` buckets every held ``attr = literal`` conjunct by its
literal, so a mutation row judges only the keys its values can reach.  The
oracle is the scan it replaced: a fresh ``RowMatch`` asked about every held
key.  Held keys mix text literals that are and are not numeric-shaped,
numeric literals (``True``, integers past 2**53, NaN), NULL, ``IN``, ranges,
``!=`` and ``OR`` children, in qualified and bare spellings; rows carry
ints, floats, text, NULLs and absent attributes under qualified or bare keys.

* The live set, and every ``mask`` / ``exact`` bit a sweep reads, equal the
  full scan's; a key the sweep never judged has mask 0 in the full scan.
* ``ResultCache.on_data_mutation`` repairs and drops exactly the entries
  the plain loop — ``any(shared(c) for c in entry.conjuncts)`` — calls
  affected, each to the very entry a full-width ``apply_delta`` builds, and
  leaves every other entry untouched.

``HYPOTHESIS_PROFILE=ci`` runs ten times the default examples.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.algorithms.base import PreferenceQueryRunner
from repro.core.predicate import Condition, Or, parse_predicate
from repro.index import ConjunctIndex, CountCache, RowMatch
from repro.serving.results import ResultCache
from repro.sqldb.events import (TUPLES_DELETED, TUPLES_INSERTED,
                                TUPLES_UPDATED, DataMutation)

ATTRIBUTES = {"venue": ("dblp.venue", "venue"),
              "year": ("dblp.year", "year"),
              "aid": ("dblp_author.aid", "aid")}
TEXT_LITERALS = ("5", " 5 ", "5.0", "1e3", "abc", "VLDB", "1000", "nan",
                 "1.0e+16")
NUMERIC_LITERALS = (5, 5.0, True, 0, 1000, 1000.0, 2 ** 53 + 1,
                    float(2 ** 53), float("nan"), -0.0, 1e16)
literals = st.sampled_from(TEXT_LITERALS + NUMERIC_LITERALS)
spellings = st.sampled_from([name for names in ATTRIBUTES.values()
                             for name in names])

equalities = st.builds(Condition, spellings, st.just("="),
                       st.one_of(literals, st.none()))
others = st.one_of(
    st.builds(Condition, spellings, st.sampled_from(["!=", "<", "<=", ">",
                                                     ">="]), literals),
    st.builds(Condition, spellings, st.just("IN"),
              st.lists(literals, min_size=1, max_size=3)))
conditions = st.one_of(equalities, equalities, others)
#: Held conjunct texts, as a store renders them: mostly equalities.
conjunct_texts = st.one_of(
    conditions, conditions,
    st.builds(lambda first, second: Or((first, second)),
              conditions, conditions)).map(lambda expr: expr.to_sql())

row_values = st.one_of(
    st.sampled_from(TEXT_LITERALS),
    st.sampled_from((5, 5.0, 0, 1000, 1000.0, 2 ** 53 + 1, float(2 ** 53),
                     -0.0, 7)),
    st.floats(allow_nan=True, allow_infinity=False),
    st.integers(min_value=-3, max_value=2000),
    st.none())


@st.composite
def rows(draw, pids=st.integers(min_value=1, max_value=6)):
    """A joined-view row: each attribute absent, or under one spelling."""
    row = {"pid": draw(pids)}
    for names in ATTRIBUTES.values():
        spelling = draw(st.sampled_from((None,) + names))
        if spelling is not None:
            row[spelling] = draw(row_values)
    return row


def scan(keys, rows):
    """The oracle: a fresh match asked about every held key."""
    full = RowMatch(rows)
    return full, {key for key in keys if full.mask(key)}


@settings(deadline=None)
@given(st.lists(conjunct_texts, min_size=1, max_size=14),
       st.lists(st.booleans(), max_size=14),
       st.lists(rows(), min_size=1, max_size=4))
def test_live_keys_and_every_bit_read_equal_a_full_scan(held, released, rows):
    index = ConjunctIndex()
    for holder, key in enumerate(held):
        index.add(key, holder)
    # Release some holders again: the index must forget a key's buckets
    # exactly when its last holder goes.
    kept = set()
    for holder, key in enumerate(held):
        if holder < len(released) and released[holder]:
            index.remove(key, holder)
        else:
            kept.add(key)
    assert set(index._holders) == kept

    match = RowMatch(rows)
    live = index.live(match)
    full, expected = scan(kept, rows)
    assert live == expected
    judged = set(match._masks)
    assert live <= judged <= kept
    for key in judged:
        assert match.mask(key) == full.mask(key)
        assert match.exact([key]) == full.exact([key])
    for key in kept - judged:
        assert full.mask(key) == 0
    assert match.predicate_row_tests == len(judged) * len(rows)


def test_exact_takes_the_conjunct_forms_shared_takes():
    """``exact`` and ``shared`` key a conjunct the same way, text or parsed."""
    match = RowMatch([{"pid": 1, "venue": "VLDB"}])
    conjunct = parse_predicate("dblp.venue = 'VLDB'")
    assert match.shared([conjunct]) == match.exact([conjunct]) == 1
    assert match.exact(["dblp.venue = 'VLDB'"]) == 1
    assert match.distinct_predicates == 1


def test_a_bucket_reaches_only_the_values_sqlite_equates():
    """The case table of ``docs/INVALIDATION.md``: a text value reaches a
    key by text, a number by number, an absent attribute every key of it,
    NULL none, and a NaN literal is a candidate for every row."""
    keys = ["dblp.year = '2005'", "dblp.year = 2005", "dblp.venue = 100",
            "dblp.venue = 'VLDB'", "dblp.venue = 1e16", "dblp.year = nan",
            "dblp.year >= 2010"]
    index = ConjunctIndex()
    for key in keys:
        index.add(key, key)
    generic = {"dblp.year = nan", "dblp.year >= 2010"}
    assert index.candidates([{"year": 2005, "venue": "ICDE"}]) == \
        generic | {"dblp.year = '2005'", "dblp.year = 2005"}
    assert index.candidates([{"year": "2005.0", "venue": "100"}]) == \
        generic | {"dblp.venue = 100"}
    assert index.candidates([{"year": 1, "venue": "1.0e+16"}]) == \
        generic | {"dblp.venue = 1e16"}
    assert index.candidates([{"year": None}]) == \
        generic | {"dblp.venue = 100", "dblp.venue = 'VLDB'",
                   "dblp.venue = 1e16"}


kinds = st.sampled_from([TUPLES_INSERTED, TUPLES_DELETED, TUPLES_UPDATED])


@st.composite
def entries(draw, conjunct_sets):
    """One cached answer's fields: an exact-looking buffer over pids 1..9."""
    preferences = draw(st.lists(st.tuples(conjunct_sets,
                                          st.floats(min_value=0.05,
                                                    max_value=1.0)),
                                min_size=1, max_size=5))
    pids = draw(st.lists(st.integers(min_value=1, max_value=9), unique=True,
                         max_size=6))
    scores = draw(st.lists(st.floats(min_value=0.05, max_value=1.0),
                           min_size=len(pids), max_size=len(pids)))
    buffer = sorted(zip(pids, scores), key=lambda hit: (-hit[1], hit[0]))
    k = draw(st.integers(min_value=1, max_value=3))
    return (buffer, draw(st.booleans()),
            [conjuncts for conjuncts, _ in preferences],
            [intensity for _, intensity in preferences], k)


@settings(deadline=None)
@given(st.data())
def test_sweep_repairs_and_drops_exactly_what_the_plain_loop_affects(data):
    pool = data.draw(st.lists(conjunct_texts, min_size=1, max_size=8,
                              unique=True))
    conjunct_sets = st.sets(st.sampled_from(pool), min_size=1,
                            max_size=2).map(frozenset)
    cache = ResultCache()
    for uid in range(data.draw(st.integers(min_value=1, max_value=6))):
        buffer, complete, conjuncts, intensities, k = data.draw(
            entries(conjunct_sets))
        cache.put(uid, k, buffer, complete, conjuncts, intensities)
    kind = data.draw(kinds)
    post = data.draw(st.lists(rows(), max_size=3)) \
        if kind != TUPLES_DELETED else []
    pre = data.draw(st.lists(rows(), max_size=3)) \
        if kind != TUPLES_INSERTED else []
    mutation = DataMutation(kind, "dblp", rows=post, old_rows=pre,
                            pids=sorted({row["pid"] for row in post + pre}))

    before = {key: cache.peek(*key) for key in cache._entries}
    full = RowMatch(mutation.invalidation_rows())
    affected = {key for key, entry in before.items()
                if any(full.shared(members) for members in entry.conjuncts)}
    expected = {key: before[key].apply_delta(mutation)[0] for key in affected}

    dropped = cache.on_data_mutation(mutation)
    assert dropped == sum(1 for entry in expected.values() if entry is None)
    assert cache.repairs + cache.repair_fallbacks == len(affected)
    assert cache.entries_visited >= len(affected)
    for key, entry in before.items():
        if key not in affected:
            assert cache.peek(*key) is entry
        else:
            assert cache.peek(*key) == expected[key]
    # The index forgot the dropped entries' conjuncts and kept the rest.
    assert set(cache._held._holders) == set().union(
        *(conjuncts for entry in cache._entries.values()
          for conjuncts in entry.conjuncts))


def test_memo_prunes_exactly_the_stale_keys(tiny_db):
    """The id-list memo drops the keys the plain loop calls stale and
    forgets their conjuncts; nothing else is asked about."""
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
    match = RowMatch([row])
    assert runner.invalidate_matching(match) == len(stale) == 1
    assert set(runner._ids_cache) == set(keys) - stale
    assert set(runner._ids_held._holders) == set().union(*runner._ids_cache)
    # Judged: the row's venue key and the generic year range — no other.
    assert set(match._masks) == {texts[0], f"dblp.year >= {hi - 1}"}
