"""Differential test for the result cache's one merge.

Both repairs of a cached answer rescore a set of pids and merge them into
the answer's buffer through one merge (``CachedResult._merge``):
``CachedResult.apply_delta`` for a data mutation, ``CachedResult.apply_profile``
for a profile update.  The oracle is the user's whole ``(−score, pid)``
order recomputed from scratch under ``f_and``, over a drawn universe of
papers — each with a venue, a year and a set of authors, so it matches a
drawn subset of the preferences, a conjunction among them — with drawn
intensities, ``k``, depth, and a complete or truncated buffer that is an
exact prefix of that order.

* ``apply_delta`` on a drawn insert, delete or in-place update returns the
  exact prefix of the new order: the whole order when ``complete``, else
  every tuple ranking at or above the buffer's old floor up to its depth.
  It falls back (underflow) only when fewer than ``k`` tuples of the new
  order rank there, so nothing the buffer held certifies ``k`` of them.
* ``apply_profile`` on a drawn diff of the preference list — added,
  removed and restated preferences, the others in their order, now and then
  two of them swapped or a removed one's id list forgotten — returns the
  exact prefix for the k read, and falls back only when the recomputation
  confirms the reason.

``HYPOTHESIS_PROFILE=ci`` runs ten times the default examples.
"""

from __future__ import annotations

from hypothesis import event, given, settings, strategies as st

from repro.algorithms.base import PreferenceQueryRunner, ScoredPreference
from repro.core.intensity import combine_and
from repro.core.predicate import parse_predicate
from repro.index import CountCache, RowMatch
from repro.serving.results import (
    FALLBACK_EMPTY,
    FALLBACK_REORDERED,
    FALLBACK_UNDERFLOW,
    FALLBACK_UNMEMOISED,
    REPAIR_MARGIN,
    REPAIRED,
    CachedResult,
)
from repro.sqldb.events import (TUPLES_DELETED, TUPLES_INSERTED,
                                TUPLES_UPDATED, DataMutation)

#: Every preference text the universe knows -> whether a paper
#: ``(venue, year, aids)`` matches it (the conjunction needs one joined row,
#: one author, that matches both members).
TEXTS = {
    "dblp.venue = 'A'": lambda venue, year, aids: venue == "A",
    "dblp.year >= 2005": lambda venue, year, aids: year >= 2005,
    "dblp_author.aid = 1": lambda venue, year, aids: 1 in aids,
    "dblp_author.aid = 2": lambda venue, year, aids: 2 in aids,
    "dblp_author.aid = 3": lambda venue, year, aids: 3 in aids,
    "dblp.venue = 'A' AND dblp_author.aid = 1":
        lambda venue, year, aids: venue == "A" and 1 in aids,
}
MATCHES = {CountCache.key(text): matches for text, matches in TEXTS.items()}
#: Intensities that make ties (1.0 scores 1 whatever else matches).
GRID = (0.1, 0.25, 0.5, 0.5, 0.75, 0.9, 1.0)

intensities = st.one_of(st.sampled_from(GRID),
                        st.floats(min_value=0.01, max_value=1.0))
papers_ = st.tuples(st.sampled_from(("A", "B")), st.integers(2000, 2010),
                    st.frozensets(st.integers(1, 4), max_size=3))


def rows(pid, paper):
    """A paper's joined rows: one per author (aid 0 when it has none)."""
    venue, year, aids = paper
    return [{"pid": pid, "title": "T", "venue": venue, "year": year,
             "abstract": "", "aid": aid} for aid in sorted(aids) or (0,)]


def order(papers, preferences):
    """The whole ``(−score, pid)`` order under ``preferences``, recomputed:
    every paper matching one, scored by ``f_and`` in preference order."""
    keys = []
    for pid, paper in papers.items():
        values = [intensity for text, intensity in preferences
                  if TEXTS[text](*paper)]
        if values:
            keys.append((-combine_and(values), pid))
    return sorted(keys)


def ranking(keys):
    return tuple((pid, -negated) for negated, pid in keys)


class Universe:
    """A backend stand-in: each key's id list, from the drawn papers."""

    def __init__(self, papers):
        self.papers = papers

    def matching_paper_ids(self, predicate):
        matches = MATCHES[CountCache.key(predicate)]
        return sorted(pid for pid, paper in self.papers.items()
                      if matches(*paper))


@st.composite
def answers(draw):
    """A universe, a preference list and a cached answer to it: an exact
    prefix of the order, complete or truncated at a drawn depth."""
    papers = dict(enumerate(draw(st.lists(papers_, min_size=3, max_size=14)),
                             start=1))
    texts = draw(st.lists(st.sampled_from(sorted(TEXTS)), min_size=1,
                          max_size=4, unique=True))
    preferences = [(text, draw(intensities)) for text in texts]
    keys = order(papers, preferences)
    k = draw(st.integers(min_value=1, max_value=4))
    complete = draw(st.booleans())
    if not complete:
        # Mostly at least k deep, as a fold leaves it; now and then shorter.
        low = min(k, len(keys)) if draw(st.integers(0, 4)) else 0
        keys = keys[:draw(st.integers(low, len(keys)))]
    buffer = ranking(keys)
    entry = CachedResult(
        uid=1, k=k, ranking=buffer[:k],
        conjuncts=tuple(CountCache.key(text) for text, _ in preferences),
        intensities=tuple(intensity for _, intensity in preferences),
        buffer=buffer, complete=complete, depth=len(buffer))
    return papers, preferences, entry


def at_or_above_floor(entry, keys):
    """The keys of ``keys`` a truncated ``entry``'s buffer certifies: those
    ranking at or above its floor before the change (none without one)."""
    if not entry.buffer:
        return []
    pid, score = entry.buffer[-1]
    return [key for key in keys if key <= (-score, pid)]


def assert_exact_prefix(entry, buffer, complete, keys, k, cap):
    """``buffer`` is what the merge must keep of the new order ``keys``."""
    if entry.complete:
        expected = keys if cap is None else keys[:cap]
        assert complete == (cap is None or len(keys) < cap)
    else:
        expected = at_or_above_floor(entry, keys)[:cap]
        assert not complete and len(expected) >= k
    assert buffer == ranking(expected)


@settings(deadline=None)
@given(answers(), st.data())
def test_apply_delta_equals_the_recomputed_prefix(drawn, data):
    papers, preferences, entry = drawn
    kind = data.draw(st.sampled_from(
        (TUPLES_INSERTED, TUPLES_DELETED, TUPLES_UPDATED)
        if papers else (TUPLES_INSERTED,)))
    after = dict(papers)
    if kind == TUPLES_INSERTED:
        pid = len(papers) + 1
        after[pid] = data.draw(papers_)
        pre, post = [], rows(pid, after[pid])
    else:
        # Any paper, or the buffer's floor pid; an update may keep the
        # paper's rows as they were.
        pid = data.draw(st.sampled_from(sorted(papers) + [
            pid for pid, _ in entry.buffer[-1:]]))
        pre = rows(pid, papers[pid])
        if kind == TUPLES_DELETED:
            del after[pid]
            post = []
        else:
            after[pid] = data.draw(st.one_of(st.just(papers[pid]), papers_))
            post = rows(pid, after[pid])
    match = RowMatch.of(DataMutation(kind, "dblp", rows=post, old_rows=pre,
                                     pids=[pid]))
    keys = order(after, preferences)

    repaired, reason = entry.apply_delta(match)
    event(f"delta: {'complete' if entry.complete else 'truncated'} {kind} "
          f"-> {reason}")
    if entry.buffer and not entry.complete and entry.buffer[-1][0] == pid:
        event("delta: the truncated buffer's floor pid touched")
    if repaired is None:
        # Confirmed: fewer than k tuples of the new order are certified.
        assert reason == FALLBACK_UNDERFLOW and not entry.complete
        assert len(at_or_above_floor(entry, keys)) < entry.k
        return
    assert reason == REPAIRED
    assert_exact_prefix(entry, repaired.buffer, repaired.complete, keys,
                        entry.k, None if entry.complete
                        else max(entry.depth, entry.k))
    assert repaired.ranking == repaired.buffer[:entry.k]
    assert (repaired is entry) == (repaired.buffer == entry.buffer)


@settings(deadline=None)
@given(answers(), st.data())
def test_apply_profile_equals_the_recomputed_prefix(drawn, data):
    papers, preferences, basis = drawn
    # The diff: each old preference kept, dropped or restated, new ones
    # inserted anywhere; now and then two kept ones swap places.
    new = []
    for text, intensity in preferences:
        fate = data.draw(st.sampled_from(("keep", "keep", "drop", "restate")))
        if fate != "drop":
            new.append((text, intensity if fate == "keep"
                        else data.draw(intensities)))
    for text in data.draw(st.lists(st.sampled_from(sorted(
            set(TEXTS) - {text for text, _ in preferences})), unique=True,
            max_size=2)):
        new.insert(data.draw(st.integers(0, len(new))),
                   (text, data.draw(intensities)))
    if len(new) >= 2 and data.draw(st.integers(0, 5)) == 0:
        first = data.draw(st.integers(0, len(new) - 2))
        new[first], new[first + 1] = new[first + 1], new[first]
    if not new:
        return  # no positive preference left: the read serves ()
    k = data.draw(st.integers(min_value=1, max_value=6))
    # The shared memo holds the old list's id lists, now and then less a
    # removed key's.
    runner = PreferenceQueryRunner(Universe(papers))
    removed = {text for text, _ in preferences} - {text for text, _ in new}
    forgotten = data.draw(st.sets(st.sampled_from(sorted(removed)))) \
        if removed else set()
    for text, _ in preferences:
        if text not in forgotten:
            runner.ids(parse_predicate(text))
    keys = order(papers, new)

    rebased, reason = basis.apply_profile(
        runner, [ScoredPreference(parse_predicate(text), intensity)
                 for text, intensity in new],
        [CountCache.key(text) for text, _ in new], k)
    event(f"profile: {'complete' if basis.complete else 'truncated'} "
          f"-> {reason}")
    changed = set(preferences).symmetric_difference(new)
    changed_texts = {text for text, _ in changed}
    if reason == FALLBACK_REORDERED:
        assert [pair for pair in preferences if pair[0] not in changed_texts] \
            != [pair for pair in new if pair[0] not in changed_texts]
    elif reason == FALLBACK_EMPTY:
        assert not basis.complete and not basis.buffer
    elif reason == FALLBACK_UNMEMOISED:
        assert forgotten & changed_texts
    elif reason == FALLBACK_UNDERFLOW:
        assert not basis.complete
        assert len(at_or_above_floor(basis, keys)) < k
    else:
        assert reason == REPAIRED and not forgotten & changed_texts
        assert_exact_prefix(basis, rebased.buffer, rebased.complete, keys, k,
                            max(k + REPAIR_MARGIN * k, basis.depth))
