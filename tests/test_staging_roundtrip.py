"""Staging round trip: ``load_profiles`` → ``profile_rows`` → ``build_rows``
builds the graph ``build_profile`` builds from the in-memory profile.

Hypothesis draws registries over a pool of shared predicates
(``tests/strategies.py``) in two spellings each: duplicate predicates,
negative strengths, self preferences, cycles, incompatible intensities.
Staged on both engines, every user's graph equals the profile's node by
node, edge by edge and counter by counter.  A build's outline extended by
drawn batches equals the full build, or falls back for the rows' reason.
"""

from __future__ import annotations

import pytest
from hypothesis import event, example, given, settings, strategies as st
from strategies import UNPARSABLE, intensities, pools, predicates, spellings
from worlds import graph_signature

from repro import create_backend
from repro.algorithms.base import preferences_from_graph
from repro.core.hypre import HypreGraphBuilder
from repro.core.hypre.builder import (EXTEND_ENDPOINT, EXTEND_INVALID,
                                      EXTEND_QUALITATIVE, EXTEND_SEEDED,
                                      EXTENDED, BuildOutline)
from repro.core.predicate import parse_predicate
from repro.core.preference import ProfileRegistry, UserProfile
from repro.exceptions import ReproError
from repro.workload import load_profiles, profile_rows

pytestmark = pytest.mark.differential

BACKENDS = ("sqlite", "memory")
#: A shared predicate's text, as rendered.
predicate_texts = predicates().map(lambda expr: expr.to_sql())
strengths = intensities(-1.0, 1.0)


@st.composite
def profiles(draw):
    """One user's quantitative and qualitative rows over a drawn pool of
    predicates, each row stating one of a predicate's two spellings."""
    stated = st.sampled_from(draw(pools(predicate_texts))).flatmap(spellings)
    return (draw(st.lists(st.tuples(stated, strengths), max_size=8)),
            draw(st.lists(st.tuples(stated, stated, strengths),
                          max_size=10)))


@settings(deadline=None)
@given(st.dictionaries(st.integers(min_value=1, max_value=50), profiles(),
                       min_size=1, max_size=3))
def test_staged_rows_build_the_profile_graph(drawn):
    registry = ProfileRegistry()
    for uid, (quantitative, qualitative) in drawn.items():
        profile = registry.get_or_create(uid)
        for predicate, intensity in quantitative:
            profile.add_quantitative(predicate, intensity)
        for left, right, intensity in qualitative:
            profile.add_qualitative(left, right, intensity)
    expected = {}
    for profile in registry:
        builder = HypreGraphBuilder()
        report = builder.build_profile(profile)
        expected[profile.uid] = graph_signature(builder.hypre, report, profile.uid)

    for engine in BACKENDS:
        db = create_backend(engine)
        try:
            load_profiles(db, registry)
            for profile in registry:
                quantitative, qualitative = profile_rows(db, profile.uid)
                assert (len(quantitative), len(qualitative)) == (
                    len(profile.quantitative), len(profile.qualitative))
                builder = HypreGraphBuilder()
                report = builder.build_rows(profile.uid, quantitative, qualitative)
                assert graph_signature(builder.hypre, report, profile.uid) \
                    == expected[profile.uid], (engine, profile.uid)
            assert profile_rows(db, 0) == ([], [])
        finally:
            db.close()


def test_an_empty_profile_stages_nothing():
    """A user with no row is unknown to ``profile_rows`` (serving raises
    ``UnknownUserError`` for it); ``build_rows`` over no row builds no node."""
    registry = ProfileRegistry()
    registry.add(UserProfile(uid=5))
    for engine in BACKENDS:
        db = create_backend(engine)
        try:
            load_profiles(db, registry)
            assert profile_rows(db, 5) == ([], [])
        finally:
            db.close()
    builder = HypreGraphBuilder()
    report = builder.build_rows(5, [], [])
    assert len(builder.hypre) == 0 and report.quantitative_nodes == 0


UID = 7
#: An intensity out of its domain (one in eight) — NaN among them.
batch_strengths = st.one_of(*[strengths] * 7, st.sampled_from(
    (-1.5, 1.0000001, 2.0, float("nan"))))
#: Quantitative rows of a batch: a fresh predicate (in either spelling),
#: one the profile states (an index into its texts, resolved by the test: a
#: duplicate or an endpoint) or, rarely, unparsable text.
batch_rows = st.lists(st.tuples(
    st.one_of(st.one_of(*[predicate_texts.flatmap(spellings)] * 4,
                        st.sampled_from(UNPARSABLE)), st.integers(0, 99)),
    batch_strengths), max_size=4)
#: A batch: its quantitative rows, and one qualitative row a quarter of
#: the time.
batches = st.lists(st.tuples(batch_rows, st.one_of(
    st.just([]), st.just([]), st.just([]),
    st.lists(st.tuples(predicate_texts, predicate_texts, strengths),
             min_size=1, max_size=1))), min_size=1, max_size=2)


def outline_signature(outline):
    """An outline's parts, floats by ``float.hex``."""
    return (outline.endpoints,
            [(text, (-negated).hex()) for negated, text, _ in outline.finals],
            {text: intensity.hex()
             for text, (_, intensity) in outline.step1.items()},
            outline.seeded)


def full_build(quantitative, qualitative):
    """The graph's preference list (floats by ``float.hex``), the build's
    outline and whether it seeded a default."""
    builder = HypreGraphBuilder()
    report = builder.build_rows(UID, quantitative, qualitative)
    preferences = [(pref.sql, pref.intensity.hex())
                   for pref in preferences_from_graph(builder.hypre, UID)]
    return (preferences, BuildOutline.of(builder.hypre, UID, report),
            report.defaults_assigned > 0)


def invalid(quantitative):
    """Whether a row does not parse or its intensity is out of its domain."""
    return any(predicate in UNPARSABLE or not -1.0 <= intensity <= 1.0
               for predicate, intensity in quantitative)


def expected_reason(quantitative, qualitative, built_qualitative, seeded):
    """Why the extension must fall back, from the rows alone: ``None``
    when it must extend."""
    if qualitative:
        return EXTEND_QUALITATIVE
    if seeded:
        return EXTEND_SEEDED
    if invalid(quantitative):
        return EXTEND_INVALID
    endpoints = {parse_predicate(side).to_sql()
                 for left, right, _ in built_qualitative
                 for side in (left, right)}
    if any(parse_predicate(predicate).to_sql() in endpoints
           for predicate, _ in quantitative):
        return EXTEND_ENDPOINT
    return None


VLDB, SIGMOD = "dblp.venue = 'VLDB'", "dblp.venue = 'SIGMOD'"
YEAR, FRESH = "dblp.year >= 2005", "dblp.year >= 1995"


@settings(deadline=None)
@given(profiles(), st.booleans(), batches)
# A restated endpoint; a seeded build; a non-positive node averaged up by
# its other spelling, then a fresh node, in two chained batches.
@example(([], [(VLDB, SIGMOD, 0.5)]), True, [([(SIGMOD, 0.9)], [])])
@example(([], [(VLDB, SIGMOD, 0.5)]), False, [([(FRESH, 0.9)], [])])
@example(([(YEAR, -0.2), (VLDB, 0.4)], [(VLDB, VLDB, 0.3)]), False,
         [([("dblp.year>=2005", 0.8)], []), ([(FRESH, 0.1)], [])])
def test_an_extended_outline_is_the_full_build(profile, scored, drawn):
    """``scored`` first states every qualitative side quantitatively, so
    Step 2 seeds no default and the endpoints a batch may restate are
    outlined."""
    quantitative, qualitative = map(list, profile)
    if scored:
        quantitative[:0] = [(side, 0.5) for row in qualitative
                            for side in row[:2]]
    _, outline, seeded = full_build(quantitative, qualitative)
    own = [row[0] for row in quantitative] + [
        side for row in qualitative for side in row[:2]] or [FRESH]
    for chained, (rows, new_qualitative) in enumerate(drawn):
        rows = [(own[predicate % len(own)] if isinstance(predicate, int)
                 else predicate, intensity) for predicate, intensity in rows]
        reason = expected_reason(rows, new_qualitative, qualitative, seeded)
        extended, outcome = outline.extend(rows, new_qualitative)
        quantitative += rows
        qualitative += new_qualitative
        event(f"batch {chained + 1}: {outcome}")
        if reason is not None:
            assert (extended, outcome) == (None, reason)
            if invalid(rows):
                # The read falls back to the full build, which raises.
                with pytest.raises((ReproError, TypeError, ValueError)):
                    full_build(quantitative, qualitative)
                return
            # The read builds in full and keeps that build's outline.
            _, outline, seeded = full_build(quantitative, qualitative)
            continue
        assert outcome == EXTENDED
        preferences, rebuilt, seeded = full_build(quantitative, qualitative)
        assert not seeded
        assert [(expr.to_sql(), intensity.hex()) for expr, intensity
                in extended.preferences()] == preferences
        assert outline_signature(extended) == outline_signature(rebuilt)
        outline = extended
