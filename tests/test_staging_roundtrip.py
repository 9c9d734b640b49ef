"""Staging round trip: ``load_profiles`` → ``profile_rows`` → ``build_rows``
builds the graph ``build_profile`` builds from the in-memory profile.

Hypothesis draws small registries over a pool of predicates with two
spellings of some of them, so profiles hold duplicate predicates, negative
qualitative strengths, self preferences, cycles and incompatible
intensities.  Each registry is staged on both engines and every user's graph
is compared node by node (text, intensity, provenance), edge by edge (type
included) and counter by counter.  CI runs this module under
``HYPOTHESIS_PROFILE=ci``.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro import create_backend
from repro.core.hypre import HypreGraphBuilder
from repro.core.preference import ProfileRegistry, UserProfile
from repro.workload import load_profiles, profile_rows
from test_build_rows import BACKENDS, graph_signature

#: Predicates over the DBLP view; a few spelled twice (the staged text is
#: the canonical one), a conjunction, an IN list and a disjunction.
POOL = (
    "dblp.venue = 'VLDB'",
    "dblp.venue='VLDB'",
    "dblp.venue = 'SIGMOD'",
    "dblp.year >= 2005",
    "dblp.year>=2005",
    "dblp.year >= 2000 AND dblp.year <= 2010",
    "dblp_author.aid = 1",
    "dblp_author.aid IN (1, 2, 3)",
    "dblp.venue = 'VLDB' OR dblp.venue = 'PODS'",
)

predicates = st.sampled_from(POOL)
strengths = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
profiles = st.tuples(
    st.lists(st.tuples(predicates, strengths), max_size=8),
    st.lists(st.tuples(predicates, predicates, strengths), max_size=10))


@settings(deadline=None)
@given(st.dictionaries(st.integers(min_value=1, max_value=50), profiles,
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
