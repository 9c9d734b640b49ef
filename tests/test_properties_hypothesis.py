"""Property-based tests (hypothesis) for the core invariants of the model.

The generators (``tests/strategies.py``) stay inside the legal intensity
domains and exercise the
algebraic properties the paper's propositions rely on, plus structural
invariants of the predicate tree and the HYPRE graph builder, and the
liveness rules of the one op generator (``repro.serving.OpStream``).
"""

from __future__ import annotations

import math
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st
from strategies import ATTRIBUTES, conditions, intensities, pools, rows, values

from repro.core.intensity import (
    combine_and,
    combine_or,
    f_and,
    f_or,
    intensity_left,
    intensity_right,
    min_preferences_to_beat,
)
from repro.core.metrics import overlap, similarity
from repro.core.predicate import conjunction, disjunction, parse_predicate
from repro.core.preference import UserProfile
from repro.index import CountCache, RowMatch, exact_match_row, may_match_row
from repro.core.hypre import HypreGraphBuilder
from repro.core.hypre import PREFERS
from repro.serving import (
    DATA_UPDATE,
    DELETE,
    INSERT,
    READ,
    UPDATE,
    OpMix,
    build_streams,
)
from repro.loadgen import build_world
from repro.serving.ops import PID_STRIDE
from repro.workload.dblp import DblpConfig

# -- strategies --------------------------------------------------------------

quantitative = intensities(-1.0, 1.0)
positive_quant = qualitative = intensities()


# -- intensity algebra --------------------------------------------------------


@given(qualitative, quantitative)
def test_left_right_preserve_order(ql, qt):
    """Eq. 4.1/4.2: derived left value >= qt >= derived right value."""
    assert intensity_left(ql, qt) >= qt - 1e-12
    assert intensity_right(ql, qt) <= qt + 1e-12


@given(qualitative, quantitative)
def test_left_right_stay_in_domain(ql, qt):
    assert -1.0 <= intensity_left(ql, qt) <= 1.0
    assert -1.0 <= intensity_right(ql, qt) <= 1.0


@given(positive_quant, positive_quant)
def test_f_and_bounds(a, b):
    """f_and is inflationary for non-negative scores and stays within [0, 1]."""
    combined = f_and(a, b)
    assert combined >= max(a, b) - 1e-12
    assert combined <= 1.0 + 1e-12


@given(positive_quant, positive_quant)
def test_f_or_bounds(a, b):
    """f_or is reserved: the result lies between the two inputs."""
    combined = f_or(a, b)
    assert min(a, b) - 1e-12 <= combined <= max(a, b) + 1e-12


@given(st.lists(positive_quant, min_size=1, max_size=8))
def test_combine_and_permutation_invariant(values):
    """Proposition 1: the AND fold does not depend on the order."""
    assert combine_and(values) == pytest.approx(
        combine_and(list(reversed(values))), abs=1e-9)


@given(st.lists(positive_quant, min_size=1, max_size=8))
def test_combine_and_dominates_every_member(values):
    assert combine_and(values) >= max(values) - 1e-12


@given(st.lists(positive_quant, min_size=1, max_size=8))
def test_combine_or_within_bounds(values):
    combined = combine_or(values)
    assert min(values) - 1e-9 <= combined <= max(values) + 1e-9


@given(st.floats(min_value=0.01, max_value=0.99),
       st.floats(min_value=0.01, max_value=0.99))
def test_proposition6_bound_is_sufficient(target, base):
    """Combining ceil(K) preferences of intensity `base` reaches `target`."""
    needed = min_preferences_to_beat(target, base)
    if math.isinf(needed):
        return
    count = max(1, math.ceil(needed))
    if count > 10_000:
        return
    assert combine_and([base] * count) >= target - 1e-9


# -- metrics -------------------------------------------------------------------


@given(st.lists(st.integers(min_value=0, max_value=50), max_size=30, unique=True))
def test_similarity_and_overlap_identity(ids):
    """A list compared with itself is fully similar and fully ordered."""
    assert similarity(ids, ids) == 1.0
    if ids:
        assert overlap(ids, ids) == 1.0


@given(st.lists(st.integers(min_value=0, max_value=50), max_size=30, unique=True),
       st.lists(st.integers(min_value=51, max_value=99), max_size=30, unique=True))
def test_similarity_disjoint_is_zero(first, second):
    if first and second:
        assert similarity(first, second) == 0.0


@given(st.lists(st.integers(min_value=0, max_value=30), min_size=2, max_size=20,
                unique=True))
def test_overlap_of_reversed_list_is_zero(ids):
    assert overlap(ids, list(reversed(ids))) == 0.0


# -- predicates ----------------------------------------------------------------


@given(conditions())
def test_condition_sql_roundtrips_through_parser(condition):
    """to_sql() output is always re-parseable to an equal expression."""
    assert parse_predicate(condition.to_sql()) == condition


@given(st.lists(conditions(), min_size=1, max_size=5))
def test_conjunction_roundtrips_through_parser(parts):
    expr = conjunction(parts)
    assert parse_predicate(expr.to_sql()) == expr


@given(st.lists(conditions(), min_size=1, max_size=5), rows(absent=False))
def test_disjunction_evaluation_matches_any(parts, row):
    expr = disjunction(parts)
    assert expr.evaluate(row) == any(part.evaluate(row) for part in parts)


@given(st.lists(conditions(), min_size=1, max_size=5), rows(absent=False))
def test_conjunction_evaluation_matches_all(parts, row):
    expr = conjunction(parts)
    assert expr.evaluate(row) == all(part.evaluate(row) for part in parts)


# -- the one staleness rule ------------------------------------------------------


@given(st.data())
def test_shared_mask_is_sound_and_never_looser_than_the_whole(data):
    """``RowMatch.shared`` over a conjunction's conjuncts, on rows with
    random attributes removed: a set bit implies the whole conjunction may
    match that row (never looser than judging it whole), and a row whose
    full image definitely matches keeps its bit in every projection.  Rows
    and literals share a drawn pool, so conjuncts often match."""
    held = st.sampled_from(data.draw(pools(values), label="pool"))
    row_conjuncts = conditions(held, ops=("=", "!=", "<", ">="))
    images = data.draw(st.lists(st.tuples(
        rows(values=held, absent=False),
        st.sets(st.sampled_from(sorted(ATTRIBUTES)))), min_size=1,
        max_size=4))
    conjuncts = data.draw(st.lists(st.one_of(
        row_conjuncts, st.builds(disjunction, st.lists(
            row_conjuncts, min_size=2, max_size=2))), min_size=1, max_size=3))
    whole = conjunction(conjuncts)
    kept = [{name: value for name, value in full.items()
             if name.split(".")[-1] not in removed}
            for full, removed in images]
    shared = RowMatch(kept).shared(CountCache.key(whole))
    for position, (full, _) in enumerate(images):
        bit = shared >> position & 1
        if bit:
            assert may_match_row(whole, kept[position])
        if exact_match_row(whole, full) is True:
            assert bit


# -- HYPRE builder invariant ------------------------------------------------------


pair_lists = st.lists(st.tuples(st.integers(min_value=0, max_value=5),
                                st.integers(min_value=0, max_value=5),
                                qualitative), min_size=1, max_size=12)


def prefers_edges(pairs):
    """The PREFERS edges of a graph built from qualitative author pairs
    (``None`` when every pair is a self pair)."""
    profile = UserProfile(uid=1)
    for left, right, strength in pairs:
        if left != right:
            profile.add_qualitative(f"dblp_author.aid = {left}",
                                    f"dblp_author.aid = {right}", strength)
    if not profile.qualitative:
        return None
    builder = HypreGraphBuilder()
    builder.build_profile(profile)
    return builder.hypre, builder.hypre.qualitative_edges(1, (PREFERS,))


@settings(max_examples=30, deadline=None)
@given(pair_lists)
def test_builder_prefers_edges_never_violate_order(pairs):
    """After building, every PREFERS edge satisfies left intensity >= right."""
    hypre, edges = prefers_edges(pairs) or (None, ())
    for edge in edges:
        left_value = hypre.intensity_of(edge.source)
        right_value = hypre.intensity_of(edge.target)
        assert left_value is not None and right_value is not None
        assert left_value >= right_value - 1e-9


@settings(max_examples=30, deadline=None)
@given(pair_lists)
def test_builder_prefers_subgraph_is_acyclic(pairs):
    """The PREFERS subgraph never contains a directed cycle."""
    _, edges = prefers_edges(pairs) or (None, ())
    successors = {}
    for edge in edges:
        successors.setdefault(edge.source, set()).add(edge.target)
    # For every PREFERS edge u -> v there is no PREFERS path v -> u.
    for edge in edges:
        reached, frontier = {edge.target}, [edge.target]
        while frontier:
            for nxt in successors.get(frontier.pop(), ()):
                if nxt not in reached:
                    reached.add(nxt)
                    frontier.append(nxt)
        assert edge.source not in reached, edge


# -- the op generator's liveness rules -------------------------------------------

STREAM_K = 3


@pytest.fixture(scope="module")
def stream_world():
    """A small prepared world; streams only read it, at construction."""
    db = build_world(DblpConfig(n_papers=24, n_authors=10, n_venues=4, seed=3),
                     6)
    yield db
    db.close()


@settings(max_examples=60, deadline=None)
@given(weights=st.lists(st.sampled_from([0.0, 0.5, 1.0, 4.0]),
                        min_size=5, max_size=5).filter(any),
       seed=st.integers(min_value=0, max_value=10_000),
       workers=st.integers(min_value=1, max_value=4))
def test_op_streams_only_name_their_own_live_pids(stream_world, weights,
                                                  seed, workers):
    """Deletes and in-place updates name only live pids, workers never name
    each other's pids, every insert stays in its worker's pid lane, and a
    mix with inserts disabled never emits an insert — once drained it
    degrades to reads instead of resurrecting the relation.

    One worker is the replay shape (one stream owning the whole relation);
    several are concurrent streams that start empty-handed.
    """
    db = stream_world
    read, update, insert, delete, data_update = weights
    mix = OpMix(read_weight=read, update_weight=update, insert_weight=insert,
                delete_weight=delete, data_update_weight=data_update)
    uids = sorted(profile.uid for profile in db.read_profiles())
    first_free = db.max_paper_id() + 1
    streams = build_streams(db, workers, mix, uids, STREAM_K, seed)
    owned = [set(db.paper_ids()) if workers == 1 else set()
             for _ in range(workers)]
    for stream, mine in zip(streams, owned):
        others = set().union(*(other for other in owned if other is not mine))
        lane = first_free + stream.worker_id * PID_STRIDE
        for op in islice(stream, 150):
            assert not (set(op.pids) | {paper.pid for paper in op.papers}) \
                & others
            if op.kind == INSERT:
                assert insert > 0
                (paper,) = op.papers
                assert lane <= paper.pid < lane + PID_STRIDE
                assert paper.pid not in mine
                mine.add(paper.pid)
            elif op.kind == DELETE:
                (pid,) = op.pids
                assert pid in mine
                mine.remove(pid)
            elif op.kind == DATA_UPDATE:
                assert op.papers[0].pid in mine
            else:
                assert op.kind in (READ, UPDATE) and op.uid in uids
