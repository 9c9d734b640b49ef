"""The world a run drives: one DBLP relation plus a synthetic population.

Plain functions, no class.  :func:`build_world` generates a DBLP workload,
loads it into a fresh SQLite :class:`~repro.sqldb.database.Database` and
persists one small profile per user of the :func:`population`;
:func:`load_population` does the last step alone on a world built some
other way (a test's second engine, say).  Two calls with the same arguments
build identical worlds, which is what makes a serving arm and an uncached
arm comparable op for op.
"""

from __future__ import annotations

from typing import List, Sequence

from ..backend.protocol import StorageBackend
from ..core.preference import ProfileRegistry, UserProfile
from ..exceptions import ServingError
from ..serving.ops import venue_predicate
from ..sqldb.database import Database
from ..workload.dblp import DblpConfig, generate_dblp
from ..workload.loader import load_dataset, load_profiles

#: First population uid (kept clear of extractor-mined profiles).
UID_BASE = 10_001


def population(users: int) -> List[int]:
    """The uids of a ``users``-strong population, in Zipf-rank order."""
    return [UID_BASE + index for index in range(users)]


def initial_profile(uid: int, venues: Sequence[str], lo: int,
                    hi: int) -> UserProfile:
    """The population's profile shape: two venue likes plus a narrow year band.

    Venue choices rotate with the uid so a single inserted paper's venue
    touches only a slice of the population — that is what makes the result
    cache's data-side invalidation measurably selective.
    """
    profile = UserProfile(uid=uid)
    first = venues[uid % len(venues)]
    second = venues[(uid * 5 + 2) % len(venues)]
    profile.add_quantitative(venue_predicate(first), 0.9)
    if second != first:
        profile.add_quantitative(venue_predicate(second), 0.7)
    span = max(1, hi - lo - 1)
    start = lo + (uid % span)
    profile.add_quantitative(
        f"dblp.year >= {start} AND dblp.year <= {start + 1}", 0.5)
    return profile


def load_population(db: StorageBackend, users: int) -> ProfileRegistry:
    """Persist one :func:`initial_profile` per population user into ``db``'s
    staging tables."""
    if users < 1:
        raise ServingError("a world needs at least one user")
    venues, lo, hi = db.workload_shape()
    if not venues:
        raise ServingError("world has no papers loaded")
    registry = ProfileRegistry()
    for uid in population(users):
        registry.add(initial_profile(uid, venues, lo, hi))
    load_profiles(db, registry)
    return registry


def build_world(workload_config: DblpConfig, users: int) -> Database:
    """A fresh in-memory SQLite database holding the generated DBLP workload
    and the population."""
    db = Database()
    load_dataset(db, generate_dblp(workload_config))
    load_population(db, users)
    return db
