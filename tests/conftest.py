"""Shared fixtures for the HYPRE test suite."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.algorithms.base import PreferenceQueryRunner, make_preferences
from repro.core.preference import UserProfile
from repro.experiments.context import ExperimentContext
from repro.sqldb.database import Database
from repro.workload.dblp import DblpConfig, generate_dblp
from repro.workload.loader import load_dataset

#: ``HYPOTHESIS_PROFILE=ci`` runs ten times the default examples; CI runs the
#: server state machine (``test_server_machine.py``) under it.
settings.register_profile("ci", max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def tiny_dataset():
    """A deterministic ~300-paper synthetic citation network."""
    return generate_dblp(DblpConfig(n_papers=300, n_authors=120, n_venues=10, seed=7))


@pytest.fixture(scope="session")
def tiny_db(tiny_dataset):
    """The tiny dataset loaded into an in-memory SQLite database."""
    db = Database(":memory:")
    load_dataset(db, tiny_dataset)
    yield db
    db.close()


@pytest.fixture(scope="session")
def tiny_runner(tiny_db):
    """A memoising query runner over the tiny database."""
    return PreferenceQueryRunner(tiny_db)


@pytest.fixture(scope="session")
def tiny_context():
    """A fully built experiment context at the smallest scale."""
    ctx = ExperimentContext.create(scale="tiny", profile_users=15)
    yield ctx
    ctx.close()


@pytest.fixture()
def dblp_profile():
    """The running example of Section 3.3 — preferences P1..P8 for one user."""
    profile = UserProfile(uid=1)
    profile.add_quantitative("year >= 2000 AND year <= 2005", 0.3)       # P1
    profile.add_quantitative("year >= 2005 AND year <= 2009", 0.5)       # P2
    profile.add_quantitative("year >= 2009", 0.8)                        # P3
    profile.add_quantitative("venue = 'INFOCOM'", -1.0)                  # P4
    # Relative preference: recent VLDB preferred over older VLDB (P5 > P6).
    profile.add_qualitative("venue = 'VLDB' AND year >= 2010",
                            "venue = 'VLDB' AND year < 2010", 0.8)
    # Preference set: VLDB slightly preferred over papers after 2009 (P7 > P3).
    profile.add_qualitative("venue = 'VLDB'", "year >= 2009", 0.2)
    # Different levels of intensity: VLDB a bit more than SIGMOD (P7 > P8).
    profile.add_quantitative("venue = 'SIGMOD'", 0.8)                    # P8 score
    profile.add_qualitative("venue = 'VLDB'", "venue = 'SIGMOD'", 0.3)
    return profile


@pytest.fixture()
def dealership_rows():
    """Table 8 — the dealership relation used by Example 6."""
    return [
        {"id": "t1", "price": 7000, "mileage": 43489, "make": "Honda"},
        {"id": "t2", "price": 16000, "mileage": 35334, "make": "VW"},
        {"id": "t3", "price": 20000, "mileage": 49119, "make": "Honda"},
    ]


@pytest.fixture()
def dealership_preferences():
    """Example 6 — the three scored preferences over car entities."""
    return make_preferences([
        ("price >= 7000 AND price <= 16000", 0.8),
        ("mileage >= 20000 AND mileage <= 50000", 0.5),
        ("make IN ('BMW', 'Honda')", 0.2),
    ])
