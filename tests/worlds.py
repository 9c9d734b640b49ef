"""A load world on a named storage engine, for the tests' memory arms.

:func:`repro.loadgen.build_world` always builds SQLite, the one served
engine.  The tests that still run an arm on the columnar engine build the
same world by name: ``create_backend(engine)``, the generated workload,
then :func:`~repro.loadgen.load_population`.
"""

from __future__ import annotations

from repro.backend import create_backend
from repro.loadgen import load_population
from repro.workload.loader import load_dataset
from repro.workload.synthetic import generate_workload


def engine_world(engine, workload_config, users, profile_factory=None):
    """``build_world(workload_config, users, profile_factory)`` on ``engine``."""
    db = create_backend(engine)
    load_dataset(db, generate_workload(workload_config))
    load_population(db, users, profile_factory)
    return db
