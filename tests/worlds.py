"""A load world on a named storage engine, for the tests' memory arms.

:func:`repro.loadgen.build_world` always builds SQLite, the one served
engine.  The tests that still run an arm on the columnar engine build the
same world by name: ``create_backend(engine)``, the generated DBLP
workload, then :func:`~repro.loadgen.load_population`.
"""

from __future__ import annotations

from repro.backend import create_backend
from repro.loadgen import load_population
from repro.workload.dblp import generate_dblp
from repro.workload.loader import load_dataset


def engine_world(engine, workload_config, users):
    """``build_world(workload_config, users)`` on ``engine``."""
    db = create_backend(engine)
    load_dataset(db, generate_dblp(workload_config))
    load_population(db, users)
    return db
