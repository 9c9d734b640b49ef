"""Helpers more than one test module uses, so no test module imports another.

:func:`engine_world` builds ``build_world``'s world (always SQLite) on a
named engine, for the tests' memory arms.  The rest count calls, join
threads under a deadline and sign a built graph.
"""

from __future__ import annotations

import time

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


#: Upper bound on any single concurrent phase; generous on purpose — it
#: only ever bites when something deadlocks.
DEADLINE_SECONDS = 60.0


def join_with_deadline(threads, timeout=DEADLINE_SECONDS):
    """Join daemon ``threads``; returns the names still alive at timeout."""
    deadline = time.monotonic() + timeout
    for thread in threads:
        thread.join(max(0.1, deadline - time.monotonic()))
    return [thread.name for thread in threads if thread.is_alive()]


def start_and_join(threads, timeout=DEADLINE_SECONDS):
    for thread in threads:
        thread.start()
    stuck = join_with_deadline(threads, timeout)
    assert not stuck, f"threads still running at the deadline: {stuck}"


def count_calls(monkeypatch, owner, name):
    """Replace ``owner.name`` by a pass-through recording each call's args."""
    original = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def graph_signature(hypre, report, uid):
    """Every node's text, intensity and provenance in id order, every edge
    in insertion order, and the report's counters."""
    nodes = [(node.predicate, node.intensity, node.source)
             for node in map(hypre._nodes.__getitem__, hypre.user_node_ids(uid))]
    edges = [(edge.source, edge.target, edge.rel_type, edge.intensity)
             for edge in hypre._edges]
    counters = {name: value for name, value in report.as_dict().items()
                if not name.endswith("_seconds")}
    return nodes, edges, counters
