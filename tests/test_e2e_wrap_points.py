"""Every method the end-to-end tracer wraps exists in this tree.

``benchmarks/e2e/e2ebench/tracing.py`` wraps layer boundaries by name
(``WRAP_POINTS``: owner class or ``"backend"``, method, span name).  A
renamed or deleted method would otherwise fail only when the e2e harness
runs.  The list is read from the file as it stands, and each name is checked
on its owner class, or for ``"backend"`` on every storage engine.  The
tracer's own recorder then checks that a server mutation still passes
through each per-layer sweep boundary once, so a refactor cannot leave a
sweep row reading zero.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.backend import BACKEND_NAMES, create_backend
from repro.core.preference import UserProfile
from repro.serving import TopKServer
from repro.workload.dblp import DblpConfig, generate_dblp
from repro.workload.loader import load_dataset

TRACING = (Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
           / "e2ebench" / "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("e2e_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _engines():
    classes = []
    for name in BACKEND_NAMES:
        db = create_backend(name)
        classes.append(type(db))
        db.close()
    return classes


TRACER = _tracing()
WRAP_POINTS = TRACER.WRAP_POINTS
ENGINES = _engines()


def test_both_engines_are_checked():
    assert len(ENGINES) == len(BACKEND_NAMES) == 2
    assert any(owner == "backend" for owner, _, _ in WRAP_POINTS)


@pytest.mark.parametrize(
    "owner, method",
    [(owner, method) for owner, method, _ in WRAP_POINTS],
    ids=[f"{getattr(owner, '__name__', owner)}.{method}"
         for owner, method, _ in WRAP_POINTS])
def test_wrapped_method_exists(owner, method):
    for cls in ENGINES if owner == "backend" else [owner]:
        assert callable(getattr(cls, method, None)), \
            f"{cls.__name__} has no method {method!r}"


#: The spans one sweep opens: each store's share, and the runner's counts.
SWEEP_SPANS = ("serving.results.sweep", "serving.sessions.invalidate",
               "index.count_cache.invalidate")


@pytest.mark.parametrize("door", ["insert", "delete", "update"])
def test_a_server_mutation_passes_each_sweep_boundary_once(door):
    db = create_backend("sqlite")
    load_dataset(db, generate_dblp(
        DblpConfig(n_papers=60, n_authors=20, n_venues=4, seed=7)))
    with TopKServer(db) as server:
        profile = UserProfile(uid=1)
        profile.add_quantitative("dblp.year >= 2005", 0.8)
        server.update_profile(1, profile)
        server.top_k(1, 5)
        paper = dict(db.joined_rows([1])[0])
        recorder = TRACER.SpanRecorder()
        recorder.install(type(db))
        try:
            if door == "insert":
                server.insert_tuples([dict(paper, pid=90_001)])
            elif door == "delete":
                server.delete_tuples([1])
            else:
                server.update_tuples([dict(paper, year=paper["year"] + 1)])
        finally:
            recorder.uninstall()
    db.close()
    names = [TRACER.SPAN_NAMES[index] for index in recorder.name]
    assert names.count("serving.server.mutation") == 1
    for name in SWEEP_SPANS:
        assert names.count(name) == 1, name
