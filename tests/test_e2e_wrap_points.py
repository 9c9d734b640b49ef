"""Every method the end-to-end tracer wraps exists in this tree.

``benchmarks/e2e/e2ebench/tracing.py`` wraps layer boundaries by name
(``WRAP_POINTS``: owner class or ``"backend"``, method, span name).  A
renamed or deleted method would otherwise fail only when the e2e harness
runs.  The list is read from the file as it stands, and each name is checked
on its owner class, or for ``"backend"`` on every storage engine.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.backend import BACKEND_NAMES, create_backend

TRACING = (Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
           / "e2ebench" / "tracing.py")


def _wrap_points():
    spec = importlib.util.spec_from_file_location("e2e_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAP_POINTS


def _engines():
    classes = []
    for name in BACKEND_NAMES:
        db = create_backend(name)
        classes.append(type(db))
        db.close()
    return classes


WRAP_POINTS = _wrap_points()
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
