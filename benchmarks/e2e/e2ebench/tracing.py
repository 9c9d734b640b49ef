"""Span recorder installed from outside the program, at run time.

``install`` wraps the public methods that form the layer boundaries; every
call records one span — name, start, end, parent (the enclosing span) and the
id of the op that caused it.  Spans stay in memory as five parallel arrays
and are folded once, after the pass: a span's *self time* is its duration
minus the durations of its direct children.

The recorder keeps one stack, so it is installed on single-client passes
only; the two-client workload installs lock instrumentation instead.
"""

from __future__ import annotations

import time
from array import array
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro import (HypreGraphBuilder, IncrementalPairIndex, PEPSAlgorithm,
                   ResultCache, SessionRegistry, TopKServer, CountCache)

#: (class or "backend", method, span name).  "backend" is resolved to the
#: concrete engine class of the world under test.
WRAP_POINTS: Tuple[Tuple[Any, str, str], ...] = (
    (TopKServer, "top_k", "serving.server.top_k"),
    (TopKServer, "update_profile", "serving.server.update_profile"),
    (TopKServer, "insert_tuples", "serving.server.mutation"),
    (TopKServer, "delete_tuples", "serving.server.mutation"),
    (TopKServer, "update_tuples", "serving.server.mutation"),
    (ResultCache, "get", "serving.results.get"),
    (ResultCache, "put", "serving.results.put"),
    (ResultCache, "on_data_mutation", "serving.results.sweep"),
    (SessionRegistry, "get_or_create", "serving.sessions.get_or_create"),
    (SessionRegistry, "invalidate_matching", "serving.sessions.invalidate"),
    (HypreGraphBuilder, "build_profile", "core.hypre.build_profile"),
    (PEPSAlgorithm, "top_k", "algorithms.peps.top_k"),
    (PEPSAlgorithm, "order_combinations", "algorithms.peps.order_combinations"),
    (IncrementalPairIndex, "refresh", "index.pair_index.refresh"),
    (IncrementalPairIndex, "invalidate_matching", "index.pair_index.invalidate"),
    (CountCache, "invalidate_matching", "index.count_cache.invalidate"),
    ("backend", "count_many", "backend.query"),
    ("backend", "count_matching", "backend.query"),
    ("backend", "matching_paper_ids", "backend.query"),
    ("backend", "joined_rows", "backend.query"),
    ("backend", "append_papers", "backend.write"),
    ("backend", "delete_papers", "backend.write"),
    ("backend", "update_papers", "backend.write"),
    ("backend", "load_profiles", "backend.profile_io"),
    ("backend", "read_profiles", "backend.profile_io"),
)

SPAN_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(p[2] for p in WRAP_POINTS))


class SpanRecorder:
    """In-memory span store; ``op`` is set by the harness before each op."""

    def __init__(self) -> None:
        self.name = array("b")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.op_id = array("l")
        self.op = -1
        self._top = -1
        self._patched: List[Tuple[Any, str, Any, bool]] = []

    def __len__(self) -> int:
        return len(self.name)

    def _wrap(self, function: Callable[..., Any], name_id: int) -> Callable[..., Any]:
        now = time.perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(self.name)
            self.name.append(name_id)
            self.parent.append(self._top)
            self.op_id.append(self.op)
            self.start.append(0)
            self.end.append(0)
            enclosing, self._top = self._top, index
            started = now()
            try:
                return function(*args, **kwargs)
            finally:
                self.end[index] = now()
                self.start[index] = started
                self._top = enclosing

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced

    def install(self, backend_class: type) -> None:
        for owner, method, span_name in WRAP_POINTS:
            cls = backend_class if owner == "backend" else owner
            own = method in vars(cls)
            original = getattr(cls, method)
            self._patched.append((cls, method, original, own))
            setattr(cls, method, self._wrap(original, SPAN_NAMES.index(span_name)))

    def uninstall(self) -> None:
        for cls, method, original, own in reversed(self._patched):
            if own:
                setattr(cls, method, original)
            else:
                delattr(cls, method)
        self._patched.clear()


def fold(names: Sequence[int], starts: Sequence[int], ends: Sequence[int],
         parents: Sequence[int], scales: Sequence[float],
         ) -> Dict[int, Tuple[int, float, float]]:
    """Fold spans into ``name id -> (calls, self time, total time)``.

    ``scales[i]`` calibrates span ``i``'s clock readings; times come back in
    calibrated nanoseconds.  Self time is duration minus direct children.
    """
    count = len(names)
    children = [0] * count
    for i in range(count):
        parent = parents[i]
        if parent >= 0:
            children[parent] += ends[i] - starts[i]
    folded: Dict[int, List[float]] = {}
    for i in range(count):
        duration = ends[i] - starts[i]
        entry = folded.setdefault(names[i], [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += (duration - children[i]) * scales[i]
        entry[2] += duration * scales[i]
    return {name: (int(v[0]), v[1], v[2]) for name, v in folded.items()}
