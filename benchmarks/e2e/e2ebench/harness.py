"""Executes one pass of a schedule against a freshly built world.

A pass is closed-loop: each client sends its next op when the previous one
returned.  Every op is timed by the harness clock around the public
front-door call; durations are calibrated per segment (see ``clock``).
Oracle checkpoints, priming and warm-up are untimed and excluded from the
counters and spans.
"""

from __future__ import annotations

import hashlib
import resource
import sys
import threading
import time
import traceback
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.telemetry import instrument_locks

from .clock import Calibrator
from .config import DELETE, INSERT, PROFILE, READ, UPDATE, Config, WorkloadSpec
from .oracle import Oracle, rounded, wrong_answers
from .schedule import Op, Schedule, Unit, schedule_digest
from .tracing import SPAN_NAMES, SpanRecorder, fold
from .world import SETUP_PHASES, World, build_world, input_digests, populations


class ClientLog:
    """One client's samples: raw then calibrated op durations (ns) and kinds.

    Buffers are allocated (and touched) up front at the schedule's maximum
    length, so peak memory does not depend on how many ops a run completes.
    """

    def __init__(self, capacity: int) -> None:
        self.durations = array("d", bytes(8 * capacity))
        self.kinds = array("b", bytes(capacity))
        self.count = 0
        self.failed = 0
        self.hits = 0

    def values(self, *kinds: int) -> array:
        """Calibrated durations of the ops of the given kinds."""
        logged = self.kinds[:self.count].tobytes()
        if sum(logged.count(kind) for kind in kinds) == self.count:
            return self.durations[:self.count]
        wanted = set(kinds)
        return array("d", (self.durations[i] for i in range(self.count)
                           if self.kinds[i] in wanted))


@dataclass
class PassResult:
    spec: WorkloadSpec
    logs: List[ClientLog]
    #: Calibrated time of each unit: op time for one client (closed loop, so
    #: harness overhead between ops is excluded), wall time for several.
    unit_ns: List[float] = field(default_factory=list)
    raw_ns: float = 0.0             # uncalibrated op time, all clients
    wrong: int = 0
    checks: int = 0
    counters: Dict[str, float] = field(default_factory=dict)
    lock_wait_ms: float = 0.0
    peak_rss_mb: float = 0.0
    spans: Optional[Dict[str, Tuple[int, float, float]]] = None
    span_count: int = 0
    rankings_digest: str = ""
    digests: Dict[str, str] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return sum(log.count for log in self.logs)

    @property
    def failed(self) -> int:
        return sum(log.failed for log in self.logs)

    @property
    def units(self) -> int:
        return len(self.unit_ns)

    @property
    def spent_ns(self) -> float:
        return sum(self.unit_ns)

    def values(self, *kinds: int) -> array:
        merged = array("d")
        for log in self.logs:
            merged.extend(log.values(*kinds))
        return merged


def peak_rss_mb() -> float:
    """Peak resident set of this process's own address space.

    ``VmHWM`` rather than ``ru_maxrss``: after ``exec`` the latter still
    includes the peak of the process that spawned this one.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def execute(server: Any, k: int, ops: List[Op], log: ClientLog,
            recorder: Optional[SpanRecorder] = None,
            rankings: Optional[List[Any]] = None) -> None:
    """Run ``ops`` in order against ``server``, logging one sample per op."""
    now = time.perf_counter_ns
    top_k = server.top_k
    calls: Dict[int, Callable[..., Any]] = {
        PROFILE: server.update_profile, INSERT: server.insert_tuples,
        DELETE: server.delete_tuples, UPDATE: server.update_tuples}
    durations, kinds, at = log.durations, log.kinds, log.count
    for op in ops:
        kind = op[0]
        if kind == READ:
            call, args = top_k, (op[1], k)
        else:
            call, args = calls[kind], op[1:]
        if recorder is not None:
            recorder.op = at
        started = now()
        try:
            result = call(*args)
        except Exception:  # boundary: a failed op is counted, the run goes on
            ended = now()
            log.failed += 1
            if log.failed == 1:     # one traceback per client is enough
                traceback.print_exc(file=sys.stderr)
        else:
            ended = now()
            if kind == READ:
                log.hits += result.cache_hit
                if rankings is not None:
                    rankings.append(result.ranking)
        durations[at] = ended - started
        kinds[at] = kind
        at += 1
    log.count = at
    if recorder is not None:
        recorder.op = -1


def _run_segment(server: Any, k: int, segment: List[List[Op]],
                 logs: List[ClientLog], recorder: Optional[SpanRecorder],
                 rankings: Optional[List[Any]]) -> int:
    """Run one segment on all clients; returns its raw wall time (ns)."""
    started = time.perf_counter_ns()
    if len(segment) == 1:
        execute(server, k, segment[0], logs[0], recorder, rankings)
        return time.perf_counter_ns() - started
    errors: List[BaseException] = []

    def client(index: int) -> None:
        try:
            execute(server, k, segment[index], logs[index])
        except BaseException as error:  # re-raised on the main thread below
            errors.append(error)

    threads = [threading.Thread(target=client, args=(index,))
               for index in range(len(segment))]
    for thread in threads:
        thread.start()
    for thread in threads:      # the barrier between two segments
        thread.join()
    if errors:
        raise errors[0]
    return time.perf_counter_ns() - started


def _counters(server: Any) -> Dict[str, float]:
    flat = dict(server.metrics())
    flat["backend.statements"] = flat.pop(
        f"backend.{server.db.backend_name}.statements_executed")
    flat["backend.rows_touched"] = server.db.rows_touched
    return flat


class _CounterSum:
    """Sums counter deltas over the timed stretches of a pass."""

    def __init__(self) -> None:
        self.total: Dict[str, float] = {}
        self._base: Dict[str, float] = {}

    def resume(self, server: Any) -> None:
        self._base = _counters(server)

    def pause(self, server: Any) -> None:
        for key, value in _counters(server).items():
            self.total[key] = self.total.get(key, 0) + value - self._base[key]


def setup_worlds(spec: WorkloadSpec, cal: Calibrator, reps: int,
                 ) -> Tuple[World, List[Dict[str, float]]]:
    """Build the world ``reps`` times; keep the last one.

    Returns it with each repetition's calibrated phase times in seconds
    (``setup_s`` is reported as the median over repetitions).
    """
    world: Optional[World] = None
    timings: List[Dict[str, float]] = []
    after = cal.spin()
    for _ in range(reps):
        if world is not None:
            world.close()
        before = after
        world = build_world(spec.backend, spec.capacity)
        after = cal.spin()
        scale = cal.scale(before, after)
        timing = {phase: world.phase_ns[phase] * scale / 1e9
                  for phase in SETUP_PHASES}
        timing["setup"] = sum(timing.values())
        timings.append(timing)
    assert world is not None
    return world, timings


def _rankings_digest(rankings: List[Any]) -> str:
    digest = hashlib.sha256()
    encoded: Dict[Any, bytes] = {}
    for ranking in rankings:
        text = encoded.get(ranking)
        if text is None:
            text = encoded[ranking] = repr(rounded(ranking)).encode()
        digest.update(text)
    return digest.hexdigest()


def run_pass(cfg: Config, spec: WorkloadSpec, seed: int, world: World,
             cal: Calibrator, *, seconds: Optional[float] = None,
             units: Optional[int] = None, trace: bool = False,
             keep_rankings: bool = False) -> PassResult:
    """One pass over ``world`` (which it mutates).

    Either ``seconds`` (stop after the first unit predicted to overrun the
    budget, never before ``min_units``) or ``units`` (a fixed length, so
    counts repeat exactly) bounds the pass.  ``trace`` installs the span
    recorder, or lock instrumentation on a multi-client workload.
    """
    if (seconds is None) == (units is None):
        raise ValueError("bound a pass by seconds or by units, not both")
    k = cfg["k"]
    pops = populations(world.registry, cfg["typical_max_preferences"])
    schedule = Schedule(spec, seed, world.dataset, pops)
    server = world.server
    limit = spec.max_units if units is None else units
    per_client = limit * spec.unit_ops // spec.clients
    result = PassResult(spec, [ClientLog(per_client) for _ in range(spec.clients)])
    result.digests = input_digests(world)
    result.digests["schedule_digest"] = schedule_digest(
        spec, seed, world.dataset, pops, spec.warmup_units + spec.trace_units)

    for uid in schedule.prime:
        server.top_k(uid, k)
    scratch = [ClientLog(spec.unit_ops) for _ in range(spec.clients)]
    for _ in range(spec.warmup_units):
        for log in scratch:
            log.count = 0
        for segment in schedule.next_unit().segments:
            _run_segment(server, k, segment, scratch, None, None)
    if any(log.failed for log in scratch):
        raise RuntimeError("an op failed during warm-up")

    recorder = SpanRecorder() if trace and spec.clients == 1 else None
    locks = instrument_locks(server) if trace and spec.clients > 1 else None
    rankings: Optional[List[Any]] = [] if keep_rankings else None
    counters = _CounterSum()
    span_marks: List[Tuple[int, float]] = []    # (span count so far, scale)
    checked = True
    unit: Optional[Unit] = None
    if recorder is not None:
        recorder.install(type(world.db))
    try:
        budget_ns = None if seconds is None else seconds * 1e9
        pass_started = time.perf_counter_ns()
        after = cal.spin()
        while result.units < limit:
            unit_started = time.perf_counter_ns()
            unit = schedule.next_unit()
            if unit.fresh_server:
                server = world.fresh_server(spec.capacity)
            counters.resume(server)
            unit_ns = 0.0
            for segment in unit.segments:
                first = [log.count for log in result.logs]
                before = after
                wall = _run_segment(server, k, segment, result.logs,
                                    recorder, rankings)
                after = cal.spin()
                scale = cal.scale(before, after)
                raw_busy = 0.0
                for log, start in zip(result.logs, first):
                    durations = log.durations
                    for i in range(start, log.count):
                        raw_busy += durations[i]
                        durations[i] *= scale
                result.raw_ns += raw_busy
                unit_ns += (raw_busy if spec.clients == 1 else wall) * scale
                if recorder is not None:
                    span_marks.append((len(recorder), scale))
            counters.pause(server)
            result.unit_ns.append(unit_ns)
            checked = result.units % spec.check_every == 0
            if checked:
                result.wrong += _checkpoint(cfg, schedule, unit, server, world)
                result.checks += 1
            if budget_ns is not None and result.units >= spec.min_units:
                now = time.perf_counter_ns()
                if now - pass_started + (now - unit_started) > budget_ns:
                    break
        if not checked and unit is not None:
            result.wrong += _checkpoint(cfg, schedule, unit, server, world)
            result.checks += 1
    finally:
        if recorder is not None:
            recorder.uninstall()
    # Read before any post-processing: folding and sorting allocate.
    result.peak_rss_mb = peak_rss_mb()
    result.counters = counters.total
    if locks is not None:
        result.lock_wait_ms = 1e3 * sum(
            record["wait_seconds"] for record in locks.report())
        locks.uninstrument()
    if recorder is not None:
        result.spans = _fold_spans(recorder, span_marks)
        result.span_count = len(recorder)
    if rankings is not None:
        result.rankings_digest = _rankings_digest(rankings)
    return result


def _checkpoint(cfg: Config, schedule: Schedule, unit: Unit, server: Any,
                world: World) -> int:
    uids = schedule.check_sample(unit, cfg["check_users"])
    return wrong_answers(server, Oracle(world.db), uids, cfg["k"])


def _fold_spans(recorder: SpanRecorder, marks: List[Tuple[int, float]],
                ) -> Dict[str, Tuple[int, float, float]]:
    scales: List[float] = []
    for upto, scale in marks:
        scales.extend([scale] * (upto - len(scales)))
    # Spans recorded outside any op (oracle checkpoints) carry op id -1.
    keep = [i for i in range(len(scales)) if recorder.op_id[i] >= 0]
    remap = {old: new for new, old in enumerate(keep)}
    folded = fold([recorder.name[i] for i in keep],
                  [recorder.start[i] for i in keep],
                  [recorder.end[i] for i in keep],
                  [remap.get(recorder.parent[i], -1) for i in keep],
                  [scales[i] for i in keep])
    return {SPAN_NAMES[name]: value for name, value in folded.items()}
