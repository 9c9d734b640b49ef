"""Turns pass results into named metrics (``name -> (value, unit)``)."""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Tuple

from .clock import Calibrator
from .config import DELETE, INSERT, PROFILE, READ, UPDATE, Config
from .harness import PassResult
from .stats import medians, percentile
from .world import SETUP_PHASES

Metrics = Dict[str, Tuple[float, str]]


def _share(part: float, rest: float) -> float:
    return part / (part + rest) if part + rest else 0.0


def ops_per_s(result: PassResult) -> float:
    """Ops per calibrated second: of op time for one client, of wall time
    for several (see ``PassResult.unit_ns``)."""
    return result.attempted / (result.spent_ns / 1e9)


def latency_metrics(cfg: Config, result: PassResult) -> Metrics:
    """Per-kind front-door latencies; a percentile without enough samples
    beyond it is left out."""
    floor = cfg["percentile_floor"]
    metrics: Metrics = {}
    groups = (("read", (READ,)), ("write", (INSERT, DELETE, UPDATE)),
              ("profile_update", (PROFILE,)))
    for label, kinds in groups:
        values = result.values(*kinds)
        metrics[f"{label}_samples"] = (len(values), "count")
        if not values:
            continue
        metrics[f"{label}_mean_ms"] = (statistics.fmean(values) / 1e6, "ms")
        for q, tag in ((0.5, "p50"), (0.9, "p90")):
            value = percentile(values, q, floor)
            if value is not None:
                metrics[f"{label}_{tag}_ms"] = (value / 1e6, "ms")
    reads = sum(log.kinds[:log.count].tobytes().count(READ) for log in result.logs)
    if reads:
        metrics["read_hit_share"] = (
            sum(log.hits for log in result.logs) / reads, "ratio")
    return metrics


def end_to_end(cfg: Config, result: PassResult,
               timings: List[Dict[str, float]]) -> Metrics:
    metrics = latency_metrics(cfg, result)
    metrics["setup_s"] = (medians(timings)["setup"], "s")
    metrics["ops_per_s"] = (ops_per_s(result), "1/s")
    metrics["peak_rss_mb"] = (result.peak_rss_mb, "MB")
    return metrics


def info(result: PassResult, cal: Calibrator) -> Metrics:
    """Printed beside the metrics as information; never gated."""
    return {
        "units": (result.units, "count"),
        "attempted": (result.attempted, "count"),
        "failed_share": (result.failed / max(1, result.attempted), "ratio"),
        "wrong_answers": (result.wrong, "count"),
        "oracle_checks": (result.checks, "count"),
        "raw_time_s": (result.raw_ns / 1e9, "s"),
        "calibrated_time_s": (result.spent_ns / 1e9, "s"),
        **calibration(cal),
    }


def calibration(cal: Calibrator) -> Metrics:
    spins = [value / 1e6 for value in cal.spins_ns]
    return {"calib.spin_ms_p50": (statistics.median(spins), "ms"),
            "calib.spin_ms_max": (max(spins), "ms")}


def _span(result: PassResult, name: str) -> Tuple[int, float]:
    calls, self_ns, _ = (result.spans or {}).get(name, (0, 0.0, 0.0))
    return calls, self_ns / 1e6


def per_layer(cfg: Config, reference: PassResult, traced: PassResult,
              timings: List[Dict[str, float]], cal: Calibrator) -> Metrics:
    """Per-layer metrics of a traced pass.

    ``reference`` is the untraced pass over the same ops: it gives the
    front-door latencies and the base of ``trace.overhead_share``.
    """
    c = traced.counters
    setup = medians(timings)
    m: Metrics = {f"workload.{phase}_s": (setup[phase], "s")
                  for phase in SETUP_PHASES if phase != "server"}

    def spans(metric: str, span: str, calls: Optional[str] = None) -> None:
        count, self_ms = _span(traced, span)
        if calls:
            m[calls] = (count, "count")
        m[metric] = (self_ms, "ms")

    spans("backend.query_self_ms", "backend.query", "backend.query_calls")
    spans("backend.write_self_ms", "backend.write", "backend.write_calls")
    spans("backend.profile_io_self_ms", "backend.profile_io")
    m["backend.statements"] = (c["backend.statements"], "count")
    m["backend.rows_touched"] = (c["backend.rows_touched"], "count")

    m["index.count_cache.hit_share"] = (
        _share(c["index.count_cache.hits"], c["index.count_cache.misses"]), "ratio")
    m["index.count_cache.statements"] = (c["index.count_cache.statements"], "count")
    spans("index.count_cache.invalidate_self_ms", "index.count_cache.invalidate")
    spans("index.pair_index.refresh_self_ms", "index.pair_index.refresh",
          "index.pair_index.refresh_calls")
    spans("index.pair_index.invalidate_self_ms", "index.pair_index.invalidate",
          "index.pair_index.invalidate_calls")

    spans("core.hypre.build_profile_self_ms", "core.hypre.build_profile",
          "core.hypre.build_profile_calls")
    spans("algorithms.peps.top_k_self_ms", "algorithms.peps.top_k",
          "algorithms.peps.top_k_calls")
    spans("algorithms.peps.order_combinations_self_ms",
          "algorithms.peps.order_combinations")

    m["serving.sessions.hit_share"] = (
        _share(c["serving.sessions.hits"], c["serving.sessions.misses"]), "ratio")
    m["serving.sessions.builds"] = (c["serving.sessions.sessions_built"], "count")
    m["serving.sessions.evictions"] = (c["serving.sessions.evictions"], "count")
    spans("serving.sessions.get_or_create_self_ms", "serving.sessions.get_or_create")
    spans("serving.sessions.invalidate_self_ms", "serving.sessions.invalidate")

    m["serving.results.hit_share"] = (
        _share(c["serving.results.hits"], c["serving.results.misses"]), "ratio")
    spans("serving.results.get_self_ms", "serving.results.get")
    spans("serving.results.put_self_ms", "serving.results.put")
    spans("serving.results.sweep_self_ms", "serving.results.sweep")
    m["serving.results.repairs"] = (c["serving.result_cache.repairs"], "count")
    m["serving.results.repair_fallbacks"] = (
        c["serving.result_cache.repair_fallbacks"], "count")
    m["serving.results.invalidated"] = (
        c["serving.results.profile_invalidations"]
        + c["serving.results.data_invalidations"], "count")
    m["serving.results.stale_puts_rejected"] = (
        c["serving.results.stale_puts_rejected"], "count")

    spans("serving.server.top_k_self_ms", "serving.server.top_k")
    spans("serving.server.update_profile_self_ms", "serving.server.update_profile")
    spans("serving.server.mutation_self_ms", "serving.server.mutation")
    m["serving.server.stripe_acquisitions"] = (
        c["serving.server.stripe_acquisitions"], "count")
    m["serving.server.lock_wait_ms"] = (traced.lock_wait_ms, "ms")

    # Front-door latencies as the client sees them, from the untraced pass;
    # 0 where the workload has no such op or too few samples for the percentile.
    latencies = latency_metrics(cfg, reference)
    for name in ("read_p50_ms", "read_p90_ms", "read_hit_share", "write_p50_ms",
                 "profile_update_p50_ms"):
        value, unit = latencies.get(name, (0.0, "ratio" if "share" in name else "ms"))
        m[f"serving.server.{name}"] = (value, unit)

    base, with_trace = reference.spent_ns, traced.spent_ns
    m["trace.overhead_share"] = ((with_trace - base) / base, "ratio")
    self_ns = sum(value[1] for value in (traced.spans or {}).values())
    m["trace.self_time_share"] = (self_ns / base, "ratio")
    m.update(calibration(cal))
    return m
