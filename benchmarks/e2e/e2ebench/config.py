"""Benchmark configuration: ``config.json`` (workloads, calibration constant,
pinned input digests) and the metric names declared in ``BENCHMARK.json``."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Tuple

BENCH_DIR = Path(__file__).resolve().parents[1]
REPO_ROOT = BENCH_DIR.parents[1]
CONFIG_PATH = BENCH_DIR / "config.json"
BENCHMARK_PATH = REPO_ROOT / "BENCHMARK.json"

#: Op kinds, in the order the mix weights are read.
READ, PROFILE, INSERT, DELETE, UPDATE = range(5)
KIND_NAMES = ("read", "profile", "insert", "delete", "update")


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload's parameters (see the table in the README)."""

    name: str
    kind: str               # "stream" (Zipf op stream) or "cold" (each user once)
    clients: int
    backend: str
    population: str         # "all" or "typical"
    users: int              # sampled users (per unit for "cold")
    capacity: int           # session-LRU capacity of the server
    mix: Tuple[float, ...]  # weights in KIND_NAMES order
    segment_ops: int        # ops between two calibration spins (all clients)
    warmup_units: int       # untimed units after priming
    check_every: int        # oracle checkpoint every N units
    min_units: int          # sample floor of a timed run
    max_units: int          # sizes the sample buffers; a run never exceeds it
    trace_units: int        # fixed length of a traced run at run_seconds
    tail_users: int = 0     # "cold": richest users represented by their median

    @property
    def unit_ops(self) -> int:
        """Ops in one unit — the smallest balanced piece of the schedule."""
        return self.users if self.kind == "cold" else self.segment_ops


@dataclass(frozen=True)
class Config:
    raw: Dict[str, Any]
    workloads: Dict[str, WorkloadSpec]

    def __getitem__(self, key: str) -> Any:
        return self.raw[key]


def _spec(name: str, raw: Dict[str, Any]) -> WorkloadSpec:
    mix = raw.get("mix", {"read": 1.0})
    unknown = set(mix) - set(KIND_NAMES)
    if unknown:
        raise ValueError(f"workload {name}: unknown op kinds {sorted(unknown)}")
    fields = {key: raw[key] for key in (
        "kind", "clients", "backend", "population", "users", "capacity",
        "segment_ops", "check_every", "min_units", "max_units", "trace_units")}
    return WorkloadSpec(
        name=name, mix=tuple(float(mix.get(kind, 0.0)) for kind in KIND_NAMES),
        warmup_units=raw.get("warmup_units", 0),
        tail_users=raw.get("tail_users", 0), **fields)


def load_config(path: Path = CONFIG_PATH) -> Config:
    raw = json.loads(path.read_text())
    workloads = {}
    for name, entry in raw["workloads"].items():
        if "like" in entry:
            # Same schedule parameters as the named workload; only the
            # overridden keys (backend, clients) differ.
            entry = {**raw["workloads"][entry["like"]],
                     **{k: v for k, v in entry.items() if k != "like"}}
        workloads[name] = _spec(name, entry)
    return Config(raw=raw, workloads=workloads)


def load_benchmark(path: Path = BENCHMARK_PATH) -> Dict[str, Any]:
    return json.loads(path.read_text())
