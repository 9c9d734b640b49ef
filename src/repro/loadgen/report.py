"""Schema-versioned persistence of load-harness results.

Load runs land in ``BENCH_loadgen.json`` at the repository root — one file
per trajectory point, so successive PRs can diff throughput, tail latency
and lock contention across commits.  The envelope is shared with every
other ``BENCH_*.json`` the repo writes (``benchmarks/bench_utils.py``
delegates here):

* ``schema_version`` — bumped whenever a consumer-visible key changes;
* ``bench`` / ``created_by`` — which harness produced the file;
* ``git_sha`` — the commit the numbers belong to (``"unknown"`` outside a
  git checkout);
* ``payload`` — the harness-specific body.

:func:`validate_loadgen_payload` is the structural check the CI smoke job
runs on the artifact before uploading it: every SLO consumer key (p50/p95/
p99, throughput at saturation, per-shard skew, lock and audit sections)
must be present in every run record with a sane type.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

#: Bump when a consumer-visible key of the envelope or payload changes.
#: v2 added the per-run ``telemetry`` section (the unified metrics/trace
#: snapshot from :mod:`repro.telemetry`; ``{}`` for runs made without it).
#: v3 added a required per-run ``processes`` count.
#: v4 made the per-run ``server_stats`` section required and flat: it is
#: the server's ``metrics()`` mapping (unified ``layer.component.metric``
#: names) instead of the removed nested ``stats()`` tree.
#: v5 dropped ``processes``: the harness drives one process.
SCHEMA_VERSION = 5

#: Keys every per-run record must carry, with their required types.
RUN_REQUIRED_KEYS: Dict[str, type] = {
    "mode": str,
    "backend": str,
    "shards": int,
    "threads": int,
    "duration_seconds": float,
    "ops": int,
    "throughput_ops_per_sec": float,
    "latency": dict,
    "latency_by_kind": dict,
    "per_shard_requests": list,
    "shard_skew": float,
    "locks": list,
    "audit": dict,
    "server_stats": dict,
    "errors": list,
    "telemetry": dict,
}

#: Keys every latency summary must carry (see LatencyHistogram.as_dict).
LATENCY_REQUIRED_KEYS = ("count", "p50_ms", "p95_ms", "p99_ms",
                         "min_ms", "mean_ms", "max_ms")


def git_sha(cwd: Optional[str] = None) -> str:
    """The current commit sha, or ``"unknown"`` without git."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=cwd, capture_output=True,
            text=True, timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = completed.stdout.strip()
    return sha if completed.returncode == 0 and sha else "unknown"


def bench_envelope(name: str, payload: Mapping[str, Any],
                   cwd: Optional[str] = None) -> Dict[str, Any]:
    """The shared ``BENCH_*.json`` envelope around ``payload``."""
    return {
        "schema_version": SCHEMA_VERSION,
        "bench": name,
        "created_by": "repro",
        "git_sha": git_sha(cwd),
        "payload": dict(payload),
    }


def write_bench_json(path: str, name: str,
                     payload: Mapping[str, Any]) -> Dict[str, Any]:
    """Write the enveloped ``payload`` to ``path``; returns the document."""
    document = bench_envelope(name, payload,
                              cwd=str(Path(path).resolve().parent))
    Path(path).write_text(json.dumps(document, indent=2, sort_keys=True)
                          + "\n")
    return document


def loadgen_payload(runs: Sequence[Mapping[str, Any]],
                    config: Mapping[str, Any]) -> Dict[str, Any]:
    """The ``BENCH_loadgen.json`` payload body for a set of run records."""
    return {"config": dict(config), "runs": [dict(run) for run in runs]}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(f"invalid loadgen report: {message}")


def _check_latency(summary: Mapping[str, Any], label: str) -> None:
    for key in LATENCY_REQUIRED_KEYS:
        _require(key in summary, f"{label} missing {key!r}")
        _require(isinstance(summary[key], (int, float)),
                 f"{label}[{key!r}] is not numeric")
    _require(summary["p50_ms"] <= summary["p95_ms"] <= summary["p99_ms"],
             f"{label} quantiles are not monotone")


def validate_loadgen_payload(document: Mapping[str, Any]) -> int:
    """Structurally validate a ``BENCH_loadgen.json`` document.

    Raises :class:`ValueError` naming the first violation; returns the
    number of run records checked (so callers can assert coverage too).
    """
    _require(document.get("schema_version") == SCHEMA_VERSION,
             f"schema_version != {SCHEMA_VERSION}")
    _require(document.get("bench") == "loadgen", "bench != 'loadgen'")
    _require(isinstance(document.get("git_sha"), str), "git_sha missing")
    payload = document.get("payload")
    _require(isinstance(payload, Mapping), "payload missing")
    runs = payload.get("runs")
    _require(isinstance(runs, list) and runs, "payload.runs missing or empty")
    for position, run in enumerate(runs):
        label = f"runs[{position}]"
        _require(isinstance(run, Mapping), f"{label} is not an object")
        for key, expected in RUN_REQUIRED_KEYS.items():
            _require(key in run, f"{label} missing {key!r}")
            value = run[key]
            if expected is float:
                _require(isinstance(value, (int, float)),
                         f"{label}[{key!r}] is not numeric")
            else:
                _require(isinstance(value, expected),
                         f"{label}[{key!r}] is not {expected.__name__}")
        _check_latency(run["latency"], f"{label}.latency")
        for kind, summary in run["latency_by_kind"].items():
            _check_latency(summary, f"{label}.latency_by_kind[{kind!r}]")
        _require(len(run["per_shard_requests"]) == run["shards"],
                 f"{label}.per_shard_requests length != shards")
        _require(run["mode"] in ("closed", "open"),
                 f"{label}.mode not in closed/open")
        for record in run["locks"]:
            for key in ("name", "acquisitions", "contended",
                        "wait_seconds", "hold_seconds"):
                _require(key in record, f"{label}.locks missing {key!r}")
        for key in ("audits", "comparisons", "mismatches"):
            _require(key in run["audit"], f"{label}.audit missing {key!r}")
        statements = f"backend.{run['backend']}.statements_executed"
        _require(isinstance(run["server_stats"].get(statements), (int, float)),
                 f"{label}.server_stats missing {statements!r}")
        if run["telemetry"]:
            # Non-empty means the run carried a Telemetry — hold the section
            # to the exporter's own envelope contract.
            for key in ("schema_version", "metrics"):
                _require(key in run["telemetry"],
                         f"{label}.telemetry missing {key!r}")
    return len(runs)


def load_and_validate(path: str) -> Dict[str, Any]:
    """Read ``path`` and validate it as a loadgen report; returns the doc."""
    document = json.loads(Path(path).read_text())
    validate_loadgen_payload(document)
    return document
