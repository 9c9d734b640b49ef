"""Bench regression gate against the committed baseline (ISSUE 7).

Replays the exact load matrix of :mod:`bench_loadgen` — every
``processes x shards x backend`` cell, same world, same closed-loop
shape — and compares each fresh cell against the matching cell of the
**committed** ``BENCH_loadgen.json`` at the repository root.

What is compared, and with what tolerance, is explicit below:

* **tail latency** — fresh p95/p99 must stay within
  ``LATENCY_FACTOR``x of the committed cell, plus an absolute
  ``LATENCY_SLACK_MS`` allowance (CI machines are slower and noisier than
  the machine that wrote the baseline; a real regression — a lock held
  across SQL, a cache stampede — moves the tail by far more than this);
* **SQL work per operation** — ``backend.<name>.statements_executed /
  ops`` (from the run's ``server_stats``, the server's ``metrics()``) must stay
  within ``SQL_PER_OP_FACTOR``x plus ``SQL_PER_OP_SLACK`` of the
  committed cell. This is the cache-effectiveness gate: latency may be
  machine-dependent, but statements-per-op barely is, so its tolerance is
  much tighter;
* **correctness is not a tolerance** — every fresh cell must be clean
  (zero worker errors, zero audit mismatches), exactly like the baseline.

The committed baseline is regenerated by running ``bench_loadgen.py``
(which writes ``BENCH_loadgen.json``) and committing the result; this
module never writes it.
"""

from __future__ import annotations

from repro.loadgen import load_and_validate

from bench_loadgen import BACKENDS, PROCESS_COUNTS, SHARD_COUNTS, _run_cell
from bench_utils import REPO_ROOT, run_once

BASELINE_PATH = REPO_ROOT / "BENCH_loadgen.json"

#: Explicit tolerances (see the module docstring for the rationale).
LATENCY_FACTOR = 8.0
LATENCY_SLACK_MS = 25.0
SQL_PER_OP_FACTOR = 2.0
SQL_PER_OP_SLACK = 1.0


def _sql_per_op(run: dict) -> float:
    statements = run["server_stats"][
        f"backend.{run['backend']}.statements_executed"]
    return statements / max(run["ops"], 1)


def _cell_key(run: dict):
    return (run["backend"], run["shards"], run["processes"])


def _load_baseline() -> dict:
    document = load_and_validate(str(BASELINE_PATH))
    baseline = {_cell_key(run): run for run in document["payload"]["runs"]}
    expected = {(backend, shards, processes)
                for backend in BACKENDS for shards in SHARD_COUNTS
                for processes in PROCESS_COUNTS}
    assert set(baseline) == expected, (
        f"committed baseline covers {sorted(baseline)}, "
        f"expected {sorted(expected)} — regenerate BENCH_loadgen.json")
    return baseline


def test_no_regression_against_committed_baseline(benchmark):
    """Every fresh matrix cell stays within tolerance of the committed one."""
    baseline = _load_baseline()

    fresh = {}
    timed = False
    for backend in BACKENDS:
        for shards in SHARD_COUNTS:
            for processes in PROCESS_COUNTS:
                if not timed:
                    record = run_once(benchmark, _run_cell, backend, shards,
                                      processes)
                    timed = True
                else:
                    record = _run_cell(backend, shards, processes)
                fresh[(backend, shards, processes)] = record

    failures = []
    print()
    for key in sorted(fresh):
        backend, shards, processes = key
        base, run = baseline[key], fresh[key]
        label = f"{backend}/shards={shards}/procs={processes}"

        # Correctness gates: absolute, never a tolerance.
        assert not run["errors"], f"{label}: worker errors {run['errors']}"
        assert run["audit"]["mismatches"] == 0, f"{label}: audit mismatches"

        for quantile in ("p95_ms", "p99_ms"):
            allowed = (base["latency"][quantile] * LATENCY_FACTOR
                       + LATENCY_SLACK_MS)
            got = run["latency"][quantile]
            if got > allowed:
                failures.append(
                    f"{label} {quantile}: {got:.2f}ms > allowed "
                    f"{allowed:.2f}ms (baseline "
                    f"{base['latency'][quantile]:.2f}ms)")

        base_spo, got_spo = _sql_per_op(base), _sql_per_op(run)
        allowed_spo = base_spo * SQL_PER_OP_FACTOR + SQL_PER_OP_SLACK
        if got_spo > allowed_spo:
            failures.append(
                f"{label} sql/op: {got_spo:.3f} > allowed "
                f"{allowed_spo:.3f} (baseline {base_spo:.3f})")

        print(f"  {label:<18} p95 {run['latency']['p95_ms']:>8.2f}ms "
              f"(base {base['latency']['p95_ms']:>8.2f}ms)  "
              f"p99 {run['latency']['p99_ms']:>8.2f}ms "
              f"(base {base['latency']['p99_ms']:>8.2f}ms)  "
              f"sql/op {got_spo:.3f} (base {base_spo:.3f})")

    assert not failures, "bench regression(s):\n" + "\n".join(failures)
