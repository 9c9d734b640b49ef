#!/usr/bin/env python3
"""The repository's end-to-end benchmark — one command.

Driver contract (one workload, one pass, one process)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

prints every metric as ``workload metric value unit`` and, as the last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding the
``end_to_end`` metrics of ``BENCHMARK.json`` (``--trace 0``) or its
``per_layer`` metrics (``--trace 1``).

Without ``--trace`` it runs every workload (or ``--workload NAME``), each pass
in its own child process so ``peak_rss_mb`` is per workload, and ends with
one JSON document of all results; ``--repeat R`` repeats the timed pass on
seeds ``seed .. seed+R-1``.  ``--compare A.json B.json`` applies the bounds
to two such documents.  ``--smoke`` is a <30 s pass over every workload.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, NoReturn, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

EXIT_NO_PROGRAM = 2
EXIT_INPUTS_MOVED = 3

def _fail(code: int, message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def _import_bench() -> None:
    """Put the program and the benchmark package on ``sys.path``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        _fail(EXIT_NO_PROGRAM, f"program source not found under {SRC}")
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def _emit(workload: str, metrics: Dict[str, Any]) -> None:
    for name, (value, unit) in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"{workload} {name} {shown} {unit}")


def _check_pinned(cfg: Any, spec: Any, seed: int, digests: Dict[str, str],
                  smoke: bool) -> None:
    """Exit non-zero when the inputs differ from the pinned ones: a run on
    other inputs cannot be compared with its parent."""
    pinned = cfg["pinned"]
    expected = {key: pinned[key] for key in ("dataset_digest", "profiles_digest")}
    if seed == cfg["default_seed"] and not smoke:
        expected["schedule_digest"] = pinned["schedule_digests"][spec.name]
    for key, value in expected.items():
        if digests[key] != value:
            _fail(EXIT_INPUTS_MOVED,
                  f"{spec.name}: {key} is {digests[key]}, pinned {value}")


def run_single(args: argparse.Namespace) -> int:
    """One workload, one pass, in this process (the driver contract)."""
    _import_bench()
    from e2ebench import report
    from e2ebench.clock import Calibrator
    from e2ebench.config import load_benchmark, load_config
    from e2ebench.harness import run_pass, setup_worlds

    cfg = load_config()
    declared = load_benchmark()
    if args.workload not in cfg.workloads:
        _fail(1, f"unknown workload {args.workload!r}; "
                 f"pick one of {', '.join(cfg.workloads)}")
    spec = cfg.workloads[args.workload]
    reps = cfg["setup_reps"]
    if args.smoke:
        spec = dataclasses.replace(
            spec, users=max(4, spec.users // 4), capacity=max(2, spec.capacity // 4),
            min_units=1)
        reps = 1
        cfg.raw["percentile_floor"] = 1     # too short for the sample floors
    cal = Calibrator(cfg["cal_ref_ms"], cfg["spin_iterations"])
    section = "per_layer" if args.trace else "end_to_end"

    passes = []
    if not args.trace:
        world, timings = setup_worlds(spec, cal, reps)
        result = run_pass(cfg, spec, args.seed, world, cal, seconds=args.seconds)
        world.close()
        metrics = report.end_to_end(cfg, result, timings)
        extra = report.info(result, cal)
    else:
        units = max(1, round(spec.trace_units * args.seconds / cfg["run_seconds"]))
        world, timings = setup_worlds(spec, cal, 1)
        reference = run_pass(cfg, spec, args.seed, world, cal, units=units,
                             keep_rankings=True)
        world.close()
        world, more = setup_worlds(spec, cal, 1)
        result = run_pass(cfg, spec, args.seed, world, cal, units=units, trace=True)
        world.close()
        metrics = report.per_layer(cfg, reference, result, timings + more, cal)
        extra = report.info(result, cal)
        extra["spans"] = (result.span_count, "count")
        extra["rankings_digest"] = (reference.rankings_digest, "sha256")
        passes.append(reference)
    passes.append(result)
    _check_pinned(cfg, spec, args.seed, result.digests, args.smoke)
    extra.update({key: (value, "sha256") for key, value in result.digests.items()})

    _emit(spec.name, {**extra, **metrics})
    missing = [entry["name"] for entry in declared[section]
               if entry["name"] not in metrics]
    if missing:
        _fail(1, f"{spec.name}: no value for declared metrics {missing}")
    print(json.dumps({
        "correct": not any(done.wrong for done in passes),
        "attempted": result.attempted,
        "failed": sum(done.failed for done in passes),
        "metrics": {entry["name"]: {"value": metrics[entry["name"]][0],
                                    "unit": entry["unit"]}
                    for entry in declared[section]},
    }))
    return 0


def print_pins() -> int:
    """Print the ``pinned`` block of ``config.json`` for the current inputs
    (after a deliberate change of the world or of the schedule generator)."""
    _import_bench()
    from e2ebench.config import load_config
    from e2ebench.schedule import schedule_digest
    from e2ebench.world import build_world, input_digests, populations

    cfg = load_config()
    world = build_world("sqlite", 1)
    pops = populations(world.registry, cfg["typical_max_preferences"])
    pins: Dict[str, Any] = dict(input_digests(world))
    pins["schedule_digests"] = {
        name: schedule_digest(spec, cfg["default_seed"], world.dataset, pops,
                              spec.warmup_units + spec.trace_units)
        for name, spec in cfg.workloads.items()}
    world.close()
    print(json.dumps({"pinned": pins}, indent=2))
    return 0


# -- orchestration: every workload, each pass in a child process ----------------


def _child(workload: str, seed: int, seconds: float, trace: int,
           smoke: bool) -> Dict[str, Any]:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)] + (["--smoke"] if smoke else [])
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        _fail(done.returncode or 1, f"{workload} (trace {trace}) failed")
    values: Dict[str, Any] = {}
    for line in lines[:-1]:
        print(line)
        _, name, value, _unit = line.split(" ")
        try:
            values[name] = float(value)
        except ValueError:
            values[name] = value
    return {"seed": seed, "values": values, "result": json.loads(lines[-1])}


def run_all(args: argparse.Namespace) -> int:
    _import_bench()
    from e2ebench.config import load_config

    cfg = load_config()
    seed = cfg["default_seed"] if args.seed is None else args.seed
    seconds = cfg["run_seconds"] if args.seconds is None else args.seconds
    if args.smoke:
        seconds = seconds / 20
    names = [args.workload] if args.workload else list(cfg.workloads)
    document: Dict[str, Any] = {"seed": seed, "seconds": seconds,
                                "smoke": args.smoke, "workloads": {}}
    for name in names:
        timed = [_child(name, seed + i, seconds, 0, args.smoke)
                 for i in range(args.repeat)]
        traced = None if args.smoke else _child(name, seed, seconds, 1, False)
        document["workloads"][name] = {"timed": timed, "traced": traced}
    text = json.dumps(document, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(json.dumps(document))
    passes = [run for entry in document["workloads"].values()
              for run in entry["timed"] + ([entry["traced"]] if entry["traced"] else [])]
    bad = [run for run in passes
           if not run["result"]["correct"] or run["result"]["failed"]]
    return 1 if bad else 0


# -- comparison of two result documents -----------------------------------------


def run_compare(parent_path: str, change_path: str) -> int:
    """Print ``ok / worse / unresolved`` per (workload, end-to-end metric) and
    whether the single-client per-layer counts repeat exactly."""
    sys.path.insert(0, str(HERE))
    from e2ebench.config import load_benchmark
    from e2ebench.stats import compare

    declared = load_benchmark()
    parent = json.loads(Path(parent_path).read_text())["workloads"]
    change = json.loads(Path(change_path).read_text())["workloads"]
    verdicts: List[str] = []
    for workload in parent:
        if workload not in change:
            continue
        for entry in declared["end_to_end"]:
            name = entry["name"]
            sets = [[run["result"]["metrics"][name]["value"] for run in side[workload]["timed"]]
                    for side in (parent, change)]
            if min(map(len, sets)) < 2:
                print(f"{workload} {name} unresolved (needs --repeat >= 2)")
                verdicts.append("unresolved")
                continue
            outcome = compare(sets[0], sets[1], entry["better"], entry["bound"])
            verdicts.append(str(outcome["verdict"]))
            print(f"{workload} {name} {outcome['verdict']} "
                  f"parent={outcome['parent_median']:.6g} "
                  f"change={outcome['change_median']:.6g} {entry['unit']} "
                  f"worse_by={outcome['worse_by']:+.3f} "
                  f"spread={outcome['spread']:.3f} bound={entry['bound']}")
        traces = [side[workload].get("traced") for side in (parent, change)]
        if all(traces):
            units = {e["name"]: e["unit"] for e in declared["per_layer"]}
            first, second = (t["result"]["metrics"] for t in traces)
            moved = [n for n in first
                     if (units[n] == "count" or n.endswith("hit_share"))
                     and first[n]["value"] != second[n]["value"]]
            print(f"{workload} per-layer counts "
                  f"{'identical' if not moved else 'differ: ' + ', '.join(moved)}")
    return 1 if "worse" in verdicts else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--repeat", type=int, default=1,
                        help="timed passes per workload, on consecutive seeds")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at 1/20 of the run length")
    parser.add_argument("--out", help="also write the result document here")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    parser.add_argument("--pins", action="store_true",
                        help="print the input digests to pin in config.json")
    args = parser.parse_args(argv)
    if args.pins:
        return print_pins()
    if args.compare:
        return run_compare(*args.compare)
    if args.trace is None:
        return run_all(args)
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--trace needs --workload, --seed and --seconds")
    return run_single(args)


if __name__ == "__main__":
    sys.exit(main())
