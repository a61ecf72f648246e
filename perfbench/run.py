"""pgshapes benchmark: one closed-loop client, one CLI call at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the root of a checkout.  The package is imported from `src/` of
that checkout; inputs and spans go to `.perfbench/` there.

--trace 0 times `pgshapes.cli.main([...])` in-process with output captured
to memory, repeating rounds over the workload's instances for about S
seconds, and prints the end-to-end metrics.  --trace 1 makes one untraced
pass of the validate calls, then replays every instance once through public
pgshapes calls with a span around each, and prints the per-layer metrics.
Every verdict is checked against an answer computed without pgshapes; a
wrong one makes the run exit 1.  The last line of output is a JSON object
with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import checks
from calibrate import HostClock
from spans import Replay, Tracer, per_layer_metrics
from workloads import BUDGET, CALL_TYPES, CONVERT, EXPORT_ASP, NORMALIZE, VALIDATE, WORKLOADS, generate, write_inputs

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 9
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

E2E_UNITS = {
    "setup_s": "s",
    "validate_s_p50": "s",
    "validate_s_tail": "s",
    "validate_elements_per_s": "elements/s",
    "normalize_s_p50": "s",
    "convert_s_p50": "s",
    "export_asp_s_p50": "s",
    "decided_share": "1",
    "peak_rss_mb": "MiB",
}
COUNTERS = (
    "semantics.atoms", "solver.dep_edges", "semantics.path_pairs",
    "solver.branches", "solver.leaf_checks", "semantics.lfp_decided_share",
)


def import_package():
    """Import pgshapes from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "pgshapes" / "__init__.py").is_file():
        sys.exit(f"error: no pgshapes sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "pgshapes" or m.startswith("pgshapes.")]:
        del sys.modules[name]
    pg = importlib.import_module("pgshapes")
    importlib.import_module("pgshapes.cli")
    if Path(pg.__file__).resolve().parent != (src / "pgshapes").resolve():
        sys.exit(f"error: imported pgshapes from {pg.__file__}, not {src}")
    return pg


def setup(workload: str, seed: int, scale: str, inputs: Path, clock: HostClock):
    """Import the package, then generate and write the inputs; repeated so
    that the reported set-up time is a median, in reference seconds."""
    times, raw = [], []
    for _ in range(SETUP_REPEATS):
        clock.sample()
        t0 = time.perf_counter()
        pg = import_package()
        instances = generate(workload, seed, scale)
        write_inputs(instances, inputs)
        t1 = time.perf_counter()
        clock.sample()
        raw.append(t1 - t0)
        times.append((t1 - t0) * clock.scale(t1))
    print(f"setup wall median {statistics.median(raw):.6g} s")
    return pg, instances, statistics.median(times)


def argv_for(call: str, inst) -> list[str]:
    budget = ["--budget", str(BUDGET)]
    if call == VALIDATE:
        return ["validate", inst.graph_path, inst.shapes_path, *budget]
    if call == NORMALIZE:
        return ["validate", "--normalize", inst.graph_path, inst.shapes_path, *budget]
    if call == CONVERT:
        return ["convert", inst.graph_path]
    return ["export-asp", inst.graph_path, inst.shapes_path]


def timed_call(pg, argv: list[str]):
    """(seconds, exit code or failure name, captured stdout) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            outcome = pg.cli.main(argv)
        except SystemExit as exc:
            outcome = f"SystemExit({exc.code})"
        except RecursionError:
            outcome = "RecursionError"
        except Exception as exc:  # any crash is a failed call, never a verdict
            outcome = type(exc).__name__
        seconds = time.perf_counter() - t0
    return seconds, outcome, out.getvalue()


class Ledger:
    """Every call's time and outcome, and the first output of each call."""

    def __init__(self):
        self.times = {c: [] for c in CALL_TYPES}
        self.stamps = {c: [] for c in CALL_TYPES}
        self.attempted = {c: 0 for c in CALL_TYPES}
        self.failed = {c: 0 for c in CALL_TYPES}
        self.failures: dict[str, int] = {}
        self.decided = 0
        self.elements = 0
        self.errors: list[str] = []
        self._first: dict[tuple[str, str], tuple[object, str]] = {}

    def record(self, pg, inst, call: str, seconds: float, outcome, output: str) -> None:
        self.times[call].append(seconds)
        self.stamps[call].append(time.perf_counter())
        self.attempted[call] += 1
        if call == VALIDATE:
            self.elements += inst.graph.size
        key = (inst.name, call)
        if key in self._first:
            if self._first[key] != (outcome, output):
                self.errors.append(f"{inst.name} {call}: output changed between calls")
            return self._count(call, outcome)
        self._first[key] = (outcome, output)
        self._check(pg, inst, call, outcome, output)

    def _count(self, call: str, outcome) -> None:
        ok = outcome in (0, 1) if call in (VALIDATE, NORMALIZE) else outcome == 0
        if not ok:
            self.failed[call] += 1
            name = f"exit {outcome}" if isinstance(outcome, int) else outcome
            self.failures[f"{call}: {name}"] = self.failures.get(f"{call}: {name}", 0) + 1
        elif call == VALIDATE:
            self.decided += 1

    def _check(self, pg, inst, call, outcome, output) -> None:
        self._count(call, outcome)
        where = f"{inst.name} {call}"
        if call in (VALIDATE, NORMALIZE):
            verdict = checks.verdict_of(outcome, output)
            if outcome in (0, 1) and verdict is None:
                self.errors.append(f"{where}: exit {outcome} without a verdict line")
            elif verdict is not None and verdict != inst.expected:
                self.errors.append(f"{where}: verdict {verdict}, expected {inst.expected}")
            elif verdict:
                problem = checks.witness_error(pg, inst, output, call == NORMALIZE)
                if problem:
                    self.errors.append(f"{where}: {problem}")
        elif outcome == 0:
            check = checks.convert_error if call == CONVERT else checks.export_asp_error
            problem = check(inst, output)
            if problem:
                self.errors.append(f"{where}: {problem}")


def tail_percentile(guaranteed: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it
    (nearest rank) in every run, or 100 (the maximum) when runs are too
    short for any."""
    for p in TAIL_LADDER:
        if guaranteed - math.ceil(p / 100 * guaranteed) >= 10:
            return p
    return 100.0


def percentile(samples: list[float], p: float) -> float:
    s = sorted(samples)
    return s[max(math.ceil(p / 100 * len(s)), 1) - 1]


def round_plan(instances) -> list:
    """One round's (instance, call) pairs: the main calls in instance order,
    with the repeated side calls spread evenly among them, so that every
    call type is sampled across the whole run and not in one burst."""
    main = [(inst, c) for inst in instances if inst.repeat == 1 for c in inst.calls]
    side = [(inst, c) for inst in instances if inst.repeat > 1
            for _ in range(inst.repeat) for c in inst.calls]

    def spread(pairs):
        return [((k + 0.5) / len(pairs), pair) for k, pair in enumerate(pairs)]

    return [pair for _, pair in sorted(spread(main) + spread(side), key=lambda p: p[0])]


def run_e2e(pg, instances, seconds: float, setup_s: float, min_rounds: int, clock: HostClock):
    """Rounds over every call of every instance: at least min_rounds, then
    more while the next one is expected to end within `seconds`.  Timings
    are reported in reference seconds (see calibrate.py)."""
    ledger = Ledger()
    plan = round_plan(instances)
    start = time.perf_counter()
    rounds = 0
    clock.sample()
    while True:
        for inst, call in plan:
            secs, outcome, output = timed_call(pg, argv_for(call, inst))
            ledger.record(pg, inst, call, secs, outcome, output)
            clock.maybe_sample()
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
            break
    t = {c: [secs * clock.scale(at) for secs, at in zip(ledger.times[c], ledger.stamps[c])]
         for c in CALL_TYPES}
    v = t[VALIDATE]
    tail_p = tail_percentile(min_rounds * sum(call == VALIDATE for _, call in plan))
    metrics = {
        "setup_s": setup_s,
        "validate_s_p50": statistics.median(v),
        "validate_s_tail": percentile(v, tail_p),
        "validate_elements_per_s": ledger.elements / sum(v),
        "normalize_s_p50": statistics.median(t[NORMALIZE]),
        "convert_s_p50": statistics.median(t[CONVERT]),
        "export_asp_s_p50": statistics.median(t[EXPORT_ASP]),
        "decided_share": ledger.decided / ledger.attempted[VALIDATE],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"rounds: {rounds} in {elapsed:.2f} s; validate_s_tail is p{tail_p:g} of N={len(v)}")
    print(f"host clock: {len(clock.samples)} kernel timings, median scale {clock.overall():.4f}")
    for call in CALL_TYPES:
        wall = ledger.times[call]
        median = f", wall median {statistics.median(wall):.6g} s" if wall else ""
        print(f"{call}: attempted {ledger.attempted[call]}, failed {ledger.failed[call]}{median}")
    for name, count in sorted(ledger.failures.items()):
        print(f"  failure {name}: {count}")
    return ledger, metrics


def run_traced(pg, instances, workload: str, seed: int, setup_s: float):
    ledger = Ledger()
    for inst in instances:
        if VALIDATE in inst.calls:
            secs, outcome, output = timed_call(pg, argv_for(VALIDATE, inst))
            ledger.record(pg, inst, VALIDATE, secs, outcome, output)
    untraced = sum(ledger.times[VALIDATE])

    tracer = Tracer()
    replay = Replay(pg, tracer)
    attempted = failed = 0
    start = time.perf_counter()
    for inst in instances:
        for call in dict.fromkeys(inst.calls):
            attempted += 1
            gc.collect()
            verdict, error = replay.run(inst, call)
            if error in ("budget", "RecursionError"):
                failed += 1
            elif error:
                ledger.errors.append(f"{inst.name} {call} (traced): {error}")
            elif verdict is not None and verdict != inst.expected:
                ledger.errors.append(f"{inst.name} {call} (traced): verdict {verdict}")
    replay_s = time.perf_counter() - start
    tracer.write(OUT / f"spans-{workload}-{seed}.json")

    metrics = per_layer_metrics(tracer)
    metrics["trace.replay_s"] = (replay_s, "s")
    metrics["cli.validate_untraced_s"] = (untraced, "s")
    print(f"traced replay {replay_s:.3f} s beside untraced validate calls {untraced:.3f} s "
          f"(setup {setup_s:.3f} s)")
    print("self time by layer:")
    for layer, secs in sorted(tracer.self_times().items(), key=lambda kv: -kv[1]):
        print(f"  {layer:12s} {secs:10.4f} s")
    if replay.deps is None:
        print("solver.deps_s: absent (pgshapes.solver.atom_dependencies is gone)")
    return ledger, attempted + ledger.attempted[VALIDATE], failed + ledger.failed[VALIDATE], metrics


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> dict:
    inputs = OUT / f"inputs-{workload}-{seed}-{os.getpid()}"
    try:
        clock = HostClock()
        pg, instances, setup_s = setup(workload, seed, scale, inputs, clock)
        if trace:
            ledger, attempted, failed, metrics = run_traced(pg, instances, workload, seed, setup_s)
        else:
            ledger, raw = run_e2e(pg, instances, seconds, setup_s,
                                  WORKLOADS[workload]["min_rounds"], clock)
            metrics = {k: (v, E2E_UNITS[k]) for k, v in raw.items()}
            attempted, failed = sum(ledger.attempted.values()), sum(ledger.failed.values())
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for error in ledger.errors:
        print(f"WRONG: {error}")
    return {
        "correct": not ledger.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _missing(result: dict, declared: list[dict]) -> list[str]:
    """Declared metrics the result lacks, or reports with another unit."""
    got = result["metrics"]
    return [m["name"] for m in declared
            if m["name"] not in got or got[m["name"]]["unit"] != m["unit"]]


def self_check() -> int:
    """At the smallest sizes: every metric named in BENCHMARK.json prints with
    its unit, and two traced runs of one seed give identical counters."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in WORKLOADS:
        result = run(workload, 1, 0.5, trace=False, scale="small")
        for name in _missing(result, declared["end_to_end"]):
            problems.append(f"{workload}: end-to-end metric {name} missing or in another unit")
        if not result["correct"]:
            problems.append(f"{workload}: end-to-end verdicts wrong")
        traced = [run(workload, 1, 0.5, trace=True, scale="small") for _ in range(2)]
        for name in _missing(traced[0], declared["per_layer"]):
            problems.append(f"{workload}: per-layer metric {name} missing or in another unit")
        for name in COUNTERS:
            a, b = (r["metrics"][name]["value"] for r in traced)
            if a != b:
                problems.append(f"{workload}: {name} differs between runs ({a} vs {b})")
        if not all(r["correct"] for r in traced):
            problems.append(f"{workload}: traced verdicts wrong")
    for p in problems:
        print(f"SELF-CHECK FAILED: {p}")
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if args.self_check:
        return self_check()
    if args.workload is None:
        ap.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
