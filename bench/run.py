"""Run one workload of the bftsim benchmark and print its metrics.

    python3 bench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports bftsim from that checkout's
``src/``.  ``--seed`` generates the workload's inputs.  With ``--trace 0`` the
last line of output is a JSON object with the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of one traced pass.  Lines
before it are a readable summary: failures, the report digest and the
environment.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

from reference import NOMINAL_SECONDS, reference_seconds, scale
from tracing import Tracer
from workloads import WORKLOADS, RunInput, build_pass

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_SETUPS = 11        # set-up is timed at least this often
COVERAGE_TOLERANCE = 0.05   # traced self times must cover the traced wall time within 5%

END_TO_END_UNITS = {
    "runs_per_s": "1/s",
    "run_ms_p50": "ms",
    "run_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "engine.queue.pushes": "count",
    "engine.queue.pops": "count",
    "engine.queue.stale_frac": "frac",
    "engine.queue.heap_peak": "count",
    "engine.queue.self_ms": "ms",
    "engine.ledger.calls": "count",
    "engine.ledger.self_ms": "ms",
    "engine.scenario_build_ms": "ms",
    "engine.sim_init_ms": "ms",
    "engine.loop.self_ms": "ms",
    "engine.events_per_s": "1/s",
    "engine.log.bytes": "bytes",
    "engine.exchange.calls": "count",
    **{f"fsm.{fn}.{stat}": unit
       for fn in ("classify_delay", "checksum_oracle", "byzantine_fsm_step", "next_interval")
       for stat, unit in (("calls", "count"), ("self_ms", "ms"))},
    "checkpoint.take.calls": "count",
    "checkpoint.take.self_ms": "ms",
    "checkpoint.lookup.calls": "count",
    "checkpoint.lookup.self_ms": "ms",
    "checkpoint.tcc_round.calls": "count",
    "checkpoint.rollback_loss.calls": "count",
    "checkpoint.images_peak": "count",
    "checkpoint.image_use_frac": "frac",
    "scheduler.rank.calls": "count",
    "scheduler.rank.self_ms": "ms",
    "scheduler.rank.servers": "count",
    "scheduler.select.calls": "count",
    "scheduler.select.self_ms": "ms",
    "scheduler.assign.self_ms": "ms",
    "scheduler.record_failure.calls": "count",
    "metrics.record.calls": "count",
    "metrics.self_ms": "ms",
    "metrics.emit_bytes": "bytes",
    "config.validate_ms": "ms",
    "python.gc_ms": "ms",
    "python.gc_collections": "count",
    "trace.overhead_frac": "frac",
}


def say(text: str) -> None:
    print(f"bench: {text}", flush=True)


# -- the program under test ------------------------------------------------

def import_bftsim() -> SimpleNamespace:
    """Import bftsim afresh from this checkout's sources."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "bftsim" or m.startswith("bftsim.")]:
        del sys.modules[name]
    importlib.import_module("bftsim")
    engine = sys.modules["bftsim.engine"]
    if not Path(engine.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"bench: imported bftsim from {engine.__file__}, not from {SRC}")
    return SimpleNamespace(config=sys.modules["bftsim.config"], engine=engine)


def set_up(workload, seed: int, scenarios: int | None = None):
    """Import bftsim, validate the configs and build every scenario of the pass."""
    start = time.perf_counter()
    bft = import_bftsim()
    runs = build_pass(bft, workload, seed, ROOT, scenarios)
    return bft, runs, time.perf_counter() - start


def execute(engine, run: RunInput):
    """One run: build the simulation, run it, emit its report (and join its log)."""
    sim = engine.Simulation(run.scenario, scheduler=run.scheduler,
                            checkpoint_policy=run.checkpoint_policy,
                            collect_log=run.collect_log)
    report, log_lines = sim.run()
    text = report.emit("json")
    log_bytes = len("\n".join(log_lines) + "\n") if run.collect_log else 0
    return report, text, log_bytes


def check(run: RunInput, report) -> str | None:
    """The output checks every run must pass; returns what failed, if anything."""
    s = report.scalars
    parts = (s["useful_work_total"] + s["lost_work_total"]
             + s["pause_time_total"] + s["restore_time_total"])
    if parts != s["active_time_total"]:
        return f"accounting identity broken: {parts} != {s['active_time_total']}"
    if run.jobs_expected is not None and s["jobs_completed"] != run.jobs_expected:
        return f"jobs_completed {s['jobs_completed']} != {run.jobs_expected}"
    return None


# -- timing and checking passes ----------------------------------------------

class Results:
    """What the runs of one pass list did, over all its repeats.

    ``attempted`` and ``failed`` count the distinct runs of the pass, so they
    depend on the seed only, not on how many repeats the host's speed allowed.
    """

    def __init__(self, size: int):
        self.times = [[] for _ in range(size)]      # per input: scaled seconds of each repeat
        self.host_s = 0.0                           # unscaled host seconds of every repeat
        self.item_hashes = [None] * size            # per input: hash of its first output
        self.digest = hashlib.sha256()              # over every input's first output
        self.attempted = 0
        self.failed_inputs: set[int] = set()
        self.wrong = 0          # check failures and outputs that changed between repeats
        self.errors = Counter()
        self.log_bytes = 0

    @property
    def failed(self) -> int:
        return len(self.failed_inputs)

    def record(self, index: int, run: RunInput, item: str,
               failure: str | None = None, wrong: bool = False) -> None:
        """Count one run; ``item`` is its digest entry, ``failure`` why it failed."""
        item_hash = hashlib.sha256(item.encode()).digest()
        if self.item_hashes[index] is None:
            self.attempted += 1
            self.item_hashes[index] = item_hash
            self.digest.update(item.encode())
        elif self.item_hashes[index] != item_hash:
            failure, wrong = f"{run.label}: output differs between repeats", True
        elif failure is not None:
            return      # the same failure as the first time, counted then
        if failure is not None:
            self.failed_inputs.add(index)
            self.wrong += wrong
            self.errors[failure] += 1


def run_pass(engine, runs: list[RunInput], results: Results, tracer: Tracer | None = None,
             scaled: bool = False) -> float:
    """Execute every input once; returns the summed host run time in seconds.

    With ``scaled`` the reference work is timed before every run and after
    the last, and each run's time is scaled by the mean of its two
    neighbouring reference times (see reference.py).  Otherwise the times
    recorded are host seconds.
    """
    clock = time.perf_counter
    total = 0.0
    reference = reference_seconds() if scaled else NOMINAL_SECONDS
    for index, run in enumerate(runs):
        if tracer is not None:
            tracer.begin_run()
        start = clock()
        try:
            report, text, log_bytes = execute(engine, run)
        except Exception as exc:   # a failed run is counted, and the loop goes on
            seconds = clock() - start
            error = f"{type(exc).__name__}: {exc}"
            results.record(index, run, f"{run.label}\nerror: {error}\n", error)
        else:
            seconds = clock() - start
            problem = check(run, report)
            failure = None if problem is None else f"{run.label}: {problem}"
            results.record(index, run, f"{run.label}\n{text}", failure,
                           wrong=problem is not None)
            results.log_bytes += log_bytes
        if tracer is not None:
            tracer.end_run()
        after = reference_seconds() if scaled else NOMINAL_SECONDS
        results.times[index].append(scale(seconds, reference, after))
        results.host_s += seconds
        reference = after
        total += seconds
    return total


# -- reporting -------------------------------------------------------------

def environment() -> str:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10, check=True)
            commit = done.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "bftsim").glob("*.py")):
        source.update(path.read_bytes())
    return (f"python={platform.python_version()} nproc={os.cpu_count()} "
            f"commit={commit} source_sha256={source.hexdigest()[:16]}")


def summarize(workload: str, runs: list[RunInput], results: Results, passes: int) -> None:
    say(f"{workload}: pass of {len(runs)} runs, timed {passes}x; "
        f"{results.attempted} attempted, {results.failed} failed, "
        f"failed_frac {results.failed / results.attempted:.4f}")
    for problem, count in results.errors.most_common():
        say(f"  failure x{count}: {problem}")
    say(f"digest sha256:{results.digest.hexdigest()} over {len(runs)} runs")


def emit_result(results: Results, correct: bool, metrics: dict, units: dict) -> None:
    for name, unit in units.items():
        say(f"  {name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": results.attempted,
        "failed": results.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }), flush=True)


# -- the two modes ---------------------------------------------------------

def measure(workload, seed: int, seconds: float, scenarios: int | None = None,
            min_setups: int = MIN_SETUPS) -> tuple[Results, bool, dict]:
    """End-to-end metrics of one workload, untraced.

    The loop times every run of the pass once per repeat, in whole passes,
    until ``seconds`` have passed, and sets the program up again after every
    pass.  Each time is scaled to a host of reference speed (reference.py),
    and every metric is a median over the repeats.
    """
    setups = []

    def timed_set_up():
        before = reference_seconds()
        bft, runs, spent = set_up(workload, seed, scenarios)
        setups.append(scale(spent, before, reference_seconds()))
        return bft, runs

    bft, runs = timed_set_up()
    results = Results(len(runs))
    loop_start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - loop_start < seconds:
        run_pass(bft.engine, runs, results, scaled=True)
        passes += 1
        gc.collect()
        timed_set_up()
    while len(setups) < min_setups:
        timed_set_up()
    summarize(workload.name, runs, results, passes)

    scaled = [statistics.median(ts) for ts in results.times]
    say(f"timings: median of {passes} repeats for each of {len(runs)} runs "
        f"(p50/p90 over {len(runs)} samples), median of {len(setups)} set-ups, "
        f"scaled to reference speed")
    say(f"host speed: {len(runs) * passes / results.host_s:.4g} runs/s unscaled, "
        f"host ran {results.host_s / sum(sum(ts) for ts in results.times):.3f}x "
        f"the reference time")
    metrics = {
        "runs_per_s": len(runs) / sum(scaled),
        "run_ms_p50": statistics.median(scaled) * 1000,
        "run_ms_p90": statistics.quantiles(scaled, n=10, method="inclusive")[8] * 1000,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return results, results.wrong == 0, metrics


def trace(workload, seed: int, scenarios: int | None = None) -> tuple[Results, bool, dict]:
    """Per-layer metrics of one traced pass, checked against an untraced pass."""
    tracer = Tracer()
    bft = import_bftsim()
    tracer.install(bft.config, bft.engine)
    runs = build_pass(bft, workload, seed, ROOT, scenarios)
    calls, self_s = tracer.calls, tracer.self_s
    scenario_build_ms = 1000 * self_s["engine.scenario_build"] / calls["from_config"]
    validate_ms = 1000 * self_s["config.validate"] / calls["validate_config"]
    tracer.reset()
    traced = Results(len(runs))
    traced_s = run_pass(bft.engine, runs, traced, tracer)
    tracer.uninstall()
    untraced = Results(len(runs))
    untraced_s = run_pass(bft.engine, runs, untraced)
    summarize(workload.name, runs, traced, 1)

    correct = traced.wrong == 0 and untraced.wrong == 0
    if traced.digest.digest() != untraced.digest.digest():
        say("FAIL: the traced pass's digest differs from the untraced pass's")
        correct = False
    coverage = sum(self_s.values()) / traced_s
    say(f"span self times cover {coverage:.4f} of the traced run time "
        f"(tolerance {COVERAGE_TOLERANCE})")
    if abs(1 - coverage) > COVERAGE_TOLERANCE:
        say("FAIL: span self times do not account for the traced run time")
        correct = False

    n = len(runs)
    pops = calls["advance"]
    counts = tracer.counts

    def ms(group):
        return 1000 * self_s[group] / n

    metrics = {
        "engine.queue.pushes": calls["push"] / n,
        "engine.queue.pops": pops / n,
        "engine.queue.stale_frac": counts["stale_events"] / pops if pops else 0.0,
        "engine.queue.heap_peak": counts["heap_peak"] / n,
        "engine.queue.self_ms": ms("engine.queue"),
        "engine.ledger.calls": sum(calls[f] for f in
                                   ("settle", "add_block", "completion_time", "stop")) / n,
        "engine.ledger.self_ms": ms("engine.ledger"),
        "engine.scenario_build_ms": scenario_build_ms,
        "engine.sim_init_ms": ms("engine.sim_init"),
        "engine.loop.self_ms": ms("engine.loop"),
        "engine.events_per_s": pops / untraced_s,
        "engine.log.bytes": traced.log_bytes / n,
        "engine.exchange.calls": calls["exchange"] / n,
        "checkpoint.take.calls": calls["take"] / n,
        "checkpoint.take.self_ms": ms("checkpoint.take"),
        "checkpoint.lookup.calls": (calls["latest_clean"] + calls["latest"]) / n,
        "checkpoint.lookup.self_ms": ms("checkpoint.lookup"),
        "checkpoint.tcc_round.calls": calls["tcc_round"] / n,
        "checkpoint.rollback_loss.calls": calls["rollback_loss"] / n,
        "checkpoint.images_peak": counts["images"] / n,
        "checkpoint.image_use_frac": (counts["images_used"] / counts["images"]
                                      if counts["images"] else 0.0),
        "scheduler.rank.calls": calls["rank_servers"] / n,
        "scheduler.rank.self_ms": ms("scheduler.rank"),
        "scheduler.rank.servers": counts["servers_ranked"] / n,
        "scheduler.select.calls": calls["select_servers"] / n,
        "scheduler.select.self_ms": ms("scheduler.select"),
        "scheduler.assign.self_ms": ms("scheduler.assign"),
        "scheduler.record_failure.calls": calls["record_failure"] / n,
        "metrics.record.calls": calls["record"] / n,
        "metrics.self_ms": ms("metrics"),
        "metrics.emit_bytes": counts["emit_bytes"] / n,
        "config.validate_ms": validate_ms,
        "python.gc_ms": 1000 * tracer.gc_s / n,
        "python.gc_collections": tracer.gc_collections / n,
        "trace.overhead_frac": traced_s / untraced_s - 1,
    }
    for fn in ("classify_delay", "checksum_oracle", "byzantine_fsm_step", "next_interval"):
        metrics[f"fsm.{fn}.calls"] = calls[fn] / n
        metrics[f"fsm.{fn}.self_ms"] = ms(f"fsm.{fn}")
    return traced, correct, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bftsim" / "__init__.py").is_file():
        print(f"bench: no bftsim sources at {SRC / 'bftsim'}; run from a checkout",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    say(f"workload={workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    say(f"env {environment()}")
    if args.trace:
        results, correct, metrics = trace(workload, args.seed)
        emit_result(results, correct, metrics, PER_LAYER_UNITS)
    else:
        results, correct, metrics = measure(workload, args.seed, args.seconds)
        emit_result(results, correct, metrics, END_TO_END_UNITS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
