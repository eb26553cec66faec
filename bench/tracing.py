"""Per-layer tracing for the bftsim benchmark, installed from outside the program.

The tracer replaces names in the program's modules with timing wrappers and
puts the originals back on ``uninstall``.  ``bftsim.engine`` imports the fsm,
checkpoint and scheduler functions by name, so those are replaced in the
engine's namespace; patching the defining module would have no effect.
Methods are replaced on their classes.

Each wrapper is a span: it counts the call and adds the call's self time
(its duration minus the time of the wrapped calls nested inside it) to its
group.  Counting-only wrappers add no span; their cost lands in the
enclosing span's self time.
"""

from __future__ import annotations

import functools
import gc
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()         # per wrapped function name
        self.self_s: defaultdict = defaultdict(float)   # per span group
        self.counts: Counter = Counter()        # derived counts (bytes, servers, ...)
        self.gc_s = 0.0
        self.gc_collections = 0
        self._stack: list[float] = []           # child time of each open span
        self._restore: list[tuple[object, str, object]] = []
        self._gc_start = 0.0
        self._run_heap_peak = 0
        self._run_images = 0
        self._looked_up: set[int] = set()        # ids of the images lookups returned

    # -- wrappers ---------------------------------------------------------

    def _span(self, group: str, name: str, fn, after=None):
        stack, self_s, calls = self._stack, self.self_s, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[group] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _counter(self, name: str, fn, after=None):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _wrap(self, owner, attr: str, group: str | None, name: str, after=None) -> None:
        """Replace ``owner.attr`` by a span of ``group``, or by a counter when group is None."""
        original = owner.__dict__[attr]
        fn = original.__func__ if isinstance(original, classmethod) else original
        wrapper = self._counter(name, fn, after) if group is None \
            else self._span(group, name, fn, after)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, classmethod(wrapper) if isinstance(original, classmethod) else wrapper)

    # -- counting hooks ---------------------------------------------------

    def _after_push(self, args, _result) -> None:
        depth = len(args[0])
        if depth > self._run_heap_peak:
            self._run_heap_peak = depth

    def _after_take(self, args, _result) -> None:
        self._run_images = len(args[0].records)

    def _after_lookup(self, args, result) -> None:
        if result is not None:
            self._looked_up.add(result.ckpt_id)

    def _after_log(self, args, _result) -> None:
        if args[2] == "stale=1":
            self.counts["stale_events"] += 1

    def _after_rank(self, args, _result) -> None:
        self.counts["servers_ranked"] += len(args[0])

    def _after_emit(self, _args, result) -> None:
        self.counts["emit_bytes"] += len(result)

    def _on_gc(self, phase: str, _info) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1

    # -- lifecycle --------------------------------------------------------

    def install(self, config, engine) -> None:
        """Wrap the public boundaries of every bftsim layer the engine calls."""
        wrap = self._wrap
        wrap(config, "validate_config", "config.validate", "validate_config")
        scenario, sim = engine.Scenario, engine.Simulation
        wrap(scenario, "from_config", "engine.scenario_build", "from_config")
        wrap(sim, "__init__", "engine.sim_init", "sim_init")
        wrap(sim, "run", "engine.loop", "run")
        wrap(sim, "_handle_exchange", None, "exchange")
        wrap(sim, "_log", None, "log", after=self._after_log)

        queue = engine.EventQueue
        wrap(queue, "push", "engine.queue", "push", after=self._after_push)
        for attr in ("advance", "peek_time", "synthesize"):
            wrap(queue, attr, "engine.queue", attr)
        for attr in ("settle", "add_block", "completion_time", "stop"):
            wrap(engine.VnLedger, attr, "engine.ledger", attr)

        for attr in ("classify_delay", "checksum_oracle", "byzantine_fsm_step", "next_interval"):
            wrap(engine, attr, "fsm." + attr, attr)

        store = engine.CheckpointStore
        wrap(store, "take", "checkpoint.take", "take", after=self._after_take)
        for attr in ("latest_clean", "latest"):
            wrap(store, attr, "checkpoint.lookup", attr, after=self._after_lookup)
        for attr in ("tcc_round", "rollback_loss"):
            wrap(engine, attr, "checkpoint." + attr, attr)

        wrap(engine, "rank_servers", "scheduler.rank", "rank_servers", after=self._after_rank)
        wrap(engine, "select_servers", "scheduler.select", "select_servers")
        for attr in ("mesf_assign", "random_assign"):
            wrap(engine, attr, "scheduler.assign", attr)
        wrap(engine, "record_failure", "scheduler.record_failure", "record_failure")

        report = engine.MetricsReport
        for attr in ("record", "set_scalar"):
            wrap(report, attr, "metrics", attr)
        wrap(report, "emit", "metrics", "emit", after=self._after_emit)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        """Forget everything counted so far (used between set-up and the runs)."""
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()
        self.gc_s = 0.0
        self.gc_collections = 0

    def begin_run(self) -> None:
        self._run_heap_peak = 0
        self._run_images = 0
        self._looked_up.clear()

    def end_run(self) -> None:
        self.counts["heap_peak"] += self._run_heap_peak
        self.counts["images"] += self._run_images
        self.counts["images_used"] += len(self._looked_up)
