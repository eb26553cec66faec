import ast
import contextlib
import dataclasses
import enum
import gc
import hashlib
import heapq
import inspect
import json
import math
import random
import sys
from collections import Counter, deque
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bftsim.checkpoint
import bftsim.engine
import bftsim.fsm
import bftsim.model
import bftsim.scenario
import bftsim.scheduler
from bftsim.checkpoint import CheckpointStore, independent_next
from bftsim.config import (
    CHECKPOINT_POLICIES,
    SCHEDULERS,
    ConfigError,
    load_config,
    validate_config,
)
from bftsim.engine import (
    CHECKPOINTING,
    CONTAMINATION_EXCHANGE,
    FAULT_INJECTION,
    GAP_STREAM,
    HORIZON_END,
    MONITOR_ROUND,
    PLACEMENT,
    TASK_COMPLETE,
    CausalityError,
    EventQueue,
    Scenario,
    Simulation,
    VirtualNode,
    VnLedger,
    keyed_stream,
    propagate_contamination,
    run_scenario,
)
from bftsim.metrics import MetricsReport
from bftsim.model import (
    ChecksumResult,
    NodeState,
)

from bftsim.scenario import (
    FaultKind,
    FaultSpec,
    ScenarioError,
    generate_workload,
    load_utilization_trace,
    scale_demands,
)

from conftest import cluster_cfg, storm_cfg, store_chains

DESK = Path(__file__).resolve().parents[1] / "scenarios" / "desk.cfg"
COSTLY = DESK.with_name("costly-writes.cfg")
SPREAD = DESK.with_name("byzantine-spread.cfg")
COMBOS = [(sched, ckpt) for sched in ("wsss", "mesf", "random")
          for ckpt in ("tcc", "sync", "independent")]


# -- event queue ----------------------------------------------------------

def test_advance_orders_by_time_then_sequence():
    q = EventQueue()
    first = q.push(5, MONITOR_ROUND, 1)
    second = q.push(5, MONITOR_ROUND, 2)
    q.push(7, MONITOR_ROUND, 3)
    assert q.advance() is first
    assert q.advance() is second
    assert q.clock == 5
    assert q.advance()[3] == 3
    assert q.clock == 7


def test_push_into_the_past_is_a_causality_violation():
    q = EventQueue()
    q.push(4, MONITOR_ROUND, 1)
    q.advance()
    with pytest.raises(CausalityError, match="causality"):
        q.push(3, MONITOR_ROUND, 2)


_QUEUE_STEPS = st.lists(st.one_of(
    st.just(("advance",)),
    # at the clock tick, a later one or one past any horizon, under the next
    # seq or else one reserved earlier, as ``_queue_node`` passes one
    st.tuples(st.just("push"), st.integers(0, 2) | st.just(10**6), st.booleans()),
    st.just(("reserve",)),
    st.tuples(st.just("past"), st.integers(1, 5)),
), min_size=10, max_size=80)


@settings(max_examples=200, deadline=None)
@given(_QUEUE_STEPS)
def test_the_tick_queue_pops_what_a_heap_pops(steps):
    """The tick-bucketed queue against a plain ``heapq`` of the same tuples:
    after every step the same tuple pops, and the clock, the length, the
    next time and the queued entries agree.  A push into the past raises
    before it takes a seq."""
    q, heap, reserved, next_seq, clock = EventQueue(), [], [], 0, 0
    for step, (op, *args) in enumerate(steps):
        if op == "advance":
            if not heap:
                continue
            want = heapq.heappop(heap)
            assert q.advance() is want, step
            clock = want[0]
        elif op == "reserve":
            reserved.append(q._seq)
            q._seq = next_seq = next_seq + 1
        elif op == "past":
            with pytest.raises(CausalityError):
                q.push(clock - args[0], MONITOR_ROUND, step)
        else:
            seq = reserved.pop(0) if args[1] and reserved else None
            ev = q.push(clock + args[0], MONITOR_ROUND, step, seq)
            if seq is None:
                assert ev[1] == next_seq
                next_seq += 1
            heapq.heappush(heap, ev)
        assert (q.clock, q._seq, len(q)) == (clock, next_seq, len(heap)), step
        assert q.peek_time() == (heap[0][0] if heap else None)
        assert Counter(map(id, q)) == Counter(map(id, heap))


def test_a_run_builds_objects_only_for_nodes_and_images():
    """Inside ``Simulation.run()`` the only bftsim objects built are one node
    per spawn, which is its own ledger, and one ``Checkpoint`` per image a
    lookup returns: events, observations, interval updates, tcc actions and
    the kept images are plain values.  Both ``__init__`` and NamedTuple
    ``__new__`` frames are counted; an ``__init__`` frame only when it is the
    built class's own initializer, so a base initializer it calls is not a
    second object.  A returned image is slotted (no instance ``__dict__``)."""
    store = CheckpointStore()
    store.take(SimpleNamespace(vn_id=1, completion=(1, 0), contaminated=False, progress=0,
                               task=SimpleNamespace(task_id=1)), 1)
    assert not hasattr(store.latest(1), "__dict__")
    built = Counter()
    found = Counter()

    def count_inits(frame, event, _arg):
        # an ``__init__`` frame, or a NamedTuple's generated ``__new__``,
        # whose first argument is ``_cls``
        code = frame.f_code
        if event != "call" or not code.co_argcount:
            return
        first = code.co_varnames[0]
        if code.co_name == "__init__":
            cls = type(frame.f_locals[first])
            if code is not cls.__init__.__code__:
                return
        elif first == "_cls":
            cls = frame.f_locals[first]
        else:
            return
        if cls.__module__.startswith("bftsim."):
            built[cls.__name__] += 1

    def counting(lookup):
        def wrapper(*args, **kwargs):
            image = lookup(*args, **kwargs)
            found["images"] += image is not None
            return image
        return wrapper

    # desk, and the storm config for exchanges, crashes and job migrations
    scenarios = [Scenario.from_config(load_config(DESK, {"seed": 1})),
                 Scenario.from_config(storm_cfg(1))]
    returned = 0
    for scenario in scenarios:
        for sched, ckpt in COMBOS:
            for collect_log in (False, True):
                sim = Simulation(scenario, scheduler=sched, checkpoint_policy=ckpt,
                                 collect_log=collect_log)
                sim.store.latest = counting(sim.store.latest)
                sim.store.latest_clean = counting(sim.store.latest_clean)
                built.clear()
                found.clear()
                sys.setprofile(count_inits)
                try:
                    report, _ = sim.run()
                finally:
                    sys.setprofile(None)
                spawns = len(sim.tasks) + report.scalars["replacement_count"]
                assert report.scalars["checkpoint_count"] > 0
                assert built == Counter(VirtualNode=spawns, Checkpoint=found["images"]), \
                    (scenario.cfg.seed, sched, ckpt, collect_log)
                returned += found["images"]
    assert returned > 0     # the rollbacks restored images



def test_a_scenario_build_draws_per_fault_not_per_task_or_server():
    """``Scenario.from_config`` draws demands and latencies inline (see
    ``generate_workload``), so the only frames it runs in ``random.py`` are the
    three streams' seeding and two ``randrange`` draws per fault.  Doubling the
    tasks and servers of a fault-storm-shaped config adds none."""
    counts = []
    for tasks, servers in ((400, 200), (800, 400)):
        cfg = validate_config({
            "task_count": tasks, "job_count": 20, "server_count": servers,
            "server_capacity": 4, "demand_min": 400, "demand_max": 600,
            "horizon": 1000, "sla_bound": 50, "byzantine_faults": 22,
            "crash_faults": 21, "delay_faults": 21, "fault_window_start": 30,
            "fault_window_end": 600, "seed": 1})
        calls = Counter()

        def count_calls(frame, event, _arg):
            if event == "call" and frame.f_code.co_filename == random.__file__:
                calls[frame.f_code.co_name] += 1

        sys.setprofile(count_calls)
        try:
            scenario = Scenario.from_config(cfg)
        finally:
            sys.setprofile(None)
        faults = len(scenario.faults)
        # randrange and its _randbelow per draw; __init__ and seed per stream
        assert faults == 64 and sum(calls.values()) <= 4 * faults + 2 * 3, calls
        counts.append(calls)
    assert counts[0] == counts[1]

# -- tick ledger ----------------------------------------------------------

class _BlockLedger:
    """The tick ledger as a FIFO queue of ``[kind, remaining]`` blocks, each
    served tick attributed as it is served: the reference ``VnLedger``,
    which derives its work, pause and restore, must match."""

    def __init__(self, start, progress):
        self.start = self.anchor = start
        self.progress = progress
        self.work = self.pause = self.restore = 0
        self.blocks = deque()
        self.stopped = None

    def settle(self, t):
        a = self.anchor
        if t <= a or self.stopped is not None:
            return
        while a < t and self.blocks:
            block = self.blocks[0]
            kind, remaining = block
            step = min(remaining, t - a)
            if kind == "pause":
                self.pause += step
            else:
                self.restore += step
            a += step
            if step == remaining:
                self.blocks.popleft()
            else:
                block[1] = remaining - step
        if a < t:
            self.work += t - a
            self.progress += t - a
            a = t
        self.anchor = a

    def add_block(self, t, kind, cost):
        if cost <= 0:
            return
        self.settle(t)
        self.blocks.append([kind, cost])

    def completion_time(self, demand):
        return self.anchor + sum(left for _, left in self.blocks) + demand - self.progress

    def stop(self, t):
        if self.stopped is None:
            self.settle(t)
            self.blocks.clear()
            self.stopped = t

    @property
    def span(self):
        return (self.stopped if self.stopped is not None else self.anchor) - self.start


_LEDGER_STEPS = st.lists(st.tuples(st.sampled_from(("pause", "settle", "stop")),
                                   st.integers(0, 30), st.integers(-1, 20)),
                         max_size=40)


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 100), st.integers(0, 50), st.integers(0, 20), st.integers(0, 500),
       _LEDGER_STEPS)
def test_ledger_running_pending_total_matches_its_blocks(start, progress, restore, demand,
                                                         steps):
    """The ledger against the block-queue reference: a restore charged at
    start, then random pauses, settles and stops, a stop mid-restore
    included.  After every step both attribute the same ticks, and the
    unserved counter is the reference's queued blocks.  This is the one
    test that attributes the ticks independently of the ledger's
    derivation of work, pause and restore."""
    ledger = VnLedger(start, progress, restore)
    reference = _BlockLedger(start, progress)
    reference.add_block(start, "restore", restore)
    now = start
    for op, dt, cost in steps:
        now += dt
        if op == "settle":
            ledger.settle(now)
            reference.settle(now)
        elif op == "stop":
            ledger.stop(now)
            reference.stop(now)
        else:
            ledger.add_block(now, cost)
            reference.add_block(now, "pause", cost)
        for name in ("work", "pause", "restore", "progress", "anchor", "span"):
            assert getattr(ledger, name) == getattr(reference, name), name
        assert ledger.completion_time(demand) == reference.completion_time(demand)
        assert ledger.due == sum(left for _, left in reference.blocks)


# -- workload and trace ----------------------------------------------------------

def test_generate_workload_constant_demand():
    wl = generate_workload(12, 3, 100, 100, random.Random(1))
    assert len(wl.jobs) == 3
    assert all(len(j.task_ids) == 4 for j in wl.jobs)
    assert all(t.demand == 100 for t in wl.tasks)


def test_generate_workload_deterministic():
    a = generate_workload(20, 4, 50, 150, random.Random(9))
    b = generate_workload(20, 4, 50, 150, random.Random(9))
    assert [t.demand for t in a.tasks] == [t.demand for t in b.tasks]


def test_generate_workload_uniform_mean():
    wl = generate_workload(10 ** 4, 10, 50, 150, random.Random(3))
    mean = sum(t.demand for t in wl.tasks) / len(wl.tasks)
    assert abs(mean - 100) < 2



_SPANS = st.one_of(st.just(1),
                   st.integers(0, 40).map(lambda k: 2 ** k),
                   st.integers(0, 40).map(lambda k: 2 ** k + 1),
                   st.integers(1, 10 ** 6))


@given(st.integers(0, 2 ** 32), st.integers(-10 ** 6, 10 ** 6), _SPANS, st.integers(1, 40))
def test_generate_workload_draws_what_randint_draws(seed, low, span, task_count):
    """The inline demand draw equals ``randint`` value for value and leaves the
    stream in the same state, on spans of 1, 2^k, 2^k+1 and others."""
    rng, reference = random.Random(seed), random.Random(seed)
    job_count = 1 + seed % task_count
    wl = generate_workload(task_count, job_count, low, low + span - 1, rng)
    assert [t.demand for t in wl.tasks] == [reference.randint(low, low + span - 1)
                                           for _ in range(task_count)]
    assert rng.getstate() == reference.getstate()
    assert [(t.task_id, t.job_id) for t in wl.tasks] == [
        (tid, job.job_id) for job in wl.jobs for tid in job.task_ids]
    assert [t.task_id for t in wl.tasks] == list(range(task_count))


_STEPS = st.lists(st.tuples(st.integers(0, 3), st.booleans()), min_size=1, max_size=12)


def _observe_round(sim, rt):
    """Hand the node's next monitor round to ``_handle_node``; returns the
    delay it observed, read from a ``classify_delay`` wrapper, and the
    round's log detail."""
    delays, classify = [], bftsim.engine.classify_delay

    def recording(delay, *args):
        delays.append(delay)
        return classify(delay, *args)

    with mock.patch.object(bftsim.engine, "classify_delay", recording):
        detail = sim._handle_node((*rt.monitor, MONITOR_ROUND, rt))
    [delay] = delays
    return delay, detail


@given(st.integers(0, 2 ** 32), st.floats(-50, 50), st.floats(0, 30), st.floats(0, 5),
       st.floats(1e-3, 1e3), _STEPS)
def test_inline_draws_draw_what_gauss_and_expovariate_draw(seed, mu, sigma, spike,
                                                           mean_gap, steps):
    """The delay noise a monitor round observes in ``Simulation._handle_node``
    equals ``gauss`` and ``independent_next``'s gap equals ``expovariate``,
    value for value, also when a Box-Muller pair's cached half is read after
    other draws, and the stream ends in the state the stdlib leaves it in.
    The SLA bound is above any delay drawn here, so every round is healthy
    and the node lives on."""
    cfg = cluster_cfg(task_count=1, job_count=1, server_count=1, server_capacity=1,
                      seed=seed, latency_sigma=sigma, sla_bound=10 ** 4,
                      demand_min=10 ** 6, demand_max=10 ** 6)
    sim = Simulation(Scenario.from_config(cfg), "wsss", "tcc", collect_log=False)
    rt = sim._spawn(sim.tasks[0], 1, 0)   # a clean live node: its checksum draws nothing
    rt.server.latency_mean, rt.spike_delay = mu, spike
    rng, twin = sim.rng, random.Random()
    twin.setstate(rng.getstate())
    for draws, gap in steps:
        t = rt.monitor[0]
        delay, _ = _observe_round(sim, rt)
        assert delay == max(twin.gauss(mu, sigma), 0) + spike
        assert [rng.random() for _ in range(draws)] == [twin.random() for _ in range(draws)]
        if gap:
            assert independent_next(rng, 1.0 / mean_gap, t) - t == max(
                1, round(twin.expovariate(1.0 / mean_gap)))
    assert rng.getstate() == twin.getstate()


def test_generate_workload_rejects_an_empty_demand_range():
    with pytest.raises(ValueError, match="demand_max"):
        generate_workload(4, 1, 101, 100, random.Random(0))


def test_sla_time_per_active_host_adds_its_fractions_in_order():
    """``_finalize`` adds the per-server fractions left to right, as ``sum()``
    did before Python 3.12 compensated its float rounding, so a report is the
    same on every Python that pyproject admits: ten fractions of 0.1 add to
    0.9999999999999999 in order, and to 1.0 compensated."""
    sim = Simulation(Scenario.from_config(cluster_cfg(server_count=10)), collect_log=False)
    for server in sim.servers:
        server.obs_time, server.over_time = 10, 1
    total = 0.0
    for _ in sim.servers:
        total += 0.1
    assert total != math.fsum([0.1] * 10)
    sim._finalize()
    assert sim.report.scalars["sla_time_per_active_host_pct"] == 100.0 * total / 10


def test_a_mean_delay_excess_past_the_sla_bound_reports_exactly_100():
    """``avg_sla_violation_pct`` is the mean delay excess over the SLA bound,
    as a percentage of the bound, so it passes 100 once the mean excess
    passes the bound: every server's mean latency here is 300 against a
    bound of 100, and the report reads the clamped 100.0."""
    cfg = cluster_cfg(latency_mean_min=300.0, latency_mean_max=300.0, sla_bound=100,
                      horizon=200)
    sim = Simulation(Scenario.from_config(cfg), collect_log=False)
    report, _ = sim.run()
    assert sim.excess_sum / sim.obs_count > cfg.sla_bound
    assert report.scalars["avg_sla_violation_pct"] == 100.0


def test_a_server_over_time_past_its_observed_time_raises():
    """The other three SLA percentages are not clamped: none can pass 100 on
    consistent counts, so a server whose over-time exceeds its observed time
    trips ``set_scalar``'s range check instead of reading 100."""
    sim = Simulation(Scenario.from_config(cluster_cfg()), collect_log=False)
    for server in sim.servers:
        server.obs_time, server.over_time = 10, 11
    with pytest.raises(ValueError, match="sla_time_per_active_host_pct"):
        sim._finalize()


def test_trace_parse(tmp_path):
    path = tmp_path / "util.trace"
    path.write_text("50\n75\n")
    assert load_utilization_trace(path) == [50, 75]


@pytest.mark.parametrize("body,needle", [
    ("abc\n", r"bad\.trace:1.*abc"),
    ("150\n", "out of range"),
    ("", "empty"),
])
def test_trace_errors(tmp_path, body, needle):
    path = tmp_path / "bad.trace"
    path.write_text(body)
    with pytest.raises(ValueError, match=needle):
        load_utilization_trace(path)


def test_scale_demands_cycles_samples():
    wl = generate_workload(4, 1, 100, 100, random.Random(0))
    scale_demands(wl, [50, 100])
    assert [t.demand for t in wl.tasks] == [50, 100, 50, 100]


# -- contamination spread ----------------------------------------------------------

def test_propagation_zero_probability():
    assert propagate_contamination(list(range(10)), 0.0, random.Random(1)) == []


def test_propagation_certain():
    assert propagate_contamination([1, 2, 3, 4], 1.0, random.Random(1)) == [1, 2, 3, 4]


def test_propagation_binomial_mean():
    rng = random.Random(42)
    total = sum(len(propagate_contamination(list(range(10)), 0.3, rng))
                for _ in range(10 ** 4))
    assert abs(total / 10 ** 4 - 3.0) < 0.1


# -- schedules and counts ----------------------------------------------------------

def test_tcc_monitor_schedule_and_checkpoints(base_cfg):
    report, log = run_scenario(base_cfg)
    monitor_times = [int(line.split(",")[0]) for line in log
                     if ",monitor," in line and "stale" not in line]
    assert monitor_times == [10, 30, 60, 100, 150, 210, 280, 360, 450, 550, 660, 780, 910]
    assert report.scalars["checkpoint_count"] == 13
    # each confirmation stretches the interval to the gap the round earned
    deltas = [int(line.rsplit("delta=", 1)[1]) for line in log if "tcc=confirmed" in line]
    assert deltas == [b - a for a, b in zip(monitor_times, monitor_times[1:] + [1050])]
    assert all(b > a for a, b in zip(monitor_times, monitor_times[1:]))


def test_sync_checkpoint_count(base_cfg):
    report, _ = run_scenario(base_cfg, checkpoint_policy="sync")
    assert report.scalars["checkpoint_count"] == 100


def test_run_determinism(base_cfg):
    cfg = cluster_cfg(byzantine_faults=2, delay_faults=1, propagation_prob=0.2)
    report_a, log_a = run_scenario(cfg)
    report_b, log_b = run_scenario(cfg)
    assert log_a == log_b
    assert report_a.emit("json") == report_b.emit("json")
    report_c, log_c = run_scenario(cluster_cfg(byzantine_faults=2, delay_faults=1,
                                               propagation_prob=0.2, seed=12))
    assert log_a != log_c


def test_infeasible_placement_names_shortfall():
    """Capacity is a config rule: an infeasible config fails when it is built."""
    with pytest.raises(ConfigError, match="capacity shortfall of 22 tasks"):
        cluster_cfg(task_count=30, job_count=3, server_count=2, server_capacity=4)


def test_fault_before_time_zero_is_rejected_at_build():
    faults = [FaultSpec(kind=FaultKind.CRASH, time=-1, target_task=0)]
    with pytest.raises(ScenarioError, match="t=-1"):
        Scenario.from_config(cluster_cfg(), faults)


@pytest.mark.parametrize("target", [12, -1])
def test_fault_target_outside_the_workload_is_rejected_at_build(target):
    """cluster_cfg has tasks 0-11; a fault aimed elsewhere would be a silent no-op."""
    faults = [FaultSpec(kind=FaultKind.BYZANTINE, time=40, target_task=target)]
    with pytest.raises(ScenarioError, match=f"task {target} "):
        Scenario.from_config(cluster_cfg(), faults)



@pytest.mark.parametrize("kind,time,target,magnitude,needle", [
    ("crash", 35, 1, 0.0, "fault kind 'crash' is not a FaultKind"),
    (FaultKind.CRASH, 35.5, 1, 0.0, "fault time 35.5 is not an int"),
    (FaultKind.CRASH, True, 1, 0.0, "fault time True is not an int"),
    (FaultKind.CRASH, 35, 1.0, 0.0, "fault target_task 1.0 is not an int"),
    (FaultKind.DELAY_SPIKE, 35, 1, -1.0, "fault magnitude -1.0 is not"),
    (FaultKind.DELAY_SPIKE, 35, 1, float("nan"), "fault magnitude nan is not"),
    (FaultKind.DELAY_SPIKE, 35, 1, True, "fault magnitude True is not"),
    (FaultKind.DELAY_SPIKE, 35, 1, "1.5", "fault magnitude '1.5' is not"),
], ids=["kind-str", "time-float", "time-bool", "target-float", "magnitude-negative",
        "magnitude-nan", "magnitude-bool", "magnitude-str"])
def test_malformed_fault_spec_is_rejected_at_build(kind, time, target, magnitude, needle):
    """A string kind used to run as a zero-magnitude delay spike, a float time
    broke the integer-tick ledger, and a bool time was logged as ``True``.  A
    negative, non-finite or bool magnitude used to run and be logged, and a
    string one ended the run in a bare ``TypeError``."""
    faults = [FaultSpec(kind, time, target, magnitude)]
    with pytest.raises(ScenarioError, match=needle):
        Scenario.from_config(cluster_cfg(), faults)


def test_scenario_keeps_its_own_checked_fault_trace():
    """The scenario stores a tuple of the specs it checked, so a spec the
    build would reject, appended to the caller's list afterwards, never
    reaches a run."""
    faults = [FaultSpec(FaultKind.BYZANTINE, 40, 2), FaultSpec(FaultKind.CRASH, 60, 7)]
    scenario = Scenario.from_config(cluster_cfg(), faults)
    untouched = Scenario.from_config(cluster_cfg(), list(faults))
    faults.append(FaultSpec(FaultKind.CRASH, 5000, 99, -3.0))
    assert scenario.faults == tuple(faults[:2])
    report, log = Simulation(scenario).run()
    expected_report, expected_log = Simulation(untouched).run()
    assert report.emit("json") == expected_report.emit("json")
    assert log == expected_log

def test_accounting_identity_over_policy_mix():
    for policy in ("tcc", "sync", "independent"):
        for scheduler in ("wsss", "mesf", "random"):
            for monitor_cost in (0, 1):
                cfg = cluster_cfg(byzantine_faults=1, delay_faults=1, crash_faults=1,
                                  checkpoint_policy=policy, scheduler=scheduler,
                                  monitor_cost=monitor_cost)
                report, _ = run_scenario(cfg, collect_log=False)
                total = (report.scalars["useful_work_total"]
                         + report.scalars["lost_work_total"]
                         + report.scalars["pause_time_total"]
                         + report.scalars["restore_time_total"])
                assert total == report.scalars["active_time_total"], \
                    (policy, scheduler, monitor_cost)


@pytest.mark.parametrize("policy", ["tcc", "sync", "independent"])
def test_crash_before_the_late_mesf_wave_keeps_the_accounting_identity(policy):
    """mesf starts its initial wave ceil(preeval_cost x servers) ticks late; a
    crash injected before then lands at the node's start, not before it."""
    cfg = cluster_cfg(task_count=4, job_count=1, server_count=5, server_capacity=4,
                      fault_window_start=0, fault_window_end=10, horizon=200,
                      demand_min=50, demand_max=60, seed=1,
                      scheduler="mesf", checkpoint_policy=policy)
    faults = [FaultSpec(kind=FaultKind.CRASH, time=0, target_task=0)]
    report, _ = Simulation(Scenario.from_config(cfg, faults), collect_log=False).run()
    s = report.scalars
    assert (s["useful_work_total"] + s["lost_work_total"] + s["pause_time_total"]
            + s["restore_time_total"]) == s["active_time_total"]


# -- fault injection ----------------------------------------------------------

def test_byzantine_injection_contained():
    cfg = cluster_cfg()
    faults = [FaultSpec(kind=FaultKind.BYZANTINE, time=40, target_task=3)]
    report, log = Simulation(Scenario.from_config(cfg, faults)).run()
    assert report.scalars["corrupted_completions"] == 0
    assert report.scalars["jobs_completed"] == 3
    assert report.samples["detection_latency"].count == 1


def test_crash_detected_at_next_monitor_round():
    cfg = cluster_cfg(task_count=2, job_count=1, server_count=2, server_capacity=2)
    faults = [FaultSpec(kind=FaultKind.CRASH, time=15, target_task=0)]
    report, log = Simulation(Scenario.from_config(cfg, faults)).run()
    crash_rounds = [line for line in log if ",monitor," in line and "checksum=error" in line]
    assert crash_rounds and crash_rounds[0].startswith("30,")
    # a crash writes no S-state: the supervisor's S0 moves to S2 on the
    # challenge the crashed node leaves unanswered
    assert "state=S0>S2" in crash_rounds[0]
    assert report.samples["detection_latency"].mean == 15.0   # crashed at 15, seen at 30


def test_detection_latency_counts_from_the_latest_injected_fault():
    """Today's rule, named in the README under ``detection_latency``: a
    Byzantine or crash fault overwrites the undetected fault already pending
    on its task, so the sample counts from the latest fault, while a
    contamination exchange keeps the time already pending on a task."""
    cfg = cluster_cfg(task_count=2, job_count=1, server_count=2, server_capacity=2,
                      detect_prob=1.0)
    faults = [FaultSpec(kind=FaultKind.BYZANTINE, time=t, target_task=0) for t in (11, 12)]
    report, log = Simulation(Scenario.from_config(cfg, faults), "wsss", "sync").run()
    seen = next(int(line.split(",")[0]) for line in log
                if ",monitor,1," in line and "checksum=error" in line)
    assert report.samples["detection_latency"].count == 1
    assert report.samples["detection_latency"].mean == seen - 12

    sim = Simulation(Scenario.from_config(dataclasses.replace(cfg, propagation_prob=1.0)),
                     "wsss", "sync", collect_log=False)
    for task in sim.tasks:
        sim._spawn(task, 1, 0)
    sim.inject_fault(FaultSpec(kind=FaultKind.BYZANTINE, time=3, target_task=0), 3)
    sim.detection_pending[1] = 2   # left pending on the task, as a migration may leave it
    sim._handle_exchange((10, 0, CONTAMINATION_EXCHANGE, None))
    assert sim.detection_pending == {0: 3, 1: 2}
    assert all(rt.contaminated for rt in _live(sim))


def test_delay_spike_forces_high_class():
    cfg = cluster_cfg(task_count=2, job_count=1, server_count=2, server_capacity=2)
    faults = [FaultSpec(kind=FaultKind.DELAY_SPIKE, time=15, target_task=0, magnitude=1.5)]
    _, log = Simulation(Scenario.from_config(cfg, faults)).run()
    spiked = [line for line in log
              if ",monitor,1," in line and int(line.split(",")[0]) > 15]
    assert spiked and ("class=high" in spiked[0] or "class=extreme" in spiked[0])


def test_injection_on_dead_node_is_noop():
    cfg = cluster_cfg(task_count=2, job_count=1, server_count=2, server_capacity=2)
    faults = [FaultSpec(kind=FaultKind.CRASH, time=15, target_task=0),
              FaultSpec(kind=FaultKind.BYZANTINE, time=20, target_task=0)]
    _, log = Simulation(Scenario.from_config(cfg, faults)).run()
    noop = [line for line in log if ",fault," in line and "noop=1" in line]
    assert len(noop) == 1


def test_missed_detection_fallback_catches_everything():
    cfg = cluster_cfg(detect_prob=0.0)   # the oracle never fires: fallback only
    faults = [FaultSpec(kind=FaultKind.BYZANTINE, time=40, target_task=5)]
    report, _ = Simulation(Scenario.from_config(cfg, faults)).run()
    assert report.scalars["corrupted_completions"] == 0
    assert report.scalars["replacement_count"] >= 1


def test_without_fallback_a_missed_fault_corrupts_output():
    cfg = cluster_cfg(detect_prob=0.0, high_delay_fallback=False)
    faults = [FaultSpec(kind=FaultKind.BYZANTINE, time=40, target_task=5)]
    report, _ = Simulation(Scenario.from_config(cfg, faults)).run()
    assert report.scalars["corrupted_completions"] >= 1


def test_propagation_spreads_within_job():
    cfg = cluster_cfg(propagation_prob=1.0, detect_prob=1.0)
    faults = [FaultSpec(kind=FaultKind.BYZANTINE, time=35, target_task=0)]
    report, log = Simulation(Scenario.from_config(cfg, faults)).run()
    exchanges = [line for line in log if ",exchange," in line and "spread=-" not in line]
    assert exchanges   # at least one exchange spread contamination
    assert report.scalars["corrupted_completions"] == 0


def test_the_spread_scenario_spreads_under_tcc():
    """``byzantine-spread.cfg`` is desk with more Byzantine faults, half the
    detections and the HIGH-delay fallback off, so contamination spreads
    before it is caught: at seed 1 ``tcc`` logs spreading exchanges."""
    cfg = load_config(SPREAD, {"seed": 1})
    assert (cfg.byzantine_faults, cfg.detect_prob, cfg.propagation_prob,
            cfg.high_delay_fallback) == (8, 0.5, 0.1, False)
    _, log = Simulation(Scenario.from_config(cfg), checkpoint_policy="tcc").run()
    assert any(",exchange," in line and "spread=v" in line for line in log)


# -- rollback targets ----------------------------------------------------------

def _single_vn_cfg(**overrides):
    raw = {"task_count": 1, "job_count": 1, "server_count": 2, "server_capacity": 1,
           "demand_min": 500, "demand_max": 500, "horizon": 700, "sla_bound": 100,
           "latency_mean_min": 5, "latency_mean_max": 5, "latency_sigma": 2,
           "checkpoint_write_cost": 0, "detect_prob": 0.0, "seed": 5}
    raw.update(overrides)
    return validate_config(raw)


def test_tcc_rolls_back_to_last_confirmed():
    faults = [FaultSpec(kind=FaultKind.BYZANTINE, time=25, target_task=0)]
    cfg = _single_vn_cfg()
    _, log = Simulation(Scenario.from_config(cfg, faults)).run()
    restart = next(line for line in log if "tcc=previous_restart" in line)
    assert restart.startswith("30,")
    assert "lost=20" in restart   # confirmed image at t=10 holds progress 10


def test_independent_tainted_image_rolls_back_to_start():
    faults = [FaultSpec(kind=FaultKind.BYZANTINE, time=25, target_task=0)]
    cfg = _single_vn_cfg(checkpoint_policy="independent", indep_mean_gap=2)
    _, log = Simulation(Scenario.from_config(cfg, faults)).run()
    restart = next(line for line in log if "reason=replace" in line
                   or "reason=verify_reject" in line)
    t_detect = int(restart.split(",")[0])
    assert f"lost={t_detect}" in restart   # full-work loss back to the initial state


def test_sync_rollback_skips_tainted_generation():
    faults = [FaultSpec(kind=FaultKind.BYZANTINE, time=25, target_task=0)]
    cfg = _single_vn_cfg(checkpoint_policy="sync")
    _, log = Simulation(Scenario.from_config(cfg, faults)).run()
    restart = next(line for line in log if "reason=replace" in line)
    # suspect rounds at 30/40/50 hit the streak threshold; the images taken
    # at 30/40/50 are tainted, so the rollback lands on the t=20 generation
    assert restart.startswith("50,")
    assert "lost=30" in restart


# -- scheduler costs in the engine ----------------------------------------------------------

def test_wsss_selection_is_free_and_mesf_pays_preeval():
    faults = [FaultSpec(kind=FaultKind.DELAY_SPIKE, time=40, target_task=2, magnitude=1.5)]
    cfg = cluster_cfg()
    rep_wsss, _ = Simulation(Scenario.from_config(cfg, faults), scheduler="wsss").run()
    rep_mesf, _ = Simulation(Scenario.from_config(cfg, faults), scheduler="mesf").run()
    assert rep_wsss.samples["exec_time_vm_selection"].mean == 0.0
    assert rep_wsss.samples["exec_time_host_selection"].mean == 0.0
    assert rep_mesf.samples["exec_time_vm_selection"].mean > 0.0
    assert rep_mesf.samples["exec_time_host_selection"].mean > 0.0


def test_replacement_lands_on_a_different_server():
    cfg = cluster_cfg()
    faults = [FaultSpec(kind=FaultKind.DELAY_SPIKE, time=40, target_task=2, magnitude=1.5)]
    _, log = Simulation(Scenario.from_config(cfg, faults)).run()
    restart = next(line for line in log if "tcc=previous_restart" in line)
    fields = dict(pair.split("=") for pair in restart.split(",")[4].split(";") if "=" in pair)
    assert fields["from"] != fields["to"]


# -- replica accounting ----------------------------------------------------------

def test_single_fault_consumes_at_most_two_replacements():
    for seed in range(5):
        cfg = cluster_cfg(seed=100 + seed)
        faults = [FaultSpec(kind=FaultKind.BYZANTINE, time=45, target_task=7)]
        report, _ = Simulation(Scenario.from_config(cfg, faults), collect_log=False).run()
        assert report.scalars["replacement_count"] <= 2
        assert report.scalars["corrupted_completions"] == 0


# -- migration threshold ----------------------------------------------------------

def _stacked_spikes(times, task=0):
    return [FaultSpec(kind=FaultKind.DELAY_SPIKE, time=t, target_task=task, magnitude=1.2)
            for t in times]


def test_six_restarts_trigger_exactly_one_migration():
    cfg = cluster_cfg(task_count=4, job_count=1, demand_min=5000, demand_max=5000,
                      horizon=400, migration_threshold=5)
    report, _ = Simulation(Scenario.from_config(
        cfg, _stacked_spikes((15, 45, 75, 105, 135, 165))), collect_log=False).run()
    assert report.scalars["migration_count"] == 1


def test_five_restarts_trigger_no_migration():
    cfg = cluster_cfg(task_count=4, job_count=1, demand_min=5000, demand_max=5000,
                      horizon=400, migration_threshold=5)
    report, _ = Simulation(Scenario.from_config(
        cfg, _stacked_spikes((15, 45, 75, 105, 135))), collect_log=False).run()
    assert report.scalars["migration_count"] == 0
    assert report.scalars["rollback_count"] == 5


def test_migration_resets_job_restart_counter():
    cfg = cluster_cfg(task_count=4, job_count=1, demand_min=5000, demand_max=5000,
                      horizon=400, migration_threshold=5)
    scenario = Scenario.from_config(cfg, _stacked_spikes((15, 45, 75, 105, 135, 165)))
    sim = Simulation(scenario)
    report, _ = sim.run()
    assert report.scalars["migration_count"] == 1
    assert sim.restarts[0] == 0


# -- policy dominance ----------------------------------------------------------

def test_fault_free_checkpoint_dominance():
    """With no faults the tracked policy never takes more checkpoints than the
    fixed cadence, and the ratio shrinks as the horizon grows."""
    ratios = []
    for k in (10, 40, 100, 400):
        cfg = cluster_cfg(task_count=1, job_count=1, server_count=1,
                          server_capacity=1, demand_min=10 ** 6, demand_max=10 ** 6,
                          horizon=k * 10)
        tcc, _ = run_scenario(cfg, collect_log=False)
        sync, _ = run_scenario(cfg, checkpoint_policy="sync", collect_log=False)
        assert tcc.scalars["checkpoint_count"] <= sync.scalars["checkpoint_count"]
        ratios.append(tcc.scalars["checkpoint_count"] / sync.scalars["checkpoint_count"])
    assert ratios == sorted(ratios, reverse=True)
    assert ratios[-1] < 0.1


def _record_draws(stream, record):
    """Wrap ``stream``'s ``random`` to call ``record(u)`` with each value ``u``
    it draws.  The engine draws one value of a task's stream per gap: once
    at each start of its node, then once after each own round it counts."""
    draw = stream.random

    def recording():
        u = draw()
        record(u)
        return u
    stream.random = recording


def _grid_ticks(start, stop, step):
    """The ticks of the sync rounds of an incarnation started at ``start``,
    counted on the grid alone: every g with start < g < ``stop``.  A
    running node has taken the rounds before its next round, one stopped by
    an event at t those before t, and one that the horizon retired running
    those up to the horizon's tick."""
    return range(start - start % step + step, stop, step)


def test_sync_rounds_image_every_active_node_at_once():
    cfg = cluster_cfg(task_count=4, job_count=1, checkpoint_policy="sync",
                      demand_min=300, demand_max=300, horizon=200)
    scenario = Scenario.from_config(cfg, [])
    sim = Simulation(scenario)
    spawn, started = sim._spawn, []
    sim._spawn = lambda *args: started.append(spawn(*args)) or started[-1]
    report, _ = sim.run()
    assert [(rt.task.task_id, rt.start) for rt in started] == [(0, 0), (1, 0), (2, 0), (3, 0)]
    assert {rt.stopped for rt in started} == {cfg.horizon}   # none replaced, the horizon retired all
    by_time = {}
    for rt in started:
        for t in _grid_ticks(rt.start, cfg.horizon + 1, cfg.ft_interval):
            by_time.setdefault(t, []).append(rt.task.task_id)
    assert sorted(by_time) == list(range(cfg.ft_interval, cfg.horizon + 1, cfg.ft_interval))
    for t, group in by_time.items():
        assert sorted(group) == [0, 1, 2, 3], f"round at t={t} imaged tasks {group}"
    assert report.scalars["checkpoint_count"] == 4 * len(by_time)
    # a batch of rounds writes one image, its last round's
    assert [sim.store.latest(task_id).time for task_id in range(4)] == [cfg.horizon] * 4


@pytest.mark.parametrize("ckpt", ["sync", "independent"])
def test_baseline_stores_count_every_round_applied(ckpt, monkeypatch):
    """Under sync and independent a batch of a node's own rounds writes one
    image for all of them.  After every event of a desk run the store's
    ``taken``, the report's ``checkpoint_count``, still equals the rounds
    applied, while each lineage's chain keeps fewer images, in the order
    written.  Independent rounds are counted at their tasks' streams, one
    draw per round counted, less the rounds each live node has counted and
    not yet applied.  Sync rounds, which the engine applies past a batch's
    first in closed form, are counted on the grid: a running node has taken
    those before its next round, a stopped one those before its stop, and
    one that the horizon retired running those up to the horizon's tick."""
    scenario = Scenario.from_config(load_config(DESK, {"seed": 1}))
    step = scenario.cfg.ft_interval
    calls = []
    if ckpt == "independent":
        policy = type(CHECKPOINTING[ckpt])
        round_gaps = policy.round_gaps

        def recording_gaps(self, sim):
            streams, rate = round_gaps(self, sim)
            for stream in streams:
                _record_draws(stream, calls.append)
            return streams, rate
        monkeypatch.setattr(policy, "round_gaps", recording_gaps)
    nodes = {}        # vn id -> incarnation, each seen live after an event
    running = set()   # vn ids of the nodes with a next round, after the last event
    runs = []

    def rounds_applied(sim, ev):
        if ckpt == "independent":
            # less one draw per node start, and one per round counted, not applied
            return len(calls) - (sim._next_vn_id - 1) - sum(rt.counted for rt in _live(sim))
        assert len(nodes) == sim._next_vn_id - 1   # every incarnation seen
        return sum(len(_grid_ticks(
            rt.start, rt.checkpoint if rt.checkpoint is not None
            else ev[0] + 1 if ev[2] == HORIZON_END and vn_id in running
            else rt.stopped, step)) for vn_id, rt in nodes.items())

    def check(sim, ev):
        runs[:] = [sim, ev]
        nodes.update((rt.vn_id, rt) for rt in _live(sim))
        assert sim.store.taken == rounds_applied(sim, ev)
        running.clear()
        running.update(vn_id for vn_id, rt in nodes.items() if rt.checkpoint is not None)
        chains = store_chains(sim.store).values()
        assert len(sim.store.records) == sum(map(len, chains)) <= sim.store.taken
        assert all(chain == sorted(chain) for chain in chains)

    report, _ = _check_every_event(scenario, "wsss", ckpt, check)
    sim, last_ev = runs
    assert last_ev[2] == HORIZON_END
    assert report.scalars["checkpoint_count"] == sim.store.taken > len(sim.store.records)
    assert len(sim.store.records) > len(scenario.workload.tasks)


def test_a_tcc_run_keeps_its_images_out_of_the_cyclic_gc():
    """A kept image is four plain values in its lineage's flat chain, not an
    object of its own: after a desk ``tcc`` run, which images every healthy
    monitor round, no chain holds an object the cyclic GC tracks."""
    sim = Simulation(Scenario.from_config(load_config(DESK, {"seed": 1})),
                     checkpoint_policy="tcc", collect_log=False)
    sim.run()
    chains = sim.store._by_lineage.values()
    assert len(sim.store.records) > len(sim.tasks)   # images were kept
    assert sum(map(len, store_chains(sim.store).values())) == len(sim.store.records)
    assert not any(gc.is_tracked(value) for chain in chains for value in chain)


# -- sync rounds in closed form ------------------------------------------------

def _rounds_one_by_one(sim, rt, last):
    """``Simulation._take_rounds`` as a loop over the rounds, one settle
    each, the next round due where its policy's rule puts it: the reference
    that its closed form for grid rounds and its one pass for drawn rounds
    must match."""
    due = rt.checkpoint
    task_id = rt.task.task_id
    if sim.round_grid is not None:
        step = sim.round_grid

        def after(x):
            return x - x % step + step
    else:
        streams, rate = sim.round_gaps

        def after(x):
            return independent_next(streams[task_id], rate, x)
    rounds = 0
    while due <= last:
        if due > rt.anchor:
            rt.settle(due)
        rt.due += sim.cfg.checkpoint_write_cost
        rounds += 1
        tick, due = due, after(due)
    if rounds:
        sim.store.take(rt, tick, rounds)
    rt.checkpoint = due


_LEDGER_SLOTS = ("anchor", "progress", "work", "pause", "restore", "due")


def _enter_with_backlog(rt, anchor, progress, restore_due, pause_due, served, worked):
    """Settle a node started at ``rt.start`` to ``anchor`` as a run leaves
    one, with ``restore_due`` restore and ``pause_due`` pause ticks
    unserved.  While its restore is unserved, the node has served only
    restore; once it is served, it served ``served`` restore ticks and up
    to ``worked`` worked ticks, capped by the span, and paused for the
    rest."""
    span = anchor - rt.start
    if restore_due:
        rt.restore_cost, worked = span + restore_due, 0
    else:
        rt.restore_cost = min(served, span)
        worked = min(worked, span - rt.restore_cost)
    rt.anchor, rt.origin, rt.progress = anchor, progress, progress + worked
    rt.due = restore_due + pause_due


@settings(max_examples=300, deadline=None)
@given(step=st.integers(1, 12), cost=st.integers(0, 40), start=st.integers(0, 60),
       first=st.integers(1, 5), lead=st.integers(0, 60), progress=st.integers(0, 50),
       restore_due=st.integers(0, 40), pause_due=st.integers(0, 40),
       served=st.integers(0, 60), worked=st.integers(0, 60),
       whole=st.integers(0, 8), part=st.integers(0, 11), earlier=st.integers(0, 3),
       tainted=st.booleans())
def test_sync_rounds_in_closed_form_match_one_settle_per_round(
        step, cost, start, first, lead, progress, restore_due, pause_due, served, worked,
        whole, part, earlier, tainted):
    """Under sync a batch of a node's own rounds gives the ledger, the next
    round and the store that one settle per round gives, from any backlog
    of restore and pause a run can leave at entry (a monitor round's pause
    included, no work before the restore is served), with
    the write cost above or below the grid step, one round or many, and
    ``last`` on a grid tick or between two."""
    cfg = validate_config({
        "task_count": 1, "job_count": 1, "server_count": 1, "server_capacity": 1,
        "demand_min": 10 ** 6, "demand_max": 10 ** 6, "horizon": 10 ** 5,
        "base_interval": 1, "ft_interval": step, "checkpoint_write_cost": cost})
    scenario = Scenario.from_config(cfg, [])
    due = start - start % step + first * step   # the node's next round, on the grid
    anchor = max(start, due - lead)             # settled up to its next round at most
    last = due + whole * step + part % step - (earlier if whole == part == 0 else 0)

    def caught_up(sim, rt, last):
        sim._catch_up(rt, last + 1)   # counts the rounds due before last + 1, then applies them
        assert rt.counted == 0

    sides = []
    for take_rounds in (caught_up, _rounds_one_by_one):
        sim = Simulation(scenario, checkpoint_policy="sync", collect_log=False)
        rt = sim._spawn(sim.tasks[0], 1, start)
        assert rt.checkpoint == start - start % step + step
        rt.contaminated = tainted
        sim.store.take(rt, start)   # an image before the batch, at progress 0
        rt.checkpoint = due
        _enter_with_backlog(rt, anchor, progress, restore_due, pause_due, served, worked)
        take_rounds(sim, rt, last)
        sides.append(({slot: getattr(rt, slot) for slot in _LEDGER_SLOTS}, rt.checkpoint,
                      sim.store.taken, sim.store.dropped, sim.store._by_lineage))
    closed, loop = sides
    assert closed == loop
    assert loop[2] - 1 == len(range(due, last + 1, step))   # the rounds the batch held


# -- independent rounds in one pass --------------------------------------------

@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32), mean=st.integers(1, 12), cost=st.integers(0, 40),
       start=st.integers(0, 60), first=st.integers(1, 30), lead=st.integers(0, 60),
       progress=st.integers(0, 50), restore_due=st.integers(0, 400),
       pause_due=st.integers(0, 400), served=st.integers(0, 60), worked=st.integers(0, 60),
       extra=st.integers(-3, 300), on_round=st.booleans(), tainted=st.booleans())
def test_independent_rounds_in_one_pass_match_one_settle_per_round(
        seed, mean, cost, start, first, lead, progress, restore_due, pause_due, served,
        worked, extra, on_round, tainted):
    """Under independent a batch of a node's own rounds, counted (its gaps
    drawn) and then applied in one pass over the drawn ticks, gives the
    ledger, the next round, the store and the task's stream that one settle
    and one ``independent_next`` per round give: from any backlog of restore and
    pause at entry, longer than the whole batch or not, with the write cost
    above and below the drawn gaps within one batch, an empty batch, one
    round or many, and ``last`` on a round's tick, as at the horizon, or
    between two.  The stream's state afterwards pins the number of draws,
    and the apply leaves only the next round's tick, none counted."""
    cfg = validate_config({
        "task_count": 1, "job_count": 1, "server_count": 1, "server_capacity": 1,
        "demand_min": 10 ** 6, "demand_max": 10 ** 6, "horizon": 10 ** 5, "seed": seed,
        "base_interval": 1, "indep_mean_gap": mean, "checkpoint_write_cost": cost})
    scenario = Scenario.from_config(cfg, [])
    due = start + first                 # the node's next round
    anchor = max(start, due - lead)     # settled up to its next round at most

    def caught_up(sim, rt, last):
        sim._catch_up(rt, last + 1)   # its count is the one place that draws a gap after a start
        assert rt.ticks == [rt.checkpoint] and rt.counted == 0

    sides = []
    for take_rounds in (caught_up, _rounds_one_by_one):
        sim = Simulation(scenario, checkpoint_policy="independent", collect_log=False)
        rt = sim._spawn(sim.tasks[0], 1, start)
        stream, rate = sim.round_gaps[0][0], sim.round_gaps[1]
        if not sides:   # the batch's round ticks, drawn on a twin of the stream
            twin, ticks, tick = random.Random(), [], due
            twin.setstate(stream.getstate())
            while tick <= due + extra:
                ticks.append(tick)
                tick = independent_next(twin, rate, tick)
            last = ticks[-1] if on_round and ticks else due + extra
        rt.contaminated = tainted
        sim.store.take(rt, start)   # an image before the batch, at progress 0
        rt.checkpoint, rt.ticks = due, [due]
        _enter_with_backlog(rt, anchor, progress, restore_due, pause_due, served, worked)
        take_rounds(sim, rt, last)
        sides.append(({slot: getattr(rt, slot) for slot in _LEDGER_SLOTS}, rt.checkpoint,
                      sim.store.taken, sim.store.dropped, sim.store._by_lineage,
                      stream.getstate()))
    one_pass, loop = sides
    assert one_pass == loop
    assert loop[2] - 1 == sum(tick <= last for tick in ticks)   # the rounds the batch held


# -- own rounds counted at a node's entry ----------------------------------------

class _AppliedAtEveryRound(Simulation):
    """A reference engine in which every event that touches a node applies
    its own rounds due before it, then re-times the node, so no round is
    ever counted past an event and every record comes from an applied
    ledger; the horizon, which retires the node, re-times none.  Each batch
    is counted here, not by ``_count_rounds``: sync rounds on the grid, and
    independent gaps drawn one ``independent_next`` per round as the batch
    holding it is applied, up to the first round not due.  The reference
    for ``_count_rounds``, and for ``_catch_up``, which counts them first."""

    def _catch_up(self, rt, t):
        due = rt.checkpoint
        if due is not None and due < t:
            if self.round_gaps is not None:   # the ticks the batch applies
                streams, rate = self.round_gaps
                ticks = rt.ticks
                while ticks[-1] < t:
                    ticks.append(independent_next(streams[rt.task.task_id], rate, ticks[-1]))
                rt.counted = len(ticks) - 1
            else:   # the grid rounds due before t
                rt.counted = (t - 1 - due) // self.round_grid + 1
            self._take_rounds(rt)
            if t <= self.cfg.horizon:
                self._retime(rt, t)

    def _count_rounds(self, rt, t):
        self._catch_up(rt, t)


def _baseline_outputs(cls, scenario, sched, ckpt, plain=None):
    """Run ``scenario`` under ``sched`` and ``ckpt`` (sync or independent)
    with the log on; returns the JSON report, the log, after every event the
    event's (time, seq, kind) with each live node's completion record by vn
    id, and the state of each task's gap stream after the run.  With
    ``plain``, a list, every plain monitor round (one with no monitor cost
    that neither finishes nor replaces its node, so its detail holds
    ``action=``) must call neither ``VnLedger.settle`` nor
    ``CheckpointStore.take``, and appends the rounds its node has counted."""
    sim = cls(scenario, scheduler=sched, checkpoint_policy=ckpt)
    log, handle, records, calls = sim._log, sim._handle_node, [], Counter()

    def recording_log(ev, detail):
        records.append((ev[:3], {rt.vn_id: rt.completion for rt in _live(sim)}))
        log(ev, detail)

    def checking_monitor(ev):
        before = calls.total()
        detail = handle(ev)
        if ";action=" in detail and not sim.cfg.monitor_cost:
            assert calls.total() == before, (ev[:3], calls)
            plain.append(ev[3].counted)
        return detail

    def counting(name, method):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)
        return wrapper

    sim._log = recording_log
    if plain is not None:
        sim._handle_node = checking_monitor
    with mock.patch.object(VnLedger, "settle", counting("settle", VnLedger.settle)), \
            mock.patch.object(CheckpointStore, "take", counting("take", CheckpointStore.take)):
        report, lines = sim.run()
    streams = [stream.getstate() for stream in sim.round_gaps[0]] if sim.round_gaps else []
    return report.emit("json"), lines, records, streams


def _assert_counted_matches_applied(scenario, plain, ckpt="sync"):
    for sched in SCHEDULERS:
        counted = _baseline_outputs(Simulation, scenario, sched, ckpt, plain)
        applied = _baseline_outputs(_AppliedAtEveryRound, scenario, sched, ckpt)
        assert counted[:2] == applied[:2], sched
        assert len(counted[2]) == len(applied[2]), sched
        for mine, theirs in zip(counted[2], applied[2]):
            assert mine == theirs, sched
        assert counted[3] == applied[3], sched


@st.composite
def _baseline_configs(draw, ckpt):
    """Small valid configs for sync or independent: the write cost above and
    below the grid step ``ft_interval`` (sync) or the mean gap
    ``indep_mean_gap`` (independent), restore backlogs longer than a step
    or a gap, ``monitor_cost`` 0 and above, and faults that replace nodes."""
    tasks = draw(st.integers(1, 6))
    capacity = draw(st.integers(1, 3))
    need = -(-tasks // capacity)
    horizon = draw(st.integers(60, 400))
    base = draw(st.integers(1, 10))
    step = base + draw(st.integers(0, 10))
    mean = draw(st.integers(1, 12))
    gap = step if ckpt == "sync" else mean
    start = draw(st.integers(0, horizon // 2))
    demand = draw(st.integers(10, 300))
    return validate_config({
        "task_count": tasks, "job_count": draw(st.integers(1, tasks)),
        "server_count": draw(st.integers(need, need + 2)), "server_capacity": capacity,
        "demand_min": demand, "demand_max": demand + draw(st.integers(0, 100)),
        "horizon": horizon, "sla_bound": draw(st.integers(5, 60)),
        "base_interval": base, "ft_interval": step, "indep_mean_gap": mean,
        "interval_growth": draw(st.sampled_from(("triangular", "geometric"))),
        "checkpoint_write_cost": draw(st.integers(0, 2 * gap + 2)),
        "restart_cost": draw(st.integers(0, 3 * gap)),
        "monitor_cost": draw(st.sampled_from((0, 0, 1, 3))),
        "propagation_prob": draw(st.sampled_from((0.0, 0.3))),
        "detect_prob": draw(st.sampled_from((0.5, 1.0))),
        "suspect_threshold": draw(st.integers(1, 3)),
        "byzantine_faults": draw(st.integers(0, 3)), "crash_faults": draw(st.integers(0, 2)),
        "delay_faults": draw(st.integers(0, 3)),
        "fault_window_start": start,
        "fault_window_end": min(horizon - 1, start + draw(st.integers(1, 100))),
        "seed": draw(st.integers(0, 2 ** 16))})


@settings(max_examples=60, deadline=None)
@given(_baseline_configs("sync"))
def test_sync_rounds_counted_at_a_monitor_round_match_rounds_applied_there(cfg):
    """Under sync a monitor round, and a completion entry that pops, count a
    node's own rounds due before them into its completion record and apply
    none; the rounds are applied, in one batch, where the ledger or the
    store is read or changed.  Against a reference that applies them at
    every such event, under every scheduler: the same report, the same log,
    and the same completion record on every live node after every event,
    so every seq, stale pop and tie is the same.  A plain monitor round
    settles no ledger and writes no image."""
    _assert_counted_matches_applied(Scenario.from_config(cfg), [])


@settings(max_examples=60, deadline=None)
@given(_baseline_configs("independent"))
def test_independent_rounds_counted_at_a_node_entry_match_rounds_applied_there(cfg):
    """The same comparison under independent: a node's entry draws the gaps
    of its own rounds due before it, once each, and counts the rounds into
    its completion record, applying none; the batch is applied over the
    drawn ticks where the ledger or the store is read or changed.  Besides
    the report, the log and every completion record after every event, each
    task's gap stream ends in the same state, so the count draws what the
    reference draws as it applies, no more and no fewer.  A plain monitor
    round settles no ledger and writes no image."""
    _assert_counted_matches_applied(Scenario.from_config(cfg), [], "independent")


def test_desk_sync_monitor_rounds_count_rounds_and_settle_nothing():
    """The same comparison on desk at seeds 1 and 2, whose monitor gaps
    grow past the grid step, so plain monitor rounds count rounds, and on
    ``costly-writes.cfg`` at seed 1, whose restore backlogs outlast a step:
    most plain monitor rounds count rounds, with none settled or written."""
    plain = []
    for cfg in (load_config(DESK, {"seed": 1}), load_config(DESK, {"seed": 2}),
                load_config(COSTLY, {"seed": 1})):
        _assert_counted_matches_applied(Scenario.from_config(cfg), plain)
    assert len(plain) > 1000
    assert sum(rounds > 0 for rounds in plain) > len(plain) // 2


def test_desk_independent_node_entries_count_rounds_and_settle_nothing():
    """The independent comparison on desk at seeds 1 and 2 and on
    ``costly-writes.cfg`` at seed 1, whose write cost is above many of its
    drawn gaps: plain monitor rounds count rounds, most of them, with none
    settled or written."""
    plain = []
    for cfg in (load_config(DESK, {"seed": 1}), load_config(DESK, {"seed": 2}),
                load_config(COSTLY, {"seed": 1})):
        _assert_counted_matches_applied(Scenario.from_config(cfg), plain, "independent")
    assert len(plain) > 1000
    assert sum(rounds > 0 for rounds in plain) > len(plain) // 2


def test_a_current_sync_completion_counts_its_rounds_once():
    """Under sync a ``complete`` entry that pops current brings its node's own
    rounds up to date once, in the node handler: one ``_count_rounds`` call
    made outside ``_catch_up``, which counts them again, as a no-op, before
    it applies them."""
    sim = Simulation(Scenario.from_config(load_config(DESK, {"seed": 1})),
                     checkpoint_policy="sync")
    count, log = Simulation._count_rounds, sim._log
    direct, checked = [], []

    def counting(self, rt, t):
        if sys._getframe(1).f_code.co_name != "_catch_up":
            direct.append(t)
        count(self, rt, t)

    def checking_log(ev, detail):
        if ev[2] == "complete" and detail != "stale=1":
            checked.append((ev[:2], len(direct)))
        direct.clear()
        log(ev, detail)

    sim._log = checking_log
    with mock.patch.object(Simulation, "_count_rounds", counting):
        sim.run()
    assert len(checked) > 50
    assert [ev for ev, calls in checked if calls != 1] == []


def test_trace_scaled_workload_through_config(tmp_path):
    trace = tmp_path / "util.trace"
    trace.write_text("50\n100\n")
    cfg = cluster_cfg(task_count=4, job_count=2, demand_min=200, demand_max=200,
                      trace_path=str(trace))
    scenario = Scenario.from_config(cfg)
    assert [t.demand for t in scenario.workload.tasks] == [100, 200, 100, 200]


# -- policy rules ----------------------------------------------------------

def test_policy_tables_name_the_config_tags():
    assert tuple(PLACEMENT) == SCHEDULERS
    assert tuple(CHECKPOINTING) == CHECKPOINT_POLICIES


@pytest.mark.parametrize("tags,needle", [
    ({"scheduler": "WSSS"}, r"scheduler must be one of \('wsss', 'mesf', 'random'\)"),
    ({"checkpoint_policy": "none"},
     r"checkpoint_policy must be one of \('tcc', 'sync', 'independent'\)"),
    ({"scheduler": ""}, r"scheduler must be one of"),
    ({"checkpoint_policy": ""}, r"checkpoint_policy must be one of"),
], ids=["scheduler", "checkpoint_policy", "empty_scheduler", "empty_checkpoint_policy"])
def test_unknown_policy_tags_are_config_errors(tags, needle):
    """Only ``None`` means the config's policy: any other tag, the empty one
    too, must name a policy."""
    cfg = cluster_cfg()
    with pytest.raises(ConfigError, match=needle):
        Simulation(Scenario.from_config(cfg), **tags).run()
    with pytest.raises(ConfigError, match=needle):
        run_scenario(cfg, **tags)


def _identity_holds(report) -> bool:
    s = report.scalars
    return (s["useful_work_total"] + s["lost_work_total"] + s["pause_time_total"]
            + s["restore_time_total"]) == s["active_time_total"]


@pytest.mark.parametrize("seed", [4, 8, 11])
@pytest.mark.parametrize("scheduler", ["wsss", "mesf", "random"])
def test_restart_after_migration_rolls_back_within_its_own_timeline(scheduler, seed):
    """A migration restores an older job-consistent image; a later restart of
    the same task must not reach for the newer images of the abandoned
    timeline (which once raised 'checkpoint progress exceeds current progress')."""
    cfg = cluster_cfg(task_count=8, job_count=1, server_count=4, server_capacity=4,
                      demand_min=400, demand_max=600, horizon=1000, sla_bound=50,
                      byzantine_faults=2, crash_faults=2, delay_faults=2,
                      fault_window_start=30, fault_window_end=600,
                      propagation_prob=0.02, migration_threshold=1, seed=seed)
    report, _ = run_scenario(cfg, scheduler=scheduler, collect_log=False)
    assert report.scalars["migration_count"] >= 1
    assert _identity_holds(report)


class _MigrationSpy(Simulation):
    """Records where each job migration placed the job's nodes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.moves = []

    def _migrate_job(self, job_id, t):
        detail = super()._migrate_job(job_id, t)
        moved = list(self.job_nodes[job_id].values())   # in vn-id order
        free = {s.server_id: s.free_slots for s in self.servers}
        for rt in moved:
            free[rt.server.server_id] += 1    # the slots free before the wave was placed
        self.moves.append(([rt.server.server_id for rt in moved], free))
        return detail


def test_mesf_migration_places_the_wave_as_mesf_does():
    cfg = cluster_cfg(task_count=4, job_count=1, server_count=4, server_capacity=2,
                      demand_min=400, demand_max=600, horizon=1000,
                      crash_faults=2, fault_window_start=30, fault_window_end=300,
                      migration_threshold=1, seed=1)
    sim = _MigrationSpy(Scenario.from_config(cfg), scheduler="mesf", checkpoint_policy="tcc")
    report, _ = sim.run()
    assert report.scalars["migration_count"] == 1
    placed, free = sim.moves[0]
    # first fit in (latency, id) order, as mesf_assign places the initial wave
    by_latency = sorted(sim.servers, key=lambda s: (s.latency_mean, s.server_id))
    expected = []
    for server in by_latency:
        expected += [server.server_id] * free[server.server_id]
    assert placed == expected[:len(placed)]
    # mesf pre-evaluates every server for a wave, the migration's included
    assert report.samples["exec_time_vm_selection"].count == 2
    assert report.samples["exec_time_vm_selection"].low == cfg.preeval_cost * cfg.server_count


def test_suspect_threshold_has_no_effect_under_tcc():
    """Under tcc every suspect round restarts the node, so the suspicion
    streak never reaches the threshold; the baselines do use it."""
    for seed in range(1, 11):
        for policy in ("tcc", "sync", "independent"):
            reports = set()
            for threshold in (1, 3, 10):
                cfg = validate_config({
                    "task_count": 100, "job_count": 10, "server_count": 20,
                    "server_capacity": 6, "demand_min": 400, "demand_max": 600,
                    "sla_bound": 50, "horizon": 300, "detect_prob": 0.88,
                    "byzantine_faults": 4, "crash_faults": 4, "delay_faults": 4,
                    "delay_magnitude": 1.2, "fault_window_start": 30,
                    "fault_window_end": 150, "suspect_threshold": threshold,
                    "seed": seed})
                report, _ = run_scenario(cfg, checkpoint_policy=policy, collect_log=False)
                reports.add(report.emit("json"))
            assert len(reports) == (1 if policy == "tcc" else 3), (seed, policy)


_RESTART_SCALARS = ("rollback_count", "replacement_count", "migration_count",
                    "lost_work_total", "jobs_completed", "failed_workloads",
                    "corrupted_completions", "checkpoint_count")


def test_detect_prob_moves_no_restart_under_tcc_with_the_fallback_on():
    """With the default ``high_delay_fallback`` a contaminated node that
    passes its checksum is observed at HIGH delay, so it is flagged at its
    first monitor round whatever ``detect_prob`` is: ``checksum_oracle``
    draws once either way, and a W and a Y failure each add one to
    ``fail_count``.  So under ``tcc``, which restarts at the first flagged
    round, ``detect_prob`` moves no restart, migration, lost tick or image;
    under ``sync`` it does, on every seed and scheduler."""
    for seed in range(1, 6):
        for scheduler in ("wsss", "mesf", "random"):
            for policy in ("tcc", "sync"):
                outcomes = set()
                for detect_prob in (0.0, 0.5, 1.0):
                    cfg = load_config(DESK, {"seed": seed, "byzantine_faults": 8,
                                             "crash_faults": 4, "detect_prob": detect_prob})
                    report, _ = run_scenario(cfg, scheduler=scheduler,
                                             checkpoint_policy=policy, collect_log=False)
                    outcomes.add(tuple(report.scalars[key] for key in _RESTART_SCALARS))
                assert len(outcomes) == (1 if policy == "tcc" else 3), (seed, scheduler, policy)


# each key set away from both its default and the storm config's value
_POLICY_KEYS = {"ft_interval": 40, "migration_threshold": 3, "migration_cost": 6,
                "indep_mean_gap": 25, "preeval_cost": 0.5, "suspect_threshold": 1}


def test_policy_specific_keys_act_only_under_their_policies():
    """Which policy pairs each policy-specific key changes the report or the
    event log of, over three storm seeds: outside those pairs the key is
    never read."""
    def outputs(scenario, pair):
        report, log = Simulation(scenario, *pair).run()
        return report.emit("json"), log

    acts = {key: set() for key in _POLICY_KEYS}
    for seed in (1, 2, 3):
        cfg = storm_cfg(seed)
        scenario = Scenario.from_config(cfg)
        base = {pair: outputs(scenario, pair) for pair in COMBOS}
        for key, value in _POLICY_KEYS.items():
            changed = dataclasses.replace(cfg, **{key: value})
            # no policy key shapes the scenario, so the seed's build is reused
            reused = scenario._replace(cfg=changed)
            assert reused == Scenario.from_config(changed), key
            acts[key] |= {pair for pair in COMBOS if outputs(reused, pair) != base[pair]}
    assert acts == {
        "ft_interval": {p for p in COMBOS if p[1] == "sync"},
        "migration_threshold": {p for p in COMBOS if p[1] == "tcc"},
        "migration_cost": {p for p in COMBOS if p[1] == "tcc"},
        "indep_mean_gap": {p for p in COMBOS if p[1] == "independent"},
        "preeval_cost": {p for p in COMBOS if p[0] == "mesf"},
        "suspect_threshold": {p for p in COMBOS if p[1] != "tcc"},
    }


def test_tcc_reads_no_ft_interval():
    """A tcc node's interval is its own last gap, so ``ft_interval``, the
    sync cadence, leaves every tcc report and event log as it is: under
    both growths, fault-free and under faults, and under every scheduler.
    A fault-free run at four times ``base_interval`` still finishes every
    job with images taken."""
    for growth in ("triangular", "geometric"):
        configs = [cluster_cfg(interval_growth=growth)] + [
            dataclasses.replace(storm_cfg(seed), interval_growth=growth) for seed in (1, 2, 3)]
        for cfg in configs:
            assert cfg.base_interval == cfg.ft_interval == 10
            scenario = Scenario.from_config(cfg)
            for scheduler in SCHEDULERS:
                outputs = {}
                for ft_interval in (10, 11, 19, 20, 25, 40):
                    changed = dataclasses.replace(cfg, ft_interval=ft_interval)
                    report, log = Simulation(scenario._replace(cfg=changed), scheduler,
                                             "tcc").run()
                    outputs[ft_interval] = report.emit("json"), log
                    assert outputs[ft_interval] == outputs[10], (
                        growth, cfg.seed, scheduler, ft_interval)
                if not scenario.faults:   # the run at 40
                    s = report.scalars
                    assert s["jobs_completed"] == 3 and s["checkpoint_count"] > 0


# the rule functions of a monitor round, which only a present input calls
_ROUND_RULES = ("byzantine_fsm_step", "next_interval", "tcc_round", "checksum_oracle")


def test_a_healthy_round_calls_no_rule_function():
    """A round whose input is absent (low or normal delay, clean checksum)
    calls none of the round's rule functions and no policy method: its FSM
    step, interval update and tcc action are fixed, a clean node's checksum
    draws nothing, and under tcc the engine writes the round's image
    itself.  Counted as ``bench/tracing.py`` counts them, through their
    names in ``bftsim.engine`` and on their classes, on fault-free desk
    under every checkpoint policy; ``classify_delay`` still runs once per
    observation, and under tcc ``take`` once per round that does not
    finish its node (every observation but each task's last)."""
    cfg = load_config(DESK, {"seed": 1, "byzantine_faults": 0, "delay_faults": 0})
    scenario = Scenario.from_config(cfg)
    assert not scenario.faults
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    wrappers = {name: counting(name, getattr(bftsim.engine, name))
                for name in _ROUND_RULES + ("classify_delay",)}
    policies = [cls for cls in vars(bftsim.engine).values()
                if isinstance(cls, type) and issubclass(cls, bftsim.engine.Checkpointing)
                and "on_monitor" in vars(cls)]
    assert {cls.__name__ for cls in policies} == {"Checkpointing", "TccCheckpointing"}
    for ckpt in CHECKPOINT_POLICIES:
        calls.clear()
        with mock.patch.multiple(bftsim.engine, **wrappers), \
                mock.patch.object(CheckpointStore, "take",
                                  counting("take", CheckpointStore.take)), \
                contextlib.ExitStack() as stack:
            for cls in policies:
                stack.enter_context(mock.patch.object(
                    cls, "on_monitor", counting("on_monitor", vars(cls)["on_monitor"])))
            sim = Simulation(scenario, checkpoint_policy=ckpt, collect_log=False)
            report, _ = sim.run()
        assert report.scalars["jobs_completed"] == cfg.job_count, ckpt
        assert sim.obs_count > 1000, ckpt
        assert calls["classify_delay"] == sim.obs_count, ckpt
        assert {name: calls[name] for name in _ROUND_RULES} == dict.fromkeys(_ROUND_RULES, 0), ckpt
        assert calls["on_monitor"] == 0, ckpt
        if ckpt == "tcc":
            assert calls["take"] == sim.obs_count - cfg.task_count == sim.store.taken


def test_tcc_images_a_node_exactly_at_a_healthy_round():
    """Under tcc a healthy monitor round, which stretches the node's gap,
    writes exactly one image, through ``CheckpointStore.take``, after its
    write's pause; a flagged round, whose extreme delay collapses the gap,
    writes none and restarts the node."""
    take, times = CheckpointStore.take, []

    def recording(store, vn, time, *args):
        times.append(time)
        return take(store, vn, time, *args)

    for healthy in (True, False):
        sim = Simulation(Scenario.from_config(cluster_cfg()), checkpoint_policy="tcc")
        rt = sim._spawn(sim.tasks[0], 1, 0)
        rt.spike_delay = 0.0 if healthy else 10.0 * sim.cfg.sla_bound
        sim.rng.gauss_next = 0.0   # the delay is the server's mean, under the SLA bound
        times.clear()
        with mock.patch.object(CheckpointStore, "take", recording):
            _, detail = _observe_round(sim, rt)
        assert times == ([10] if healthy else []) and sim.store.taken == len(times)
        assert ("tcc=confirmed;delta=20" in detail) is healthy, detail
        assert ("tcc=previous_restart" in detail) is not healthy, detail
        assert (rt.monitor is not None) is healthy   # a restart retired the node
        assert sim.restarts[rt.task.job_id] == (0 if healthy else 1)
        if healthy:
            assert rt.gap == 20 and rt.due == sim.cfg.checkpoint_write_cost
            assert sim.store.latest(rt.task.task_id) == (0, 10, rt.progress, False)


def test_a_clean_nodes_checksum_reads_no_error_and_draws_nothing():
    """A clean node never errs: its monitor rounds read NO_ERROR and leave
    the run's stream as they found it, while a contaminated node's round
    draws once (the oracle's), and its restart under tcc and wsss draws
    nothing.  The delay noise is given its pair's second half, so the noise
    draws nothing either."""
    cfg = cluster_cfg(detect_prob=0.5, demand_min=10 ** 6, demand_max=10 ** 6)
    for contaminated in (False, True):
        sim = Simulation(Scenario.from_config(cfg))
        task = sim.tasks[0]
        sim._spawn(task, 1, 0)
        twin = random.Random()
        for _ in range(200):
            rt = sim.job_nodes[task.job_id][task.task_id]   # a flagged round restarts it
            rt.contaminated = contaminated
            sim.rng.gauss_next = 0.0
            twin.setstate(sim.rng.getstate())
            _, detail = _observe_round(sim, rt)
            if contaminated:
                twin.random()
            else:
                assert "checksum=noerror;" in detail, rt.monitor
            assert sim.rng.getstate()[1] == twin.getstate()[1], (contaminated, rt.monitor)


# each key set away from both its default and the storm config's value
_SHARED_KEYS = {
    "base_interval": 7, "sla_bound": 60, "delay_normal_frac": 0.8, "delay_high_frac": 2.5,
    "detect_prob": 0.5, "propagation_prob": 0.2, "high_delay_fallback": False,
    "checkpoint_write_cost": 2, "restart_cost": 5, "monitor_cost": 1,
    "interval_growth": "geometric",
    "latency_mean_min": 2, "latency_mean_max": 25, "latency_sigma": 8, "delay_magnitude": 2.5,
    "fault_window_start": 10, "fault_window_end": 300, "demand_min": 300, "demand_max": 700}


def test_every_other_key_acts_under_every_policy_pair():
    """Each key that is not policy-specific changes a report under all nine
    policy pairs by storm seed 6, trying the seeds in order and stopping at
    the first one whose report changes: no policy leaves it unread."""
    def report(cfg, pair):
        sim = Simulation(Scenario.from_config(cfg), *pair, collect_log=False)
        return sim.run()[0].emit("json")

    base = {}
    silent = []
    for key, value in _SHARED_KEYS.items():
        for pair in COMBOS:
            for seed in range(1, 7):
                cfg = storm_cfg(seed)
                if (seed, pair) not in base:
                    base[seed, pair] = report(cfg, pair)
                if report(dataclasses.replace(cfg, **{key: value}), pair) != base[seed, pair]:
                    break
            else:
                silent.append((key, pair))
    assert not silent


# -- completion events and scenario reuse ------------------------------------------

@pytest.mark.parametrize("policy", ["sync", "tcc", "independent"])
def test_each_node_keeps_at_most_one_queued_completion(policy):
    """A checkpoint pause moves a node's completion later without queueing a
    second entry for it: counted from the pushes and pops themselves, a node
    never has more than one monitor or completion entry in the heap, and
    ``Simulation._queue_node`` pushes every one."""
    sim = Simulation(Scenario.from_config(load_config(DESK, {"seed": 1})),
                     scheduler="wsss", checkpoint_policy=policy, collect_log=False)
    push, advance = sim.queue.push, sim.queue.advance
    queued = Counter()    # node -> its entries in the heap
    most = Counter()

    def counting_push(time, kind, target=None, seq=None):
        if isinstance(target, VirtualNode):
            assert sys._getframe(1).f_code.co_name == "_queue_node", kind
            queued[target] += 1
            most[target] = max(most[target], queued[target])
        return push(time, kind, target, seq)

    def counting_advance():
        ev = advance()
        if isinstance(ev[3], VirtualNode):
            queued[ev[3]] -= 1
        return ev

    sim.queue.push, sim.queue.advance = counting_push, counting_advance
    report, _ = sim.run()
    assert report.scalars["checkpoint_count"] > 0
    assert most and max(most.values()) == 1, most.most_common(3)


# SHA-256 of the JSON reports of the 9 combinations on scenarios/desk.cfg at seeds 1 and 2
DESK_REPORTS_SHA256 = "7aa62f7a513a6a2e5954581d7029d6384767dcfb536d793f39925eaf2f812f6c"


def test_desk_reports_match_the_pin():
    """Pins every desk report, so a refactor keeps each byte-identical; a
    change that alters reports on purpose updates the pin and says so in
    CHANGES.md."""
    digest = hashlib.sha256()
    for seed in (1, 2):
        cfg = load_config(DESK, {"seed": seed})
        for sched, ckpt in COMBOS:
            report, _ = Simulation(Scenario.from_config(cfg), sched, ckpt, collect_log=False).run()
            digest.update(report.emit("json").encode())
    assert digest.hexdigest() == DESK_REPORTS_SHA256


# -- fault-storm in small: exchange, migration and the job index ---------------------

@pytest.mark.parametrize("cfg", [load_config(DESK, {"seed": 1}), storm_cfg(1)],
                         ids=["desk", "storm"])
def test_sharing_one_scenario_leaks_no_state(cfg):
    """The storm config adds the migration, contamination and crash paths,
    which write the run's per-job and per-node state."""
    shared = Scenario.from_config(cfg)
    for sched, ckpt in COMBOS:
        report, _ = Simulation(shared, sched, ckpt, collect_log=True).run()
        fresh, _ = Simulation(Scenario.from_config(cfg), sched, ckpt, collect_log=False).run()
        assert report.emit("json") == fresh.emit("json"), (sched, ckpt)
    assert shared.workload == Scenario.from_config(cfg).workload


# SHA-256 of the JSON reports of the 9 combinations on storm_cfg at seeds 1 and 2
STORM_REPORTS_SHA256 = "b93fa1154d48fe9dd52413aad3e38dc3bc7b49d777f365c1354db64e6494dee1"


def test_storm_reports_match_the_pin():
    """Pins the storm reports, on the paths the desk pin misses: contamination
    exchange, job migration, crashes; a change that alters reports on
    purpose updates the pin and says so in CHANGES.md."""
    digest = hashlib.sha256()
    migrated = spread = False
    for seed in (1, 2):
        scenario = Scenario.from_config(storm_cfg(seed))
        for sched, ckpt in COMBOS:
            report, _ = Simulation(scenario, sched, ckpt, collect_log=False).run()
            logged, log = Simulation(scenario, sched, ckpt, collect_log=True).run()
            assert logged.emit("json") == report.emit("json"), (seed, sched, ckpt)
            digest.update(report.emit("json").encode())
            migrated |= report.scalars["migration_count"] > 0
            spread |= any(",exchange," in line and "spread=-" not in line for line in log)
    assert migrated and spread
    assert digest.hexdigest() == STORM_REPORTS_SHA256


def test_json_reports_are_the_sorted_indented_dump():
    """Every desk and storm report at seeds 1 and 2 emits, from the layout
    built once, the text json.dumps writes for its dict, and parses back to
    the same dict, every stddev to the last bit."""
    for seed in (1, 2):
        for cfg in (load_config(DESK, {"seed": seed}), storm_cfg(seed)):
            scenario = Scenario.from_config(cfg)
            for sched, ckpt in COMBOS:
                report, _ = Simulation(scenario, sched, ckpt, collect_log=False).run()
                text = report.emit("json")
                assert text == json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
                parsed = MetricsReport.parse(text, "json").to_dict()
                assert parsed == report.to_dict(), (seed, sched, ckpt)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_storm_reports_parse_back_equal(fmt):
    """A parsed report equals the one emitted, also where the square of a
    stddev, from which a parsed sample rebuilds its sum of squares, moves
    its last bit: ``detection_latency`` under wsss+sync at seed 1 and
    random+independent at seed 2."""
    for seed in (1, 2):
        scenario = Scenario.from_config(storm_cfg(seed))
        for sched, ckpt in COMBOS:
            report, _ = Simulation(scenario, sched, ckpt, collect_log=False).run()
            text = report.emit(fmt)
            parsed = MetricsReport.parse(text, fmt)
            assert parsed == report, (seed, sched, ckpt)
            assert parsed.emit(fmt) == text, (seed, sched, ckpt)


# SHA-256 of the log-on event logs of the 9 combinations on scenarios/desk.cfg
# and on storm_cfg, each at seeds 1 and 2
EVENT_LOGS_SHA256 = "6fc28687934f49b1f4fca5c0dd93707f985c3b65e9378d1008d1577f2f19801b"


def test_event_logs_match_the_pin():
    """Pins every log line, which the report pins do not see; a change that
    alters the log on purpose updates the pin and says so in CHANGES.md."""
    digest = hashlib.sha256()
    for log in _pinned_logs():
        digest.update(("\n".join(log) + "\n").encode())
    assert digest.hexdigest() == EVENT_LOGS_SHA256


def _pinned_logs():
    """The log-on event logs that EVENT_LOGS_SHA256 pins."""
    for seed in (1, 2):
        for cfg in (load_config(DESK, {"seed": seed}), storm_cfg(seed)):
            scenario = Scenario.from_config(cfg)
            for sched, ckpt in COMBOS:
                yield Simulation(scenario, sched, ckpt, collect_log=True).run()[1]


def _costly_storm_cfg(seed):
    """storm_cfg with every cost non-zero and the fault window opening at
    t=0: a monitor round's own pause (which keeps a finished node from
    completing in that round), restore and pre-evaluation charges, and faults
    before a late wave starts, which the zero-cost pins miss."""
    return dataclasses.replace(storm_cfg(seed), monitor_cost=1, checkpoint_write_cost=2,
                               restart_cost=3, migration_cost=4, preeval_cost=0.5,
                               fault_window_start=0)


def _costly_storm_outputs():
    """The report and log-on event log of the 9 combinations on
    _costly_storm_cfg at seeds 1 and 2."""
    for seed in (1, 2):
        scenario = Scenario.from_config(_costly_storm_cfg(seed))
        for sched, ckpt in COMBOS:
            yield Simulation(scenario, sched, ckpt, collect_log=True).run()


# SHA-256 of the JSON reports of _costly_storm_outputs
COSTLY_STORM_REPORTS_SHA256 = "0cb0adeb3a77373b6c5e1e7550791c94303c9f9e1d785cf72b445e106fd37586"


def test_costly_storm_reports_match_the_pin():
    """Pins the reports with every cost non-zero, which the zero-cost pins
    miss; a change that alters reports on purpose updates the pin and says
    so in CHANGES.md."""
    digest = hashlib.sha256()
    for report, _ in _costly_storm_outputs():
        digest.update(report.emit("json").encode())
    assert digest.hexdigest() == COSTLY_STORM_REPORTS_SHA256


# SHA-256 of the log-on event logs of _costly_storm_outputs
COSTLY_STORM_LOGS_SHA256 = "917a0e1614ca2bb9a39b674f99377eb8a5bf08e90f9a8af25511424dd6c2fdbd"


def test_costly_storm_logs_match_the_pin():
    """Pins the logs with every cost non-zero, which the zero-cost pins miss;
    a change that alters the log on purpose updates the pin and says so in
    CHANGES.md."""
    digest = hashlib.sha256()
    for _, log in _costly_storm_outputs():
        digest.update(("\n".join(log) + "\n").encode())
    assert digest.hexdigest() == COSTLY_STORM_LOGS_SHA256


# SHA-256 of the lines other than ``stale=1`` pops of the EVENT_LOGS_SHA256 and
# COSTLY_STORM_LOGS_SHA256 logs
LIVE_LOG_LINES_SHA256 = "ab96f3e9c65a7ee057f7f844456366c11e651ea0a807eb6de716f6033ce1871c"


def test_log_lines_other_than_stale_pops_match_the_pin():
    """Pins the log lines other than ``stale=1`` pops, ``seq`` included, so a
    change to when stale entries are queued shows apart from one to any
    other line; a change that alters them on purpose updates the pin and
    says so in CHANGES.md."""
    digest = hashlib.sha256()
    logs = [*_pinned_logs(), *(log for _, log in _costly_storm_outputs())]
    for log in logs:
        kept = [line for line in log if not line.endswith(",stale=1")]
        digest.update(("\n".join(kept) + "\n").encode())
    assert digest.hexdigest() == LIVE_LOG_LINES_SHA256


@pytest.mark.parametrize("sched", ["wsss", "mesf", "random"])
def test_tcc_logs_hold_stale_pops_only_where_a_migration_or_crash_left_them(sched):
    """Under tcc a node's own round is the only one that moves its
    completion, so no entry of a live node goes stale that way.  What is
    left: the entries of the nodes a migration retires, and the rare
    completion entry of a crashed node.  The desk runs have no migration and
    hold no ``stale=1`` line; on the storm the stale lines number at most
    the nodes that migrations moved."""
    def stale_and_moved(cfg):
        _, log = Simulation(Scenario.from_config(cfg), sched, "tcc", collect_log=True).run()
        return (sum(line.endswith(",stale=1") for line in log),
                sum(int(line.split("moved=", 1)[1].split(";", 1)[0])
                    for line in log if "moved=" in line))

    moved_total = 0
    for seed in (1, 2):
        assert stale_and_moved(load_config(DESK, {"seed": seed})) == (0, 0), seed
        stale, moved = stale_and_moved(storm_cfg(seed))
        assert stale <= moved, (seed, stale, moved)
        moved_total += moved
    assert moved_total > 0


def test_independent_logs_hold_a_stale_pop_only_at_a_moved_completion_or_a_crash():
    """Under independent a node's own checkpoint rounds are not events: no
    ``checkpoint`` line is logged.  They are counted when an event next
    touches the node, so they can move a queued completion later, and
    nothing else moves a node's records but a crash (no migration).  So
    every ``stale=1`` line is a ``complete`` entry or the entry of a node
    that crashed earlier in the run."""
    counts = Counter()
    for sched in ("wsss", "mesf", "random"):
        for seed in (1, 2):
            for cfg in (load_config(DESK, {"seed": seed}), storm_cfg(seed)):
                _, log = Simulation(Scenario.from_config(cfg), sched, "independent").run()
                crashed = set()
                for line in log:
                    _, _, kind, target, detail = line.split(",", 4)
                    assert kind != "checkpoint", line
                    if kind == FAULT_INJECTION and detail.startswith("kind=crash;"):
                        crashed.add(detail.split(";vn=v", 1)[1])
                    elif detail == "stale=1":
                        assert kind == TASK_COMPLETE or target in crashed, (sched, seed, line)
                        counts["crashed" if target in crashed else "moved"] += 1
    assert counts["moved"] > 0 and counts["crashed"] > 0, counts


def test_each_task_draws_its_own_round_gaps_under_every_scheduler():
    """Common random numbers for independent checkpointing: on desk seed 1,
    each task's sequence of own-round gaps under wsss, mesf and random is a
    prefix of one sequence, its task's stream, however the schedulers place,
    restart and observe its nodes; and tasks do not share a stream.  The
    gaps are read off each task's stream, one draw per gap."""
    scenario = Scenario.from_config(load_config(DESK, {"seed": 1}))
    drawn = {}
    for sched in ("wsss", "mesf", "random"):
        sim = Simulation(scenario, sched, "independent", collect_log=False)
        streams, rate = sim.round_gaps
        gaps = [[] for _ in sim.tasks]
        for stream, into in zip(streams, gaps):
            # independent_next's gap for the draw u
            _record_draws(stream, lambda u, into=into: into.append(
                max(1, round(-math.log(1.0 - u) / rate))))
        report, _ = sim.run()
        assert report.scalars["checkpoint_count"] > 0
        drawn[sched] = gaps
    lengths = set()
    for task_id in range(len(scenario.workload.tasks)):
        runs = sorted((drawn[sched][task_id] for sched in drawn), key=len)
        assert all(run == runs[-1][:len(run)] for run in runs), task_id
        lengths.add(tuple(map(len, runs)))
    assert any(len(set(n)) > 1 for n in lengths)   # the schedulers drew different counts
    firsts = [tuple(drawn["wsss"][task_id][:5]) for task_id in range(len(scenario.workload.tasks))]
    assert len(set(firsts)) == len(firsts)


def test_independent_round_count_is_the_one_its_task_stream_gives():
    """One fault-free task, whose delay never varies: every own round due
    before its completion images it and pushes the completion back by
    ``checkpoint_write_cost``; a round due at the completion tick runs after
    it, so it takes none.  The count and the pause follow from the task's
    stream alone, drawn here by hand."""
    cost, mean = 3, 7
    cfg = _single_vn_cfg(checkpoint_policy="independent", latency_sigma=0, horizon=2000,
                         checkpoint_write_cost=cost, indep_mean_gap=mean)
    report, log = Simulation(Scenario.from_config(cfg, [])).run()
    stream = keyed_stream(cfg.seed, GAP_STREAM, 0)
    completion, due, rounds = cfg.demand_min, independent_next(stream, 1 / mean, 0), 0
    while due < completion:
        rounds += 1
        completion += cost
        due = independent_next(stream, 1 / mean, due)
    s = report.scalars
    assert rounds > 50
    assert s["checkpoint_count"] == rounds
    assert s["pause_time_total"] == rounds * cost
    assert s["useful_work_total"] == cfg.demand_min
    assert s["active_time_total"] == completion
    assert s["jobs_completed"] == 1 and log[-1].startswith(f"{completion},")


def _rounds_before_completion(times, demand, cost):
    """The images a node of ``demand`` ticks takes at ``times``, given in
    order: each is taken while its time is below the completion that the
    images before it give, ``demand + cost`` x (images before it)."""
    images = 0
    for t in times:
        if t >= demand + cost * images:
            return images
        images += 1
    raise AssertionError("ran out of round times")


# the ticks of a fault-free node's own rounds, by (policy, growth), for base and
# fault-tolerance interval j: tcc confirms an image at every monitor round
_ROUND_TIMES = {
    ("tcc", "triangular"): lambda j: (j * k * (k + 1) // 2 for k in range(1, 10**4)),
    ("tcc", "geometric"): lambda j: (j * (2**k - 1) for k in range(1, 64)),
    ("sync", "triangular"): lambda j: (j * m for m in range(1, 10**4)),
}


def test_fault_free_image_count_is_the_rounds_before_completion():
    """One fault-free task, whose delay never varies, of demand D, with base
    and fault-tolerance interval j and write cost C.  Under tcc every
    monitor round confirms an image; its rounds fall at j x k(k+1)/2
    (triangular growth) or j x (2**k - 1) (geometric growth).  Under sync the
    rounds fall on the grid m x j.  Either way the image count n counts the
    rounds below the completion the images before them give, and
    ``checkpoint_count`` = n, ``pause_time_total`` = n x C and
    ``active_time_total`` = D + n x C exactly.  This is what "reduces
    overhead exponentially" means here: n grows as sqrt(2D/j) under
    triangular growth and log2(D/j) under geometric, against D/j for sync."""
    checked = Counter()
    for demand in range(50, 3001, 37):
        for every in (5, 10):
            for cost in (1, 2):
                base = {"latency_sigma": 0, "demand_min": demand, "demand_max": demand,
                        "horizon": 2 * demand + 100, "base_interval": every,
                        "ft_interval": every, "checkpoint_write_cost": cost}
                for policy, growth in _ROUND_TIMES:
                    cfg = _single_vn_cfg(checkpoint_policy=policy, interval_growth=growth, **base)
                    report, _ = Simulation(Scenario.from_config(cfg, []), collect_log=False).run()
                    n = _rounds_before_completion(_ROUND_TIMES[policy, growth](every),
                                                  demand, cost)
                    s = report.scalars
                    assert s["jobs_completed"] == 1, (policy, growth, demand, every, cost)
                    assert (s["checkpoint_count"], s["pause_time_total"],
                            s["active_time_total"]) == (n, n * cost, demand + n * cost), (
                                policy, growth, demand, every, cost)
                    checked[policy, growth] += 1
    assert set(checked.values()) == {80 * 2 * 2}


def test_fault_free_image_count_sums_over_a_desk_of_tasks():
    """The same count over desk's 100 tasks of demands D_i, placed by wsss so
    that every node starts at 0, with no faults and no delay variation:
    ``checkpoint_count``, ``pause_time_total`` and ``active_time_total`` are
    sum n(D_i), C x sum n(D_i) and sum D_i + C x sum n(D_i), with no rollback
    and every job complete."""
    checked = Counter()
    for seed in range(1, 6):
        for every in (5, 10):
            for cost in (1, 2):
                overrides = {"seed": seed, "scheduler": "wsss", "byzantine_faults": 0,
                             "delay_faults": 0, "latency_sigma": 0, "base_interval": every,
                             "ft_interval": every, "checkpoint_write_cost": cost,
                             "horizon": 2000}
                for policy, growth in _ROUND_TIMES:
                    cfg = load_config(DESK, dict(overrides, checkpoint_policy=policy,
                                                 interval_growth=growth))
                    scenario = Scenario.from_config(cfg)
                    demands = [task.demand for task in scenario.workload.tasks]
                    assert len(demands) == 100 and scenario.faults == ()
                    rounds = sum(_rounds_before_completion(_ROUND_TIMES[policy, growth](every),
                                                           demand, cost)
                                 for demand in demands)
                    report, _ = Simulation(scenario, collect_log=False).run()
                    s = report.scalars
                    key = (seed, every, cost, policy, growth)
                    assert (s["checkpoint_count"], s["pause_time_total"],
                            s["active_time_total"]) == (
                                rounds, rounds * cost, sum(demands) + rounds * cost), key
                    assert s["rollback_count"] == 0, key
                    assert s["jobs_completed"] == cfg.job_count, key
                    checked[policy, growth] += 1
    assert set(checked.values()) == {5 * 2 * 2}


@pytest.mark.parametrize("policy", ["sync", "independent"])
def test_a_round_due_at_the_horizon_images_the_node_and_charges_no_pause(policy):
    """Every event due at or before the horizon runs, so a live node's own
    round due exactly at the horizon tick is applied as the horizon retires
    the node: it is imaged there, and its write's pause, which no tick is
    left to serve, is not charged.  With a write cost of one tick and gaps
    of at least one, each earlier round's pause is served in full."""
    cost, horizon_round = 1, 12
    raw = {"checkpoint_policy": policy, "latency_sigma": 0, "demand_min": 10**4,
           "demand_max": 10**4, "checkpoint_write_cost": cost, "indep_mean_gap": 7}
    if policy == "sync":
        horizon = horizon_round * 10   # ft_interval 10
    else:
        stream, horizon = keyed_stream(_single_vn_cfg(**raw).seed, GAP_STREAM, 0), 0
        for _ in range(horizon_round):
            horizon = independent_next(stream, 1 / 7, horizon)
    sim = Simulation(Scenario.from_config(_single_vn_cfg(horizon=horizon, **raw), []),
                     collect_log=False)
    report, _ = sim.run()
    s = report.scalars
    assert s["jobs_completed"] == 0
    assert s["checkpoint_count"] == horizon_round
    assert sim.store.latest(0).time == horizon
    assert s["pause_time_total"] == (horizon_round - 1) * cost
    assert s["active_time_total"] == horizon


def test_migration_done_is_logged_when_the_moved_nodes_restore_ends():
    """Under mesf a migration's restore is ``migration_cost`` plus the
    wave's pre-evaluation charge, ``preeval_cost`` per server, rounded up;
    ``migration_done`` is logged as it ends, on the zero-cost and the costly
    storm alike."""
    cfgs = [make(seed) for make in (storm_cfg, _costly_storm_cfg) for seed in (1, 2)]
    checked = 0
    for cfg in cfgs:
        restore = cfg.migration_cost + math.ceil(cfg.preeval_cost * cfg.server_count)
        _, log = Simulation(Scenario.from_config(cfg), "mesf", "tcc").run()
        moved, done = {}, {}
        for line in log:
            time, _, kind, _, detail = line.split(",", 4)
            job = detail.split("job=", 1)[-1].split(";")[0]
            if "tcc=job_migration" in detail:
                moved.setdefault(job, []).append(int(time))
            elif kind == "migration_done":
                done.setdefault(job, []).append(int(time))
        assert done.keys() <= moved.keys()
        for job, times in moved.items():
            ends = [t + restore for t in times]
            # a move that ends past the horizon is never logged as done
            assert done.get(job, []) == [t for t in ends if t <= cfg.horizon], (cfg.seed, job)
            checked += len(done.get(job, []))
    assert checked >= 4


# SHA-256 of the latencies (repr), demands and (kind, time, target, magnitude)
# fault tuples built for scenarios/desk.cfg and storm_cfg at seeds 1 and 2
# and for one campaign-shaped config
SCENARIO_INPUTS_SHA256 = "e025455492ec6f40a4651ac6f291657ba4ce0b1231cf3c957cf7d949c4bd781b"


def test_scenario_inputs_match_the_pin():
    """Pins the scenario inputs themselves, before any policy runs on them.
    Computed while demands came from ``Random.randint``, latencies from
    ``Random.uniform`` and fault specs were built by keyword."""
    campaign = validate_config({
        "task_count": 100, "job_count": 10, "server_count": 20, "server_capacity": 6,
        "demand_min": 150, "demand_max": 170, "horizon": 250, "sla_bound": 50,
        "byzantine_faults": 1, "fault_window_start": 20, "fault_window_end": 120,
        "seed": 7})
    cfgs = [load_config(DESK, {"seed": seed}) for seed in (1, 2)]
    cfgs += [storm_cfg(1), storm_cfg(2), campaign]
    digest = hashlib.sha256()
    for cfg in cfgs:
        scenario = Scenario.from_config(cfg)
        digest.update(repr(scenario.latencies).encode())
        digest.update(repr([task.demand for task in scenario.workload.tasks]).encode())
        digest.update(repr([(f.kind.value, f.time, f.target_task, f.magnitude)
                            for f in scenario.faults]).encode())
    assert digest.hexdigest() == SCENARIO_INPUTS_SHA256

def _check_every_event(scenario, sched, ckpt, check, collect_log=False):
    """Run ``scenario`` under one policy pair, calling ``check(sim, ev)`` after
    every popped event, and checking at every node start that its task has
    no live node left; returns the report and the number of events checked.
    ``sim.observed`` records, by vn id, each node's start and then the time
    of its latest observation, as the hooks see them: a node entry that
    does not pop stale observes its node exactly once, as the count of
    ``classify_delay`` calls shows, and no other event observes any node.
    ``sim.node_states`` records each node's ``_node_state`` as it started,
    for the checks that compare it across events."""
    sim = Simulation(scenario, scheduler=sched, checkpoint_policy=ckpt,
                     collect_log=collect_log)
    log, spawn, classify = sim._log, sim._spawn, bftsim.engine.classify_delay
    checked = []
    observations = [0, 0]   # classify_delay calls: all, and as of the last event
    sim.observed = {}
    sim.node_states = {}

    def checking_log(ev, detail):
        observed = observations[0] - observations[1]
        observations[1] = observations[0]
        if isinstance(ev[3], VirtualNode) and detail != "stale=1":
            assert observed == 1, ev
            sim.observed[ev[3].vn_id] = ev[0]
        else:
            assert observed == 0, ev
        check(sim, ev)
        checked.append(ev)
        log(ev, detail)

    def checking_spawn(task, server_id, start, *args):
        # one live node per task, also inside an event: a restart or a
        # migration retires the old node before it starts the new one.  The
        # index is keyed by task id, so a second node would overwrite the
        # first there silently; this check is what catches it
        assert all(rt.task is not task for rt in sim.job_nodes[task.job_id].values()), task
        rt = spawn(task, server_id, start, *args)
        sim.observed[rt.vn_id] = start
        sim.node_states[rt.vn_id] = _node_state(rt)
        return rt

    def counting_classify(*args):
        observations[0] += 1
        return classify(*args)

    sim._log, sim._spawn = checking_log, checking_spawn
    with mock.patch.object(bftsim.engine, "classify_delay", counting_classify):
        report, _ = sim.run()
    return report, len(checked)


def _run_checking_every_event(sched, ckpt, seed, check):
    """Run ``storm_cfg(seed)`` with the log off, calling ``check(sim, ev)``
    after every popped event; returns the report."""
    report, checked = _check_every_event(Scenario.from_config(storm_cfg(seed)),
                                         sched, ckpt, check)
    assert checked > 100
    return report


def _live(sim):
    """The run's live nodes, read from its one index of them."""
    return [rt for nodes in sim.job_nodes.values() for rt in nodes.values()]


def _job_index_holds(sim, ev):
    # every per-job dict is in job-id order, the order the exchange visits jobs in
    assert list(sim.job_nodes) == list(sim.unfinished) == sorted(sim.unfinished), ev
    for job_id, nodes in sim.job_nodes.items():
        # keyed by task id, so one live node per task
        assert all(task_id == rt.task.task_id and rt.task.job_id == job_id
                   and rt.monitor is not None for task_id, rt in nodes.items()), ev
        vn_ids = [rt.vn_id for rt in nodes.values()]
        assert vn_ids == sorted(vn_ids), ev
    live = _live(sim)
    # a queued event of a node that is not retired (its monitor round is
    # set) names a node the index holds
    indexed = set(map(id, live))
    for _, _, _, target in sim.queue:
        if isinstance(target, VirtualNode) and target.monitor is not None:
            assert id(target) in indexed, (ev, target.vn_id)


def _round_tick(sim, rt, k):
    """The tick of the node's own round ``k`` rounds after its next one, for
    k up to ``counted``: on the grid under sync, drawn under independent."""
    if sim.round_grid is not None:
        return rt.checkpoint + k * sim.round_grid
    return rt.ticks[k]


def _pending_holds(sim, ev):
    """The ledger's bounds: no count is negative, the served restore is at
    most its cost, and no tick is worked or paused before the restore is
    served (the work, pause and restore sum to the span by construction,
    which the block reference test checks against an independent
    attribution); and a live node's recorded
    completion is the one its ledger gives plus the write cost of each own
    round counted into it and not yet applied, or None exactly when its
    ledger stopped: a crash, the one record of which is the node's schedule.
    Counted rounds are sync or independent rounds from the node's next round
    on, each due before the event.  An independent node keeps the ticks of
    its counted rounds in order, from its next round on, and the drawn tick
    of the first round not counted last."""
    for rt in _live(sim):
        assert rt.due >= 0 and rt.work >= 0 and rt.pause >= 0, ev
        assert 0 <= rt.restore <= rt.restore_cost, ev
        assert rt.restore == rt.restore_cost or rt.work == rt.pause == 0, ev
        assert (rt.completion is None) == (rt.stopped is not None), ev
        assert (rt.ticks is not None) == (sim.round_gaps is not None), ev
        if rt.ticks is not None and rt.checkpoint is not None:
            assert len(rt.ticks) == rt.counted + 1 and rt.ticks[0] == rt.checkpoint, ev
            assert all(a < b for a, b in zip(rt.ticks, rt.ticks[1:])), ev
        if rt.counted:
            assert rt.checkpoint is not None and sim.report.checkpoint_policy != "tcc", ev
            assert _round_tick(sim, rt, rt.counted - 1) < ev[0], ev
        if rt.completion is not None:
            pending = rt.counted * sim.cfg.checkpoint_write_cost
            assert rt.completion[0] == rt.completion_time(rt.task.demand) + pending, ev


def _infected_index_holds(sim, ev):
    # the exchange draws in job-id order, so the index keeps that order
    assert list(sim.infected) == sorted(sim.unfinished)
    for job_id, infected in sim.infected.items():
        assert infected == {rt.task.task_id for rt in sim.job_nodes[job_id].values()
                            if rt.contaminated}, (ev, job_id)


def _servers_hold(sim, ev):
    live = _live(sim)
    for server in sim.servers:
        hosted = sum(rt.server is server for rt in live)
        assert server.free_slots == server.capacity - hosted >= 0, ev
    # a server id is its list position plus one, which is how a node's server is found
    assert [s.server_id for s in sim.servers] == list(range(1, len(sim.servers) + 1)), ev
    assert all(rt.server is sim.servers[rt.server.server_id - 1] for rt in live), ev


def _node_entry_holds(sim, ev):
    """Each live node has exactly one queued entry of any kind, also past the
    horizon, its monitor round is its last observation (its start before
    one, as ``_check_every_event`` recorded them) plus its gap, and the
    entry's key is the earlier of its monitor round and its completion (its
    monitor round once it crashed).  Only two entries may be earlier: a
    ``complete`` entry whose completion the node's own sync or independent
    rounds, counted when an event touched it, moved later after it was
    queued, and the entry of a crashed node, whose crash cleared the record
    it was queued under.  Either pops stale and ``_handle_node`` queues the
    node again."""
    entries = {}
    for time, seq, kind, target in sim.queue:
        if isinstance(target, VirtualNode) and target.monitor is not None:
            entries.setdefault(target.vn_id, []).append((time, seq, kind))
    policy = sim.report.checkpoint_policy
    for rt in _live(sim):
        assert rt.monitor[0] == sim.observed[rt.vn_id] + rt.gap, (ev, rt.vn_id)
        # a node keeps its own round under sync and independent until it crashes
        assert (rt.checkpoint is None) == (policy == "tcc" or rt.completion is None), ev
        due = min(r for r in (rt.monitor, rt.completion) if r is not None)
        queued = entries.get(rt.vn_id, [])
        assert len(queued) == 1, (ev, rt.vn_id, queued)
        [(time, seq, kind)] = queued
        if (time, seq) != due:
            assert (time, seq) < due, (ev, rt.vn_id)
            assert (policy in ("sync", "independent") and kind == TASK_COMPLETE
                    or rt.completion is None), (ev, rt.vn_id, kind)


def _node_state(rt):
    """What an event may read or change of a node: its ledger and
    contamination, then its schedule, with the tick of its own next round
    apart."""
    return ((rt.anchor, rt.progress, rt.origin, rt.restore_cost, rt.due, rt.stopped,
             rt.contaminated),
            (rt.monitor, rt.completion), rt.checkpoint)


def _own_rounds_hold(sim, ev):
    """No live node's ledger is settled past its own next round.  A node
    whose ledger or contamination changed at an event at tick ``t`` has no
    own round due before ``t``, applied or counted: the engine applied those
    rounds first.  A node that the event crashed has no next round left, so
    its task's latest image is checked instead: it is no older than the
    round that was due before ``t``.  A node whose schedule alone changed
    has every round due before ``t`` applied or counted into its
    completion.  A node has no own round under tcc or once it crashed,
    and its sync rounds fall on the job-wide ``ft_interval`` grid."""
    t = ev[0]
    states = sim.node_states
    policy = sim.report.checkpoint_policy
    for rt in _live(sim):
        ledger, schedule, due = _node_state(rt)
        assert (due is None) == (policy == "tcc" or rt.completion is None), (ev, rt.vn_id)
        assert due is None or rt.anchor <= due, (ev, rt.vn_id)
        assert policy != "sync" or due is None or due % sim.cfg.ft_interval == 0, (ev, due)
        prior_ledger, prior_schedule, prior_due = states[rt.vn_id]
        if ledger != prior_ledger:
            if due is not None:
                assert due >= t and not rt.counted, (ev, rt.vn_id, due)
            elif prior_due is not None and prior_due < t:
                latest = sim.store.latest(rt.task.task_id)
                assert latest is not None and latest.time >= prior_due, (ev, rt.vn_id)
        elif schedule != prior_schedule and due is not None:
            assert _round_tick(sim, rt, rt.counted) >= t, (ev, rt.vn_id, due, rt.counted)
        states[rt.vn_id] = ledger, schedule, due


def _no_streak_under_tcc(sim, ev):
    """Under tcc a suspect round collapses the gap and restarts the node in
    that round, so no live node keeps a suspicion streak."""
    if sim.report.checkpoint_policy == "tcc":
        assert not any(rt.suspect_rounds for rt in _live(sim)), ev


@pytest.mark.parametrize("sched,ckpt", COMBOS)
def test_job_index_holds_exactly_the_live_nodes(sched, ckpt):
    """After every popped event, ``job_nodes`` holds each live node once,
    under its own job and task, in ascending vn-id order."""
    for seed in (1, 2):
        report = _run_checking_every_event(sched, ckpt, seed, _job_index_holds)
        assert ckpt != "tcc" or report.scalars["migration_count"] > 0


@pytest.mark.parametrize("sched,ckpt", COMBOS)
def test_ledger_pending_total_holds_on_every_event(sched, ckpt):
    """After every popped event, each live node's ledger keeps its bounds
    and its completion record."""
    for seed in (1, 2):
        _run_checking_every_event(sched, ckpt, seed, _pending_holds)


@pytest.mark.parametrize("sched,ckpt", COMBOS)
def test_infected_index_holds_exactly_the_live_contaminated_nodes(sched, ckpt):
    """After every popped event, each job's ``infected`` set holds the task
    ids of its live contaminated nodes and no other: the exchange visits only
    the jobs it names."""
    most = []

    def check(sim, ev):
        _infected_index_holds(sim, ev)
        most.append(sum(map(len, sim.infected.values())))

    for seed in (1, 2):
        _run_checking_every_event(sched, ckpt, seed, check)
    assert max(most) >= 2


@pytest.mark.parametrize("sched,ckpt", COMBOS)
def test_each_live_node_keeps_one_monitor_round_on_time(sched, ckpt):
    """After every popped event, each live node keeps one queued entry, and
    its monitor round is the one its last observation and gap give."""
    for seed in (1, 2):
        _run_checking_every_event(sched, ckpt, seed, _node_entry_holds)


@pytest.mark.parametrize("sched,ckpt", COMBOS)
def test_each_live_node_keeps_one_completion_event(sched, ckpt):
    """The same check on the costly storm, where checkpoint writes and
    monitor rounds pause nodes: a node's completion, when it comes before
    its monitor round, is its one queued entry, at its recorded key."""
    completions = []

    def check(sim, ev):
        _node_entry_holds(sim, ev)
        completions.append(sum(kind == TASK_COMPLETE
                               for _, _, kind, _ in sim.queue))

    for seed in (1, 2):
        scenario = Scenario.from_config(_costly_storm_cfg(seed))
        report, checked = _check_every_event(scenario, sched, ckpt, check)
        assert checked > 100 and _identity_holds(report)
    assert max(completions) > 0


@pytest.mark.parametrize("sched", ["wsss", "mesf", "random"])
def test_no_live_node_keeps_a_streak_under_tcc(sched):
    """The every-event form of test_suspect_threshold_has_no_effect_under_tcc:
    after every popped event no live tcc node has a suspicion streak, while
    sync, on the same inputs, keeps streaks, so the check can fail."""
    streaks = []

    def sync_streaks(sim, ev):
        streaks.append(max((rt.suspect_rounds for rt in _live(sim)), default=0))

    for seed in (1, 2):
        _run_checking_every_event(sched, "tcc", seed, _no_streak_under_tcc)
        _run_checking_every_event(sched, "sync", seed, sync_streaks)
    assert max(streaks) > 0


@st.composite
def _small_configs(draw):
    """Valid configs with enough capacity for every task: small topologies,
    both growth rules, zero and non-zero costs and propagation, and a fault
    window that may open at t=0."""
    tasks = draw(st.integers(1, 8))
    capacity = draw(st.integers(1, 4))
    need = -(-tasks // capacity)
    horizon = draw(st.integers(40, 400))
    base = draw(st.integers(1, 20))
    demand = draw(st.integers(1, 300))
    start = draw(st.just(0) | st.integers(0, horizon // 2))
    cost = st.integers(0, 3)
    return validate_config({
        "task_count": tasks, "job_count": draw(st.integers(1, tasks)),
        "server_count": draw(st.integers(need, need + 3)), "server_capacity": capacity,
        "demand_min": demand, "demand_max": demand + draw(st.integers(0, 200)),
        "horizon": horizon, "sla_bound": draw(st.integers(5, 100)),
        "base_interval": base, "ft_interval": base + draw(st.integers(0, 20)),
        "interval_growth": draw(st.sampled_from(("triangular", "geometric"))),
        "propagation_prob": draw(st.sampled_from((0.0, 0.1, 0.5, 1.0))),
        "detect_prob": draw(st.sampled_from((0.0, 0.5, 0.88, 1.0))),
        "high_delay_fallback": draw(st.booleans()),
        "checkpoint_write_cost": draw(cost), "restart_cost": draw(cost),
        "migration_cost": draw(cost), "monitor_cost": draw(cost),
        "preeval_cost": draw(st.sampled_from((0.0, 0.03, 1.0))),
        "indep_mean_gap": draw(st.integers(1, 20)),
        "suspect_threshold": draw(st.integers(1, 4)),
        "migration_threshold": draw(st.integers(1, 4)),
        "byzantine_faults": draw(st.integers(0, 3)), "crash_faults": draw(st.integers(0, 3)),
        "delay_faults": draw(st.integers(0, 3)),
        "fault_window_start": start,
        "fault_window_end": min(horizon - 1, start + draw(st.integers(1, 60))),
        "seed": draw(st.integers(0, 2**16))})


def _order_holds(sim, ev):
    """Events run in (time, seq) order: every queued entry sorts after the
    event just handled, and the sequence numbers a live node's schedule
    reserved are distinct and were all taken from the queue's counter."""
    if ev[2] != HORIZON_END:   # synthesized, never queued
        assert all(entry[:2] > ev[:2] for entry in sim.queue), ev
    seqs = [record[1] for rt in _live(sim)
            for record in (rt.monitor, rt.completion) if record is not None]
    assert len(set(seqs)) == len(seqs), ev
    assert all(seq < sim.queue._seq for seq in seqs), ev


def _all_hold(sim, ev):
    _job_index_holds(sim, ev)
    _order_holds(sim, ev)
    _pending_holds(sim, ev)
    _infected_index_holds(sim, ev)
    _servers_hold(sim, ev)
    _node_entry_holds(sim, ev)
    _own_rounds_hold(sim, ev)
    _no_streak_under_tcc(sim, ev)


def _order_servers_and_own_rounds_hold(sim, ev):
    _order_holds(sim, ev)
    _servers_hold(sim, ev)
    _own_rounds_hold(sim, ev)


@pytest.mark.parametrize("sched,ckpt", COMBOS)
def test_order_servers_and_own_rounds_hold_on_every_event_of_the_pinned_storms(sched, ckpt):
    """The event order, server slot and own-round checks, which the random
    configs reach only at up to 8 tasks, hold after every popped event of
    the pinned storms, zero-cost and costly, at seeds 1 and 2 with the log
    off, and each run keeps the accounting identity."""
    for make_cfg in (storm_cfg, _costly_storm_cfg):
        for seed in (1, 2):
            report, checked = _check_every_event(Scenario.from_config(make_cfg(seed)), sched,
                                                 ckpt, _order_servers_and_own_rounds_hold)
            assert checked > 100 and _identity_holds(report), (make_cfg.__name__, seed)


@settings(max_examples=50, deadline=None)
@given(_small_configs())
def test_invariants_hold_on_every_event_of_random_valid_configs(cfg):
    """Under all 9 policy pairs: the per-event index, ledger, server and
    own-round checks hold, the accounting identity holds, and the log-on
    report equals the log-off one."""
    scenario = Scenario.from_config(cfg)
    for sched, ckpt in COMBOS:
        report, _ = _check_every_event(scenario, sched, ckpt, _all_hold, collect_log=True)
        assert _identity_holds(report), (sched, ckpt)
        plain, _ = Simulation(scenario, sched, ckpt, collect_log=False).run()
        assert plain.emit("json") == report.emit("json"), (sched, ckpt)


# -- time scaling ------------------------------------------------------------

# the config keys counted in ticks, and the report's totals of ticks
_TICK_KEYS = ("base_interval", "ft_interval", "checkpoint_write_cost", "restart_cost",
              "migration_cost", "monitor_cost", "preeval_cost", "fault_window_start",
              "fault_window_end", "horizon", "indep_mean_gap")
_TICK_TOTALS = ("useful_work_total", "lost_work_total", "pause_time_total",
                "restore_time_total", "active_time_total")


def _time_scaled(scenario, k):
    """``scenario`` with every tick quantity ``k`` times as large: the tick
    keys, each fault's time and each task's demand, scaled in place because
    scaled demand bounds draw other demands.  Server latencies stay."""
    cfg = scenario.cfg
    cfg = dataclasses.replace(cfg, **{key: k * getattr(cfg, key) for key in _TICK_KEYS})
    scaled = Scenario.from_config(cfg, [f._replace(time=k * f.time) for f in scenario.faults])
    tasks = scaled.workload.tasks
    for i, task in enumerate(scenario.workload.tasks):
        tasks[i] = task._replace(demand=k * task.demand)
    return scaled


@settings(max_examples=30, deadline=None)
@given(st.sampled_from((2, 3)), st.integers(0, 2**16), st.integers(0, 3), st.integers(0, 3),
       st.integers(0, 3), st.sampled_from((0, 1)), st.sampled_from((0, 1)),
       st.sampled_from((0.0, 0.05)))
def test_scaling_every_tick_quantity_by_k_scales_every_tick_total_by_k(
        k, seed, byzantine, crash, delay, preeval_cost, monitor_cost, propagation_prob):
    """A metamorphic relation: with every tick quantity k times as large,
    under tcc and sync with each scheduler, every count and percentage is
    unchanged, every tick total is k times as large, and each sample has
    the same count and k times the mean.  ``preeval_cost`` is an integer:
    ``mesf`` rounds a fractional charge up, and ``independent`` rounds its
    exponential gaps, so neither keeps the relation (see the README)."""
    scenario = Scenario.from_config(validate_config({
        "task_count": 12, "job_count": 3, "server_count": 6, "server_capacity": 4,
        "demand_min": 150, "demand_max": 250, "horizon": 400, "sla_bound": 50,
        "byzantine_faults": byzantine, "crash_faults": crash, "delay_faults": delay,
        "fault_window_start": 20, "fault_window_end": 200,
        "preeval_cost": preeval_cost, "monitor_cost": monitor_cost,
        "propagation_prob": propagation_prob, "migration_threshold": 1, "seed": seed}))
    scaled = _time_scaled(scenario, k)
    for sched in SCHEDULERS:
        for ckpt in ("tcc", "sync"):
            report, _ = Simulation(scenario, sched, ckpt, collect_log=False).run()
            scaled_report, _ = Simulation(scaled, sched, ckpt, collect_log=False).run()
            for name, value in report.scalars.items():
                expected = k * value if name in _TICK_TOTALS else value
                assert scaled_report.scalars[name] == expected, (sched, ckpt, name)
            for name, stat in report.samples.items():
                scaled_stat = scaled_report.samples[name]
                assert scaled_stat.count == stat.count, (sched, ckpt, name)
                assert scaled_stat.mean == pytest.approx(k * stat.mean, rel=1e-12), \
                    (sched, ckpt, name)


# -- latency scaling ---------------------------------------------------------

# the config keys counted in delay units, the unit of every measured delay
_LATENCY_KEYS = ("sla_bound", "latency_mean_min", "latency_mean_max", "latency_sigma")


@settings(max_examples=20, deadline=None)
@given(st.sampled_from((2, 4)), st.integers(0, 2**16), st.integers(0, 3), st.integers(0, 3),
       st.integers(0, 3), st.sampled_from((0.0, 0.05)), st.sampled_from((0.5, 0.88, 1.0)),
       st.booleans())
def test_scaling_sla_bound_and_every_latency_by_a_power_of_two_changes_no_report_key(
        k, seed, byzantine, crash, delay, propagation_prob, detect_prob, fallback):
    """A metamorphic relation: with ``sla_bound``, both latency bounds and
    ``latency_sigma`` k times as large, every server latency, observed
    delay, delay spike, class threshold and SLA excess is k times as large,
    so under all nine pairs every report key is unchanged.  k is a power of
    two, so every float product is exact and no rounding differs."""
    cfg = validate_config({
        "task_count": 12, "job_count": 3, "server_count": 6, "server_capacity": 4,
        "demand_min": 150, "demand_max": 250, "horizon": 400, "sla_bound": 50,
        "byzantine_faults": byzantine, "crash_faults": crash, "delay_faults": delay,
        "fault_window_start": 20, "fault_window_end": 200,
        "propagation_prob": propagation_prob, "detect_prob": detect_prob,
        "high_delay_fallback": fallback, "migration_threshold": 1, "seed": seed})
    scaled = dataclasses.replace(cfg, **{key: k * getattr(cfg, key) for key in _LATENCY_KEYS})
    scenario, scaled_scenario = Scenario.from_config(cfg), Scenario.from_config(scaled)
    assert scaled_scenario.latencies == [k * latency for latency in scenario.latencies]
    for sched, ckpt in COMBOS:
        report, _ = Simulation(scenario, sched, ckpt, collect_log=False).run()
        scaled_report, _ = Simulation(scaled_scenario, sched, ckpt, collect_log=False).run()
        assert scaled_report.emit("json") == report.emit("json"), (sched, ckpt)


# -- faults after a task's end ----------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10), st.sampled_from(COMBOS),
       st.sampled_from((FaultKind.BYZANTINE, FaultKind.CRASH)), st.integers(0, 10 ** 6))
def test_a_fault_one_tick_after_a_task_completes_changes_no_report_key(seed, pair, kind, pick):
    """A metamorphic relation: a Byzantine or crash fault on a task one tick
    after its node completed finds no live node, so every report key but
    the scenario id, which names the fault count, is unchanged.  Desk with
    four crash faults besides its own; the fault lands on one completion,
    drawn among those a tick before the horizon's end at least."""
    cfg = load_config(DESK, {"seed": seed, "crash_faults": 4})
    scenario = Scenario.from_config(cfg)
    sim = Simulation(scenario, *pair, collect_log=False)
    complete, completed = sim._complete_task, []
    sim._complete_task = lambda rt, t: completed.append((t, rt.task.task_id)) or complete(rt, t)
    report, _ = sim.run()
    candidates = [(t, task_id) for t, task_id in completed if t + 1 < cfg.horizon]
    assert candidates, (seed, pair)
    t, task_id = candidates[pick % len(candidates)]
    faults = [*scenario.faults, FaultSpec(kind, t + 1, task_id, 0.0)]
    faulted, _ = Simulation(Scenario.from_config(cfg, faults), *pair, collect_log=False).run()
    before, after = report.to_dict(), faulted.to_dict()
    assert before["_scenario"].pop("id").replace(
        f"-f{len(faults) - 1}-", f"-f{len(faults)}-") == after["_scenario"].pop("id")
    assert after == before, (seed, pair, kind, t, task_id)


# -- per-event code and enums ------------------------------------------------------

def _functions(module) -> dict[str, ast.FunctionDef]:
    """The module's functions and methods by qualified name."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            elif isinstance(child, ast.FunctionDef):
                found[prefix + child.name] = child

    visit(ast.parse(inspect.getsource(module)), "")
    return found


def _pushes(fn: ast.FunctionDef) -> bool:
    return any(isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "push" for node in ast.walk(fn))


def test_only_the_engine_queues_a_nodes_events():
    """No checkpoint-policy method writes a node's schedule or gap (its
    ``monitor``, ``completion``, ``checkpoint`` or ``gap``), reserves a
    sequence number, queues a node or pushes any event: a node's own rounds
    are records on the node, and its entries are the engine's to queue."""
    policies = {name: fn for name, fn in _functions(bftsim.engine).items()
                if name.split(".")[0].endswith("Checkpointing")}
    assert {"SyncCheckpointing.round_grid",
            "IndependentCheckpointing.round_gaps"} <= set(policies)
    found = []
    for name, fn in policies.items():
        for node in ast.walk(fn):
            if isinstance(node, ast.Attribute) and (
                    node.attr in ("_seq", "_queue_node", "queue", "push")
                    or isinstance(node.ctx, ast.Store) and node.attr in (
                        "monitor", "completion", "checkpoint", "gap")):
                found.append(f"{name}: .{node.attr}")
    assert not found


def test_only_the_round_code_reads_the_round_timing():
    """Only the code that times, counts or applies a node's own rounds reads
    ``round_grid`` or ``round_gaps``: ``_count_rounds`` holds the one choice
    between counting them and applying them, so the node handler and
    ``_catch_up`` make none."""
    readers = {name for name, fn in _functions(bftsim.engine).items()
               for node in ast.walk(fn)
               if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
               and node.attr in ("round_grid", "round_gaps")}
    assert readers == {"Simulation.__init__", "Simulation._count_rounds",
                       "Simulation._spawn", "Simulation._take_rounds"}


def test_per_event_code_binds_enum_members_once():
    """The per-event functions read no enum member through its class (a slow
    ``EnumType.__getattr__`` on CPython 3.11), and the log builders read no
    ``.value`` or ``.name`` (Python-level properties)."""
    enums = {name: cls
             for module in (bftsim.model, bftsim.scenario, bftsim.fsm, bftsim.checkpoint,
                            bftsim.engine)
             for name, cls in vars(module).items()
             if isinstance(cls, enum.EnumMeta) and cls is not enum.Enum}
    assert {"NodeState", "DelayClass", "FaultKind"} <= set(enums)
    engine = _functions(bftsim.engine)
    per_event = {
        bftsim.fsm: ["classify_delay", "checksum_oracle", "byzantine_fsm_step",
                     "next_interval"],
        bftsim.checkpoint: ["tcc_round", "CheckpointStore.take"],
        bftsim.scheduler: ["record_failure", "failure_kind"],
        bftsim.engine: sorted(
            {name for name, fn in engine.items()
             if name.split(".")[0].endswith("Checkpointing") or _pushes(fn)}
            | {f"Simulation.{name}" for name in (
                "_spawn", "_handle_node", "_count_rounds", "_catch_up",
                "_take_rounds", "_handle_exchange", "inject_fault", "run", "_log")}),
    }
    assert "TccCheckpointing.on_monitor" in per_event[bftsim.engine]
    assert "Simulation._queue_node" in per_event[bftsim.engine]
    class_reads = []
    for module, names in per_event.items():
        functions = _functions(module)
        for name in names:
            for node in ast.walk(functions[name]):
                if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                        and node.value.id in enums
                        and node.attr in enums[node.value.id].__members__):
                    class_reads.append(f"{name}: {node.value.id}.{node.attr}")
    assert not class_reads
    property_reads = [f"{name}: .{node.attr}"
                      for name in ("_log", "_handle_node")
                      for node in ast.walk(engine[f"Simulation.{name}"])
                      if isinstance(node, ast.Attribute) and node.attr in ("value", "name")]
    assert not property_reads
    # dict keys on the per-event path hash in C, not through Enum.__hash__
    for cls in (NodeState, ChecksumResult, FaultKind):
        assert cls.__hash__ is object.__hash__, cls


def test_only_round_code_skips_log_detail():
    """A run with the log off skips formatting the detail only where a run
    spends its rounds: the node handler, which serves monitor rounds and
    completions and asks a policy for a healthy round's detail only with
    the log on.  Flagged rounds (``on_monitor``) and lifecycle code
    (finishing a task, restarts, migrations, faults, exchanges) are rare,
    so they always format their detail; a node's own sync or independent
    rounds log nothing."""
    readers = sorted(name for name, fn in _functions(bftsim.engine).items()
                     if any(isinstance(node, ast.Attribute) and node.attr == "collect_log"
                            for node in ast.walk(fn)))
    assert readers == ["Simulation.__init__", "Simulation._handle_node", "Simulation._log"]
