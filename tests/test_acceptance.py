"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import random
import time

import pytest

from bftsim.config import validate_config
from bftsim.engine import Scenario, Simulation
from bftsim.fsm import (
    REPLACE_NODE,
    byzantine_fsm_step,
    checkpoint_status_fsm_step,
    checksum_oracle,
    next_interval,
    performance_fsm_step,
)
from bftsim.metrics import occurable_range
from bftsim.model import (
    ChecksumResult,
    CheckpointStatus,
    DelayClass,
    NodeState,
    PerformanceClass,
)
from bftsim.scenario import FaultKind, FaultSpec

S0, S1, S2 = NodeState.FAIL_SAFE, NodeState.BYZANTINE, NodeState.FAIL_STOP
NOERR, ERR = ChecksumResult.NO_ERROR, ChecksumResult.ERROR
LOW, NORMAL, HIGH, EXTREME = DelayClass

BASE_INTERVAL = 10


def _verdict(number: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number}: {description}"


# -- shared scenarios ---------------------------------------------------------

def _campaign_cfg(seed: int):
    return validate_config({
        "task_count": 100, "job_count": 10, "server_count": 20, "server_capacity": 6,
        "demand_min": 150, "demand_max": 170, "horizon": 250, "sla_bound": 50,
        "base_interval": BASE_INTERVAL, "ft_interval": BASE_INTERVAL,
        "latency_mean_min": 5, "latency_mean_max": 15, "latency_sigma": 3,
        "detect_prob": 0.88, "seed": seed,
        "fault_window_start": 20, "fault_window_end": 120,
    })


def _campaign_fault(seed: int) -> FaultSpec:
    rng = random.Random(f"{seed}:campaign")
    return FaultSpec(kind=FaultKind.BYZANTINE, time=rng.randrange(20, 120),
                     target_task=rng.randrange(100))


@pytest.fixture(scope="module")
def campaign():
    """1000 scenarios: 20 servers, 100 nodes, one Byzantine injection each."""
    t0 = time.monotonic()
    results = []
    for i in range(1000):
        seed = 10_000 + i
        report, _ = Simulation(Scenario.from_config(
            _campaign_cfg(seed), [_campaign_fault(seed)]), collect_log=False).run()
        stat = report.samples["detection_latency"]
        identity = (report.scalars["useful_work_total"]
                    + report.scalars["lost_work_total"]
                    + report.scalars["pause_time_total"]
                    + report.scalars["restore_time_total"]
                    == report.scalars["active_time_total"])
        results.append({
            "corrupted": report.scalars["corrupted_completions"],
            "latency_sum": stat.mean * stat.count,
            "latency_count": stat.count,
            "replacements": report.scalars["replacement_count"],
            "jobs_completed": report.scalars["jobs_completed"],
            "identity": identity,
        })
    return {"results": results, "elapsed": time.monotonic() - t0}


def _desk_cfg(seed: int):
    return validate_config({
        "task_count": 100, "job_count": 10, "server_count": 20, "server_capacity": 6,
        "demand_min": 400, "demand_max": 600, "horizon": 1000, "sla_bound": 50,
        "base_interval": BASE_INTERVAL, "ft_interval": BASE_INTERVAL,
        "latency_mean_min": 5, "latency_mean_max": 15, "latency_sigma": 3,
        "detect_prob": 0.88, "migration_threshold": 5, "seed": seed,
    })


def _desk_faults():
    spike, byz = FaultKind.DELAY_SPIKE, FaultKind.BYZANTINE
    return [
        FaultSpec(kind=byz,   time=40,  target_task=0),
        FaultSpec(kind=spike, time=55,  target_task=1, magnitude=1.2),
        FaultSpec(kind=byz,   time=70,  target_task=2),
        FaultSpec(kind=spike, time=85,  target_task=3, magnitude=1.2),
        FaultSpec(kind=byz,   time=100, target_task=4),
        FaultSpec(kind=spike, time=115, target_task=5, magnitude=1.2),
        FaultSpec(kind=spike, time=60,  target_task=25, magnitude=1.2),
        FaultSpec(kind=byz,   time=90,  target_task=47),
    ]


@pytest.fixture(scope="module")
def desk_runs():
    t0 = time.monotonic()
    pairs = []
    for seed in range(1, 11):
        scenario = Scenario.from_config(_desk_cfg(seed), _desk_faults())
        report_w, _ = Simulation(scenario, scheduler="wsss", checkpoint_policy="tcc",
                                 collect_log=False).run()
        report_m, _ = Simulation(scenario, scheduler="mesf", checkpoint_policy="sync",
                                 collect_log=False).run()
        pairs.append((report_w, report_m))
    return {"pairs": pairs, "elapsed": time.monotonic() - t0}


# -- criterion 1: exhaustive FSM conformance ----------------------------------

def test_criterion_1_fsm_conformance():
    t0 = time.monotonic()
    oracle_byz = {}
    for state in (S0, S1):
        oracle_byz[(state, HIGH, NOERR)] = S1
        oracle_byz[(state, HIGH, ERR)] = S2
        oracle_byz[(state, EXTREME, NOERR)] = S2
        oracle_byz[(state, EXTREME, ERR)] = S2
        for d in (LOW, NORMAL):
            oracle_byz[(state, d, NOERR)] = S0
            oracle_byz[(state, d, ERR)] = S2
    for d in DelayClass:
        for c in (NOERR, ERR):
            oracle_byz[(S2, d, c)] = S2
    ok = all(byzantine_fsm_step(s, d, c) is want
             for (s, d, c), want in oracle_byz.items())
    assert len(oracle_byz) == 24

    oracle_ckpt = {}
    for state in (S0, S1):
        oracle_ckpt[(state, CheckpointStatus.NULL)] = S0
        oracle_ckpt[(state, CheckpointStatus.CONFIRMED)] = S0
        oracle_ckpt[(state, CheckpointStatus.PREVIOUS)] = S1
        oracle_ckpt[(state, CheckpointStatus.COMPLETE)] = S2
    for status in CheckpointStatus:
        oracle_ckpt[(S2, status)] = S2
    ok = ok and all(checkpoint_status_fsm_step(s, i) is want
                    for (s, i), want in oracle_ckpt.items())

    oracle_perf = {(S0, PerformanceClass.PERFORMING): S0,
                   (S0, PerformanceClass.NOT_PERFORMING): S2,
                   (S0, PerformanceClass.WARY): S2}
    for p in PerformanceClass:
        oracle_perf[(S2, p)] = S2
    ok = ok and all(performance_fsm_step(s, i) is want
                    for (s, i), want in oracle_perf.items())
    suspect_rejected = False
    try:
        performance_fsm_step(S1, PerformanceClass.PERFORMING)
    except ValueError:
        suspect_rejected = True
    elapsed = time.monotonic() - t0
    _verdict(1, "exhaustive FSM table conformance in "
                f"{elapsed:.3f}s", ok and suspect_rejected and elapsed < 1.0)


# -- criterion 2: interval schedule -------------------------------------------

def test_criterion_2_interval_schedule():
    t0 = time.monotonic()
    cfg = validate_config({
        "task_count": 1, "job_count": 1, "server_count": 1, "server_capacity": 1,
        "demand_min": 2000, "demand_max": 2000, "horizon": 100 * BASE_INTERVAL,
        "latency_mean_min": 5, "latency_mean_max": 5, "latency_sigma": 2,
    })
    report_tcc, log = Simulation(Scenario.from_config(cfg, [])).run()
    times = [int(line.split(",")[0]) for line in log
             if ",monitor," in line and "stale" not in line]
    report_sync, _ = Simulation(Scenario.from_config(cfg, []), checkpoint_policy="sync").run()
    tcc_rounds = len(times)
    sync_count = report_sync.scalars["checkpoint_count"]
    reduction = (sync_count - tcc_rounds) / sync_count
    elapsed = time.monotonic() - t0
    ok = (times[:5] == [10, 30, 60, 100, 150]
          and tcc_rounds == 13
          and report_tcc.scalars["checkpoint_count"] == 13
          and sync_count == 100
          and reduction == 0.87
          and elapsed < 1.0)
    _verdict(2, f"13 tracked rounds vs 100 fixed-cadence checkpoints "
                f"(87% reduction) in {elapsed:.3f}s", ok)


# -- criterion 3: suspicion threshold ------------------------------------------

def test_criterion_3_suspicion_threshold():
    cfg = validate_config({})

    def drive(rounds):
        state, gap, streak = S0, 10, 0
        replaced_at = None
        for i, (d, c) in enumerate(rounds, start=1):
            post = byzantine_fsm_step(state, d, c)
            gap, action, streak = next_interval(gap, streak, post, cfg)
            if action == REPLACE_NODE:
                replaced_at = i
                break
            state = post
            streak = streak if post is S1 else 0
        return replaced_at

    three = drive([(HIGH, NOERR)] * 3)
    two_then_recover = drive([(HIGH, NOERR), (HIGH, NOERR), (LOW, NOERR),
                              (LOW, NOERR), (LOW, NOERR)])
    _verdict(3, "replacement exactly at the 3rd consecutive suspect round, "
                "none after recovery",
             three == 3 and two_then_recover is None)


# -- criterion 4: migration threshold ------------------------------------------

def test_criterion_4_migration_threshold():
    cfg = validate_config({
        "task_count": 4, "job_count": 1, "server_count": 4, "server_capacity": 4,
        "demand_min": 5000, "demand_max": 5000, "horizon": 400, "sla_bound": 50,
        "latency_mean_min": 2, "latency_mean_max": 4, "latency_sigma": 1,
        "migration_threshold": 5, "seed": 3,
    })

    def spikes(times):
        return [FaultSpec(kind=FaultKind.DELAY_SPIKE, time=t, target_task=0,
                          magnitude=1.2) for t in times]

    six, _ = Simulation(Scenario.from_config(cfg, spikes((15, 45, 75, 105, 135, 165))),
                        collect_log=False).run()
    five, _ = Simulation(Scenario.from_config(cfg, spikes((15, 45, 75, 105, 135))),
                         collect_log=False).run()
    _verdict(4, "six per-node restarts yield exactly one job migration, five yield none",
             six.scalars["migration_count"] == 1
             and five.scalars["migration_count"] == 0)


# -- criterion 5: detection statistics ------------------------------------------

def test_criterion_5_detection_statistics():
    t0 = time.monotonic()
    n = 10 ** 4
    rng = random.Random(42)
    frac_88 = sum(checksum_oracle(0.88, rng) is ERR for _ in range(n)) / n
    rng = random.Random(42)
    frac_99 = sum(checksum_oracle(0.99, rng) is ERR for _ in range(n)) / n
    elapsed = time.monotonic() - t0
    ok = abs(frac_88 - 0.88) < 0.01 and abs(frac_99 - 0.99) < 0.004 and elapsed < 10.0
    _verdict(5, f"detection rates {frac_88:.4f}/{frac_99:.4f} within "
                f"0.88±0.01 / 0.99±0.004 in {elapsed:.2f}s", ok)


# -- criteria 6 and 7: containment campaign --------------------------------------

def test_criterion_6_byzantine_containment(campaign):
    results = campaign["results"]
    corrupted = sum(r["corrupted"] for r in results)
    latency_mean = (sum(r["latency_sum"] for r in results)
                    / sum(r["latency_count"] for r in results))
    jobs_done = sum(r["jobs_completed"] for r in results)
    elapsed = campaign["elapsed"]
    ok = (corrupted == 0
          and latency_mean <= 3 * BASE_INTERVAL
          and jobs_done == 10 * len(results)   # the check is not vacuous
          and elapsed < 60.0)
    _verdict(6, f"0 corrupted completions over 1000 scenarios, mean detection "
                f"latency {latency_mean:.2f} <= {3 * BASE_INTERVAL} ticks "
                f"in {elapsed:.1f}s", ok)


def test_criterion_7_replica_accounting(campaign):
    k = 1   # one injected fault per campaign scenario
    ok = all(r["replacements"] <= k + 1 and r["replacements"] < 3 * k + 1
             for r in campaign["results"])
    worst = max(r["replacements"] for r in campaign["results"])
    _verdict(7, f"replacements per scenario <= K+1 and < 3K+1 (worst {worst})", ok)


# -- criterion 8: occurable range -------------------------------------------------

def test_criterion_8_occurable_range():
    low_a, high_a = occurable_range(19.72, 8.10)
    low_b, high_b = occurable_range(13.97, 6.40)
    ok = (abs(low_a - 11.62) <= 0.01 and abs(high_a - 27.82) <= 0.01
          and abs(low_b - 7.57) <= 0.01 and abs(high_b - 20.37) <= 0.01)
    _verdict(8, f"({low_a:.2f}, {high_a:.2f}) and ({low_b:.2f}, {high_b:.2f}) "
                "match the reported one-sigma bands", ok)


# -- criterion 9: directional comparison ------------------------------------------

def test_criterion_9_directional_comparison(desk_runs):
    wins = 0
    for report_w, report_m in desk_runs["pairs"]:
        migrations_up = (report_w.scalars["completed_migrations"]
                         > report_m.scalars["completed_migrations"])
        violation_down = (report_w.scalars["overall_sla_violation_pct"]
                          < report_m.scalars["overall_sla_violation_pct"])
        tbm_down = (report_w.samples["time_before_migration"].mean
                    < report_m.samples["time_before_migration"].mean)
        wins += migrations_up and violation_down and tbm_down
    elapsed = desk_runs["elapsed"]
    _verdict(9, f"migrations higher, overall SLA violation lower, time-before-"
                f"migration lower for wsss+tcc on {wins}/10 seeds in {elapsed:.1f}s",
             wins >= 9 and elapsed < 60.0)


# -- criterion 10: determinism ------------------------------------------------------

def test_criterion_10_determinism():
    scenarios = [
        (_desk_cfg(1), _desk_faults(), "wsss", "tcc"),
        (_desk_cfg(1), _desk_faults(), "mesf", "sync"),
        (_campaign_cfg(10_000), [_campaign_fault(10_000)], None, None),
    ]
    ok = True
    for cfg, faults, sched, ckpt in scenarios:
        report_a, log_a = Simulation(Scenario.from_config(cfg, faults), scheduler=sched,
                                     checkpoint_policy=ckpt).run()
        report_b, log_b = Simulation(Scenario.from_config(cfg, faults), scheduler=sched,
                                     checkpoint_policy=ckpt).run()
        ok = ok and report_a.emit("json").encode() == report_b.emit("json").encode()
        ok = ok and "\n".join(log_a).encode() == "\n".join(log_b).encode()
    _verdict(10, "byte-identical reports and event logs on equal seeds", ok)


# -- criterion 11: accounting identity ------------------------------------------------

def test_criterion_11_accounting_identity(campaign, desk_runs):
    ok = all(r["identity"] for r in campaign["results"])
    for report_w, report_m in desk_runs["pairs"]:
        for report in (report_w, report_m):
            total = (report.scalars["useful_work_total"]
                     + report.scalars["lost_work_total"]
                     + report.scalars["pause_time_total"]
                     + report.scalars["restore_time_total"])
            ok = ok and total == report.scalars["active_time_total"]
    _verdict(11, "useful + lost + pause + restore equals active node time "
                 "on every acceptance scenario", ok)
