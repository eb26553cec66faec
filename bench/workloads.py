"""The benchmark's workloads: inputs generated from the workload seed.

A workload turns ``--seed`` into a fixed list of run inputs, its pass.  Each
run is one (scenario, scheduler, checkpoint policy) triple.  The program sees
only the generated configs, fault specs and seeds.  ``README.md`` in this
directory says why each workload exists and what it bypasses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

SCHEDULERS = ("wsss", "mesf", "random")
CHECKPOINT_POLICIES = ("tcc", "sync", "independent")


@dataclass(frozen=True)
class RunInput:
    label: str                 # names the run in the digest and in error messages
    scenario: object           # bftsim.engine.Scenario
    scheduler: str
    checkpoint_policy: str
    collect_log: bool
    jobs_expected: int | None  # jobs that must complete, or None where the horizon may cut them


@dataclass(frozen=True)
class Workload:
    name: str
    scenarios: int             # scenarios built per pass
    build: object              # (bftsim, rng, scenarios, root) -> list[RunInput]


def _scenario_seeds(rng: random.Random, count: int) -> list[int]:
    return [rng.randrange(1, 2**31) for _ in range(count)]


def _campaign(bft, rng, count, root):
    """Acceptance criterion 6: 100 nodes on 20 servers, one Byzantine injection."""
    runs = []
    for seed in _scenario_seeds(rng, count):
        cfg = bft.config.validate_config({
            "task_count": 100, "job_count": 10, "server_count": 20, "server_capacity": 6,
            "demand_min": 150, "demand_max": 170, "horizon": 250, "sla_bound": 50,
            "base_interval": 10, "ft_interval": 10,
            "latency_mean_min": 5, "latency_mean_max": 15, "latency_sigma": 3,
            "detect_prob": 0.88, "seed": seed,
            "fault_window_start": 20, "fault_window_end": 120,
        })
        fault = bft.engine.FaultSpec(kind=bft.engine.FaultKind.BYZANTINE,
                                     time=rng.randrange(20, 120),
                                     target_task=rng.randrange(100))
        scenario = bft.engine.Scenario.from_config(cfg, [fault])
        runs.append(RunInput(f"campaign/seed{seed}", scenario, "wsss", "tcc",
                             collect_log=False, jobs_expected=cfg.job_count))
    return runs


def _policy_matrix(bft, rng, count, root):
    """scenarios/desk.cfg: every scheduler x checkpoint combination on one scenario."""
    runs = []
    for seed in _scenario_seeds(rng, count):
        cfg = bft.config.load_config(root / "scenarios" / "desk.cfg", {"seed": seed})
        scenario = bft.engine.Scenario.from_config(cfg)
        for sched in SCHEDULERS:
            for ckpt in CHECKPOINT_POLICIES:
                runs.append(RunInput(f"policy-matrix/seed{seed}/{sched}+{ckpt}", scenario,
                                     sched, ckpt, collect_log=True, jobs_expected=None))
    return runs


def _fault_storm(bft, rng, count, root):
    """400 nodes in 20 jobs on 200 servers under 64 mixed faults, tcc per scheduler."""
    runs = []
    for seed in _scenario_seeds(rng, count):
        cfg = bft.config.validate_config({
            "task_count": 400, "job_count": 20, "server_count": 200, "server_capacity": 4,
            "demand_min": 400, "demand_max": 600, "horizon": 1000, "sla_bound": 50,
            "base_interval": 10, "ft_interval": 10,
            "byzantine_faults": 22, "crash_faults": 21, "delay_faults": 21,
            "fault_window_start": 30, "fault_window_end": 600,
            "propagation_prob": 0.02, "migration_threshold": 3, "seed": seed,
        })
        scenario = bft.engine.Scenario.from_config(cfg)
        for sched in SCHEDULERS:
            runs.append(RunInput(f"fault-storm/seed{seed}/{sched}+tcc", scenario,
                                 sched, "tcc", collect_log=False, jobs_expected=None))
    return runs


# Each pass holds at least 100 runs, so that p90 has ten samples beyond it.
WORKLOADS = {
    "campaign": Workload("campaign", 100, _campaign),
    "policy-matrix": Workload("policy-matrix", 12, _policy_matrix),
    "fault-storm": Workload("fault-storm", 34, _fault_storm),
}


def build_pass(bft, workload: Workload, seed: int, root: Path,
               scenarios: int | None = None) -> list[RunInput]:
    """Generate the workload's inputs from ``seed`` and build its scenarios."""
    rng = random.Random(f"{workload.name}:{seed}")
    return workload.build(bft, rng, scenarios or workload.scenarios, root)
