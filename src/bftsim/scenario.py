"""Policy-independent scenario inputs: topology, workload and fault trace.

Each input comes from its own stream derived from the scenario seed, so
every scheduler and checkpoint policy runs on identical servers, tasks,
demands and faults.  This module builds the whole scenario.
"""

from __future__ import annotations

import math
import random
from enum import Enum
from pathlib import Path
from typing import NamedTuple

from .config import SimConfig
from .model import Job, Task, split_application


class ScenarioError(RuntimeError):
    pass


class FaultKind(Enum):
    BYZANTINE = "byzantine"
    CRASH = "crash"
    DELAY_SPIKE = "delay"
    __hash__ = object.__hash__   # a per-event dict key: see model.py


BYZANTINE_FAULT = FaultKind.BYZANTINE
CRASH_FAULT = FaultKind.CRASH
_KIND_TOKEN = {kind: kind.value for kind in FaultKind}   # the fault trace's sort key


class FaultSpec(NamedTuple):
    kind: FaultKind
    time: int
    target_task: int                 # resolved to the task's current node
    magnitude: float = 0.0           # delay spike size, fraction of the SLA bound


class Workload(NamedTuple):
    tasks: list[Task]
    jobs: list[Job]


def generate_workload(task_count: int, job_count: int, demand_min: int,
                      demand_max: int, rng: random.Random) -> Workload:
    """Seeded workload: balanced jobs of tasks with uniform integer demands.

    A demand is ``rng.randint(demand_min, demand_max)`` drawn inline by its
    rejection loop: the same values and stream state, without its frames."""
    span = demand_max - demand_min + 1
    if span < 1:
        raise ValueError("demand_max must be >= demand_min")
    bits = span.bit_length()
    getrandbits = rng.getrandbits
    jobs = split_application(task_count, job_count)
    tasks = []
    for job in jobs:
        job_id = job.job_id
        for tid in job.task_ids:
            r = getrandbits(bits)
            while r >= span:
                r = getrandbits(bits)
            tasks.append(Task(tid, job_id, demand_min + r))
    return Workload(tasks=tasks, jobs=jobs)


def load_utilization_trace(path: str | Path) -> list[int]:
    """Parse a utilization trace: one integer percentage (0-100) per line."""
    path = Path(path)
    if not path.exists():
        raise ValueError(f"trace file not found: {path}")
    lines = path.read_text(encoding="utf-8").splitlines()
    samples = []
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: not an integer: {text!r}") from None
        if not 0 <= value <= 100:
            raise ValueError(f"{path}:{lineno}: out of range 0-100: {value}")
        samples.append(value)
    if not samples:
        raise ValueError(f"{path}: empty trace")
    return samples


def scale_demands(workload: Workload, series: list[int]) -> None:
    """Scale task demands by the utilization percentages, cycling samples.
    Tasks are read-only, so each is replaced in ``workload.tasks``."""
    tasks = workload.tasks
    for i, task in enumerate(tasks):
        pct = series[task.task_id % len(series)]
        tasks[i] = task._replace(demand=max(1, round(task.demand * pct / 100)))


def generate_faults(cfg: SimConfig) -> list[FaultSpec]:
    """Seeded fault trace over the configured injection window."""
    rng = random.Random(f"{cfg.seed}:faults")
    specs = []
    for kind, count in ((FaultKind.BYZANTINE, cfg.byzantine_faults),
                        (FaultKind.CRASH, cfg.crash_faults),
                        (FaultKind.DELAY_SPIKE, cfg.delay_faults)):
        magnitude = cfg.delay_magnitude if kind is FaultKind.DELAY_SPIKE else 0.0
        for _ in range(count):
            specs.append(FaultSpec(kind,
                                   rng.randrange(cfg.fault_window_start, cfg.fault_window_end),
                                   rng.randrange(cfg.task_count), magnitude))
    specs.sort(key=lambda s: (s.time, _KIND_TOKEN[s.kind], s.target_task))
    return specs


class Scenario(NamedTuple):
    """The inputs every run of a comparison shares; built by ``from_config``
    only, with its own tuple of the fault specs it checked."""
    cfg: SimConfig
    workload: Workload
    faults: tuple[FaultSpec, ...]
    latencies: list[float]
    scenario_id: str

    @classmethod
    def from_config(cls, cfg: SimConfig, faults: list[FaultSpec] | None = None) -> Scenario:
        # Random.uniform's formula, inline
        draw = random.Random(f"{cfg.seed}:topology").random
        low, width = cfg.latency_mean_min, cfg.latency_mean_max - cfg.latency_mean_min
        latencies = [low + width * draw() for _ in range(cfg.server_count)]
        wl_rng = random.Random(f"{cfg.seed}:workload")
        workload = generate_workload(cfg.task_count, cfg.job_count,
                                     cfg.demand_min, cfg.demand_max, wl_rng)
        if cfg.trace_path:
            scale_demands(workload, load_utilization_trace(cfg.trace_path))
        faults = tuple(generate_faults(cfg) if faults is None else faults)
        for spec in faults:
            if not isinstance(spec.kind, FaultKind):
                raise ScenarioError(f"fault kind {spec.kind!r} is not a FaultKind")
            for name in ("time", "target_task"):
                value = getattr(spec, name)
                if not isinstance(value, int) or isinstance(value, bool):
                    raise ScenarioError(f"fault {name} {value!r} is not an int")
            if spec.time < 0:
                raise ScenarioError(f"fault at t={spec.time} is before t=0")
            if spec.time >= cfg.horizon:
                raise ScenarioError(f"fault at t={spec.time} is not below horizon {cfg.horizon}")
            if spec.target_task not in range(len(workload.tasks)):
                raise ScenarioError(f"fault target task {spec.target_task!r} is not in the "
                                    f"workload (tasks 0-{len(workload.tasks) - 1})")
            m = spec.magnitude
            if (not isinstance(m, (int, float)) or isinstance(m, bool)
                    or not math.isfinite(m) or m < 0):
                raise ScenarioError(f"fault magnitude {m!r} is not a finite number >= 0")
        return cls(cfg, workload, faults, latencies,
                   f"s{cfg.server_count}c{cfg.server_capacity}"
                   f"-t{cfg.task_count}j{cfg.job_count}"
                   f"-seed{cfg.seed}-f{len(faults)}-h{cfg.horizon}")
