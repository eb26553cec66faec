import dataclasses
import importlib
import inspect
import itertools
import pkgutil
import random
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import bftsim
from bftsim.checkpoint import CheckpointStore
from bftsim.config import SimConfig
from bftsim.engine import VirtualNode, VnLedger
from bftsim.metrics import SampleStat
from bftsim.model import (
    CHECKSUM_TOKENS,
    DELAY_TOKENS,
    PERFORMANCE_TOKENS,
    STATE_TOKENS,
    STATUS_TOKENS,
    ChecksumResult,
    CheckpointStatus,
    DelayClass,
    NodeState,
    PerformanceClass,
    Server,
    split_application,
)
from bftsim.scenario import generate_faults, generate_workload


def _balanced_partition_oracle(task_count, job_count):
    """Enumerate contiguous partitions, keep the balanced ones (max size minus
    min size <= 1), and pick the first under a larger-blocks-first order."""
    def partitions(ids, k):
        if k == 1:
            yield [ids]
            return
        for cut in range(1, len(ids) - k + 2):
            for rest in partitions(ids[cut:], k - 1):
                yield [ids[:cut]] + rest

    ids = list(range(task_count))
    balanced = [[len(p) for p in parts] for parts in partitions(ids, job_count)
                if max(len(p) for p in parts) - min(len(p) for p in parts) <= 1]
    assert balanced, "no balanced partition found"
    return max(balanced)


def test_split_exact_division():
    jobs = split_application(12, 3)
    assert [len(j.task_ids) for j in jobs] == [4, 4, 4]


def test_split_uneven_matches_enumeration_oracle():
    jobs = split_application(10, 3)
    assert [len(j.task_ids) for j in jobs] == _balanced_partition_oracle(10, 3) == [4, 3, 3]


def test_split_singletons():
    jobs = split_application(5, 5)
    assert [j.task_ids for j in jobs] == [[0], [1], [2], [3], [4]]


@pytest.mark.parametrize("tasks,jobs", [(0, 1), (1, 0), (3, 4)])
def test_split_rejections(tasks, jobs):
    with pytest.raises(ValueError):
        split_application(tasks, jobs)


@given(st.integers(1, 200), st.integers(1, 50))
def test_split_is_partition(task_count, job_count):
    if job_count > task_count:
        job_count = task_count
    jobs = split_application(task_count, job_count)
    all_ids = list(itertools.chain.from_iterable(j.task_ids for j in jobs))
    assert sorted(all_ids) == list(range(task_count))
    assert len(all_ids) == len(set(all_ids))
    sizes = [len(j.task_ids) for j in jobs]
    assert max(sizes) - min(sizes) <= 1


def test_delay_class_total_order():
    assert DelayClass.LOW < DelayClass.NORMAL < DelayClass.HIGH < DelayClass.EXTREME


def test_enum_tokens_round_trip():
    for token, state in STATE_TOKENS.items():
        assert state.value == token
    assert set(DELAY_TOKENS.values()) == set(DelayClass)
    assert set(CHECKSUM_TOKENS.values()) == set(ChecksumResult)
    assert set(STATUS_TOKENS.values()) == set(CheckpointStatus)
    assert set(PERFORMANCE_TOKENS.values()) == set(PerformanceClass)
    assert set(STATE_TOKENS.values()) == set(NodeState)


# -- record types -----------------------------------------------------------

def test_scenario_records_are_read_only():
    """A run never writes the scenario's records, and their types enforce it."""
    workload = generate_workload(6, 2, 10, 20, random.Random(1))
    spec = generate_faults(SimConfig(task_count=6, job_count=2, byzantine_faults=1))[0]
    store = CheckpointStore()
    store.take(SimpleNamespace(vn_id=1, completion=(5, 0), contaminated=False), 5, 3, 0)
    ckpt = store.latest(0)
    scenario = bftsim.Scenario.from_config(SimConfig(task_count=6, job_count=2,
                                                     byzantine_faults=1))
    for record, attr in ((workload.tasks[0], "demand"), (workload.jobs[0], "job_id"),
                         (spec, "time"), (workload, "tasks"), (ckpt, "progress"),
                         (scenario, "faults")):
        with pytest.raises(AttributeError):
            setattr(record, attr, getattr(record, attr))


def test_scenario_has_one_owner():
    """``Scenario`` lives in ``scenario.py``; ``engine`` re-exports the same
    class, and it is a read-only NamedTuple like the other scenario records."""
    scenario = bftsim.scenario.Scenario
    assert bftsim.engine.Scenario is scenario and bftsim.Scenario is scenario
    assert issubclass(scenario, tuple) and scenario._fields == (
        "cfg", "workload", "faults", "latencies", "scenario_id")


def test_run_state_records_reject_misspelt_attributes():
    """Run state is slotted: a misspelt write raises instead of adding a field."""
    workload = generate_workload(2, 1, 10, 20, random.Random(1))
    server = Server(1, 2)
    rt = VirtualNode(1, workload.tasks[0], server, 0, 0)
    for record, attr in ((rt, "suspect_round"), (rt, "progres"), (VnLedger(0, 0), "progres"),
                         (server, "fail_counts"), (SampleStat(), "cnt")):
        with pytest.raises(AttributeError):
            setattr(record, attr, 1)


def test_simconfig_is_the_only_dataclass():
    """Each dataclass costs about a millisecond of generated code at import,
    so ``SimConfig`` (whose ``replace``/``fields``/``asdict`` API is public)
    is the only one in bftsim."""
    names = [info.name for info in pkgutil.iter_modules(bftsim.__path__, "bftsim.")
             if info.name != "bftsim.__main__"]   # importing it runs the CLI
    assert "bftsim.engine" in names
    classes = {cls for name in names
               for _, cls in inspect.getmembers(importlib.import_module(name), inspect.isclass)
               if cls.__module__.startswith("bftsim.")}
    assert [cls for cls in classes if dataclasses.is_dataclass(cls)] == [SimConfig]
