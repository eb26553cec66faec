from __future__ import annotations

import os

import pytest
from hypothesis import settings

from bftsim.config import validate_config
from bftsim.model import Checkpoint

# A shared CI runner can stall any one example past Hypothesis's 200 ms
# deadline; there a slow example is no failure, and a failing one prints the
# blob that replays it.  CI is set on GitHub Actions.
settings.register_profile("ci", deadline=None, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


def store_chains(store):
    """Each lineage's kept images as ``Checkpoint``s, decoded from the
    store's flat chains: four values per image, in ``Checkpoint``'s field
    order."""
    assert all(len(chain) % 4 == 0 for chain in store._by_lineage.values())
    return {lineage: [Checkpoint(*chain[i:i + 4]) for i in range(0, len(chain), 4)]
            for lineage, chain in store._by_lineage.items()}


@pytest.fixture
def base_cfg():
    """Small single-node scenario used by engine-level tests."""
    return validate_config({
        "task_count": 1, "job_count": 1, "server_count": 1, "server_capacity": 1,
        "demand_min": 2000, "demand_max": 2000, "horizon": 1000,
        "latency_mean_min": 5, "latency_mean_max": 5, "latency_sigma": 2,
        "sla_bound": 100,
    })


def cluster_cfg(**overrides):
    raw = {
        "task_count": 12, "job_count": 3, "server_count": 4, "server_capacity": 4,
        "demand_min": 300, "demand_max": 400, "horizon": 600, "sla_bound": 50,
        "latency_mean_min": 5, "latency_mean_max": 15, "latency_sigma": 3,
        "seed": 11,
    }
    raw.update(overrides)
    return validate_config(raw)


def storm_cfg(seed):
    """Four jobs under every fault kind, with contamination exchange and a
    migration after the first restart of a job."""
    return validate_config({
        "task_count": 24, "job_count": 4, "server_count": 10, "server_capacity": 4,
        "demand_min": 400, "demand_max": 600, "horizon": 1000, "sla_bound": 50,
        "byzantine_faults": 3, "crash_faults": 3, "delay_faults": 3,
        "fault_window_start": 30, "fault_window_end": 600,
        "propagation_prob": 0.05, "migration_threshold": 1, "seed": seed})
