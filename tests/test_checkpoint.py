import random

import pytest

from bftsim.checkpoint import (
    CheckpointStore,
    TccActionKind,
    independent_gap,
    rollback_loss,
    tcc_round,
)
from bftsim.model import Job, NodeState, VirtualNode


def _vn(vn_id=1, contaminated=False, state=NodeState.FAIL_SAFE):
    return VirtualNode(vn_id=vn_id, server_id=1, state=state,
                       contaminated=contaminated)


def test_tcc_grown_gap_confirms_and_stretches_interval():
    job = Job(job_id=0)
    action = tcc_round(_vn(), ft_interval=10, gap=20, job=job, migration_threshold=5)
    assert action is TccActionKind.CONFIRMED_CHECKPOINT
    assert job.restart_count == 0


def test_tcc_collapsed_gap_restarts_and_counts():
    job = Job(job_id=0)
    action = tcc_round(_vn(), ft_interval=20, gap=10, job=job, migration_threshold=5)
    assert action is TccActionKind.PREVIOUS_RESTART
    assert job.restart_count == 1


def test_tcc_migrates_past_threshold():
    job = Job(job_id=0, restart_count=5)
    action = tcc_round(_vn(), ft_interval=20, gap=10, job=job, migration_threshold=5)
    assert action is TccActionKind.JOB_MIGRATION
    assert job.restart_count == 0


def test_tcc_exactly_at_threshold_still_restarts():
    job = Job(job_id=0, restart_count=4)
    action = tcc_round(_vn(), ft_interval=20, gap=10, job=job, migration_threshold=5)
    assert action is TccActionKind.PREVIOUS_RESTART
    assert job.restart_count == 5


def test_store_take_and_lineage_lookup():
    store = CheckpointStore()
    c1 = store.take(_vn(1), time=30, progress=28, lineage_id=7)
    c2 = store.take(_vn(2), time=60, progress=57, lineage_id=7)
    assert store.latest(7) is c2
    assert store.latest_clean(7) is c2
    assert store.latest_clean(7, before=40) is c1


def test_store_skips_tainted_images():
    store = CheckpointStore()
    clean = store.take(_vn(1), 30, 28, lineage_id=7)
    store.take(_vn(1, contaminated=True), 60, 57, lineage_id=7)
    assert store.latest_clean(7) is clean
    assert store.latest(7).tainted


def test_store_rejects_fail_stopped_node():
    store = CheckpointStore()
    with pytest.raises(ValueError, match="fail-stop"):
        store.take(_vn(1, state=NodeState.FAIL_STOP), 10, 5, lineage_id=1)


def test_rollback_loss_arithmetic():
    store = CheckpointStore()
    ckpt = store.take(_vn(1), 30, 30, lineage_id=1)
    assert rollback_loss(50, ckpt, now=50) == 20
    assert rollback_loss(30, ckpt, now=30) == 0
    assert rollback_loss(45, None, now=45) == 45   # no image: back to the start


def test_rollback_rejects_future_target():
    store = CheckpointStore()
    ckpt = store.take(_vn(1), 80, 70, lineage_id=1)
    with pytest.raises(ValueError, match="newer"):
        rollback_loss(75, ckpt, now=50)


def test_independent_gaps_deterministic_and_positive():
    a = [independent_gap(random.Random(42), 10) for _ in range(50)]
    b = [independent_gap(random.Random(42), 10) for _ in range(50)]
    assert a == b
    assert all(g >= 1 for g in a)
    tight = [independent_gap(random.Random(7), 1e-9) for _ in range(20)]
    assert tight == [1] * 20    # degenerate rate caps at one checkpoint per tick


def test_store_abandon_after_forgets_the_newer_images_of_the_lineage():
    store = CheckpointStore()
    c1 = store.take(_vn(1), time=30, progress=28, lineage_id=7)
    store.take(_vn(1), time=60, progress=57, lineage_id=7)
    other = store.take(_vn(2), time=70, progress=60, lineage_id=8)
    store.abandon_after(7, c1)
    assert store.latest_clean(7) is c1
    assert store.latest(8) is other
    store.abandon_after(7, None)          # back to the initial state
    assert store.latest(7) is None
    assert len(store.records) == 3        # the ledger keeps every image taken
