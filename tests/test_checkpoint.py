import random
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import bftsim.checkpoint
from bftsim.checkpoint import (
    CheckpointStore,
    independent_next,
    rollback_loss,
    tcc_round,
)
from bftsim.model import Checkpoint
from conftest import store_chains


def _vn(vn_id=1, contaminated=False, crashed=False, progress=0, lineage_id=7):
    """The node fields ``CheckpointStore.take`` reads: a crashed node has no
    completion, and its task's id is the image's lineage."""
    return SimpleNamespace(vn_id=vn_id, completion=None if crashed else (100, 0),
                           contaminated=contaminated, progress=progress,
                           task=SimpleNamespace(task_id=lineage_id))


def test_tcc_collapsed_gap_restarts_and_counts():
    action, restarts = tcc_round(restarts=0, migration_threshold=5)
    assert action == "previous_restart"
    assert restarts == 1


def test_tcc_migrates_past_threshold():
    action, restarts = tcc_round(restarts=5, migration_threshold=5)
    assert action == "job_migration"
    assert restarts == 0


def test_tcc_exactly_at_threshold_still_restarts():
    action, restarts = tcc_round(restarts=4, migration_threshold=5)
    assert action == "previous_restart"
    assert restarts == 5


def test_tcc_tokens_are_spelled_only_where_tcc_round_answers():
    """``tcc_round`` answers with the tokens the event log writes, and no
    other module of the package spells them again."""
    package = Path(bftsim.checkpoint.__file__).parent
    spelling = {path.name for path in package.glob("*.py")
                for token in ("previous_restart", "job_migration")
                if token in path.read_text()}
    assert spelling == {"checkpoint.py"}


def test_store_take_and_lineage_lookup():
    store = CheckpointStore()
    assert store.take(_vn(1, progress=28), time=30) == 0
    assert store.take(_vn(2, progress=57), time=60) == 1
    c1, c2 = Checkpoint(0, 30, 28, False), Checkpoint(1, 60, 57, False)
    assert store.latest(7) == c2
    assert store.latest_clean(7) == c2
    assert store.latest_clean(7, before=40) == c1


def test_store_skips_tainted_images():
    store = CheckpointStore()
    store.take(_vn(1, progress=28), 30)
    store.take(_vn(1, contaminated=True, progress=57), 60)
    assert store.latest_clean(7) == Checkpoint(0, 30, 28, False)
    assert store.latest(7) == Checkpoint(1, 60, 57, True)


def test_store_rejects_fail_stopped_node():
    store = CheckpointStore()
    with pytest.raises(ValueError, match="fail-stop"):
        store.take(_vn(1, crashed=True, progress=5, lineage_id=1), 10)


def test_rollback_loss_arithmetic():
    store = CheckpointStore()
    store.take(_vn(1, progress=30, lineage_id=1), 30)
    ckpt = store.latest(1)
    assert rollback_loss(50, ckpt, now=50) == 20
    assert rollback_loss(30, ckpt, now=30) == 0
    assert rollback_loss(45, None, now=45) == 45   # no image: back to the start


def test_rollback_rejects_future_target():
    store = CheckpointStore()
    store.take(_vn(1, progress=70, lineage_id=1), 80)
    ckpt = store.latest(1)
    with pytest.raises(ValueError, match="newer"):
        rollback_loss(75, ckpt, now=50)


def test_independent_gaps_deterministic_and_positive():
    a = [independent_next(random.Random(42), 1 / 10, 0) for _ in range(50)]
    b = [independent_next(random.Random(42), 1 / 10, 0) for _ in range(50)]
    assert a == b
    assert all(g >= 1 for g in a)
    tight = [independent_next(random.Random(7), 1e9, 0) for _ in range(20)]
    assert tight == [1] * 20    # degenerate rate caps at one checkpoint per tick


def test_store_abandon_after_forgets_the_newer_images_of_the_lineage():
    store = CheckpointStore()
    store.take(_vn(1, progress=28), time=30)
    c1 = store.latest(7)
    store.take(_vn(1, progress=57), time=60)
    store.take(_vn(2, progress=60, lineage_id=8), time=70)
    store.abandon_after(7, c1)
    assert store.latest_clean(7) == c1 == Checkpoint(0, 30, 28, False)
    assert store.latest(8) == Checkpoint(2, 70, 60, False)
    store.abandon_after(7, None)          # back to the initial state
    assert store.latest(7) is None
    assert store.taken == 3               # every image written counts
    assert len(store.records) == 1        # lineage 8's is the only image kept


class _ObjectStore:
    """The checkpoint store as it kept one ``Checkpoint`` object per image:
    the reference the flat-chain store must match."""

    def __init__(self):
        self.records = []
        self._by_lineage = {}

    def take(self, vn, time):
        if vn.completion is None:
            raise ValueError(f"cannot checkpoint fail-stopped node v{vn.vn_id}")
        ckpt = Checkpoint(len(self.records), time, vn.progress, vn.contaminated)
        self.records.append(ckpt)
        self._by_lineage.setdefault(vn.task.task_id, []).append(ckpt)
        return ckpt

    def latest_clean(self, lineage_id, before=None):
        for ckpt in reversed(self._by_lineage.get(lineage_id, [])):
            if ckpt.tainted:
                continue
            if before is not None and ckpt.time > before:
                continue
            return ckpt
        return None

    def abandon_after(self, lineage_id, target):
        chain = self._by_lineage.get(lineage_id, [])
        kept = target.ckpt_id if target else -1
        while chain and chain[-1].ckpt_id > kept:
            chain.pop()

    def latest(self, lineage_id):
        chain = self._by_lineage.get(lineage_id, [])
        return chain[-1] if chain else None


_LINEAGES = range(3)
_STORE_STEPS = st.lists(
    st.tuples(st.sampled_from(("take", "take_tainted", "take_fail_stopped", "abandon",
                               "abandon_all", "latest", "latest_clean")),
              st.sampled_from(_LINEAGES), st.integers(0, 10), st.none() | st.integers(0, 20),
              st.integers(1, 4)),
    max_size=60)


def _take_on_both(store, reference, op, lineage, now, rounds):
    """One ``take`` step of the store test: a clean, tainted or fail-stopped
    batch of ``rounds`` rounds at ``now``, one write to the store and one per
    round to the reference, which give the same last ``ckpt_id`` or both
    raise.  Returns the ``ckpt_id`` of the batch's earlier images."""
    vn = _vn(contaminated=op == "take_tainted", crashed=op == "take_fail_stopped",
             progress=now // 2, lineage_id=lineage)
    if vn.completion is None:
        for side in (store, reference):
            with pytest.raises(ValueError, match="fail-stop"):
                side.take(vn, now)
        return []
    ckpt_ids = [reference.take(vn, now).ckpt_id for _ in range(rounds)]
    assert store.take(vn, now, rounds) == ckpt_ids[-1]
    return ckpt_ids[:-1]


@given(_STORE_STEPS)
def test_tuple_store_matches_the_object_store(steps):
    """The flat-chain store against the object-store reference: random batch
    takes (tainted and fail-stopped ones mixed in), rollbacks to a lookup's
    image or to the initial state, and lookups over three lineages.  A batch
    writes one image to the store and one per round to the reference, all
    at one tick: a run's batch spans several ticks, but no ``before`` lookup
    meets a batch (``CheckpointStore.latest_clean``).  The store keeps the
    reference's chains less each batch's earlier images, every lookup
    returns an equal image or ``None`` on both sides, and ``taken`` counts
    the reference's ledger.  After every step
    each lineage's newest and newest clean image agree, and a ``before``
    lookup also tries each image time of its lineage as the bound."""
    store, reference = CheckpointStore(), _ObjectStore()
    skipped = set()
    now = 0
    for op, lineage, dt, back, rounds in steps:
        now += dt
        before = None if back is None else now - back
        if op.startswith("take"):
            skipped.update(_take_on_both(store, reference, op, lineage, now, rounds))
        elif op.startswith("abandon"):
            target = None if op == "abandon_all" else store.latest_clean(lineage, before)
            ref_target = None if op == "abandon_all" else reference.latest_clean(lineage, before)
            assert target == ref_target
            store.abandon_after(lineage, target)
            reference.abandon_after(lineage, ref_target)
        elif op == "latest":
            assert store.latest(lineage) == reference.latest(lineage)
        else:
            bounds = {before} | {c.time for c in reference._by_lineage.get(lineage, [])}
            for bound in bounds:
                assert (store.latest_clean(lineage, before=bound)
                        == reference.latest_clean(lineage, before=bound)), bound
        for other in _LINEAGES:
            assert store.latest(other) == reference.latest(other)
            assert store.latest_clean(other) == reference.latest_clean(other)
        assert store.taken == len(reference.records)
        kept = {lineage: [c for c in chain if c.ckpt_id not in skipped]
                for lineage, chain in reference._by_lineage.items()}
        assert store_chains(store) == kept
        assert len(store.records) == sum(map(len, kept.values()))
