"""Checkpoint rules and storage, read by the policy classes in ``engine.py``
(``TccCheckpointing``, ``SyncCheckpointing``, ``IndependentCheckpointing``).

``tcc_round`` is ``tcc``'s rule for a collapsed gap: it restarts the node
from its previous confirmed image, or migrates the whole job from a
job-consistent image once the job's restarts pass the migration threshold.
A healthy round confirms a fresh image instead, which the engine writes
(``TccCheckpointing.confirms``).
``CheckpointStore`` keeps every policy's images by lineage,
``rollback_loss`` prices a rollback, and ``independent_next`` draws the gap
to an ``independent`` node's next round.
"""

from __future__ import annotations

import random
from enum import Enum
from math import log
from typing import TYPE_CHECKING

from .model import Checkpoint

if TYPE_CHECKING:
    from .engine import VirtualNode


class TccActionKind(Enum):
    PREVIOUS_RESTART = "previous_restart"
    JOB_MIGRATION = "job_migration"


# per-event code binds members by name: see model.py
PREVIOUS_RESTART = TccActionKind.PREVIOUS_RESTART
JOB_MIGRATION = TccActionKind.JOB_MIGRATION


def tcc_round(restarts: int, migration_threshold: int) -> tuple[TccActionKind, int]:
    """Decide between restarting one node and migrating its job, after a
    round collapsed the node's gap.

    ``restarts`` counts the job's restarts since its last migration; returns
    the action and the new count: a restart increments it, a migration
    resets it to zero.
    """
    restarts += 1
    if restarts > migration_threshold:
        return JOB_MIGRATION, 0
    return PREVIOUS_RESTART, restarts


class CheckpointStore:
    """The checkpoint images a run can still restore, by lineage: a task keeps
    its chain across node replacements, so a new node restores the image its
    predecessor wrote.  A chain is one flat list of ints and bools, four per
    image in ``Checkpoint``'s field order (ckpt_id, time, progress, tainted),
    so a kept image holds no object the cyclic GC tracks; a lookup builds the
    ``Checkpoint`` it returns.

    Every write appends its image, and only a rollback forgets images
    (``abandon_after``).  One write may stand for a batch of ``rounds`` own
    rounds: it keeps the last round's image and takes the last of the
    batch's ckpt_ids, as if each round had written its own.  ``taken``
    counts the rounds written, ``len`` the images kept.
    """

    def __init__(self):
        self.taken = 0     # the next ckpt_id
        self.dropped = 0   # ckpt_ids with no image kept
        self._by_lineage: dict[int, list[int | bool]] = {}

    def __len__(self) -> int:
        return self.taken - self.dropped

    @property
    def records(self) -> CheckpointStore:   # sized as the images kept
        return self

    def take(self, vn: VirtualNode, time: int, progress: int, lineage_id: int,
             rounds: int = 1) -> int:
        """Image ``vn`` at ``time`` into the lineage's chain for the last of
        ``rounds`` rounds; returns its ``ckpt_id``."""
        if vn.completion is None:   # crashed or retired
            raise ValueError(f"cannot checkpoint fail-stopped node v{vn.vn_id}")
        ckpt_id = self.taken + rounds - 1
        self.taken = ckpt_id + 1
        self.dropped += rounds - 1
        chain = self._by_lineage.get(lineage_id)
        if chain is None:
            self._by_lineage[lineage_id] = [ckpt_id, time, progress, vn.contaminated]
        else:
            chain.extend((ckpt_id, time, progress, vn.contaminated))
        return ckpt_id

    def latest_clean(self, lineage_id: int, before: int | None = None) -> Checkpoint | None:
        """Newest untainted image in the lineage, optionally no newer than
        ``before``.  Only a ``tcc`` migration passes ``before``, and ``tcc``
        writes one image per round, so no such lookup meets a batch."""
        chain = self._by_lineage.get(lineage_id, ())
        for i in range(len(chain) - 4, -1, -4):
            if chain[i + 3] or (before is not None and chain[i + 1] > before):
                continue
            return Checkpoint(*chain[i:i + 4])
        return None

    def abandon_after(self, lineage_id: int, target: Checkpoint | None) -> None:
        """Forget the lineage's images newer than ``target`` (all of them for the
        initial state): a rollback abandons their timeline."""
        chain = self._by_lineage.get(lineage_id, [])
        kept = target.ckpt_id if target else -1
        while chain and chain[-4] > kept:
            del chain[-4:]
            self.dropped += 1

    def latest(self, lineage_id: int) -> Checkpoint | None:
        chain = self._by_lineage.get(lineage_id)
        return Checkpoint(*chain[-4:]) if chain else None


def rollback_loss(current_progress: int, target: Checkpoint | None, now: int) -> int:
    """Work discarded by rolling back to ``target`` (or the initial state)."""
    if target is None:
        return current_progress
    if target.time > now:
        raise ValueError("rollback target is newer than current time")
    lost = current_progress - target.progress
    if lost < 0:
        raise ValueError("checkpoint progress exceeds current progress")
    return lost


def independent_next(rng: random.Random, rate: float, after: int) -> int:
    """Tick of the next uncoordinated checkpoint round after tick ``after``:
    an exponential gap of at least one tick, at ``rate`` (one over the mean
    gap).  The gap is ``rng.expovariate(rate)``'s own formula, with no
    frame; dividing by the rate, not multiplying by the mean, keeps its
    bits.  ``Simulation._count_rounds`` draws it inline."""
    return after + max(1, round(-log(1.0 - rng.random()) / rate))
