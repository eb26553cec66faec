"""Domain types shared by every other module.

The simulated world is a set of physical servers hosting virtual nodes
(VNs).  Each VN executes one task of one job.  Node health is tracked by a
three-state machine (fail-safe / Byzantine-suspect / fail-stop); fail-stop
is absorbing everywhere.  All times are integer simulation ticks.
"""

from __future__ import annotations

from enum import Enum, IntEnum
from typing import NamedTuple


# Per-event code reads enum members through the module-level names bound
# below their classes, never as ``NodeState.FAIL_STOP``.  On CPython 3.11
# ``EnumType`` defines ``__getattr__``, which puts every read through the class
# on the slow attribute path (130-170 ns against 10 ns for a global on a 2-CPU
# host), and ``Enum.__hash__``, ``.value`` and ``.name`` are Python functions.
# So the non-int enums that per-event code uses as dict keys hash by identity
# (members are singletons compared by identity, so this is equivalent), and
# the event log's tokens are built once at import.

class NodeState(Enum):
    FAIL_SAFE = "S0"
    BYZANTINE = "S1"
    FAIL_STOP = "S2"
    __hash__ = object.__hash__


FAIL_SAFE = NodeState.FAIL_SAFE
BYZANTINE = NodeState.BYZANTINE
FAIL_STOP = NodeState.FAIL_STOP


class DelayClass(IntEnum):
    # Totally ordered: LOW < NORMAL < HIGH < EXTREME.
    LOW = 0
    NORMAL = 1
    HIGH = 2
    EXTREME = 3


LOW = DelayClass.LOW
NORMAL = DelayClass.NORMAL
HIGH = DelayClass.HIGH
EXTREME = DelayClass.EXTREME


class ChecksumResult(Enum):
    NO_ERROR = "noerror"
    ERROR = "error"
    __hash__ = object.__hash__


NO_ERROR = ChecksumResult.NO_ERROR
CHECKSUM_ERROR = ChecksumResult.ERROR


class CheckpointStatus(Enum):
    NULL = "null"
    CONFIRMED = "confirmed"
    PREVIOUS = "previous"
    COMPLETE = "complete"


class PerformanceClass(Enum):
    NOT_PERFORMING = "notperforming"
    PERFORMING = "performing"
    WARY = "wary"


class FailureKind(Enum):
    ERRONEOUS = "W"          # erroneous output (bad checksum, crash)
    DELAY_SENSITIVE = "Y"    # delay exceeded the SLA bound


ERRONEOUS = FailureKind.ERRONEOUS
DELAY_SENSITIVE = FailureKind.DELAY_SENSITIVE


# token <-> enum maps used by the report format and the fsm-trace format
STATE_TOKENS = {s.value: s for s in NodeState}
DELAY_TOKENS = {d.name.lower(): d for d in DelayClass}
CHECKSUM_TOKENS = {c.value: c for c in ChecksumResult}
STATUS_TOKENS = {s.value: s for s in CheckpointStatus}
PERFORMANCE_TOKENS = {p.value: p for p in PerformanceClass}


# Scenario records are NamedTuples, read-only by type.  Run state lives on
# plain classes with ``__slots__`` and a hand-written ``__init__``, so a
# misspelt attribute write raises.  Neither is a dataclass: each dataclass
# costs close to a millisecond of generated code at every import, and
# ``SimConfig`` is the only one (see README "Performance notes").

class Task(NamedTuple):
    task_id: int
    job_id: int
    demand: int                  # nominal service demand, ticks


class Job(NamedTuple):
    job_id: int
    task_ids: list[int]


class Checkpoint(NamedTuple):
    ckpt_id: int
    time: int
    progress: int                # task progress captured in the image
    tainted: bool                # ground truth: the node was contaminated when imaged


class Server:
    """A physical server: its capacity and mean latency, its free slots (its
    capacity less the live nodes it hosts) and the failure record the
    schedulers rank it by.  Its delay-sensitive (Y) failures are
    ``fail_count - w_count``; every server's latency spread is the config's
    ``latency_sigma``."""

    __slots__ = ("server_id", "capacity", "latency_mean", "fail_count", "w_count",
                 "free_slots", "obs_time", "over_time")

    def __init__(self, server_id: int, capacity: int, latency_mean: float = 0.0):
        self.server_id = server_id
        self.capacity = capacity
        self.latency_mean = latency_mean
        self.fail_count = 0
        self.w_count = 0         # erroneous (W) failures
        self.free_slots = capacity
        self.obs_time = 0        # ticks covered by observations of its nodes
        self.over_time = 0       # the part of obs_time observed at high delay or worse


def split_application(task_count: int, job_count: int) -> list[Job]:
    """Partition ``task_count`` tasks into ``job_count`` balanced jobs.

    Tasks are assigned in id order as contiguous blocks; block sizes differ
    by at most one, with the larger blocks first.  Deterministic.
    """
    if task_count < 1:
        raise ValueError("task_count must be >= 1")
    if job_count < 1:
        raise ValueError("job_count must be >= 1")
    if job_count > task_count:
        raise ValueError("job_count must not exceed task_count")
    base, rem = divmod(task_count, job_count)
    jobs = []
    next_task = 0
    for j in range(job_count):
        size = base + (1 if j < rem else 0)
        jobs.append(Job(job_id=j, task_ids=list(range(next_task, next_task + size))))
        next_task += size
    return jobs
