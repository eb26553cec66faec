"""Server scheduling: failure-count ranking plus the comparison baselines.

The workload-sensitive policy (tag ``wsss``) counts per-server task
failures, both erroneous (W) and SLA-delay (Y) (``failure_kind``), and
ranks servers by ascending count; a replacement takes the best-ranked
server with a free slot without pre-evaluating anything.  The ``mesf``
baseline packs tasks onto the fewest, most efficient servers and pays a
pre-evaluation cost per candidate before each wave.  Both waves are one
``first_fit``, over a different server order.  The ``random`` baseline
places uniformly among feasible servers.
"""

from __future__ import annotations

import random
from operator import attrgetter

from .metrics import csv_text
from .model import (
    CHECKSUM_ERROR,
    DELAY_SENSITIVE,
    ERRONEOUS,
    HIGH,
    ChecksumResult,
    DelayClass,
    FailureKind,
    Server,
)


def failure_kind(dclass: DelayClass, checksum: ChecksumResult) -> FailureKind | None:
    """The failure an observation charges its server: an errored checksum is
    erroneous (W), else a high or extreme delay is delay-sensitive (Y), else
    none.  The engine's observations and ``bftsim rank`` share this rule."""
    if checksum is CHECKSUM_ERROR:
        return ERRONEOUS
    if dclass >= HIGH:
        return DELAY_SENSITIVE
    return None


def record_failure(server: Server, kind: FailureKind) -> int:
    """Charge one failure of the given kind to the server; returns the new count."""
    server.fail_count += 1
    if kind is ERRONEOUS:
        server.w_count += 1
    return server.fail_count


def rank_servers(servers: list[Server]) -> list[Server]:
    """Rank servers by ascending failure count, ties broken by ascending id."""
    return sorted(servers, key=attrgetter("fail_count", "server_id"))


def select_servers(servers: list[Server], exclude: int) -> int | None:
    """The id of the server with the lowest ``(fail_count, server_id)`` that
    has a free slot and is not ``exclude``, or None: one pass over the
    servers, in any order.  On a ``rank_servers`` list it is the first such
    server.  No pre-evaluation cost is ever charged here."""
    best = None
    for server in servers:
        if server.free_slots > 0 and server.server_id != exclude and (
                best is None or server.fail_count < best.fail_count
                or server.fail_count == best.fail_count and server.server_id < best.server_id):
            best = server
    return None if best is None else best.server_id


def first_fit(task_ids: list[int], ordered_servers: list[Server]) -> dict[int, int]:
    """Place tasks in order on the free slots of the servers in order: a
    server fills up before the next one takes a task.  Returns task id ->
    server id; the caller checks that the slots suffice."""
    slots = (s.server_id for s in ordered_servers for _ in range(s.free_slots))
    return dict(zip(task_ids, slots))


def _check_capacity(task_ids: list[int], servers: list[Server]) -> None:
    if not task_ids or not servers:
        raise ValueError("tasks and servers must be non-empty")
    total = sum(s.free_slots for s in servers)
    if total < len(task_ids):
        raise ValueError(f"capacity shortfall: {len(task_ids) - total} tasks unplaceable")


def mesf_assign(task_ids: list[int], servers: list[Server],
                preeval_cost: float) -> tuple[dict[int, int], float]:
    """Pack tasks onto the fewest servers, most efficient (lowest mean latency)
    first.  Returns (task id -> server id, pre-evaluation charge): the cost
    is paid once per candidate server."""
    _check_capacity(task_ids, servers)
    ordered = sorted(servers, key=attrgetter("latency_mean", "server_id"))
    return first_fit(task_ids, ordered), preeval_cost * len(servers)


def random_assign(task_ids: list[int], servers: list[Server],
                  rng: random.Random) -> dict[int, int]:
    """Uniform random feasible placement from the seeded stream; returns
    task id -> server id."""
    _check_capacity(task_ids, servers)
    free = {s.server_id: s.free_slots for s in servers}
    # servers with a free slot, in id order: the draws depend on the order
    open_ids = sorted(sid for sid, slots in free.items() if slots > 0)
    mapping = {}
    for tid in task_ids:
        sid = rng.choice(open_ids)
        mapping[tid] = sid
        free[sid] -= 1
        if free[sid] == 0:
            open_ids.remove(sid)
    return mapping


def ranking_csv(servers: list[Server]) -> str:
    """CSV report of the current ranking: server_id,fault_count,w_count,y_count,rank,
    where y_count, the delay-sensitive failures, is fault_count - w_count."""
    return csv_text([["server_id", "fault_count", "w_count", "y_count", "rank"]]
                    + [[f"s{s.server_id}", s.fail_count, s.w_count, s.fail_count - s.w_count,
                        rank] for rank, s in enumerate(rank_servers(servers), start=1)])
