"""Server scheduling: failure-count ranking plus the comparison baselines.

The workload-sensitive policy (tag ``wsss``) counts per-server task
failures, both erroneous (W) and SLA-delay (Y), and keeps servers ranked by
ascending count; placement reads the ranking head without pre-evaluating
anything.  The ``mesf`` baseline packs tasks onto the fewest, most efficient
servers and pays a pre-evaluation cost per candidate before each wave.  The
``random`` baseline places uniformly among feasible servers.
"""

from __future__ import annotations

import io
import csv
import random
from dataclasses import dataclass, field

from .model import FailureKind, Server


@dataclass(frozen=True)
class ServerRanking:
    entries: tuple[tuple[int, int], ...]   # (server_id, failure count), ascending

    def ordered_ids(self) -> list[int]:
        return [sid for sid, _ in self.entries]


def record_failure(server: Server, kind: FailureKind) -> int:
    """Charge one failure of the given kind to the server; returns the new count."""
    server.fail_count += 1
    if kind is FailureKind.ERRONEOUS:
        server.w_count += 1
    else:
        server.y_count += 1
    return server.fail_count


def rank_servers(servers: list[Server]) -> ServerRanking:
    """Rank servers by ascending failure count, ties broken by ascending id."""
    ordered = sorted(servers, key=lambda s: (s.fail_count, s.server_id))
    return ServerRanking(tuple((s.server_id, s.fail_count) for s in ordered))


def select_servers(ranking: ServerRanking, n: int, free_slots: dict[int, int],
                   exclude: tuple[int, ...] = ()) -> tuple[list[int], int]:
    """Pick the first ``n`` ranked servers with free slots.

    Returns (selected ids, shortfall).  Shortfall > 0 means fewer than ``n``
    servers had capacity.  No pre-evaluation cost is ever charged here.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    picked = []
    for sid in ranking.ordered_ids():
        if len(picked) == n:
            break
        if sid in exclude:
            continue
        if free_slots.get(sid, 0) > 0:
            picked.append(sid)
    return picked, n - len(picked)


@dataclass
class Assignment:
    mapping: dict[int, int] = field(default_factory=dict)   # task id -> server id
    preeval_cost: float = 0.0
    servers_used: int = 0


def mesf_assign(task_ids: list[int], servers: list[Server],
                preeval_cost: float = 0.03) -> Assignment:
    """Pack tasks onto the fewest servers, most efficient (lowest mean latency)
    first, charging a pre-evaluation cost per candidate server."""
    if not task_ids or not servers:
        raise ValueError("tasks and servers must be non-empty")
    total = sum(s.free_slots for s in servers)
    if total < len(task_ids):
        raise ValueError(f"capacity shortfall: {len(task_ids) - total} tasks unplaceable")
    ordered = sorted(servers, key=lambda s: (s.latency_mean, s.server_id))
    result = Assignment(preeval_cost=preeval_cost * len(servers))
    free = {s.server_id: s.free_slots for s in ordered}
    it = iter(ordered)
    current = next(it)
    for tid in task_ids:
        while free[current.server_id] == 0:
            current = next(it)
        result.mapping[tid] = current.server_id
        free[current.server_id] -= 1
    result.servers_used = len(set(result.mapping.values()))
    return result


def random_assign(task_ids: list[int], servers: list[Server],
                  rng: random.Random) -> Assignment:
    """Uniform random feasible placement from the seeded stream."""
    if not task_ids or not servers:
        raise ValueError("tasks and servers must be non-empty")
    total = sum(s.free_slots for s in servers)
    if total < len(task_ids):
        raise ValueError(f"capacity shortfall: {len(task_ids) - total} tasks unplaceable")
    free = {s.server_id: s.free_slots for s in servers}
    # servers with a free slot, in id order: the draws depend on the order
    open_ids = sorted(sid for sid, slots in free.items() if slots > 0)
    result = Assignment()
    for tid in task_ids:
        sid = rng.choice(open_ids)
        result.mapping[tid] = sid
        free[sid] -= 1
        if free[sid] == 0:
            open_ids.remove(sid)
    result.servers_used = len(set(result.mapping.values()))
    return result


def ranking_csv(servers: list[Server]) -> str:
    """CSV report of the current ranking: server_id,fault_count,w_count,y_count,rank."""
    ranking = rank_servers(servers)
    by_id = {s.server_id: s for s in servers}
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["server_id", "fault_count", "w_count", "y_count", "rank"])
    for rank, (sid, count) in enumerate(ranking.entries, start=1):
        s = by_id[sid]
        writer.writerow([f"s{sid}", count, s.w_count, s.y_count, rank])
    return out.getvalue()
