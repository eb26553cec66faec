import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bftsim.model import FailureKind, Server
from bftsim.scheduler import (
    mesf_assign,
    random_assign,
    rank_servers,
    ranking_csv,
    record_failure,
    select_servers,
)


def _server(sid, count=0, capacity=4, latency=10.0):
    s = Server(server_id=sid, capacity=capacity, latency_mean=latency)
    s.fail_count = count
    return s


def test_record_failure_increments_by_one_per_kind():
    s = _server(3, count=4)
    assert record_failure(s, FailureKind.ERRONEOUS) == 5
    assert record_failure(s, FailureKind.DELAY_SENSITIVE) == 6
    assert s.w_count == 1 and s.y_count == 1
    assert s.fail_count == s.w_count + s.y_count + 4


def test_rank_matches_reference_sort():
    servers = [_server(1, 5), _server(2, 2), _server(3, 5)]
    ranking = rank_servers(servers)
    reference = sorted(servers, key=lambda s: (s.fail_count, s.server_id))
    assert ranking.ordered_ids() == [s.server_id for s in reference] == [2, 1, 3]


def test_rank_empty_and_ties():
    assert rank_servers([]).ordered_ids() == []
    assert rank_servers([_server(2), _server(1)]).ordered_ids() == [1, 2]


@given(st.lists(st.integers(0, 50), min_size=1, max_size=20))
def test_rank_is_permutation_and_scale_invariant(counts):
    servers = [_server(i + 1, c) for i, c in enumerate(counts)]
    order = rank_servers(servers).ordered_ids()
    assert sorted(order) == sorted(s.server_id for s in servers)
    scaled = [_server(i + 1, c * 3) for i, c in enumerate(counts)]
    assert rank_servers(scaled).ordered_ids() == order
    ranked_counts = [c for _, c in rank_servers(servers).entries]
    assert ranked_counts == sorted(ranked_counts)


def test_select_servers_head_of_ranking():
    ranking = rank_servers([_server(1, 5), _server(2, 2), _server(3, 5)])
    picked, shortfall = select_servers(ranking, 1, {1: 4, 2: 4, 3: 4})
    assert picked == [2] and shortfall == 0


def test_select_servers_shortfall_flag():
    ranking = rank_servers([_server(1), _server(2)])
    picked, shortfall = select_servers(ranking, 5, {1: 1, 2: 1})
    assert picked == [1, 2] and shortfall == 3


def test_select_servers_skips_full_servers():
    ranking = rank_servers([_server(2, 0), _server(1, 1), _server(3, 2)])
    picked, shortfall = select_servers(ranking, 2, {2: 0, 1: 3, 3: 3})
    assert picked == [1, 3] and shortfall == 0


def test_select_servers_rejects_zero_request():
    ranking = rank_servers([_server(1)])
    with pytest.raises(ValueError):
        select_servers(ranking, 0, {1: 1})


def test_mesf_packs_most_efficient_first():
    s1, s2 = _server(1, latency=3.0), _server(2, latency=9.0)
    assignment = mesf_assign(list(range(4)), [s2, s1])
    assert set(assignment.mapping.values()) == {1}
    assert assignment.servers_used == 1
    assert assignment.preeval_cost == pytest.approx(0.06)


def test_mesf_overflows_to_next_server():
    s1, s2 = _server(1, latency=3.0), _server(2, latency=9.0)
    assignment = mesf_assign(list(range(5)), [s1, s2])
    placed = list(assignment.mapping.values())
    assert placed.count(1) == 4 and placed.count(2) == 1


def test_mesf_single_server_forced():
    assignment = mesf_assign([0], [_server(1)])
    assert assignment.mapping == {0: 1}


def test_mesf_capacity_rejection_names_shortfall():
    with pytest.raises(ValueError, match="3"):
        mesf_assign(list(range(7)), [_server(1)])


def test_random_assign_deterministic_per_seed():
    servers = [_server(i + 1) for i in range(4)]
    a = random_assign(list(range(10)), servers, random.Random(42))
    b = random_assign(list(range(10)), servers, random.Random(42))
    assert a.mapping == b.mapping
    assert random_assign([0], [_server(1)], random.Random(0)).mapping == {0: 1}


def _random_assign_by_rescan(task_ids, servers, rng):
    """Reference: rescan every server for free slots before each draw."""
    free = {s.server_id: s.free_slots for s in sorted(servers, key=lambda s: s.server_id)}
    mapping = {}
    for tid in task_ids:
        sid = rng.choice([sid for sid, slots in free.items() if slots > 0])
        mapping[tid] = sid
        free[sid] -= 1
    return mapping


@pytest.mark.parametrize("seed", range(5))
def test_random_assign_draws_as_a_rescan_of_free_servers(seed):
    """Servers listed out of id order, some already full, most filled by the wave."""
    servers = [_server(sid, capacity=3) for sid in (7, 2, 9, 4, 1, 8, 3)]
    for server, used in zip(servers, (0, 3, 1, 0, 3, 2, 0)):
        server.active_vns.update(range(used))
    tasks = list(range(sum(s.free_slots for s in servers) - 1))
    assignment = random_assign(tasks, servers, random.Random(seed))
    assert assignment.mapping == _random_assign_by_rescan(tasks, servers, random.Random(seed))


def test_random_assign_spread_over_seeds():
    """Uniform placement keeps per-server load near the binomial mean."""
    loads = []
    for seed in range(100):
        servers = [_server(i + 1, capacity=100) for i in range(10)]
        assignment = random_assign(list(range(100)), servers, random.Random(seed))
        counts = [list(assignment.mapping.values()).count(i + 1) for i in range(10)]
        loads.extend(counts)
    assert all(abs(c - 10) <= 10 for c in loads)
    mean = sum(loads) / len(loads)
    assert abs(mean - 10) < 0.5


def test_ranking_csv_shape():
    servers = [_server(2, 1), _server(1, 4)]
    servers[0].y_count = 1
    servers[1].w_count = 4
    text = ranking_csv(servers)
    lines = text.strip().splitlines()
    assert lines[0] == "server_id,fault_count,w_count,y_count,rank"
    assert lines[1] == "s2,1,0,1,1"
    assert lines[2] == "s1,4,4,0,2"
