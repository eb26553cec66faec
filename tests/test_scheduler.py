import random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from bftsim.config import SimConfig
from bftsim.model import FailureKind, Server
from bftsim.scheduler import (
    mesf_assign,
    random_assign,
    rank_servers,
    ranking_csv,
    record_failure,
    select_servers,
)

PREEVAL_COST = SimConfig().preeval_cost


def _server(sid, count=0, capacity=4, latency=10.0):
    s = Server(server_id=sid, capacity=capacity, latency_mean=latency)
    s.fail_count = count
    return s


def test_record_failure_increments_by_one_per_kind():
    s = _server(3, count=4)
    assert record_failure(s, FailureKind.ERRONEOUS) == 5
    assert record_failure(s, FailureKind.DELAY_SENSITIVE) == 6
    assert s.w_count == 1 and s.fail_count == 6


def _ids(servers):
    return [s.server_id for s in servers]


def _fill(server, used):
    server.free_slots = server.capacity - used
    return server


def test_rank_matches_reference_sort():
    servers = [_server(1, 5), _server(2, 2), _server(3, 5)]
    reference = sorted(servers, key=lambda s: (s.fail_count, s.server_id))
    assert _ids(rank_servers(servers)) == _ids(reference) == [2, 1, 3]


def test_rank_empty_and_ties():
    assert rank_servers([]) == []
    assert _ids(rank_servers([_server(2), _server(1)])) == [1, 2]


@given(st.lists(st.integers(0, 50), min_size=1, max_size=20))
def test_rank_is_permutation_and_scale_invariant(counts):
    servers = [_server(i + 1, c) for i, c in enumerate(counts)]
    order = _ids(rank_servers(servers))
    assert sorted(order) == sorted(s.server_id for s in servers)
    scaled = [_server(i + 1, c * 3) for i, c in enumerate(counts)]
    assert _ids(rank_servers(scaled)) == order
    ranked_counts = [s.fail_count for s in rank_servers(servers)]
    assert ranked_counts == sorted(ranked_counts)


def test_select_servers_head_of_ranking():
    ranked = rank_servers([_server(1, 5), _server(2, 2), _server(3, 5)])
    assert select_servers(ranked, exclude=3) == 2


def test_select_servers_skips_full_servers():
    ranked = rank_servers([_fill(_server(2, 0, capacity=2), 2), _server(1, 1), _server(3, 2)])
    assert select_servers(ranked, exclude=3) == 1
    assert select_servers(ranked, exclude=1) == 3      # the excluded server is skipped too


def test_select_servers_none_without_a_free_slot():
    """The engine logs a failed placement when no ranked server has room."""
    ranked = rank_servers([_fill(_server(1, capacity=1), 1), _server(2)])
    assert select_servers(ranked, exclude=2) is None


@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 2)), max_size=12),
       st.integers(0, 13), st.randoms(use_true_random=False))
def test_select_servers_is_the_ranked_rule_over_any_order(counts_and_free, exclude, rng):
    """One pass over the servers in any order picks what the rule over
    ``rank_servers`` picks: the first ranked server with a free slot other
    than ``exclude``, or None."""
    servers = [_fill(_server(i + 1, count, capacity=2), 2 - free)
               for i, (count, free) in enumerate(counts_and_free)]
    expected = next((s.server_id for s in rank_servers(servers)
                     if s.free_slots > 0 and s.server_id != exclude), None)
    rng.shuffle(servers)
    assert select_servers(servers, exclude) == expected


def test_mesf_packs_most_efficient_first():
    s1, s2 = _server(1, latency=3.0), _server(2, latency=9.0)
    mapping, charge = mesf_assign(list(range(4)), [s2, s1], PREEVAL_COST)
    assert set(mapping.values()) == {1}
    assert charge == pytest.approx(0.06)


def test_mesf_overflows_to_next_server():
    s1, s2 = _server(1, latency=3.0), _server(2, latency=9.0)
    mapping, _ = mesf_assign(list(range(5)), [s1, s2], PREEVAL_COST)
    placed = list(mapping.values())
    assert placed.count(1) == 4 and placed.count(2) == 1


def test_mesf_single_server_forced():
    assert mesf_assign([0], [_server(1)], PREEVAL_COST)[0] == {0: 1}


def test_mesf_capacity_rejection_names_shortfall():
    with pytest.raises(ValueError, match="3"):
        mesf_assign(list(range(7)), [_server(1)], PREEVAL_COST)


@pytest.mark.parametrize("task_ids,servers", [([], [_server(1)]), ([0], [])],
                         ids=["no-tasks", "no-servers"])
def test_wave_placement_rejects_no_tasks_or_no_servers(task_ids, servers):
    for assign in (lambda: mesf_assign(task_ids, servers, PREEVAL_COST),
                   lambda: random_assign(task_ids, servers, random.Random(0))):
        with pytest.raises(ValueError, match="tasks and servers must be non-empty"):
            assign()


def _mesf_assign_by_iterator(task_ids, servers):
    """Reference: walk the (latency, id) order, moving on when a server is full."""
    ordered = sorted(servers, key=lambda s: (s.latency_mean, s.server_id))
    free = {s.server_id: s.free_slots for s in ordered}
    it = iter(ordered)
    current = next(it)
    mapping = {}
    for tid in task_ids:
        while free[current.server_id] == 0:
            current = next(it)
        mapping[tid] = current.server_id
        free[current.server_id] -= 1
    return mapping


@given(st.lists(st.tuples(st.integers(1, 4), st.integers(0, 4), st.integers(0, 6)),
                min_size=1, max_size=8),
       st.data())
def test_mesf_first_fit_matches_the_iterator_walk(specs, data):
    """(capacity, occupied slots, latency) per server, ties in latency included."""
    servers = [_fill(_server(i + 1, capacity=cap, latency=float(lat)), min(used, cap))
               for i, (cap, used, lat) in enumerate(specs)]
    free = sum(s.free_slots for s in servers)
    assume(free > 0)
    tasks = list(range(data.draw(st.integers(1, free))))
    mapping, _ = mesf_assign(tasks, servers, PREEVAL_COST)
    assert mapping == _mesf_assign_by_iterator(tasks, servers)


def test_random_assign_deterministic_per_seed():
    servers = [_server(i + 1) for i in range(4)]
    a = random_assign(list(range(10)), servers, random.Random(42))
    b = random_assign(list(range(10)), servers, random.Random(42))
    assert a == b
    assert random_assign([0], [_server(1)], random.Random(0)) == {0: 1}


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
        _fill(server, used)
    tasks = list(range(sum(s.free_slots for s in servers) - 1))
    mapping = random_assign(tasks, servers, random.Random(seed))
    assert mapping == _random_assign_by_rescan(tasks, servers, random.Random(seed))


def test_random_assign_spread_over_seeds():
    """Uniform placement keeps per-server load near the binomial mean."""
    loads = []
    for seed in range(100):
        servers = [_server(i + 1, capacity=100) for i in range(10)]
        mapping = random_assign(list(range(100)), servers, random.Random(seed))
        counts = [list(mapping.values()).count(i + 1) for i in range(10)]
        loads.extend(counts)
    assert all(abs(c - 10) <= 10 for c in loads)
    mean = sum(loads) / len(loads)
    assert abs(mean - 10) < 0.5


def test_ranking_csv_shape():
    servers = [_server(2, 1), _server(1, 4)]
    servers[1].w_count = 4
    text = ranking_csv(servers)
    lines = text.strip().splitlines()
    assert lines[0] == "server_id,fault_count,w_count,y_count,rank"
    assert lines[1] == "s2,1,0,1,1"
    assert lines[2] == "s1,4,4,0,2"
