import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bftsim.config import SimConfig, validate_config
from bftsim.fsm import (
    ESCALATE,
    NO_ACTION,
    REPLACE_NODE,
    byzantine_fsm_step,
    check_trace,
    checkpoint_status_fsm_step,
    checksum_oracle,
    classify_delay,
    gap_growth,
    next_interval,
    performance_fsm_step,
    replay_trace_line,
    TraceFormatError,
)
from bftsim.model import (
    ChecksumResult,
    CheckpointStatus,
    DelayClass,
    NodeState,
    PerformanceClass,
)

S0, S1, S2 = NodeState.FAIL_SAFE, NodeState.BYZANTINE, NodeState.FAIL_STOP
NOERR, ERR = ChecksumResult.NO_ERROR, ChecksumResult.ERROR
LOW, NORMAL, HIGH, EXTREME = DelayClass


# Hand-encoded transition oracle.  Columns for present inputs (delay high/
# extreme crossed with checksum), the absent-input recovery rows, the
# decisive-checksum extension to low delays, and fail-stop absorption.
BYZANTINE_ORACLE = {}
for state in (S0, S1):
    BYZANTINE_ORACLE[(state, HIGH, NOERR)] = S1       # column 00
    BYZANTINE_ORACLE[(state, HIGH, ERR)] = S2         # column 01
    BYZANTINE_ORACLE[(state, EXTREME, NOERR)] = S2    # column 10
    BYZANTINE_ORACLE[(state, EXTREME, ERR)] = S2      # column 11
    for d in (LOW, NORMAL):
        BYZANTINE_ORACLE[(state, d, NOERR)] = S0      # absent input: recovery
        BYZANTINE_ORACLE[(state, d, ERR)] = S2        # checksum is decisive
for d in DelayClass:
    for c in (NOERR, ERR):
        BYZANTINE_ORACLE[(S2, d, c)] = S2             # absorbing

CHECKPOINT_ORACLE = {}
for state in (S0, S1):
    CHECKPOINT_ORACLE[(state, CheckpointStatus.NULL)] = S0
    CHECKPOINT_ORACLE[(state, CheckpointStatus.CONFIRMED)] = S0
    CHECKPOINT_ORACLE[(state, CheckpointStatus.PREVIOUS)] = S1
    CHECKPOINT_ORACLE[(state, CheckpointStatus.COMPLETE)] = S2
for status in CheckpointStatus:
    CHECKPOINT_ORACLE[(S2, status)] = S2

PERFORMANCE_ORACLE = {
    (S0, PerformanceClass.NOT_PERFORMING): S2,
    (S0, PerformanceClass.PERFORMING): S0,
    (S0, PerformanceClass.WARY): S2,
}
for p in PerformanceClass:
    PERFORMANCE_ORACLE[(S2, p)] = S2


def test_byzantine_fsm_exhaustive():
    for (state, d, c), expected in BYZANTINE_ORACLE.items():
        assert byzantine_fsm_step(state, d, c) is expected, (state, d, c)


def test_checkpoint_status_fsm_exhaustive():
    for (state, s), expected in CHECKPOINT_ORACLE.items():
        assert checkpoint_status_fsm_step(state, s) is expected, (state, s)


def test_performance_fsm_exhaustive():
    for (state, p), expected in PERFORMANCE_ORACLE.items():
        assert performance_fsm_step(state, p) is expected, (state, p)


def test_performance_fsm_rejects_suspect_state():
    with pytest.raises(ValueError, match="nullified"):
        performance_fsm_step(S1, PerformanceClass.PERFORMING)


@given(st.lists(st.tuples(st.sampled_from(list(DelayClass)),
                          st.sampled_from([NOERR, ERR])),
                min_size=1, max_size=30))
@settings(max_examples=1000)
def test_fail_stop_absorbs_any_sequence(inputs):
    state = S2
    for d, c in inputs:
        state = byzantine_fsm_step(state, d, c)
        assert state is S2


def test_classify_delay_defaults():
    cfg = SimConfig()
    fracs = (cfg.delay_normal_frac, cfg.delay_high_frac)
    assert classify_delay(0, 100, fracs) is LOW
    assert classify_delay(25, 100, fracs) is LOW          # a fixed quarter of D, inclusive
    assert classify_delay(26, 100, fracs) is NORMAL
    assert classify_delay(100, 100, fracs) is NORMAL
    assert classify_delay(150, 100, fracs) is HIGH        # 1.0 < 1.5 <= 2.0
    assert classify_delay(200, 100, fracs) is HIGH
    assert classify_delay(250, 100, fracs) is EXTREME     # 2.5 > 2.0
    # the fixed quarter never shadows HIGH: a lower normal threshold decides first
    assert classify_delay(5, 100, (0.1, 2.0)) is LOW
    assert classify_delay(20, 100, (0.1, 2.0)) is HIGH


def test_oracle_certain_detection():
    rng = random.Random(1)
    assert checksum_oracle(1.0, rng) is ERR


def test_oracle_detection_rate_statistics():
    rng = random.Random(42)
    n = 10 ** 5
    hits = sum(checksum_oracle(0.88, rng) is ERR for _ in range(n))
    assert abs(hits / n - 0.88) < 0.01


def test_next_interval_triangular_growth():
    cfg = validate_config({})
    gap, action, streak = next_interval(10, 0, S0, cfg)
    assert gap == 20 and streak == 0
    assert action == NO_ACTION


def test_next_interval_geometric_growth():
    cfg = validate_config({"interval_growth": "geometric"})
    assert next_interval(10, 0, S0, cfg)[0] == 20
    assert next_interval(40, 0, S0, cfg)[0] == 80


def test_next_interval_suspect_resets_gap():
    cfg = validate_config({})
    gap, action, streak = next_interval(30, 0, S1, cfg)
    assert gap == 10
    assert streak == 1
    assert action == ESCALATE


def test_next_interval_replaces_at_streak_threshold():
    cfg = validate_config({})
    _, action, streak = next_interval(10, 2, S1, cfg)
    assert streak == 3
    assert action == REPLACE_NODE


def test_next_interval_fail_stop_replaces_with_base_gap():
    cfg = validate_config({})
    gap, action, streak = next_interval(50, 2, S2, cfg)
    assert action == REPLACE_NODE
    assert gap == 10
    assert streak == 0   # the node is retired with its suspicion


def test_an_absent_input_steps_to_the_fixed_healthy_answer():
    """The engine skips the machine's step and the interval update on a
    round with no present input (LOW or NORMAL delay, clean checksum): from
    either live state, the step gives S0 and the update the gap that
    ``gap_growth`` gives, with no action and the streak cleared."""
    for growth in ("triangular", "geometric"):
        cfg = validate_config({"interval_growth": growth})
        scale, step = gap_growth(cfg)
        for state in (S0, S1):
            for d in (LOW, NORMAL):
                assert byzantine_fsm_step(state, d, NOERR) is S0, (state, d)
            for gap in (10, 20, 70, 640):
                for streak in (0, 1, 2):
                    assert next_interval(gap, streak, S0, cfg) == (
                        gap * scale + step, NO_ACTION, 0), (growth, gap, streak)
        assert gap_growth(cfg) == ((2, 0) if growth == "geometric" else (1, 10))


def test_healthy_monitor_schedule():
    """Gap growth by one base interval per round puts the k-th round at
    j*k*(k+1)/2."""
    cfg = validate_config({})
    gap = 10
    t, times = 0, []
    for _ in range(20):
        t += gap
        times.append(t)
        gap = next_interval(gap, 0, S0, cfg)[0]
    assert times[:5] == [10, 30, 60, 100, 150]
    for k, t_k in enumerate(times, start=1):
        assert t_k == 10 * k * (k + 1) // 2


def test_replace_action_only_at_threshold_or_fail_stop():
    cfg = validate_config({})
    for streak in range(4):
        for post in (S0, S1, S2):
            _, action, _ = next_interval(20, streak, post, cfg)
            should_replace = post is S2 or (post is S1
                                            and streak + 1 >= cfg.suspect_threshold)
            assert (action == REPLACE_NODE) == should_replace


def test_streak_monotone_until_recovery_or_replacement():
    cfg = validate_config({})
    gap, streak = 10, 0
    seen = [0]
    for post in (S1, S1, S0, S1, S1, S1):
        gap, action, streak = next_interval(gap, streak, post, cfg)
        if action == REPLACE_NODE:
            seen.append(streak)
            break
        streak = streak if post is S1 else 0
        seen.append(streak)
    assert seen == [0, 1, 2, 0, 1, 2, 3]


# -- trace format --------------------------------------------------------

def test_replay_trace_lines():
    assert replay_trace_line("S0 high noerror -> S1") == (S1, S1)
    assert replay_trace_line("S1 low noerror -> S0") == (S0, S0)
    assert replay_trace_line("S0 confirmed -> S0") == (S0, S0)
    assert replay_trace_line("S0 wary -> S2") == (S2, S2)
    expected, actual = replay_trace_line("S0 high noerror -> S2")
    assert expected is S2 and actual is S1


def test_check_trace_divergence_position():
    lines = ["S0 high noerror -> S1", "S1 previous -> S1", "S0 high noerror -> S2"]
    steps, divergent = check_trace(lines)
    assert divergent == 3 and steps == 3
    steps, divergent = check_trace(lines[:2])
    assert divergent is None and steps == 2


def test_trace_malformed_lines():
    with pytest.raises(TraceFormatError):
        replay_trace_line("S0 high noerror S1", lineno=4)
    with pytest.raises(TraceFormatError):
        replay_trace_line("S0 sideways -> S1", lineno=9)
