"""Node-health state machines, delay classification, and interval growth.

The Byzantine-detection machine consumes a (delay class, checksum) pair per
monitor round.  Inputs are only "present" when the delay is high/extreme or
the checksum errored; a low/normal clean round is the absent input, which
recovers a suspect node.  A bad checksum is decisive: it always fail-stops
the node.  The absent input's step and interval update are fixed (S0, no
action, the gap stretched by ``gap_growth``), so the engine calls
``byzantine_fsm_step`` and ``next_interval`` only on a present input.  Two
further machines give the checkpoint-status and performance views of the
same node lifecycle.

Monitoring gaps grow while a node stays healthy (arithmetically by one base
interval per round, or doubling under the geometric policy: ``gap_growth``)
and collapse back to the base interval on suspicion.  Three consecutive
suspect rounds replace the node.
"""

from __future__ import annotations

import random

from .config import SimConfig
from .model import (
    BYZANTINE,
    CHECKSUM_ERROR,
    CHECKSUM_TOKENS,
    DELAY_TOKENS,
    EXTREME,
    FAIL_SAFE,
    FAIL_STOP,
    HIGH,
    LOW,
    NO_ERROR,
    NORMAL,
    PERFORMANCE_TOKENS,
    STATE_TOKENS,
    STATUS_TOKENS,
    ChecksumResult,
    CheckpointStatus,
    DelayClass,
    NodeState,
    PerformanceClass,
)


# the actions of the interval update, each the token the event log writes
NO_ACTION = "none"
REPLACE_NODE = "replace"
ESCALATE = "escalate"


def classify_delay(delay: float, sla_bound: float,
                   thresholds: tuple[float, float]) -> DelayClass:
    """Map a measured delay variation to its class relative to the SLA bound.

    LOW is the normal range up to a fixed quarter of the bound: the detection
    machine treats LOW and NORMAL alike, so it only names a log token.
    ``sla_bound`` must be positive and ``thresholds`` strictly increasing and
    positive; ``SimConfig`` guarantees both for the values the engine passes,
    so no call checks them."""
    t_normal, t_high = thresholds
    if delay <= t_normal * sla_bound:
        return LOW if delay <= 0.25 * sla_bound else NORMAL
    if delay <= t_high * sla_bound:
        return HIGH
    return EXTREME


def checksum_oracle(detect_prob: float, rng: random.Random) -> ChecksumResult:
    """Probabilistic stand-in for the hash-challenge check of a contaminated
    node: it is flagged with probability ``detect_prob``, drawing once from
    ``rng``.  The engine calls it for contaminated nodes only, as a clean
    node never errs, and surfaces misses as high delay variation instead.
    ``detect_prob`` must lie in [0, 1]; ``SimConfig`` guarantees it for the
    value the engine passes, so no call checks it.
    """
    if rng.random() < detect_prob:
        return CHECKSUM_ERROR
    return NO_ERROR


def byzantine_fsm_step(state: NodeState, d: DelayClass, c: ChecksumResult) -> NodeState:
    """One step of the detection machine.

    An errored checksum is decisive regardless of delay; extreme delay is
    fatal on its own; high delay suspends judgement (suspect state); a
    low/normal clean round returns the node to fail-safe.
    """
    if state is FAIL_STOP:
        return FAIL_STOP
    if c is CHECKSUM_ERROR:
        return FAIL_STOP
    if d is EXTREME:
        return FAIL_STOP
    if d is HIGH:
        return BYZANTINE
    return FAIL_SAFE


def checkpoint_status_fsm_step(state: NodeState, s: CheckpointStatus) -> NodeState:
    """Node-state view by the checkpoint activity of the round."""
    if state is NodeState.FAIL_STOP:
        return NodeState.FAIL_STOP
    if s is CheckpointStatus.PREVIOUS:
        return NodeState.BYZANTINE
    if s is CheckpointStatus.COMPLETE:
        return NodeState.FAIL_STOP
    return NodeState.FAIL_SAFE    # NULL or CONFIRMED


def performance_fsm_step(state: NodeState, p: PerformanceClass) -> NodeState:
    """Node-state view by coarse performance; undefined for suspect nodes."""
    if state is NodeState.FAIL_STOP:
        return NodeState.FAIL_STOP
    if state is NodeState.BYZANTINE:
        raise ValueError("state nullified under performance FSM")
    if p is PerformanceClass.PERFORMING:
        return NodeState.FAIL_SAFE
    return NodeState.FAIL_STOP    # NOT_PERFORMING or WARY


def gap_growth(cfg: SimConfig) -> tuple[int, int]:
    """How a healthy round stretches a node's gap, as (scale, step): the
    next gap is ``gap * scale + step``.  Triangular growth adds one base
    interval, geometric growth doubles the gap."""
    if cfg.interval_growth == "geometric":
        return 2, 0
    return 1, cfg.base_interval


def next_interval(gap: int, streak: int, post_state: NodeState,
                  cfg: SimConfig) -> tuple[int, str, int]:
    """Update the monitoring gap and suspicion streak of a node after an FSM
    step, given its current ``gap`` and ``streak``; returns (next gap,
    action, streak value after this round).

    Healthy rounds stretch the gap (and clear the streak); suspect rounds
    collapse it to the base interval and lengthen the streak, replacing the
    node once the streak hits the configured threshold.  A fail-stopped node
    is always replaced, with the replacement starting at the base gap.
    """
    if post_state is FAIL_SAFE:
        scale, step = gap_growth(cfg)
        return gap * scale + step, NO_ACTION, 0
    j = cfg.base_interval
    if post_state is BYZANTINE:
        streak += 1
        return j, REPLACE_NODE if streak >= cfg.suspect_threshold else ESCALATE, streak
    # FAIL_STOP: shut down, replacement monitors at the base gap
    return j, REPLACE_NODE, 0


# -- fsm-trace conformance format --------------------------------------------
#
# One step per line: ``state input... -> next_state``.  Two input tokens
# (delay class, checksum) address the Byzantine machine; one token is
# dispatched by vocabulary to the checkpoint-status or performance machine.


class TraceFormatError(ValueError):
    pass


def replay_trace_line(line: str, lineno: int = 0) -> tuple[NodeState, NodeState]:
    """Replay one trace line; returns (expected, actual) next states."""
    parts = line.split()
    if len(parts) < 4 or parts[-2] != "->":
        raise TraceFormatError(f"line {lineno}: expected 'state input... -> next_state'")
    state_tok, *inputs, arrow, next_tok = parts
    if state_tok not in STATE_TOKENS or next_tok not in STATE_TOKENS:
        raise TraceFormatError(f"line {lineno}: unknown state token")
    state = STATE_TOKENS[state_tok]
    expected = STATE_TOKENS[next_tok]
    if len(inputs) == 2:
        d_tok, c_tok = inputs
        if d_tok not in DELAY_TOKENS or c_tok not in CHECKSUM_TOKENS:
            raise TraceFormatError(f"line {lineno}: unknown delay/checksum token")
        actual = byzantine_fsm_step(state, DELAY_TOKENS[d_tok], CHECKSUM_TOKENS[c_tok])
    elif len(inputs) == 1:
        tok = inputs[0]
        if tok in STATUS_TOKENS:
            actual = checkpoint_status_fsm_step(state, STATUS_TOKENS[tok])
        elif tok in PERFORMANCE_TOKENS:
            actual = performance_fsm_step(state, PERFORMANCE_TOKENS[tok])
        else:
            raise TraceFormatError(f"line {lineno}: unknown input token {tok!r}")
    else:
        raise TraceFormatError(f"line {lineno}: expected one or two input tokens")
    return expected, actual


def check_trace(lines) -> tuple[int, int | None]:
    """Replay a whole trace; returns (steps checked, first divergent line or None)."""
    steps = 0
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        expected, actual = replay_trace_line(text, lineno)
        steps += 1
        if expected is not actual:
            return steps, lineno
    return steps, None
