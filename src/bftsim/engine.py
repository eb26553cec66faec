"""Deterministic discrete-event loop tying detection, scheduling, and
checkpointing together.

Time is an integer tick clock.  Events execute in (time, sequence) order
with sequence numbers assigned at insertion, so identical (config, seed)
pairs replay identical event logs.  All randomness is drawn from streams
derived from the single scenario seed; topology, workload, and the fault
trace come from policy-independent streams (see ``scenario.py``) so
different policies can be compared on identical inputs.

Node rounds fall on shared multiples of ``base_interval``, so many events
share a tick: the queue keeps one list per tick, sorted once when the clock
reaches it (``EventQueue``), instead of a heap of every entry.

Each live virtual node has one queued entry: the earlier of its next monitor
round and its completion, each under the sequence number it took when it was
scheduled.  A popped node entry is stale (``stale=1``) when the record it was
queued under no longer holds its (time, seq): the node's own rounds or a
crash changed it, or retiring the node cleared both.  One handler serves
both kinds (``_handle_node``), and queues the node again after a stale pop
while its monitor round is set.

A node's own checkpoint rounds (under sync and independent) are not events.
Its next round is a plain tick on the node.  A node's queued entry reads
only the node's completion record until it charges, finishes or replaces
the node, so it only counts the rounds due before it into the record, each
adding the write cost (``_count_rounds``); whenever an event reads or
changes the node's ledger, contamination or store images at tick ``t``, the
engine first counts the rounds due strictly before ``t``, then applies
exactly the rounds counted, in order, with one image (``_catch_up``): a
sync batch in closed form, an independent batch in one pass over the gaps
its count drew (``_take_rounds``).  A round due at ``t`` runs after the
node's event at ``t``; the horizon applies the rounds due at or before it.
Sync rounds fall on the job-wide grid of ``ft_interval`` ticks.  Each
independent task draws its gaps from its own stream, keyed by seed,
purpose and task id, so a task's gaps do not depend on the scheduler or on
any other draw of the run; a count draws each gap once, up to the first
round not yet due, and keeps the ticks on the node.

Every virtual-node incarnation is its own tick ledger: it attributes each
active tick to exactly one of: work, checkpoint pause, or restore time;
rolled-back progress moves from work to lost work, so

    useful work + lost work + pause + restore == total active node time

holds exactly in integer ticks.
"""

from __future__ import annotations

import math
import random
from functools import reduce
from heapq import heappop, heappush
from math import cos, log, sin, sqrt, tau
from operator import add

from .checkpoint import CheckpointStore, independent_next, rollback_loss, tcc_round
from .config import ConfigError, SimConfig
from .fsm import (
    NO_ACTION,
    REPLACE_NODE,
    byzantine_fsm_step,
    checksum_oracle,
    classify_delay,
    gap_growth,
    next_interval,
)
from .metrics import MetricsReport
from .model import (
    BYZANTINE,
    CHECKSUM_ERROR,
    FAIL_SAFE,
    HIGH,
    NO_ERROR,
    Checkpoint,
    ChecksumResult,
    DelayClass,
    NodeState,
    Server,
    Task,
)
from .scenario import BYZANTINE_FAULT, CRASH_FAULT, FaultKind, FaultSpec, Scenario
from .scheduler import (
    failure_kind,
    first_fit,
    mesf_assign,
    random_assign,
    rank_servers,
    record_failure,
    select_servers,
)


# the event kinds, each the token the event log writes
MONITOR_ROUND = "monitor"
TASK_COMPLETE = "complete"
FAULT_INJECTION = "fault"
CONTAMINATION_EXCHANGE = "exchange"
MIGRATION_COMPLETE = "migration_done"
HORIZON_END = "horizon_end"

# event-log tokens of the enum members a detail names, built once: ``.value``
# and ``.name`` are Python properties.  DelayClass is an IntEnum, so its
# tokens are indexed by it.
_TOKENS = {member: member.value
           for enum in (NodeState, ChecksumResult, FaultKind)
           for member in enum}
_DELAY_TOKENS = tuple(d.name.lower() for d in DelayClass)


class CausalityError(RuntimeError):
    pass


class EventQueue:
    """Events, each a ``(time, seq, kind, target)`` tuple, popped in
    ``(time, seq)`` order from one list per tick.  ``_due`` maps each later
    tick to its entries, unsorted, and ``_ticks`` is a min-heap of its keys;
    ``_now`` holds the clock tick's entries, sorted latest first once the
    clock reaches the tick, so each pop is ``list.pop()``.  A push at the
    clock tick is placed in ``_now`` by a scan from its end.  Sequence
    numbers are unique, so ordering never compares kinds or targets."""

    def __init__(self):
        self._due: dict[int, list[tuple[int, int, str, object]]] = {}
        self._ticks: list[int] = []
        self._now: list[tuple[int, int, str, object]] = []
        self._count = 0   # the entries in _due, so len() is O(1)
        self._seq = 0
        self.clock = 0

    def __len__(self) -> int:
        return self._count + len(self._now)

    def __iter__(self):
        """The queued entries, in no particular order."""
        yield from self._now
        for bucket in self._due.values():
            yield from bucket

    def push(self, time: int, kind: str, target: object = None,
             seq: int | None = None) -> tuple:
        """Insert an event; ``seq`` inserts it under a number reserved earlier
        instead of the next one (``Simulation._queue_node``, the only caller
        that passes one)."""
        if time < self.clock:
            raise CausalityError(
                f"causality violation: insert at t={time} after clock reached {self.clock}")
        if seq is None:
            seq = self._seq
            self._seq = seq + 1
        ev = (time, seq, kind, target)
        if time == self.clock:   # pops after the entries of an earlier seq
            now = self._now
            i = len(now)
            while i and now[i - 1][1] < seq:
                i -= 1
            now.insert(i, ev)
            return ev
        bucket = self._due.get(time)
        if bucket is None:
            self._due[time] = [ev]
            heappush(self._ticks, time)
        else:
            bucket.append(ev)
        self._count += 1
        return ev

    def peek_time(self) -> int | None:
        if self._now:
            return self.clock
        return self._ticks[0] if self._ticks else None

    def advance(self) -> tuple:
        """Pop the next event and move the clock to it."""
        now = self._now
        if not now:
            self.clock = tick = heappop(self._ticks)
            self._now = now = self._due.pop(tick)
            self._count -= len(now)
            now.sort(reverse=True)
        return now.pop()

    def synthesize(self, kind: str, time: int) -> tuple:
        """An event that never enters the queue, numbered in insertion order."""
        self._seq += 1
        return time, self._seq - 1, kind, None


def propagate_contamination(clean: list, prop_prob: float, rng: random.Random) -> list:
    """One exchange round: each clean node catches contamination independently."""
    return [node for node in clean if rng.random() < prop_prob]


class VnLedger:
    """Tick ledger of one node incarnation.

    Every tick between start and stop is attributed to exactly one mode.
    Unserved ticks are one counter, ``due``, served before work resumes: a
    restore is charged only when the node starts, so it is always served
    first, and the served restore is ``restore_cost`` clipped at the span.
    Progress advances one unit per worked tick, so the work is the progress
    past ``origin`` and the pause is the rest of the span: the three sum to
    the span by construction.
    """

    __slots__ = ("start", "anchor", "progress", "origin", "restore_cost", "due", "stopped")

    def __init__(self, start: int, progress: int, restore: int = 0):
        self.start = start
        self.anchor = start
        self.progress = self.origin = progress
        self.restore_cost = self.due = restore   # unserved ticks, restore first
        self.stopped: int | None = None

    def settle(self, t: int) -> None:
        a = self.anchor
        if t <= a or self.stopped is not None:
            return
        self.anchor = t
        left = t - a - self.due
        if left > 0:
            self.due = 0
            self.progress += left
        else:
            self.due = -left

    def add_block(self, t: int, cost: int) -> None:
        """Charge a pause of ``cost`` ticks at ``t``."""
        if cost <= 0:
            return
        if t > self.anchor:
            self.settle(t)
        self.due += cost

    def completion_time(self, demand: int) -> int:
        # unserved ticks are served before the remaining work
        return self.anchor + self.due + demand - self.progress

    def stop(self, t: int) -> None:
        if self.stopped is not None:
            return
        self.settle(t)
        self.due = 0   # unserved time is never charged
        self.stopped = t

    @property
    def span(self) -> int:
        end = self.stopped if self.stopped is not None else self.anchor
        return end - self.start

    @property
    def work(self) -> int:
        return self.progress - self.origin

    @property
    def restore(self) -> int:
        cost, span = self.restore_cost, self.span
        return cost if cost < span else span

    @property
    def pause(self) -> int:
        return self.span - self.work - self.restore


class VirtualNode(VnLedger):
    """One incarnation of a virtual node executing a task, and its tick
    ledger: its ledger calls reach ``VnLedger``'s methods, and its work,
    pause and restore are derived from its progress, span and restore cost.
    ``monitor`` and ``completion`` are (time, seq) records, and with
    ``checkpoint``, the tick of its own next round (under sync and
    independent, never queued), they are its schedule; its one queued
    entry, the earlier record, pops stale once the record it was queued
    under no longer holds its (time, seq).  A crash clears the last two;
    retiring it clears all three.  ``counted`` is how
    many own rounds from ``checkpoint`` on are counted into ``completion``
    and not yet applied to the ledger; under independent ``ticks`` holds
    their drawn ticks, the next round not yet counted last.  Its last
    observation is ``monitor`` less ``gap``.  Its detection state is its
    streak: S1 while ``suspect_rounds`` > 0, else S0, as a fail-stop
    verdict retires it in the same monitor round."""

    __slots__ = ("vn_id", "task", "server", "gap", "suspect_rounds", "contaminated",
                 "spike_delay", "monitor", "completion", "checkpoint", "counted", "ticks")

    def __init__(self, vn_id: int, task: Task, server: Server, start: int, progress: int,
                 restore: int = 0):
        VnLedger.__init__(self, start, progress, restore)
        self.vn_id = vn_id
        self.task = task
        self.server = server
        self.gap = 0                 # current monitoring gap, multiple of the base interval
        self.suspect_rounds = 0      # consecutive Byzantine-state observations
        self.contaminated = False
        self.spike_delay = 0.0
        self.monitor: tuple[int, int] | None = (0, 0)   # (time, seq) of its next monitor round
        self.completion: tuple[int, int] | None = None   # (time, seq) the node is due to finish at
        self.checkpoint: int | None = None   # the tick of its own next round
        self.counted = 0   # own rounds in ``completion`` not yet applied
        self.ticks: list[int] | None = None   # independent: counted ticks, then the next


# -- policies ----------------------------------------------------------
# A run looks its scheduler and checkpoint policy up once, when the Simulation
# is built, and hands itself to their rules.  A placement's ``wave`` places the
# initial wave or a migrated job and returns (task id -> server id,
# pre-evaluation charge); its ``replacement`` picks a server for one restarted
# node and returns (server id or None, selection cost).  The rules call the
# scheduler and checkpoint functions by their names in this module.


class WsssPlacement:
    """Failure-count ranking read from the head, with no pre-evaluation charge."""

    def wave(self, sim: Simulation, task_ids: list[int]) -> tuple[dict[int, int], float]:
        return first_fit(task_ids, rank_servers(sim.servers)), 0.0

    def replacement(self, sim: Simulation, exclude_id: int) -> tuple[int | None, float]:
        return select_servers(sim.servers, exclude_id), 0.0


class MesfPlacement:
    """Packs the fewest, most efficient servers, paying to pre-evaluate candidates."""

    def wave(self, sim: Simulation, task_ids: list[int]) -> tuple[dict[int, int], float]:
        return mesf_assign(task_ids, sim.servers, sim.cfg.preeval_cost)

    def replacement(self, sim: Simulation, exclude_id: int) -> tuple[int | None, float]:
        # re-evaluates and packs onto servers already in use; never opens an
        # idle server for a single replacement
        in_use, best = 0, None
        for s in sim.servers:   # in ascending id order: the first of equal means wins
            if s.free_slots < s.capacity and s.server_id != exclude_id:
                in_use += 1
                if s.free_slots > 0 and (best is None or s.latency_mean < best.latency_mean):
                    best = s
        return (best.server_id if best else None), sim.cfg.preeval_cost * in_use


class RandomPlacement:
    """Uniform among feasible servers, drawn from the run's stream."""

    def wave(self, sim: Simulation, task_ids: list[int]) -> tuple[dict[int, int], float]:
        return random_assign(task_ids, sim.servers, sim.rng), 0.0

    def replacement(self, sim: Simulation, exclude_id: int) -> tuple[int | None, float]:
        # sim.servers is in ascending id order
        choices = [s.server_id for s in sim.servers
                   if s.free_slots > 0 and s.server_id != exclude_id]
        return (sim.rng.choice(choices) if choices else None), 0.0


class Checkpointing:
    """Checkpoint-policy rules.  The defaults take no checkpoint rounds,
    image no node at a healthy monitor round, apply the detection machine's
    action on a flagged one and roll back to the newest clean image; each
    policy overrides where it differs.  The engine counts a node's own
    rounds, timed by ``round_grid`` or ``round_gaps``, into its completion
    at its queued entry, applies them when it next reads or changes the
    node's ledger or images, and writes one image per batch of them.  Every
    policy shares one store, which keeps each image until a rollback
    abandons it."""

    def round_grid(self, sim: Simulation) -> int | None:
        """The step of the fixed grid every node's own rounds fall on, which
        lets the engine apply a batch of them at once; None: they fall on
        none."""
        return None

    def round_gaps(self, sim: Simulation) -> tuple[list[random.Random], float] | None:
        """By task id, the stream a node's own round gaps are drawn from, and
        the rate of those exponential gaps (``independent_next``); None: no
        gap is drawn."""
        return None

    confirms = False   # whether the engine images the node at every healthy monitor round

    def healthy_detail(self, gap: int) -> str:
        """The log detail of a healthy round, asked only with the log on."""
        return f";action={NO_ACTION};q=0"

    def on_monitor(self, sim: Simulation, rt: VirtualNode, t: int, action: str,
                   in_monitor: bool) -> str:
        """Act on a flagged monitor round or a rejected final output, given
        the action of the interval update; returns the log detail, formatted
        also with the log off, as flagged rounds are rare."""
        if action is REPLACE_NODE:
            return ";" + sim._restart_vn(rt, t, "replace")
        if not in_monitor:
            # rejected final output outside a monitor round: the suspicion
            # machinery cannot hold a finished node, so replace it outright
            return ";" + sim._restart_vn(rt, t, "verify_reject")
        return f";action={action};q={rt.suspect_rounds}"

    def rollback_target(self, sim: Simulation, task_id: int) -> Checkpoint | None:
        return sim.store.latest_clean(task_id)


class TccCheckpointing(Checkpointing):
    """Confirms an image at every healthy round, which grows the node's gap,
    restarts the node from its previous image on a flagged round, which
    collapses it, and migrates the job past the restart threshold
    (``tcc_round``).  A node's interval is its own last gap: ``tcc`` reads
    no ``ft_interval``."""

    confirms = True

    def healthy_detail(self, gap: int) -> str:
        return f";tcc=confirmed;delta={gap}"

    def on_monitor(self, sim: Simulation, rt: VirtualNode, t: int, action: str,
                   in_monitor: bool) -> str:
        job_id = rt.task.job_id
        kind, restarts = tcc_round(sim.restarts[job_id], sim.cfg.migration_threshold)
        sim.restarts[job_id] = restarts
        if restarts:   # a restart counts itself, a migration resets the count
            return f";tcc={kind};" + sim._restart_vn(rt, t, "tcc_restart")
        return f";tcc={kind};" + sim._migrate_job(job_id, t)


class SyncCheckpointing(Checkpointing):
    """Images every live node of a job at a fixed cadence, regardless of
    health: its own rounds fall on the grid ``ft_interval``, 2 x
    ``ft_interval``, ..., the same ticks for every node.  ``_count_rounds``
    counts them into a node's completion, at its queued entry and before
    each batch, and the engine applies each batch of them, between two reads
    of the ledger or the store, past its first round in closed form
    (``_take_rounds``), with the completion the count records."""

    def round_grid(self, sim: Simulation) -> int:
        return sim.cfg.ft_interval


class IndependentCheckpointing(Checkpointing):
    """Images each node at uncoordinated seeded-random times; with an
    untrusted latest image only the initial state is left to fall back to."""

    def round_gaps(self, sim: Simulation) -> tuple[list[random.Random], float]:
        """A gap drawn at a node's start and after each of its rounds, over
        its task's own stream: a task draws the same gaps under every
        scheduler, and a restarted node continues its task's stream."""
        seed = sim.cfg.seed
        return ([keyed_stream(seed, GAP_STREAM, task_id)
                 for task_id in range(len(sim.tasks))],   # task ids are list positions
                1.0 / sim.cfg.indep_mean_gap)

    def rollback_target(self, sim: Simulation, task_id: int) -> Checkpoint | None:
        latest = sim.store.latest(task_id)
        return latest if latest and not latest.tainted else None


# the purposes a keyed stream serves, each its own field of the stream's seed
GAP_STREAM = 1   # independent checkpoint gaps, one stream per task


def keyed_stream(seed: int, purpose: int, key: int) -> random.Random:
    """The stream of one purpose and one task or job of a run, seeded from one
    integer that packs (seed, purpose, key), so no two share a seed: the key
    (below 2**32) takes the low 32 bits, the purpose (below 2**8) the next 8
    and the seed, zigzag-coded so that a negative seed stays apart from its
    absolute value, the rest."""
    zigzag = 2 * seed if seed >= 0 else -2 * seed - 1
    return random.Random((zigzag << 40) | (purpose << 32) | key)


PLACEMENT = {"wsss": WsssPlacement(), "mesf": MesfPlacement(), "random": RandomPlacement()}
CHECKPOINTING = {"tcc": TccCheckpointing(), "sync": SyncCheckpointing(),
                 "independent": IndependentCheckpointing()}


class Simulation:
    """One policy run over a scenario."""

    def __init__(self, scenario: Scenario, scheduler: str | None = None,
                 checkpoint_policy: str | None = None, collect_log: bool = True):
        cfg = scenario.cfg
        self.cfg = cfg
        if scheduler is None:
            scheduler = cfg.scheduler
        if checkpoint_policy is None:
            checkpoint_policy = cfg.checkpoint_policy
        if scheduler not in PLACEMENT:
            raise ConfigError(f"scheduler must be one of {tuple(PLACEMENT)}")
        if checkpoint_policy not in CHECKPOINTING:
            raise ConfigError(f"checkpoint_policy must be one of {tuple(CHECKPOINTING)}")
        self.collect_log = collect_log

        # the scenario's records are read-only inputs: a run keeps its own
        # state on its nodes, its servers, its report's scalars (the counts)
        # and the per-job dicts below, in job-id order as the workload's lists
        self.faults = scenario.faults
        self.tasks = scenario.workload.tasks
        self.unfinished = {j.job_id: len(j.task_ids) for j in scenario.workload.jobs}
        self.restarts = dict.fromkeys(self.unfinished, 0)   # tcc restarts since the job's last migration

        self.servers = [Server(server_id=i + 1, capacity=cfg.server_capacity,
                               latency_mean=scenario.latencies[i])
                        for i in range(cfg.server_count)]   # server id i + 1 at index i

        self.rng = random.Random(f"{cfg.seed}:run")
        self.queue = EventQueue()
        self.report = MetricsReport(scenario.scenario_id, cfg.seed,
                                    scheduler, checkpoint_policy)
        self.placement = PLACEMENT[scheduler]
        self.checkpointing = CHECKPOINTING[checkpoint_policy]
        self.store = CheckpointStore()
        self.round_grid = self.checkpointing.round_grid(self)
        self.round_gaps = self.checkpointing.round_gaps(self)
        self.confirms = self.checkpointing.confirms
        self.log_lines: list[str] = []

        # the one index of live nodes: job id -> (task id -> its one live
        # incarnation); a node is indexed as it starts, after its predecessor
        # left, so each job's nodes stay in ascending vn-id order
        self.job_nodes: dict[int, dict[int, VirtualNode]] = {
            job_id: {} for job_id in self.unfinished}
        # job id -> task ids of its live contaminated nodes, in job-id order
        self.infected: dict[int, set[int]] = {job_id: set() for job_id in self.job_nodes}
        self._next_vn_id = 1

        self.thresholds = (cfg.delay_normal_frac, cfg.delay_high_frac)
        self.growth = gap_growth(cfg)   # (scale, step) of a healthy round's gap
        self.detection_pending: dict[int, int] = {}  # task id -> fault time

        self.obs_count = 0
        self.over_count = 0
        self.excess_sum = 0.0

    # -- logging ----------------------------------------------------------

    def _log(self, ev: tuple, detail: str) -> None:
        if self.collect_log:
            t, seq, kind, target = ev
            # a node's events name its vn id
            target = "" if target is None else getattr(target, "vn_id", target)
            self.log_lines.append(f"{t},{seq},{kind},{target},{detail}")

    # -- node lifecycle ----------------------------------------------------------

    def _spawn(self, task: Task, server_id: int, start: int,
               target: Checkpoint | None = None, restore_cost: int = 0) -> VirtualNode:
        """Start a node for ``task``, from ``target`` or else the initial state."""
        vn_id = self._next_vn_id
        self._next_vn_id += 1
        server = self.servers[server_id - 1]
        rt = VirtualNode(vn_id, task, server, start, target.progress if target else 0,
                         restore_cost)
        self.job_nodes[task.job_id][task.task_id] = rt
        server.free_slots -= 1
        # its first monitor round, then its completion, each under the next
        # sequence number, and the tick of its own first checkpoint round
        queue = self.queue
        seq = queue._seq
        queue._seq = seq + 1
        rt.gap = gap = self.cfg.base_interval
        rt.monitor = (start + gap, seq)
        self._retime(rt, start)
        step, gaps = self.round_grid, self.round_gaps
        if step is not None:
            rt.checkpoint = start - start % step + step
        elif gaps is not None:
            streams, rate = gaps
            rt.checkpoint = independent_next(streams[task.task_id], rate, start)
            rt.ticks = [rt.checkpoint]
        self._queue_node(rt)
        return rt

    def _retime(self, rt: VirtualNode, t: int, pause: int = 0) -> None:
        """Settle the node to ``t``, add ``pause`` unserved ticks and record
        its new completion under the next sequence number: one pass per
        checkpoint write, after which the caller images the settled node.
        It queues nothing: a completion entry that own rounds moved pops
        stale and ``_handle_node`` queues the node again."""
        if t > rt.anchor:
            rt.settle(t)
        rt.due = due = rt.due + pause
        queue = self.queue
        seq = queue._seq
        queue._seq = seq + 1
        rt.completion = (rt.anchor + due + rt.task.demand - rt.progress, seq)

    def _count_rounds(self, rt: VirtualNode, t: int) -> None:
        """Count the node's own rounds due strictly before ``t`` into its
        completion record, applying none.  A settle leaves the ledger's
        completion where it is and each round adds its write cost, so the
        record is the ledger's completion plus the cost times the rounds
        counted, the one applying them gives; a fresh seq is taken only when
        a round fell due since the last record.  ``counted`` is the batch
        ``_take_rounds`` applies.  Sync rounds are counted on the grid.
        Independent rounds are drawn: the one place their gaps are drawn,
        each once, by ``independent_next``'s formula, up to the first round
        due at or after ``t``, whose tick is kept last in ``ticks``."""
        due = rt.checkpoint
        if due >= t:
            return
        step = self.round_grid
        if step is None:
            ticks = rt.ticks
            tick = ticks[-1]
            streams, rate = self.round_gaps
            draw = streams[rt.task.task_id].random
            while tick < t:
                # round() of a non-negative float is at least 0, so ``or 1``
                # is independent_next's max(1, ...)
                tick += round(-log(1.0 - draw()) / rate) or 1
                ticks.append(tick)
            rounds = len(ticks) - 1
        else:
            rounds = (t - 1 - due) // step + 1
        if rounds <= rt.counted:
            return
        rt.counted = rounds
        queue = self.queue
        seq = queue._seq
        queue._seq = seq + 1
        rt.completion = (rt.anchor + rt.due + rt.task.demand - rt.progress
                         + rounds * self.cfg.checkpoint_write_cost, seq)

    def _catch_up(self, rt: VirtualNode, t: int) -> None:
        """Apply the node's own rounds due strictly before ``t``, before the
        engine reads or changes its ledger, contamination or images, and
        record the moved completion once: ``_count_rounds`` brings the count
        and the record up to ``t``, and ``_take_rounds`` applies the rounds
        counted.  A round due at ``t`` runs after the node's event at ``t``:
        a node that finishes, crashes or is replaced at ``t`` takes no image
        at ``t``."""
        due = rt.checkpoint
        if due is not None and due < t:   # tcc has no own rounds
            self._count_rounds(rt, t)
            self._take_rounds(rt)

    def _take_rounds(self, rt: VirtualNode) -> None:
        """Apply the ``counted`` rounds from the node's next round on, in
        order, leaving the ledger as a settle to each round's tick followed
        by its write's pause would, the next round due where its policy puts
        it and none counted.  The batch writes one image, its last round's,
        standing for every round of it: nothing changed the node's taint
        between them, so no rollback could restore an earlier one.

        Only the first round settles: no event settles a node past its next
        round, so each later round finds the ledger at the round before it.
        A settle serves the unserved ticks, then works.  Rounds on a grid
        (sync) add their pauses at once, and one settle reaches the last
        round's tick: if the write cost fits in a grid step, once the
        backlog runs out each step serves its own round's pause and works
        the rest, as the one settle does; if it does not, the backlog the
        first round leaves, at least the write cost, never runs out, and
        neither form works.  Drawn rounds (independent) are applied over
        the ticks their count drew, and draw nothing here: one pass over
        them advances the unserved backlog b and the worked ticks in
        locals by Lindley's recursion, b <- max(b - gap, 0) + cost, exact
        for any write cost.  The ledger is then written once: its anchor,
        ``due`` and progress."""
        due, rounds = rt.checkpoint, rt.counted
        if due > rt.anchor:
            rt.settle(due)
        cost = self.cfg.checkpoint_write_cost
        step = self.round_grid
        if step is not None:
            tick = due + (rounds - 1) * step
            if rounds > 1:
                rt.due += (rounds - 1) * cost   # every round's but the last's
                rt.settle(tick)
            rt.due += cost
            due = tick + step
        else:
            ticks = rt.ticks
            backlog = rt.due + cost   # unserved, after the first round
            tick = due
            worked = 0
            for nxt in ticks[1:rounds]:
                gap = nxt - tick
                if gap > backlog:
                    worked += gap - backlog
                    backlog = cost
                else:
                    backlog += cost - gap
                tick = nxt
            due = ticks[rounds]
            del ticks[:rounds]
            rt.anchor = tick
            rt.due = backlog
            rt.progress += worked
        rt.counted = 0
        self.store.take(rt, tick, rounds)
        rt.checkpoint = due

    def _retire(self, rt: VirtualNode, t: int) -> None:
        """Stop an incarnation and fold its ledger into the totals."""
        rt.stop(t)   # a crash stopped it already
        span, work, restore = rt.span, rt.work, rt.restore   # each derived once
        s = self.report.scalars
        s["useful_work_total"] += work   # less the lost work, in _roll_back
        s["pause_time_total"] += span - work - restore   # the rest of the span
        s["restore_time_total"] += restore
        s["active_time_total"] += span
        task_id, job_id = rt.task.task_id, rt.task.job_id
        del self.job_nodes[job_id][task_id]
        self.infected[job_id].discard(task_id)
        rt.monitor = rt.completion = rt.checkpoint = None
        rt.server.free_slots += 1

    def _roll_back(self, rt: VirtualNode, target: Checkpoint | None, t: int) -> int:
        """Discard the node's progress past ``target`` and retire it; returns the lost work."""
        self.store.abandon_after(rt.task.task_id, target)
        rt.settle(t)   # a no-op once a crash stopped it
        lost = rollback_loss(rt.progress, target, t)
        s = self.report.scalars
        s["lost_work_total"] += lost
        s["useful_work_total"] -= lost
        s["rollback_count"] += 1
        self._retire(rt, t)
        return lost

    def _restart_vn(self, rt: VirtualNode, t: int, reason: str) -> str:
        """Replace one node from its previous trusted checkpoint; returns the
        log detail."""
        self._catch_up(rt, t)   # its own rounds due before t write the images it reads
        target = self.checkpointing.rollback_target(self, rt.task.task_id)
        lost = self._roll_back(rt, target, t)
        new_sid, selection_cost = self.placement.replacement(self, rt.server.server_id)
        self.report.record("exec_time_host_selection", selection_cost)
        if new_sid is None:
            self.report.scalars["failed_workloads"] += 1
            return f"reason={reason};lost={lost};placement=failed"
        restore = self.cfg.restart_cost + math.ceil(selection_cost)
        new_rt = self._spawn(rt.task, new_sid, t, target, restore)
        self.report.scalars["replacement_count"] += 1
        self.report.record("time_before_migration", float(t - rt.start))
        self.report.record("exec_time_reallocation", float(restore))
        self.report.record("exec_time_total", selection_cost + restore)
        return (f"reason={reason};lost={lost};from=s{rt.server.server_id};"
                f"to=s{new_sid};vn=v{new_rt.vn_id}")

    def _migrate_job(self, job_id: int, t: int) -> str:
        """Halt every node of the job and restart it from a job-consistent image,
        placed as the run's scheduler places a wave; returns the log detail."""
        rts = list(self.job_nodes[job_id].values())
        task_ids = list(self.job_nodes[job_id])
        consistent_at = min(c.time if c else 0 for c in map(self.store.latest_clean, task_ids))
        targets = [self.store.latest_clean(tid, before=consistent_at) for tid in task_ids]
        for rt, target in zip(rts, targets):
            self._roll_back(rt, target, t)
        # retiring the job's nodes freed one slot for each node placed here
        mapping, wave_cost = self.placement.wave(self, task_ids)
        self.report.record("exec_time_vm_selection", wave_cost)
        restore = self.cfg.migration_cost + math.ceil(wave_cost)
        for rt, target in zip(rts, targets):
            self._spawn(rt.task, mapping[rt.task.task_id], t, target, restore)
            # bulk moves are collateral of the job halt; the per-VM
            # time-before-migration metric samples reactive restarts only
            self.report.record("exec_time_reallocation", float(restore))
            self.report.record("exec_time_total", wave_cost + restore)
        s = self.report.scalars
        s["replacement_count"] += len(rts)
        s["migration_count"] += 1
        self.queue.push(t + restore, MIGRATION_COMPLETE, job_id)   # as the restore ends
        return f"job=j{job_id};moved={len(rts)};consistent_at={consistent_at}"

    def _queue_node(self, rt: VirtualNode) -> None:
        """Queue the node's one entry, the earlier of its two records: the
        only push of a node's event.  An entry due after the run's end is
        queued and never pops."""
        due, kind = rt.monitor, MONITOR_ROUND
        completion = rt.completion
        if completion is not None and completion < due:
            due, kind = completion, TASK_COMPLETE
        self.queue.push(due[0], kind, rt, due[1])

    # -- completion ----------------------------------------------------------

    def _complete_task(self, rt: VirtualNode, t: int) -> str:
        """Finish the node's task; returns the log detail."""
        task = rt.task
        s = self.report.scalars
        if rt.contaminated:
            s["corrupted_completions"] += 1
        self._catch_up(rt, t)   # the rounds counted at t, before the ledger is read
        self._retire(rt, t)
        job_id = task.job_id
        self.unfinished[job_id] -= 1
        if not self.unfinished[job_id]:
            s["jobs_completed"] += 1
            return f"task={task.task_id};job=j{job_id};job_complete=1"
        return f"task={task.task_id}"

    # -- fault injection ----------------------------------------------------------

    def inject_fault(self, spec: FaultSpec, t: int) -> str:
        """Apply one fault to its task's live node; returns the log detail."""
        task = self.tasks[spec.target_task]   # task ids are list positions
        rt = self.job_nodes[task.job_id].get(task.task_id)
        if rt is None or rt.completion is None:   # no live node, or a crashed one
            return f"kind={_TOKENS[spec.kind]};target=none;noop=1"
        # a fault before the node starts (a late initial wave) lands at its start
        t = max(t, rt.start)
        self._catch_up(rt, t)   # its own rounds due before the fault run first
        if spec.kind is BYZANTINE_FAULT:
            rt.contaminated = True
            self.infected[task.job_id].add(task.task_id)
            self.detection_pending[rt.task.task_id] = t
            return f"kind=byzantine;vn=v{rt.vn_id}"
        if spec.kind is CRASH_FAULT:
            rt.stop(t)
            rt.completion = rt.checkpoint = None
            self.detection_pending[rt.task.task_id] = t
            return f"kind=crash;vn=v{rt.vn_id}"
        rt.spike_delay += spec.magnitude * self.cfg.sla_bound
        return f"kind=delay;vn=v{rt.vn_id};magnitude={spec.magnitude}"

    # -- event handlers ----------------------------------------------------------

    def _handle_node(self, ev: tuple) -> str:
        """A node's queued entry, a monitor round or its completion (the final
        verification of its output): observe the node, then complete its task
        or act on the round.  Only a flagged round (an errored checksum or a
        high or extreme delay) calls the machine's step, the interval update
        and the policy's ``on_monitor``.  A stale entry queues the node again
        while its monitor round is set.  A node still live after the round
        records its next round and queues its next entry here."""
        t, seq, kind, rt = ev
        if rt.monitor is None:   # the entry of a retired node
            return "stale=1"
        if rt.checkpoint is not None:   # tcc pays this test only
            self._count_rounds(rt, t)   # the entry reads only its completion record
        verify = kind is TASK_COMPLETE
        completion = rt.completion
        if verify and (t, seq) != completion:   # own rounds or a crash moved it
            self._queue_node(rt)
            return "stale=1"
        cfg = self.cfg
        # a node is finished once its recorded completion is now, as on any
        # completion; a monitor round's own pause (monitor_cost) keeps it busy
        finished = verify or (completion is not None and completion[0] == t
                              and not cfg.monitor_cost)
        server = rt.server
        # random.gauss's own statements, with no frame: a Box-Muller pair of
        # two draws, its second half kept for the next call on the stream
        rng = self.rng
        z = rng.gauss_next
        rng.gauss_next = None
        if z is None:
            x2pi = rng.random() * tau
            g2rad = sqrt(-2.0 * log(1.0 - rng.random()))
            z = cos(x2pi) * g2rad
            rng.gauss_next = sin(x2pi) * g2rad
        delay = server.latency_mean + z * cfg.latency_sigma
        delay = (delay if delay > 0.0 else 0.0) + rt.spike_delay
        sla = cfg.sla_bound
        if completion is None:
            checksum = CHECKSUM_ERROR   # crashed: challenge unanswered
        elif not rt.contaminated:
            checksum = NO_ERROR   # a clean node never errs, and draws nothing
        else:
            checksum = checksum_oracle(cfg.detect_prob, rng)
            if checksum is NO_ERROR and cfg.high_delay_fallback:
                # a missed detection surfaces as high delay variation
                delay = max(delay, (cfg.delay_normal_frac + cfg.delay_high_frac) / 2 * sla)
        dclass = classify_delay(delay, sla, self.thresholds)
        high = dclass >= HIGH
        flagged = checksum is CHECKSUM_ERROR or high

        weight = t - (rt.monitor[0] - rt.gap)   # the time since its last observation
        self.obs_count += 1
        if delay > sla:
            self.excess_sum += delay - sla
        server.obs_time += weight
        if high:
            self.over_count += 1
            server.over_time += weight
        if flagged:
            record_failure(server, failure_kind(dclass, checksum))
            if rt.task.task_id in self.detection_pending:
                since = self.detection_pending.pop(rt.task.task_id)
                self.report.record("detection_latency", float(t - since))
        if cfg.monitor_cost > 0 and completion is not None:
            self._catch_up(rt, t)   # the rounds counted at t, before the ledger moves
            self._retime(rt, t, cfg.monitor_cost)

        if finished and not flagged:
            outcome = self._complete_task(rt, t)
        else:
            # from the S-state the node's streak gives
            prior = BYZANTINE if rt.suspect_rounds else FAIL_SAFE
            if flagged:
                # a monitor round, or a final output rejected at verification
                post = byzantine_fsm_step(prior, dclass, checksum)
                gap, action, rt.suspect_rounds = next_interval(
                    rt.gap, rt.suspect_rounds, post, cfg)
                outcome = self.checkpointing.on_monitor(self, rt, t, action, not finished)
            else:
                # the absent input, whose step and interval update are fixed:
                # back to S0, the streak cleared and the gap stretched
                post, rt.suspect_rounds = FAIL_SAFE, 0
                scale, step = self.growth
                gap = rt.gap * scale + step
                if self.confirms:   # live: a crash errs the checksum
                    self._retime(rt, t, cfg.checkpoint_write_cost)
                    self.store.take(rt, t)
                outcome = self.checkpointing.healthy_detail(gap) if self.collect_log else ""
            if rt.monitor is not None:   # not retired: its next round, under the next seq
                queue = self.queue
                seq = queue._seq
                queue._seq = seq + 1
                rt.gap = gap
                rt.monitor = (t + gap, seq)
                self._queue_node(rt)
            if self.collect_log:
                outcome = f"state={_TOKENS[prior]}>{_TOKENS[post]}{outcome}"
        if not self.collect_log:
            return ""
        return (f"server=s{server.server_id};{'verify=1;' if verify else ''}"
                f"delay={delay:.3f};class={_DELAY_TOKENS[dclass]};"
                f"checksum={_TOKENS[checksum]};{outcome}")

    def _handle_exchange(self, ev: tuple) -> str:
        t = ev[0]
        spread = []
        for job_id, infected in self.infected.items():
            if not infected:
                continue
            nodes = self.job_nodes[job_id]
            # a crashed node no longer exchanges outputs
            if not any(nodes[task_id].completion is not None for task_id in infected):
                continue
            clean = [rt for rt in nodes.values() if not rt.contaminated
                     and rt.completion is not None]
            for rt in propagate_contamination(clean, self.cfg.propagation_prob, self.rng):
                self._catch_up(rt, t)
                rt.contaminated = True
                infected.add(rt.task.task_id)
                self.detection_pending.setdefault(rt.task.task_id, t)
                spread.append(rt.vn_id)
        self.queue.push(t + self.cfg.base_interval, CONTAMINATION_EXCHANGE)
        return "spread=" + ("|".join(f"v{v}" for v in spread) if spread else "-")

    # -- main loop ----------------------------------------------------------

    def run(self) -> tuple[MetricsReport, list[str]]:
        cfg = self.cfg
        mapping, wave_cost = self.placement.wave(self, [t.task_id for t in self.tasks])
        self.report.record("exec_time_vm_selection", wave_cost)
        self.report.record("exec_time_total", wave_cost)
        for task in self.tasks:
            self._spawn(task, mapping[task.task_id], math.ceil(wave_cost))
        if cfg.propagation_prob > 0:
            self.queue.push(cfg.base_interval, CONTAMINATION_EXCHANGE)
        for i, spec in enumerate(self.faults):
            self.queue.push(spec.time, FAULT_INJECTION, i)

        dispatch = {
            MONITOR_ROUND: self._handle_node,
            TASK_COMPLETE: self._handle_node,
            CONTAMINATION_EXCHANGE: self._handle_exchange,
            FAULT_INJECTION: lambda ev: self.inject_fault(self.faults[ev[3]], ev[0]),
            MIGRATION_COMPLETE: lambda ev: f"job=j{ev[3]}",
        }
        queue, horizon, job_count = self.queue, cfg.horizon, len(self.unfinished)
        ticks = queue._ticks   # read in place: one call less per event than peek_time
        s = self.report.scalars
        advance, log = queue.advance, self._log
        while s["jobs_completed"] < job_count and (queue._now or ticks and ticks[0] <= horizon):
            ev = advance()
            log(ev, dispatch[ev[2]](ev))

        # every event due at or before the horizon ran, so the rounds due
        # then run too, and the node is retired; their counts take their
        # seqs after the horizon's own, and no record of them is read
        end = queue.clock if s["jobs_completed"] == job_count else horizon
        ev = queue.synthesize(HORIZON_END, end)
        for nodes in self.job_nodes.values():
            for rt in list(nodes.values()):
                self._catch_up(rt, end + 1)
                self._retire(rt, end)
        self._log(ev, f"jobs_completed={s['jobs_completed']}")
        self._finalize()
        return self.report, self.log_lines

    # -- report ----------------------------------------------------------

    def _finalize(self) -> None:
        """Set the scalars derived from the counts the run kept on the report."""
        rep, counts = self.report, self.report.scalars
        rep.set_scalar("host_count", len(self.servers))
        rep.set_scalar("vn_count", len(self.tasks))
        rep.set_scalar("completed_migrations", counts["replacement_count"])   # one per replaced node
        rep.set_scalar("checkpoint_count", self.store.taken)   # images written, kept or not

        lost = counts["lost_work_total"]
        work = counts["useful_work_total"] + lost
        pdm = 100.0 * lost / work if work else 0.0
        fractions = [s.over_time / s.obs_time for s in self.servers if s.obs_time > 0]
        # added in order, as sum() did before 3.12 compensated its float rounding,
        # so every admitted Python gives the same report
        slatah = 100.0 * reduce(add, fractions, 0.0) / len(fractions) if fractions else 0.0
        over_rate = 100.0 * self.over_count / self.obs_count if self.obs_count else 0.0
        overall = slatah * over_rate / 100.0
        avg = (100.0 * (self.excess_sum / self.obs_count) / self.cfg.sla_bound
               if self.obs_count else 0.0)
        rep.set_scalar("sla_degradation_migration_pct", pdm)
        rep.set_scalar("sla_time_per_active_host_pct", slatah)
        rep.set_scalar("overall_sla_violation_pct", overall)
        rep.set_scalar("avg_sla_violation_pct", min(100.0, avg))   # a mean excess can pass the bound


def run_scenario(cfg: SimConfig, faults: list[FaultSpec] | None = None,
                 scheduler: str | None = None, checkpoint_policy: str | None = None,
                 collect_log: bool = True) -> tuple[MetricsReport, list[str]]:
    """Build the scenario from config and run it once."""
    return Simulation(Scenario.from_config(cfg, faults), scheduler, checkpoint_policy,
                      collect_log).run()
