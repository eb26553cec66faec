"""A fixed piece of Python work that measures how fast the host runs right now.

The benchmark shares a few cores with other tenants, and their load slows the
interpreter by up to a half for seconds or minutes at a time.  CPU time slows
with it, so no clock of this process can tell the program's cost from the
host's state.  ``reference_seconds`` times a piece of work that never changes:
the same kinds of operation the simulator spends its time on (heap pushes and
pops of tuples, attribute access on small objects, dict updates, random
draws, float arithmetic, sorting and string formatting).  The benchmark times
it next to every run and scales each run's host time by
``NOMINAL_SECONDS / reference time``: the time the run would have taken on a
host where the reference work takes ``NOMINAL_SECONDS``.  A change to the
program moves the scaled times; a change in the host's load moves the run and
its neighbouring reference alike and cancels out.
"""

from __future__ import annotations

import heapq
import random
import time

# The reference work's time on this benchmark's host when it is undisturbed
# (a 2-vCPU VM, Python 3.11).  It only fixes the unit of the scaled times.
NOMINAL_SECONDS = 0.004


class _Item:
    __slots__ = ("key", "load", "tag")

    def __init__(self, key: int, load: float):
        self.key = key
        self.load = load
        self.tag = 0


def reference_work() -> int:
    """Deterministic interpreter-bound work of a few milliseconds."""
    rng = random.Random(12345)
    heap: list = []
    totals: dict = {}
    lines = []
    items = [_Item(i, rng.random()) for i in range(64)]
    for step in range(3000):
        item = items[step & 63]
        item.load = item.load * 0.97 + rng.random()
        item.tag += 1
        heapq.heappush(heap, (item.load + step, step, item.key))
        if len(heap) > 48:
            _, _, key = heapq.heappop(heap)
            totals[key] = totals.get(key, 0.0) + item.load
        if step % 50 == 0:
            ranked = sorted(items, key=lambda it: (it.load, it.key))
            lines.append(f"t={step} top={ranked[0].key} load={ranked[0].load:.3f}")
    return len(lines) + len(totals)


def reference_seconds() -> float:
    """Host seconds of one ``reference_work``."""
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` of host time, scaled by the reference times around it."""
    return seconds * 2 * NOMINAL_SECONDS / (before + after)
