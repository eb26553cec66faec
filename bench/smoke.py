"""Smoke test of the benchmark itself, on tiny passes of every workload.

    python3 bench/smoke.py

Run it from the root of a checkout.  It checks that every end-to-end and
per-layer metric prints with its unit, that two runs at one seed give the
same report digest, that the traced pass passes its own checks, and that
another seed changes the generated inputs.  Exits 0 when all hold.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run as bench
from workloads import WORKLOADS

TINY = 2   # scenarios per pass


def printed(fn, *args, **kwargs) -> tuple[object, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        value = fn(*args, **kwargs)
    return value, out.getvalue()


def metrics_line(results, correct, metrics, units) -> tuple[dict, str]:
    _, text = printed(bench.emit_result, results, correct, metrics, units)
    return json.loads(text.splitlines()[-1]), text


def main() -> int:
    problems = []
    for name, workload in WORKLOADS.items():
        before = len(problems)

        def measured(seed):
            (results, correct, metrics), _ = printed(
                bench.measure, workload, seed, 0, scenarios=TINY)
            return results, correct, metrics

        first, second, other = measured(1), measured(1), measured(2)
        (traced, trace_ok, layers), _ = printed(bench.trace, workload, 1, scenarios=TINY)
        for label, (results, correct, metrics), units in (
                ("end-to-end", first, bench.END_TO_END_UNITS),
                ("per-layer", (traced, trace_ok, layers), bench.PER_LAYER_UNITS)):
            line, text = metrics_line(results, correct, metrics, units)
            if not line["correct"]:
                problems.append(f"{name}: {label} pass is not correct")
            for metric, unit in units.items():
                if line["metrics"].get(metric, {}).get("unit") != unit \
                        or f"  {metric} = " not in text:
                    problems.append(f"{name}: {label} metric {metric} missing or without unit")
        digests = [r.digest.hexdigest() for r, _, _ in (first, second, other)]
        if digests[0] != digests[1]:
            problems.append(f"{name}: two runs at seed 1 gave different digests")
        if digests[0] != traced.digest.hexdigest():
            problems.append(f"{name}: traced and untraced digests differ")
        if digests[0] == digests[2]:
            problems.append(f"{name}: seeds 1 and 2 gave the same inputs")
        print(f"smoke: {name}: {'ok' if len(problems) == before else 'FAILED'}", flush=True)
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
