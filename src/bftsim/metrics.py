"""Scenario metrics: single-pass aggregation, serialization, and comparison.

A report holds scalar counters plus sampled metrics aggregated with
Welford's single-pass mean/variance.  Standard deviations are sample
(n-1) values.  Serialization is stable: identical reports emit identical
bytes, and emitted reports parse back equal.
"""

from __future__ import annotations

import io
import csv
import json
import math
import re
from json.encoder import encode_basestring_ascii


SCALAR_METRICS = (
    "host_count",
    "vn_count",
    "completed_migrations",
    "failed_workloads",
    "checkpoint_count",
    "rollback_count",
    "migration_count",
    "replacement_count",
    "useful_work_total",
    "lost_work_total",
    "pause_time_total",
    "restore_time_total",
    "active_time_total",
    "corrupted_completions",
    "jobs_completed",
    "sla_degradation_migration_pct",
    "sla_time_per_active_host_pct",
    "overall_sla_violation_pct",
    "avg_sla_violation_pct",
)

SAMPLE_METRICS = (
    "time_before_migration",
    "detection_latency",
    "exec_time_vm_selection",
    "exec_time_host_selection",
    "exec_time_reallocation",
    "exec_time_total",
)

PERCENT_METRICS = tuple(m for m in SCALAR_METRICS if m.endswith("_pct"))


class SampleStat:
    __slots__ = ("count", "mean", "_m2", "low", "high", "_parsed_stddev")

    def __init__(self, count: int = 0, mean: float = 0.0,
                 low: float = math.inf, high: float = -math.inf):
        self.count = count
        self.mean = mean
        self._m2 = 0.0           # sum of squared deviations from the mean
        self._parsed_stddev = None   # read back as written until the next sample
        self.low = low
        self.high = high

    def add(self, x: float) -> None:
        self._parsed_stddev = None
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (x - self.mean)
        self.low = min(self.low, x)
        self.high = max(self.high, x)

    @property
    def stddev(self) -> float:
        if self._parsed_stddev is not None:
            return self._parsed_stddev
        if self.count < 2:
            return 0.0
        return math.sqrt(self._m2 / (self.count - 1))

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean if self.count else 0.0,
            "stddev": self.stddev,
            "low": self.low if self.count else 0.0,
            "high": self.high if self.count else 0.0,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SampleStat":
        stat = cls(count=int(d["count"]), mean=float(d["mean"]),
                   low=float(d["low"]), high=float(d["high"]))
        # reconstruct the sum of squared deviations from the stored stddev,
        # whose square may move its last bit, so keep the stddev as well
        if stat.count >= 2:
            stat._parsed_stddev = float(d["stddev"])
            stat._m2 = stat._parsed_stddev ** 2 * (stat.count - 1)
        if stat.count == 0:
            stat.low, stat.high = math.inf, -math.inf
        return stat


class MetricsReport:
    """All Table-style metrics of one scenario run."""

    def __init__(self, scenario_id: str = "", seed: int = 0,
                 scheduler: str = "", checkpoint_policy: str = ""):
        self.scenario_id = scenario_id
        self.seed = seed
        self.scheduler = scheduler
        self.checkpoint_policy = checkpoint_policy
        self.scalars: dict[str, float] = {m: 0 for m in SCALAR_METRICS}
        self.samples: dict[str, SampleStat] = {m: SampleStat() for m in SAMPLE_METRICS}

    def set_scalar(self, metric_id: str, value) -> None:
        if metric_id not in self.scalars:
            raise ValueError(f"unknown metric id: {metric_id}")
        if metric_id in PERCENT_METRICS and not 0.0 <= value <= 100.0:
            raise ValueError(f"{metric_id} must be a percentage in [0, 100]")
        self.scalars[metric_id] = value

    def record(self, metric_id: str, sample: float) -> None:
        if metric_id not in self.samples:
            raise ValueError(f"unknown metric id: {metric_id}")
        if sample < 0:   # every sampled metric is a duration
            raise ValueError(f"{metric_id}: negative duration sample {sample}")
        self.samples[metric_id].add(sample)

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        out = {"_scenario": {"id": self.scenario_id, "seed": self.seed,
                             "scheduler": self.scheduler,
                             "checkpoint_policy": self.checkpoint_policy}}
        for m in SCALAR_METRICS:
            v = self.scalars[m]
            out[m] = {"count": 1, "mean": v, "stddev": 0.0, "low": v, "high": v}
        for m in SAMPLE_METRICS:
            out[m] = self.samples[m].as_dict()
        return out

    def emit(self, fmt: str) -> str:
        if fmt == "json":
            # json.dumps(out, sort_keys=True, indent=2) + "\n", filled in
            out = self.to_dict()
            try:
                values = [_JSON_ENCODE[type(v)](v) for v in
                          [out[group][key] for group, key in _JSON_SLOTS]]
            except KeyError:   # a value of another type
                return json.dumps(out, sort_keys=True, indent=2) + "\n"
            if "nan" in values or "inf" in values or "-inf" in values:
                values = [_NON_FINITE.get(v, v) for v in values]
            return _JSON_LAYOUT % tuple(values)
        if fmt == "csv":
            header, row = ["scenario_id", "seed", "scheduler", "checkpoint_policy"], \
                          [self.scenario_id, self.seed, self.scheduler, self.checkpoint_policy]
            for m in SCALAR_METRICS:
                header.append(m)
                row.append(repr(self.scalars[m]))
            for m in SAMPLE_METRICS:
                for stat_name, value in self.samples[m].as_dict().items():
                    header.append(f"{m}.{stat_name}")
                    row.append(repr(value))
            return csv_text([header, row])
        raise ValueError(f"unknown format: {fmt}")

    @classmethod
    def parse(cls, text: str, fmt: str) -> "MetricsReport":
        if fmt == "json":
            data = json.loads(text)
            meta = data["_scenario"]
            report = cls(meta["id"], int(meta["seed"]), meta["scheduler"],
                         meta["checkpoint_policy"])
            for m in SCALAR_METRICS:
                report.scalars[m] = data[m]["mean"]
            for m in SAMPLE_METRICS:
                report.samples[m] = SampleStat.from_dict(data[m])
            return report
        if fmt == "csv":
            rows = list(csv.reader(io.StringIO(text)))
            header, row = rows[0], rows[1]
            values = dict(zip(header, row))
            report = cls(values["scenario_id"], int(values["seed"]),
                         values["scheduler"], values["checkpoint_policy"])
            for m in SCALAR_METRICS:
                try:
                    report.scalars[m] = int(values[m])
                except ValueError:
                    report.scalars[m] = float(values[m])
            for m in SAMPLE_METRICS:
                report.samples[m] = SampleStat.from_dict(
                    {stat: values[f"{m}.{stat}"] for stat in ("count", "mean", "stddev", "low", "high")})
            return report
        raise ValueError(f"unknown format: {fmt}")

    def __eq__(self, other) -> bool:
        # an int equals the same float, and a dict compares a value to itself
        # by identity first, so a NaN equals itself
        if not isinstance(other, MetricsReport):
            return NotImplemented
        return self.to_dict() == other.to_dict()


def _json_layout(shape: dict) -> tuple[str, tuple[tuple[str, str], ...]]:
    """``json.dumps(shape, sort_keys=True, indent=2) + "\n"`` for a dict of
    dicts, as a ``%`` format with a ``%s`` slot per inner value, and the
    (outer key, inner key) path of each slot in the order the dump writes
    them.  The dump itself lays the text out, so the layout cannot drift."""
    paths, marked = [], {}
    for group, inner in shape.items():
        marked[group] = {}
        for key in inner:
            marked[group][key] = f"@{len(paths)}@"
            paths.append((group, key))
    text = json.dumps(marked, sort_keys=True, indent=2).replace("%", "%%") + "\n"
    order = tuple(paths[int(i)] for i in re.findall(r'"@(\d+)@"', text))
    return re.sub(r'"@\d+@"', "%s", text), order


# the JSON report's layout, built once, and json's encodings of its values
_JSON_LAYOUT, _JSON_SLOTS = _json_layout(MetricsReport().to_dict())
_JSON_ENCODE = {str: encode_basestring_ascii, int: int.__repr__, float: float.__repr__}
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def csv_text(rows) -> str:
    """Rows as CSV text with ``\n`` line ends."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def occurable_range(mean: float, stddev: float) -> tuple[float, float]:
    """The one-sigma band around a reported mean: (mean - s, mean + s)."""
    if stddev < 0:
        raise ValueError("stddev must be >= 0")
    return (mean - stddev, mean + stddev)


# comparison-table layout: (row id, kind, polarity); polarity says which
# direction is favorable ("lower", "higher", or None for descriptive rows)
TABLE_ROWS = (
    ("host_count", "scalar", None),
    ("vn_count", "scalar", None),
    ("energy_kwh", "absent", None),
    ("completed_migrations", "scalar", "higher"),
    ("sla_degradation_migration_pct", "scalar", "lower"),
    ("sla_time_per_active_host_pct", "scalar", "lower"),
    ("overall_sla_violation_pct", "scalar", "lower"),
    ("avg_sla_violation_pct", "scalar", "lower"),
    ("time_before_migration", "sample", "lower"),
    ("exec_time_vm_selection", "sample", "lower"),
    ("exec_time_host_selection", "sample", "lower"),
    ("exec_time_reallocation", "sample", "lower"),
    ("exec_time_total", "sample", "lower"),
    ("failed_workloads", "scalar", "lower"),
    ("checkpoint_count", "scalar", "lower"),
    ("rollback_count", "scalar", "lower"),
    ("migration_count", "scalar", None),
    ("lost_work_total", "scalar", "lower"),
    ("detection_latency", "sample", "lower"),
)


def summarize(report_a: MetricsReport, report_b: MetricsReport) -> list[dict]:
    """Side-by-side comparison rows of two runs over the same scenario."""
    if report_a.scenario_id != report_b.scenario_id:
        raise ValueError(
            f"mismatched scenario ids: {report_a.scenario_id!r} vs {report_b.scenario_id!r}")
    rows = []
    for metric_id, kind, polarity in TABLE_ROWS:
        if kind == "absent":
            rows.append({"metric": metric_id, "a": None, "b": None,
                         "delta": None, "favors": "not modeled"})
            continue
        if kind == "scalar":
            a, b = report_a.scalars[metric_id], report_b.scalars[metric_id]
            extra = {}
        else:
            sa, sb = report_a.samples[metric_id], report_b.samples[metric_id]
            a, b = sa.mean, sb.mean
            extra = {"a_stddev": sa.stddev, "b_stddev": sb.stddev}
        delta = b - a
        if delta == 0 or polarity is None:
            favors = "-"
        elif (delta < 0) == (polarity == "lower"):
            favors = "b"
        else:
            favors = "a"
        rows.append({"metric": metric_id, "a": a, "b": b, "delta": delta,
                     "favors": favors, **extra})
    return rows
