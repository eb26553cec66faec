import json
import math
import random
import statistics

import pytest

from bftsim.metrics import (
    MetricsReport,
    occurable_range,
    summarize,
)


def _report(scenario="scn", **scalars):
    report = MetricsReport(scenario, seed=1, scheduler="wsss", checkpoint_policy="tcc")
    for key, value in scalars.items():
        report.set_scalar(key, value)
    return report


def test_record_single_sample():
    report = _report()
    report.record("time_before_migration", 19.72)
    stat = report.samples["time_before_migration"]
    assert stat.count == 1 and stat.mean == 19.72 and stat.stddev == 0.0


def test_record_closed_form_variance():
    report = _report()
    for x in (1, 2, 3):
        report.record("detection_latency", x)
    stat = report.samples["detection_latency"]
    assert stat.mean == pytest.approx(2.0)
    assert stat.stddev == pytest.approx(1.0)


def test_record_rejects_negative_duration():
    report = _report()
    with pytest.raises(ValueError, match="negative"):
        report.record("detection_latency", -1.0)


def test_record_rejects_unknown_metric():
    report = _report()
    with pytest.raises(ValueError, match="unknown metric"):
        report.record("made_up_metric", 1.0)
    with pytest.raises(ValueError, match="unknown metric"):
        report.set_scalar("made_up_metric", 1.0)


def test_single_pass_matches_two_pass():
    rng = random.Random(99)
    samples = [rng.uniform(0, 1000) for _ in range(10 ** 5)]
    report = _report()
    for x in samples:
        report.record("exec_time_total", x)
    stat = report.samples["exec_time_total"]
    assert math.isclose(stat.mean, statistics.fmean(samples), rel_tol=1e-9)
    assert math.isclose(stat.stddev, statistics.stdev(samples), rel_tol=1e-9)
    assert stat.low <= stat.mean <= stat.high


def test_occurable_range_reported_pairs():
    low, high = occurable_range(19.72, 8.10)
    assert low == pytest.approx(11.62, abs=0.01)
    assert high == pytest.approx(27.82, abs=0.01)
    low, high = occurable_range(13.97, 6.40)
    assert low == pytest.approx(7.57, abs=0.01)
    assert high == pytest.approx(20.37, abs=0.01)
    assert occurable_range(5.0, 0.0) == (5.0, 5.0)


def test_occurable_range_width_is_two_sigma():
    low, high = occurable_range(100.0, 7.25)
    assert high - low == pytest.approx(2 * 7.25)


def test_occurable_range_rejects_negative_sigma():
    with pytest.raises(ValueError):
        occurable_range(1.0, -0.5)


def test_percent_scalars_bounded():
    report = _report()
    with pytest.raises(ValueError, match="percentage"):
        report.set_scalar("overall_sla_violation_pct", 120.0)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_emit_round_trip_and_determinism(fmt):
    # a whole float in exponent form, and an int no float holds exactly
    report = _report(completed_migrations=26634, overall_sla_violation_pct=0.07,
                     useful_work_total=1e16, lost_work_total=2**53 + 1)
    for x in (19.7, 8.1, 13.9):
        report.record("time_before_migration", x)
    blob = report.emit(fmt)
    assert blob == report.emit(fmt)
    parsed = MetricsReport.parse(blob, fmt)
    assert parsed == report
    assert parsed.emit(fmt) == blob


def test_a_parsed_sample_keeps_accumulating():
    """A parsed stddev reads back as written; a sample added afterwards
    updates it from the rebuilt sum of squares, as if recorded all along."""
    samples = [21.0, 55.0, 3.0, 40.0]
    whole, part = _report(), _report()
    for x in samples:
        whole.record("detection_latency", x)
    for x in samples[:-1]:
        part.record("detection_latency", x)
    parsed = MetricsReport.parse(part.emit("json"), "json")
    assert parsed.samples["detection_latency"].stddev == part.samples["detection_latency"].stddev
    parsed.record("detection_latency", samples[-1])
    back, want = parsed.samples["detection_latency"], whole.samples["detection_latency"]
    assert back.count == want.count and back.mean == want.mean
    assert back.stddev == pytest.approx(want.stddev, rel=1e-12)


def _assert_emits_as_json_dumps(report):
    text = report.emit("json")
    assert text == json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
    assert MetricsReport.parse(text, "json").emit("json") == text


def test_json_emit_is_the_sorted_indented_dump():
    """``emit("json")`` fills a layout built once; it writes what json.dumps
    writes: a blank report, whose samples have count 0, non-ASCII text,
    negative zero, non-finite floats, and values of other types."""
    _assert_emits_as_json_dumps(MetricsReport())
    report = _report("scénario-ß→1", useful_work_total=-0.0, lost_work_total=math.inf,
                     pause_time_total=-math.inf, restore_time_total=math.nan,
                     jobs_completed=3)
    report.record("detection_latency", math.inf)
    report.record("exec_time_total", 0.0)
    report.record("exec_time_total", 2.5)
    _assert_emits_as_json_dumps(report)
    text = report.emit("json")
    assert '"id": "sc\\u00e9nario-\\u00df\\u21921"' in text
    for spelling in ("-0.0", "Infinity", "-Infinity", "NaN"):
        assert f'"mean": {spelling},' in text
    _assert_emits_as_json_dumps(_report(rollback_count=True, migration_count=None))
    finite = _report("scénario", useful_work_total=-0.0, lost_work_total=math.inf)
    parsed = MetricsReport.parse(finite.emit("json"), "json")
    assert parsed == finite and math.copysign(1, parsed.scalars["useful_work_total"]) < 0


def test_emit_unknown_format():
    with pytest.raises(ValueError, match="xml"):
        _report().emit("xml")


def test_summarize_row_set_and_energy_marker():
    a = _report(completed_migrations=23035)
    b = _report(completed_migrations=26634)
    rows = summarize(a, b)
    metric_ids = [r["metric"] for r in rows]
    for required in ("host_count", "vn_count", "energy_kwh", "completed_migrations",
                     "sla_degradation_migration_pct", "sla_time_per_active_host_pct",
                     "overall_sla_violation_pct", "avg_sla_violation_pct",
                     "time_before_migration", "exec_time_vm_selection",
                     "exec_time_host_selection", "exec_time_reallocation",
                     "exec_time_total"):
        assert required in metric_ids
    energy = next(r for r in rows if r["metric"] == "energy_kwh")
    assert energy["favors"] == "not modeled"
    migrations = next(r for r in rows if r["metric"] == "completed_migrations")
    assert migrations["delta"] == 3599
    assert migrations["favors"] == "b"


def test_summarize_reflexive_and_antisymmetric():
    a = _report(completed_migrations=10, lost_work_total=5)
    same = summarize(a, a)
    assert all(r["delta"] in (0, None) for r in same)
    b = _report(completed_migrations=14, lost_work_total=2)
    forward = summarize(a, b)
    backward = summarize(b, a)
    for f, r in zip(forward, backward):
        if f["delta"] is None:
            assert r["delta"] is None
        else:
            assert f["delta"] == -r["delta"]


def test_summarize_rejects_mismatched_scenarios():
    with pytest.raises(ValueError, match="mismatched"):
        summarize(_report(scenario="a"), _report(scenario="b"))
