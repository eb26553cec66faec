from dataclasses import asdict, fields

import pytest

from bftsim.config import (
    ConfigError,
    SimConfig,
    load_config,
    parse_config_file,
    validate_config,
)


def test_defaults_are_valid():
    cfg = validate_config({})
    assert cfg == SimConfig()


def test_reference_operating_point_accepted():
    cfg = validate_config({"base_interval": 10, "ft_interval": 10,
                           "detect_prob": 0.88, "migration_threshold": 5,
                           "suspect_threshold": 3, "seed": 42})
    assert cfg.detect_prob == 0.88
    assert cfg.migration_threshold == 5
    assert cfg.suspect_threshold == 3


@pytest.mark.parametrize("raw,needle", [
    ({"base_interval": 0}, "base_interval"),
    ({"ft_interval": 0}, "ft_interval"),
    ({"detect_prob": 1.5}, "detect_prob"),
    ({"detect_prob": -0.1}, "detect_prob"),
    ({"propagation_prob": 2}, "propagation_prob"),
    ({"delay_low_frac": 1.0}, "delay_low_frac"),
    ({"suspect_threshold": 0}, "suspect_threshold"),
    ({"migration_threshold": 0}, "migration_threshold"),
    ({"scheduler": "fifo"}, "scheduler"),
    ({"checkpoint_policy": "nope"}, "checkpoint_policy"),
    ({"interval_growth": "cubic"}, "interval_growth"),
    ({"job_count": 9, "task_count": 4}, "job_count"),
    ({"ft_interval": 5, "base_interval": 10}, "ft_interval"),
    ({"nonsense_key": 1}, "nonsense_key"),
])
def test_rejections_name_offending_key(raw, needle):
    with pytest.raises(ConfigError, match=needle):
        validate_config(raw)


@pytest.mark.parametrize("value", ["inf", "-inf", float("nan")])
@pytest.mark.parametrize("key", [f.name for f in fields(SimConfig) if f.type == "float"])
def test_non_finite_floats_are_rejected(key, value):
    """An infinite or NaN float would overflow ``math.ceil`` in the mesf
    pre-evaluation cost or turn every delay spike into NaN."""
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        validate_config({key: value})


def test_trace_period_is_an_unknown_key():
    """Trace samples scale demands by their order alone, so no key spaces
    them in ticks: ``trace_period`` is rejected like any unknown key."""
    with pytest.raises(ConfigError, match="unknown config key: trace_period"):
        validate_config({"trace_period": 300})


def test_validation_idempotent():
    cfg = validate_config({"seed": 99, "detect_prob": "0.99"})
    again = validate_config(asdict(cfg))
    assert cfg == again


def test_string_coercion():
    cfg = validate_config({"seed": "7", "detect_prob": "0.5",
                           "high_delay_fallback": "false"})
    assert cfg.seed == 7 and cfg.detect_prob == 0.5
    assert cfg.high_delay_fallback is False


def test_parse_config_file(tmp_path):
    text = """
# scenario
base_interval = 10
detect_prob = 0.88   # worst case
scheduler = wsss
"""
    path = tmp_path / "scenario.cfg"
    path.write_text(text)
    raw = parse_config_file(path)
    assert raw == {"base_interval": "10", "detect_prob": "0.88", "scheduler": "wsss"}
    cfg = load_config(path, {"seed": 5})
    assert cfg.seed == 5 and cfg.detect_prob == 0.88



def test_load_config_resolves_a_relative_trace_path_against_the_file(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text("trace_path = traces/u.trace\n")
    assert load_config(path).trace_path == str(tmp_path / "traces" / "u.trace")
    path.write_text("trace_path = /data/u.trace\n")
    assert load_config(path).trace_path == "/data/u.trace"
    assert validate_config({"trace_path": "u.trace"}).trace_path == "u.trace"

@pytest.mark.parametrize("body,needle", [
    ("novalue\n", "key = value"),
    ("a = 1\na = 2\n", "duplicate"),
    ("= 3\n", "key = value"),
])
def test_parse_config_file_errors(tmp_path, body, needle):
    path = tmp_path / "bad.cfg"
    path.write_text(body)
    with pytest.raises(ConfigError, match=needle):
        parse_config_file(path)


def test_missing_config_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config_file(tmp_path / "absent.cfg")
