from dataclasses import asdict, fields, replace

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


def _replace_defaults(raw):
    return replace(SimConfig(), **raw)


_FIELD_NAMES = {f.name for f in fields(SimConfig)}

REJECTIONS = [
    ({"base_interval": 0}, "base_interval"),
    ({"ft_interval": 0}, "ft_interval"),
    ({"detect_prob": 1.5}, "detect_prob"),
    ({"detect_prob": -0.1}, "detect_prob"),
    ({"propagation_prob": 2}, "propagation_prob"),
    ({"delay_normal_frac": 2.0}, "delay_normal_frac"),
    ({"suspect_threshold": 0}, "suspect_threshold"),
    ({"migration_threshold": 0}, "migration_threshold"),
    ({"scheduler": "fifo"}, "scheduler"),
    ({"checkpoint_policy": "nope"}, "checkpoint_policy"),
    ({"interval_growth": "cubic"}, "interval_growth"),
    ({"job_count": 9, "task_count": 4}, "job_count"),
    ({"ft_interval": 5, "base_interval": 10}, "ft_interval"),
    ({"nonsense_key": 1}, "nonsense_key"),
    ({"horizon": -5}, "horizon"),
    ({"indep_mean_gap": 0, "checkpoint_policy": "independent"}, "indep_mean_gap"),
    ({"checkpoint_write_cost": -3}, "checkpoint_write_cost"),
    ({"base_interval": 12.5, "ft_interval": 12.5}, "base_interval"),
    ({"horizon": True}, "horizon"),
    ({"task_count": 8.0}, "task_count"),
    ({"sla_bound": 0}, "sla_bound"),
    ({"delay_normal_frac": 3.0, "delay_high_frac": 2.5}, "delay_high_frac"),
    ({"delay_normal_frac": 0.0}, "delay_normal_frac"),
    ({"task_count": 30, "job_count": 3, "server_count": 2, "server_capacity": 4},
     "task_count"),
]


def _rejection_cases():
    """Every row through ``validate_config``, and every row that names only
    config fields through ``dataclasses.replace`` as well."""
    for i, (raw, needle) in enumerate(REJECTIONS):
        yield pytest.param(validate_config, raw, needle, id=f"raw{i}-{needle}")
        if set(raw) <= _FIELD_NAMES:
            yield pytest.param(_replace_defaults, raw, needle, id=f"replace-raw{i}-{needle}")


@pytest.mark.parametrize("build,raw,needle", _rejection_cases())
def test_rejections_name_offending_key(build, raw, needle):
    """A config is checked however it is built, so no rejection needs a run."""
    with pytest.raises(ConfigError, match=needle):
        build(raw)


def _non_finite_cases():
    """Parsed values may be strings; a replaced float field must hold a float."""
    for key in (f.name for f in fields(SimConfig) if f.type == "float"):
        for value in ("inf", "-inf", float("nan")):
            yield pytest.param(validate_config, key, value, id=f"{key}-{value}")
            yield pytest.param(_replace_defaults, key, float(value), id=f"replace-{key}-{value}")


@pytest.mark.parametrize("build,key,value", _non_finite_cases())
def test_non_finite_floats_are_rejected(build, key, value):
    """An infinite or NaN float would overflow ``math.ceil`` in the mesf
    pre-evaluation cost or turn every delay spike into NaN."""
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        build({key: value})


def test_trace_period_is_an_unknown_key():
    """Trace samples scale demands by their order alone, so no key spaces
    them in ticks: ``trace_period`` is rejected like any unknown key."""
    with pytest.raises(ConfigError, match="unknown config key: trace_period"):
        validate_config({"trace_period": 300})


def test_delay_low_frac_is_an_unknown_key():
    """The detection machine treats LOW and NORMAL delay alike, so a LOW
    threshold would only rename a log token: LOW is a fixed quarter of the
    SLA bound, and ``delay_low_frac`` is rejected like any unknown key."""
    with pytest.raises(ConfigError, match="unknown config key: delay_low_frac"):
        validate_config({"delay_low_frac": 0.25})


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
