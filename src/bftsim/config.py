"""Scenario configuration: validation, defaults, and the flat config-file format.

The scenario file is UTF-8 ``key = value`` lines with ``#`` comments.  Keys
are exactly the SimConfig field names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path


class ConfigError(ValueError):
    """Raised for any invalid or unparseable configuration value."""


SCHEDULERS = ("wsss", "mesf", "random")
CHECKPOINT_POLICIES = ("tcc", "sync", "independent")
GROWTH_POLICIES = ("triangular", "geometric")


@dataclass(frozen=True)
class SimConfig:
    # monitoring / detection
    base_interval: int = 10          # pre-set initial monitoring interval
    ft_interval: int = 10            # sync's checkpoint cadence (its grid step)
    sla_bound: int = 100             # SLA delay bound D of every task
    delay_normal_frac: float = 1.0   # delay class thresholds, fractions of D
    delay_high_frac: float = 2.0
    suspect_threshold: int = 3       # consecutive suspect rounds before replacement
    migration_threshold: int = 5     # per-job restarts tolerated before job migration
    detect_prob: float = 0.88
    propagation_prob: float = 0.0
    high_delay_fallback: bool = True  # missed detections surface as high delay
    # cost model, ticks
    checkpoint_write_cost: int = 1
    restart_cost: int = 2
    migration_cost: int = 2          # per VN moved in a job migration
    monitor_cost: int = 0            # VN time charged per monitor round
    preeval_cost: float = 0.03       # mesf pre-evaluation, per candidate server
    indep_mean_gap: int = 10         # mean gap of independent checkpointing
    # policies
    scheduler: str = "wsss"
    checkpoint_policy: str = "tcc"
    interval_growth: str = "triangular"
    # topology
    server_count: int = 4
    server_capacity: int = 4
    latency_mean_min: float = 5.0    # per-server mean extra delay, drawn uniformly
    latency_mean_max: float = 15.0
    latency_sigma: float = 3.0
    # workload
    task_count: int = 8
    job_count: int = 2
    demand_min: int = 400
    demand_max: int = 600
    # fault campaign
    byzantine_faults: int = 0
    crash_faults: int = 0
    delay_faults: int = 0
    delay_magnitude: float = 1.2     # spike size as a fraction of D
    fault_window_start: int = 30
    fault_window_end: int = 150
    # run control
    seed: int = 42
    horizon: int = 1000
    trace_path: str = ""             # optional utilization trace scaling demands

    def __post_init__(self):
        """Check every config rule, however the config was built: parsed by
        ``validate_config``, built directly or made with ``dataclasses.replace``.
        Every rejection names the offending key."""
        for name, value in vars(self).items():
            kind = _FIELD_TYPES[name]
            if type(value) is not kind and not (kind is float and type(value) is int):
                raise ConfigError(f"{name} must be {kind.__name__}, not {type(value).__name__}")
        for name in _FLOAT_FIELDS:
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        for name in ("base_interval", "ft_interval", "sla_bound", "suspect_threshold",
                     "migration_threshold", "server_count", "server_capacity",
                     "task_count", "job_count", "demand_min", "horizon",
                     "indep_mean_gap"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("checkpoint_write_cost", "restart_cost", "migration_cost",
                     "monitor_cost", "byzantine_faults", "crash_faults", "delay_faults",
                     "fault_window_start", "latency_sigma", "delay_magnitude",
                     "preeval_cost"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        for name in ("detect_prob", "propagation_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} out of range [0, 1]")
        if self.ft_interval < self.base_interval:
            raise ConfigError("ft_interval must be >= base_interval")
        if not (0 < self.delay_normal_frac < self.delay_high_frac):
            raise ConfigError("delay_normal_frac/delay_high_frac must be strictly increasing and positive")
        if self.demand_max < self.demand_min:
            raise ConfigError("demand_max must be >= demand_min")
        if self.latency_mean_max < self.latency_mean_min or self.latency_mean_min < 0:
            raise ConfigError("latency_mean_min/latency_mean_max must be a non-negative non-decreasing pair")
        if self.fault_window_end <= self.fault_window_start:
            raise ConfigError("fault_window_end must exceed fault_window_start")
        if (self.byzantine_faults or self.crash_faults or self.delay_faults) \
                and self.fault_window_end >= self.horizon:
            raise ConfigError("fault_window_end must be below horizon")
        if self.scheduler not in SCHEDULERS:
            raise ConfigError(f"scheduler must be one of {SCHEDULERS}")
        if self.checkpoint_policy not in CHECKPOINT_POLICIES:
            raise ConfigError(f"checkpoint_policy must be one of {CHECKPOINT_POLICIES}")
        if self.interval_growth not in GROWTH_POLICIES:
            raise ConfigError(f"interval_growth must be one of {GROWTH_POLICIES}")
        if self.job_count > self.task_count:
            raise ConfigError("job_count must not exceed task_count")
        shortfall = self.task_count - self.server_count * self.server_capacity
        if shortfall > 0:
            raise ConfigError(f"task_count exceeds server_count * server_capacity: "
                              f"capacity shortfall of {shortfall} tasks")


_BOOL_TOKENS = {"true": True, "false": False, "1": True, "0": False,
                "yes": True, "no": False}
_FIELD_TYPES = {f.name: {"int": int, "float": float, "str": str, "bool": bool}[f.type]
                for f in fields(SimConfig)}
_FLOAT_FIELDS = tuple(name for name, kind in _FIELD_TYPES.items() if kind is float)


def _coerce(key: str, raw, target_type):
    if type(raw) is target_type:
        return raw
    text = str(raw).strip()
    try:
        if target_type is bool:
            return _BOOL_TOKENS[text.lower()]
        if target_type is int:
            return int(text)
        if target_type is float:
            return float(text)
        return text
    except (ValueError, KeyError):
        raise ConfigError(f"{key}: cannot parse {raw!r} as {target_type.__name__}") from None


def validate_config(raw: dict) -> SimConfig:
    """Build a SimConfig from a raw key-value mapping.

    Rejects unknown keys and coerces each value to its field's type; the
    config rules themselves are ``SimConfig``'s.  Fills defaults for missing
    keys.  Every rejection names the offending key.  Validating an
    already-valid config's dict form returns an equal config (idempotence).
    """
    values = {}
    for key, raw_value in raw.items():
        target_type = _FIELD_TYPES.get(key)
        if target_type is None:
            raise ConfigError(f"unknown config key: {key}")
        values[key] = _coerce(key, raw_value, target_type)
    return SimConfig(**values)


def parse_config_file(path: str | Path) -> dict:
    """Parse a flat ``key = value`` scenario file into a raw dict."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    raw = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key}")
        raw[key] = value
    return raw


def load_config(path: str | Path, overrides: dict | None = None) -> SimConfig:
    """Validate a config file; a relative ``trace_path`` in it names a file
    beside the config file, not one in the working directory."""
    raw = parse_config_file(path)
    if "trace_path" in raw:
        raw["trace_path"] = str(Path(path).parent / raw["trace_path"])
    if overrides:
        raw.update(overrides)
    return validate_config(raw)
