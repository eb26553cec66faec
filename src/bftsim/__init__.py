"""bftsim: deterministic simulator of Byzantine fault detection, hybrid
checkpointing, and failure-aware server scheduling in a virtualized cluster."""

__version__ = "0.1.0"

from .config import SimConfig, validate_config, load_config, ConfigError
from .engine import run_scenario
from .metrics import MetricsReport, occurable_range, summarize
from .scenario import FaultKind, FaultSpec, Scenario

__all__ = [
    "SimConfig",
    "validate_config",
    "load_config",
    "ConfigError",
    "FaultKind",
    "FaultSpec",
    "Scenario",
    "run_scenario",
    "MetricsReport",
    "occurable_range",
    "summarize",
    "__version__",
]
