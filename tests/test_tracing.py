"""The benchmark's traced pass replaces bftsim names with timing wrappers.

``bench/tracing.py`` looks those names up in the program's modules, so a
refactor that renames or drops one breaks the traced pass.  This test
installs the tracer on the current sources to catch that here.
"""

import importlib.util
import sys
from pathlib import Path

import bftsim.config
import bftsim.engine
from bftsim.engine import Scenario, Simulation

from conftest import cluster_cfg

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"

# functions the tracer replaces in the engine's namespace: the engine's
# policy code must call them through these names
ENGINE_NAMES = ("classify_delay", "checksum_oracle", "byzantine_fsm_step", "next_interval",
                "tcc_round", "rollback_loss", "rank_servers", "select_servers",
                "mesf_assign", "random_assign", "record_failure")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_on_current_sources():
    originals = {name: getattr(bftsim.engine, name) for name in ENGINE_NAMES}
    tracer = _load_tracing().Tracer()
    tracer.install(bftsim.config, bftsim.engine)
    try:
        for name in ENGINE_NAMES:
            assert getattr(bftsim.engine, name) is not originals[name], name
        scenario = Scenario.from_config(cluster_cfg(crash_faults=2))
        for scheduler in ("wsss", "mesf", "random"):
            Simulation(scenario, scheduler=scheduler, checkpoint_policy="tcc").run()
    finally:
        tracer.uninstall()
    for name in ENGINE_NAMES:
        assert getattr(bftsim.engine, name) is originals[name], name
    # each scheduler's wave, the wsss replacements, the scenario build, the
    # tcc rounds and the nodes' ledger calls went through the wrapped names
    for name in ("rank_servers", "select_servers", "mesf_assign", "random_assign",
                 "from_config", "tcc_round", "rollback_loss", "byzantine_fsm_step",
                 "settle", "stop"):
        assert tracer.calls[name] >= 1, name


def _bench_trace(workload, seed):
    """One scenario of ``bench/run.py``'s traced pass of ``workload``."""
    saved_path = list(sys.path)
    saved_modules = dict(sys.modules)
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        _, correct, metrics = run.trace(run.WORKLOADS[workload], seed, scenarios=1)
    finally:
        # the benchmark imports bftsim afresh; give later tests the modules they imported
        sys.path[:] = saved_path
        for name in set(sys.modules) - set(saved_modules):
            del sys.modules[name]
        sys.modules.update(saved_modules)
    return correct, metrics


def test_traced_fault_storm_pass_is_correct_and_counts_stale_events():
    """One scenario of the benchmark's traced fault-storm pass.  The tracer
    counts stale events from the detail ``Simulation._log`` receives, also
    with the event log off, so a handler that stops returning ``stale=1``
    there reads as a stale share of 0."""
    correct, metrics = _bench_trace("fault-storm", 401)
    assert correct
    assert metrics["engine.queue.stale_frac"] > 0


def test_traced_policy_matrix_pass_is_correct():
    """The policy-matrix pass runs the sync and independent checkpoint writes
    and the log-on path, which the fault-storm pass (tcc only) does not.
    The tracer reads the size of the store's ``records`` after each write
    and the ``ckpt_id`` of each image a lookup returns: each write keeps its
    image until a rollback abandons it, so no more images are kept than
    written, and some lookups find one."""
    correct, metrics = _bench_trace("policy-matrix", 401)
    assert correct
    assert metrics["checkpoint.take.calls"] > 0
    assert 0 < metrics["checkpoint.images_peak"] <= metrics["checkpoint.take.calls"]
    assert metrics["checkpoint.image_use_frac"] > 0


def test_traced_campaign_pass_is_correct():
    """The campaign pass (wsss+tcc, log off) is the benchmark's claimed
    workload.  Its healthy monitor rounds dominate, and each one classifies
    one delay and writes one image; ``tcc_round`` runs only on the few
    flagged rounds."""
    correct, metrics = _bench_trace("campaign", 401)
    assert correct
    assert metrics["checkpoint.take.calls"] > 0
    assert metrics["fsm.classify_delay.calls"] > 0
    assert metrics["checkpoint.tcc_round.calls"] > 0
