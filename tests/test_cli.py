import inspect
import json
import os
import re
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import bftsim.cli
from bftsim.cli import main
from bftsim.engine import Scenario, Simulation
from bftsim.scenario import FaultKind, FaultSpec
from bftsim.scheduler import ranking_csv

from conftest import cluster_cfg, storm_cfg

ROOT = Path(__file__).resolve().parents[1]

BASE_CFG = """
task_count = 8
job_count = 2
server_count = 4
server_capacity = 2
demand_min = 200
demand_max = 300
horizon = 600
sla_bound = 50
latency_mean_min = 5
latency_mean_max = 15
latency_sigma = 3
delay_faults = 2
byzantine_faults = 1
fault_window_start = 30
fault_window_end = 120
seed = 42
"""


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "base.cfg"
    path.write_text(BASE_CFG)
    return path


def test_run_happy_path(tmp_path, cfg_file):
    out = tmp_path / "r.json"
    code = main(["run", "--config", str(cfg_file), "--seed", "42", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["_scenario"]["seed"] == 42
    assert data["host_count"]["mean"] == 4


def test_run_missing_config_names_path(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.cfg")])
    assert code == 2
    assert "nope.cfg" in capsys.readouterr().err


def test_run_capacity_shortfall_is_a_config_error(tmp_path, capsys):
    """8 tasks on 2 servers of 2 slots: the config fails at load, before a run."""
    path = tmp_path / "tight.cfg"
    path.write_text(BASE_CFG.replace("server_count = 4", "server_count = 2"))
    code = main(["run", "--config", str(path)])
    assert code == 2
    assert "capacity shortfall of 4 tasks" in capsys.readouterr().err


def test_run_seed_repeat_is_byte_identical(tmp_path, cfg_file):
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    log_a, log_b = tmp_path / "a.log", tmp_path / "b.log"
    assert main(["run", "--config", str(cfg_file), "--seed", "42",
                 "--out", str(out_a), "--event-log", str(log_a)]) == 0
    assert main(["run", "--config", str(cfg_file), "--seed", "42",
                 "--out", str(out_b), "--event-log", str(log_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert log_a.read_bytes() == log_b.read_bytes()


def test_run_builds_the_event_log_only_when_asked(tmp_path, cfg_file, monkeypatch):
    run = Simulation.run
    collected = []

    def spy(sim):
        collected.append(sim.collect_log)
        return run(sim)

    monkeypatch.setattr(Simulation, "run", spy)
    plain, logged, log = tmp_path / "plain.json", tmp_path / "logged.json", tmp_path / "run.log"
    assert main(["run", "--config", str(cfg_file), "--out", str(plain)]) == 0
    assert main(["run", "--config", str(cfg_file), "--out", str(logged),
                 "--event-log", str(log)]) == 0
    assert collected == [False, True]
    assert plain.read_bytes() == logged.read_bytes()
    assert ",horizon_end," in log.read_text()


def test_run_csv_format(tmp_path, cfg_file):
    out = tmp_path / "r.csv"
    assert main(["run", "--config", str(cfg_file), "--out", str(out),
                 "--format", "csv"]) == 0
    header = out.read_text().splitlines()[0]
    assert header.startswith("scenario_id,seed,scheduler,checkpoint_policy")



def test_run_reads_a_relative_trace_path_beside_its_config(tmp_path, monkeypatch):
    """``trace_path = u.trace`` names the file next to the config file, from
    whatever directory bftsim runs in; an absolute path gives the same report."""
    cfgdir, elsewhere = tmp_path / "cfgdir", tmp_path / "elsewhere"
    cfgdir.mkdir()
    elsewhere.mkdir()
    (cfgdir / "u.trace").write_text("50\n")
    (cfgdir / "t.cfg").write_text(BASE_CFG + "trace_path = u.trace\n")
    (cfgdir / "abs.cfg").write_text(BASE_CFG + f"trace_path = {cfgdir / 'u.trace'}\n")
    (cfgdir / "none.cfg").write_text(BASE_CFG)
    monkeypatch.chdir(elsewhere)
    for name in ("t", "abs", "none"):
        assert main(["run", "--config", f"../cfgdir/{name}.cfg", "--out", f"{name}.json"]) == 0
    relative = (elsewhere / "t.json").read_bytes()
    assert relative == (elsewhere / "abs.json").read_bytes()
    assert relative != (elsewhere / "none.json").read_bytes()


def test_python_m_bftsim_runs_from_a_checkout():
    env = dict(os.environ, PYTHONPATH="src")
    done = subprocess.run([sys.executable, "-m", "bftsim", "run", "--config",
                           "scenarios/desk.cfg"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["_scenario"]["id"].startswith("s20c6-t100j10")

def test_usage_errors_exit_one():
    assert main([]) == 1
    assert main(["run"]) == 1                      # --config required
    assert main(["frobnicate"]) == 1


def test_compare_needs_two_combos(cfg_file, capsys):
    code = main(["compare", "--config", str(cfg_file),
                 "--scheduler", "wsss", "--checkpoint", "tcc"])
    assert code == 2
    assert ">= 2" in capsys.readouterr().err


def test_compare_unknown_tag(cfg_file, capsys):
    code = main(["compare", "--config", str(cfg_file),
                 "--scheduler", "wsss,fifo", "--checkpoint", "tcc"])
    assert code == 2
    assert "fifo" in capsys.readouterr().err


def test_compare_same_policy_all_zero_deltas(tmp_path, cfg_file):
    out = tmp_path / "cmp.json"
    code = main(["compare", "--config", str(cfg_file), "--scheduler", "wsss,wsss",
                 "--checkpoint", "tcc", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    rows = payload["comparisons"][0]["rows"]
    assert all(r["delta"] in (0, 0.0, None) for r in rows)


def test_compare_policy_matrix_csv(tmp_path, cfg_file):
    out = tmp_path / "cmp.csv"
    code = main(["compare", "--config", str(cfg_file),
                 "--scheduler", "wsss,mesf", "--checkpoint", "tcc,sync",
                 "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "combo,metric,baseline,candidate,delta,favors"
    combos = {line.split(",")[0] for line in lines[1:]}
    assert combos == {"wsss+sync", "mesf+tcc", "mesf+sync"}   # vs wsss+tcc baseline


def test_fsm_trace_conformant(tmp_path, capsys):
    trace = tmp_path / "steps.trace"
    trace.write_text("S0 high noerror -> S1\nS1 low noerror -> S0\nS0 confirmed -> S0\n")
    assert main(["fsm-trace", str(trace)]) == 0
    assert "conformant" in capsys.readouterr().out


def test_fsm_trace_divergence(tmp_path, capsys):
    trace = tmp_path / "steps.trace"
    trace.write_text("S0 high noerror -> S2\n")
    assert main(["fsm-trace", str(trace)]) == 3
    assert "line 1" in capsys.readouterr().out


def test_fsm_trace_empty_warns(tmp_path, capsys):
    trace = tmp_path / "steps.trace"
    trace.write_text("")
    assert main(["fsm-trace", str(trace)]) == 0
    assert "0 steps" in capsys.readouterr().out


def test_fsm_trace_malformed(tmp_path, capsys):
    trace = tmp_path / "steps.trace"
    trace.write_text("S0 sideways -> S1\n")
    assert main(["fsm-trace", str(trace)]) == 2
    assert "line 1" in capsys.readouterr().err


def _assert_rank_matches(tmp_path, sim, text):
    """``rank`` rebuilds the run's own counters from its log; a server the
    log never names is not ranked."""
    log_path = tmp_path / "run.log"
    log_path.write_text(text)
    out = tmp_path / "rank.csv"
    assert main(["rank", "--event-log", str(log_path), "--out", str(out)]) == 0
    named = {int(sid) for sid in re.findall(r"server=s(\d+)", text)}
    assert out.read_text() == ranking_csv([s for s in sim.servers if s.server_id in named])


def test_rank_matches_live_counters(tmp_path):
    cfg = cluster_cfg(server_capacity=3)   # all four servers host nodes
    faults = [FaultSpec(kind=FaultKind.DELAY_SPIKE, time=40, target_task=2, magnitude=1.5),
              FaultSpec(kind=FaultKind.BYZANTINE, time=60, target_task=9)]
    sim = Simulation(Scenario.from_config(cfg, faults))
    _, log_lines = sim.run()
    assert len({s.server_id for s in sim.servers if s.obs_time}) == 4
    _assert_rank_matches(tmp_path, sim, "\n".join(log_lines) + "\n")


@pytest.mark.parametrize("sched, ckpt", [(sched, ckpt) for sched in ("wsss", "mesf", "random")
                                         for ckpt in ("tcc", "sync", "independent")])
def test_rank_matches_live_counters_on_every_pair(tmp_path, sched, ckpt):
    """On the storm config every pair's log holds restart, verify and stale
    lines as well as both kinds of failure, and tcc's holds migrations; mesf
    leaves some servers idle, which the log never names."""
    sim = Simulation(Scenario.from_config(storm_cfg(1)), sched, ckpt)
    _, log_lines = sim.run()
    text = "\n".join(log_lines) + "\n"
    assert all(token in text for token in (
        "reason=", "verify=1;", ",stale=1\n", "checksum=error", "class=high"))
    assert (",migration_done," in text) == (ckpt == "tcc")
    _assert_rank_matches(tmp_path, sim, text)


def test_rank_empty_log_warns(tmp_path, capsys):
    log_path = tmp_path / "empty.log"
    log_path.write_text("")
    out = tmp_path / "rank.csv"
    assert main(["rank", "--event-log", str(log_path), "--out", str(out)]) == 0
    assert out.read_text() == "server_id,fault_count,w_count,y_count,rank\n"
    assert "no observations" in capsys.readouterr().err


def test_rank_corrupt_line(tmp_path, capsys):
    log_path = tmp_path / "bad.log"
    log_path.write_text("10,0,monitor\n")
    assert main(["rank", "--event-log", str(log_path)]) == 2
    assert ":1" in capsys.readouterr().err


@pytest.mark.parametrize("detail", ["class=HIGH;checksum=noerror",
                                    "class=normal;checksum=Error",
                                    "class=bogus;checksum=noerror"],
                         ids=["class-upper", "checksum-upper", "class-unknown"])
def test_rank_rejects_unknown_tokens(tmp_path, capsys, detail):
    """An unreadable observation used to count as a clean one; now it is a
    config error naming its line."""
    log_path = tmp_path / "bad.log"
    log_path.write_text(f"10,0,monitor,1,server=s1;delay=1.000;{detail};state=S0>S0\n")
    assert main(["rank", "--event-log", str(log_path)]) == 2
    assert f"{log_path}:1: unknown token" in capsys.readouterr().err


@pytest.mark.parametrize("line,needle", [
    ("10,1,monitor,1,server=s1;delay=1.000", "observation lacks class, checksum"),
    ("10,1,monitor,1,server=s2;delay=1.000;class=high", "observation lacks checksum"),
    ("10,1,monitor,1,delay=1.000;class=high;checksum=noerror", "observation lacks server"),
    ("10,1,complete,1,server=s1;verify=1;delay=1.000;checksum=noerror",
     "observation lacks class"),
    ("10,1,monitor,1,server=sss3;delay=1.000;class=high;checksum=noerror",
     "bad server token 'sss3'"),
    ("10,1,monitor,1,server=s-1;delay=1.000;class=high;checksum=noerror",
     "bad server token 's-1'"),
    ("10,1,monitor,1,server=s0;delay=1.000;class=high;checksum=noerror",
     "bad server token 's0'"),
    ("10,1,monitor,1,server=3;delay=1.000;class=high;checksum=noerror",
     "bad server token '3'"),
    ("10,1,monitor,1,server=s;delay=1.000;class=high;checksum=noerror",
     "bad server token 's'"),
], ids=["no-class-checksum", "no-checksum", "no-server", "complete-no-class",
        "server-sss3", "server-negative", "server-zero", "server-bare-int", "server-empty"])
def test_rank_rejects_truncated_observations(tmp_path, capsys, line, needle):
    """A truncated observation or a server token a run does not write is a
    config error naming its line, not a line skipped; a stale pop is skipped."""
    log_path = tmp_path / "bad.log"
    log_path.write_text(f"10,0,complete,1,stale=1\n{line}\n")
    assert main(["rank", "--event-log", str(log_path)]) == 2
    assert f"{log_path}:2: {needle}" in capsys.readouterr().err


def test_every_cli_annotation_resolves():
    """Every function and method defined in ``bftsim.cli`` names only types
    the module can resolve, so ``typing.get_type_hints`` reads each."""
    functions = [fn for obj in vars(bftsim.cli).values()
                 for fn in ([obj] + list(vars(obj).values()) if inspect.isclass(obj) else [obj])
                 if inspect.isfunction(fn) and fn.__module__ == "bftsim.cli"]
    assert {"_load", "main", "error"} <= {fn.__name__ for fn in functions}
    for fn in functions:
        typing.get_type_hints(fn)
