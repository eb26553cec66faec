"""Command-line front end: run scenarios, compare policies, check FSM traces,
and rebuild server rankings from event logs.

Exit codes: 0 success, 1 usage error, 2 config error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from .config import (
    CHECKPOINT_POLICIES,
    SCHEDULERS,
    ConfigError,
    SimConfig,
    load_config,
)
from .engine import MONITOR_ROUND, TASK_COMPLETE, Simulation
from .fsm import TraceFormatError, check_trace
from .metrics import csv_text, summarize
from .model import CHECKSUM_TOKENS, DELAY_TOKENS, Server
from .scenario import Scenario, ScenarioError
from .scheduler import failure_kind, ranking_csv, record_failure

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

_SERVER_TOKEN = re.compile(r"s[1-9][0-9]*")   # as Simulation._handle_node writes it


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="bftsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario and write its report")
    run.add_argument("--config", required=True)
    run.add_argument("--seed", type=int)
    run.add_argument("--scheduler", choices=SCHEDULERS)
    run.add_argument("--checkpoint", choices=CHECKPOINT_POLICIES)
    run.add_argument("--out")
    run.add_argument("--format", choices=("csv", "json"), default="json")
    run.add_argument("--event-log")
    run.set_defaults(func=cmd_run)

    cmp_p = sub.add_parser("compare", help="run policy combinations on one scenario")
    cmp_p.add_argument("--config", required=True)
    cmp_p.add_argument("--seed", type=int)
    cmp_p.add_argument("--scheduler", required=True,
                       help="comma-separated scheduler tags")
    cmp_p.add_argument("--checkpoint", required=True,
                       help="comma-separated checkpoint policy tags")
    cmp_p.add_argument("--out")
    cmp_p.add_argument("--format", choices=("csv", "json"), default="json")
    cmp_p.set_defaults(func=cmd_compare)

    trace = sub.add_parser("fsm-trace", help="replay a state-machine trace file")
    trace.add_argument("trace_file")
    trace.set_defaults(func=cmd_fsm_trace)

    rank = sub.add_parser("rank", help="rebuild the server ranking from an event log")
    rank.add_argument("--event-log", required=True)
    rank.add_argument("--out")
    rank.set_defaults(func=cmd_rank)
    return parser


def _write_out(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _read_lines(path: str | Path, what: str) -> list[str]:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"{what} not found: {path}")
    return path.read_text(encoding="utf-8").splitlines()


def _tags(text: str, known: tuple[str, ...], what: str) -> list[str]:
    tags = [t.strip() for t in text.split(",") if t.strip()]
    for tag in tags:
        if tag not in known:
            raise ConfigError(f"unknown {what} tag: {tag}")
    return tags


def _load(args) -> SimConfig:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    return load_config(args.config, overrides)


def cmd_run(args) -> int:
    cfg = _load(args)
    report, log_lines = Simulation(Scenario.from_config(cfg), scheduler=args.scheduler,
                                   checkpoint_policy=args.checkpoint,
                                   collect_log=args.event_log is not None).run()
    _write_out(report.emit(args.format), args.out)
    if args.event_log:
        Path(args.event_log).write_text("\n".join(log_lines) + "\n", encoding="utf-8")
    return EXIT_OK


def cmd_compare(args) -> int:
    cfg = _load(args)
    schedulers = _tags(args.scheduler, SCHEDULERS, "scheduler")
    checkpoints = _tags(args.checkpoint, CHECKPOINT_POLICIES, "checkpoint policy")
    combos = [(s, c) for s in schedulers for c in checkpoints]
    if len(combos) < 2:
        raise ConfigError("need >= 2 policy combinations to compare")
    scenario = Scenario.from_config(cfg)
    reports = [Simulation(scenario, scheduler=s, checkpoint_policy=c, collect_log=False).run()[0]
               for s, c in combos]
    baseline = reports[0]
    comparisons = []
    for (s, c), report in zip(combos[1:], reports[1:]):
        comparisons.append({"scheduler": s, "checkpoint": c,
                            "rows": summarize(baseline, report)})
    if args.format == "json":
        payload = {
            "scenario": scenario.scenario_id,
            "baseline": {"scheduler": combos[0][0], "checkpoint": combos[0][1]},
            "comparisons": comparisons,
        }
        _write_out(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    else:
        rows = [["combo", "metric", "baseline", "candidate", "delta", "favors"]]
        for comp in comparisons:
            combo = f"{comp['scheduler']}+{comp['checkpoint']}"
            for row in comp["rows"]:
                rows.append([combo, row["metric"],
                             *("" if row[k] is None else row[k] for k in ("a", "b", "delta")),
                             row["favors"]])
        _write_out(csv_text(rows), args.out)
    return EXIT_OK


def cmd_fsm_trace(args) -> int:
    steps, divergent = check_trace(_read_lines(args.trace_file, "trace file"))
    if divergent is not None:
        print(f"divergence at line {divergent}")
        return EXIT_RUNTIME
    if steps == 0:
        print("conformant (warning: 0 steps)")
    else:
        print(f"conformant ({steps} steps)")
    return EXIT_OK


def cmd_rank(args) -> int:
    path = Path(args.event_log)
    servers: dict[int, Server] = {}
    saw_failure = False
    for lineno, line in enumerate(_read_lines(path, "event log"), start=1):
        if not line.strip():
            continue
        parts = line.split(",", 4)
        if len(parts) != 5:
            raise ConfigError(f"{path}:{lineno}: malformed event line")
        _, _, kind, _, detail = parts
        if kind not in (MONITOR_ROUND, TASK_COMPLETE) or detail == "stale=1":
            continue
        fieldmap = dict(chunk.split("=", 1) for chunk in detail.split(";") if "=" in chunk)
        missing = [key for key in ("server", "class", "checksum") if key not in fieldmap]
        if missing:
            raise ConfigError(f"{path}:{lineno}: observation lacks {', '.join(missing)}")
        server_tok = fieldmap["server"]
        if not _SERVER_TOKEN.fullmatch(server_tok):
            raise ConfigError(f"{path}:{lineno}: bad server token {server_tok!r}")
        sid = int(server_tok[1:])
        try:
            dclass = DELAY_TOKENS[fieldmap["class"]]
            checksum = CHECKSUM_TOKENS[fieldmap["checksum"]]
        except KeyError as exc:
            raise ConfigError(f"{path}:{lineno}: unknown token {exc.args[0]!r}") from None
        server = servers.get(sid)
        if server is None:
            server = servers[sid] = Server(server_id=sid, capacity=0)
        kind = failure_kind(dclass, checksum)
        if kind is not None:
            record_failure(server, kind)
            saw_failure = True
    if not servers:
        print("warning: no observations in log", file=sys.stderr)
    elif not saw_failure:
        print("warning: no failure events in log", file=sys.stderr)
    # ranking_csv orders the servers itself
    _write_out(ranking_csv(list(servers.values())), args.out)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (ConfigError, TraceFormatError) as exc:
        print(f"bftsim: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ScenarioError, ValueError, OSError) as exc:
        print(f"bftsim: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
