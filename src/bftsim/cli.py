"""Command-line front end: run scenarios, compare policies, check FSM traces,
and rebuild server rankings from event logs.

Exit codes: 0 success, 1 usage error, 2 config error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import io
import csv
import json
import sys
from pathlib import Path

from .config import (
    CHECKPOINT_POLICIES,
    SCHEDULERS,
    ConfigError,
    load_config,
)
from .engine import Scenario
from .fsm import TraceFormatError, check_trace
from .metrics import summarize
from .model import FailureKind, Server
from .scenario import ScenarioError
from .scheduler import ranking_csv, record_failure

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


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

    cmp_p = sub.add_parser("compare", help="run policy combinations on one scenario")
    cmp_p.add_argument("--config", required=True)
    cmp_p.add_argument("--seed", type=int)
    cmp_p.add_argument("--scheduler", required=True,
                       help="comma-separated scheduler tags")
    cmp_p.add_argument("--checkpoint", required=True,
                       help="comma-separated checkpoint policy tags")
    cmp_p.add_argument("--out")
    cmp_p.add_argument("--format", choices=("csv", "json"), default="json")

    trace = sub.add_parser("fsm-trace", help="replay a state-machine trace file")
    trace.add_argument("trace_file")

    rank = sub.add_parser("rank", help="rebuild the server ranking from an event log")
    rank.add_argument("--event-log", required=True)
    rank.add_argument("--out")
    return parser


def _write_out(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load(args) -> "SimConfig":
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    return load_config(args.config, overrides)


def cmd_run(args) -> int:
    cfg = _load(args)
    scenario = Scenario.from_config(cfg)
    report, log_lines = scenario.run(scheduler=args.scheduler,
                                     checkpoint_policy=args.checkpoint,
                                     collect_log=args.event_log is not None)
    _write_out(report.emit(args.format), args.out)
    if args.event_log:
        Path(args.event_log).write_text("\n".join(log_lines) + "\n", encoding="utf-8")
    return EXIT_OK


def cmd_compare(args) -> int:
    cfg = _load(args)
    schedulers = [s.strip() for s in args.scheduler.split(",") if s.strip()]
    checkpoints = [c.strip() for c in args.checkpoint.split(",") if c.strip()]
    for tag in schedulers:
        if tag not in SCHEDULERS:
            raise ConfigError(f"unknown scheduler tag: {tag}")
    for tag in checkpoints:
        if tag not in CHECKPOINT_POLICIES:
            raise ConfigError(f"unknown checkpoint policy tag: {tag}")
    combos = [(s, c) for s in schedulers for c in checkpoints]
    if len(combos) < 2:
        raise ConfigError("need >= 2 policy combinations to compare")
    scenario = Scenario.from_config(cfg)
    reports = [scenario.run(scheduler=s, checkpoint_policy=c, collect_log=False)[0]
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
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["combo", "metric", "baseline", "candidate", "delta", "favors"])
        for comp in comparisons:
            combo = f"{comp['scheduler']}+{comp['checkpoint']}"
            for row in comp["rows"]:
                writer.writerow([combo, row["metric"],
                                 "" if row["a"] is None else row["a"],
                                 "" if row["b"] is None else row["b"],
                                 "" if row["delta"] is None else row["delta"],
                                 row["favors"]])
        _write_out(out.getvalue(), args.out)
    return EXIT_OK


def cmd_fsm_trace(args) -> int:
    path = Path(args.trace_file)
    if not path.exists():
        raise ConfigError(f"trace file not found: {path}")
    lines = path.read_text(encoding="utf-8").splitlines()
    steps, divergent = check_trace(lines)
    if divergent is not None:
        print(f"divergence at line {divergent}")
        return EXIT_RUNTIME
    if steps == 0:
        print("conformant (warning: 0 steps)")
    else:
        print(f"conformant ({steps} steps)")
    return EXIT_OK


def _parse_detail(detail: str) -> dict[str, str]:
    pairs = {}
    for chunk in detail.split(";"):
        if "=" in chunk:
            key, _, value = chunk.partition("=")
            pairs[key] = value
    return pairs


def cmd_rank(args) -> int:
    path = Path(args.event_log)
    if not path.exists():
        raise ConfigError(f"event log not found: {path}")
    servers: dict[int, Server] = {}
    saw_failure = False
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split(",", 4)
        if len(parts) != 5:
            raise ConfigError(f"{path}:{lineno}: malformed event line")
        _, _, kind, _, detail = parts
        if kind not in ("monitor", "complete"):
            continue
        fieldmap = _parse_detail(detail)
        server_tok = fieldmap.get("server")
        if not server_tok or "class" not in fieldmap or "checksum" not in fieldmap:
            continue
        try:
            sid = int(server_tok.lstrip("s"))
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad server token {server_tok!r}") from None
        server = servers.setdefault(sid, Server(server_id=sid, capacity=0))
        if fieldmap["checksum"] == "error":
            record_failure(server, FailureKind.ERRONEOUS)
            saw_failure = True
        elif fieldmap["class"] in ("high", "extreme"):
            record_failure(server, FailureKind.DELAY_SENSITIVE)
            saw_failure = True
    if not servers:
        _write_out("server_id,fault_count,w_count,y_count,rank\n", args.out)
        print("warning: no observations in log", file=sys.stderr)
        return EXIT_OK
    if not saw_failure:
        print("warning: no failure events in log", file=sys.stderr)
    _write_out(ranking_csv(sorted(servers.values(), key=lambda s: s.server_id)), args.out)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "compare":
            return cmd_compare(args)
        if args.command == "fsm-trace":
            return cmd_fsm_trace(args)
        return cmd_rank(args)
    except (ConfigError, TraceFormatError) as exc:
        print(f"bftsim: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ScenarioError, ValueError, OSError) as exc:
        print(f"bftsim: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
