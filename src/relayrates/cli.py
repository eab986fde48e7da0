"""Command-line entry point for sweeps and config validation.

Usage:
    relayrates <scenario> [--config cfg.json] [--out sweep.csv]
                [--svg sweep.svg] [--set dotted.path=value ...] [--jobs N]
    relayrates validate --config cfg.json

Exit codes: 0 success, 1 validation error, 2 runtime or resource error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from .sweep import SCENARIOS, ConfigError, run_experiment, validate_config

log = logging.getLogger("relayrates")

DEFAULT_CONFIGS = {
    "mrc": {
        "scenario": "mrc",
        "sweep": {"variable": "power", "start": 1.0, "stop": 100.0,
                  "steps": 20, "log": True},
        "strategies": [{"k": 1}, {"k": 2}, {"omniscient": True}],
        "channel": {"spacings": [1.0, 1.0, 1.0, 1.0], "noise": 1.0},
    },
    "marc": {
        "scenario": "marc",
        "sweep": {"variable": "source_power", "start": 1.0, "stop": 100.0,
                  "steps": 20, "log": True},
        "strategies": [{"which": "onehop"}, {"which": "omniscient"}],
        "channel": {"p3": 10.0, "d34": 1.0},
    },
    "brc": {
        "scenario": "brc",
        "sweep": {"variable": "d12", "start": 0.5, "stop": 4.0, "steps": 15},
        "strategies": [{"which": "onehop"}, {"which": "omniscient"}],
        "channel": {"p1": 10.0, "p2": 10.0},
    },
    "large": {
        "scenario": "large",
        "sweep": {"variable": "node_count", "start": 10, "stop": 200, "steps": 5},
        "channel": {"power": 10.0, "alpha": 0.5},
    },
}


def _parse_scalar(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def apply_override(config: dict, dotted: str, value) -> None:
    """Set a dotted path in a nested dict, e.g. ``channel.eta=4``.

    Integer components index into lists (``strategies.0.k=3``).
    """
    parts = dotted.split(".")
    node = config
    for i, part in enumerate(parts):
        last = i == len(parts) - 1
        if isinstance(node, list):
            try:
                idx = int(part)
            except ValueError:
                raise ConfigError([f"--set {dotted}: {part!r} is not a list index"])
            if not 0 <= idx < len(node):
                raise ConfigError([f"--set {dotted}: index {idx} out of range"])
            if last:
                node[idx] = value
            else:
                node = node[idx]
        elif isinstance(node, dict):
            if last:
                node[part] = value
            else:
                node = node.setdefault(part, {})
        else:
            raise ConfigError([f"--set {dotted}: {part!r} is not a container"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relayrates",
        description="Achievable-rate sweeps for Gaussian relay networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SCENARIOS + ("validate",):
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config path")
        p.add_argument("--out", default=None, help="CSV output path")
        p.add_argument("--svg", default=None, help="SVG plot output path")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="dotted.path=value",
                       help="override a config field (repeatable)")
        p.add_argument("--jobs", type=int, default=1,
                       help="sweep rows computed concurrently")
    return parser


def _load_raw(args) -> dict:
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ConfigError(["config must be a JSON object"])
    elif args.command in DEFAULT_CONFIGS:
        raw = json.loads(json.dumps(DEFAULT_CONFIGS[args.command]))
    else:
        raise ConfigError([f"--config is required for {args.command!r}"])
    for item in args.overrides:
        if "=" not in item:
            raise ConfigError([f"--set needs dotted.path=value, got {item!r}"])
        dotted, _, text = item.partition("=")
        apply_override(raw, dotted, _parse_scalar(text))
    return raw


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)

    try:
        raw = _load_raw(args)
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    if args.command != "validate":
        if raw.get("scenario", args.command) != args.command:
            print(
                f"config error: config is for scenario {raw.get('scenario')!r}, "
                f"but the {args.command!r} subcommand was used",
                file=sys.stderr,
            )
            return 1
        raw.setdefault("scenario", args.command)

    try:
        config = validate_config(raw)
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 1

    if args.command == "validate":
        print(f"config OK: scenario {config.scenario}, "
              f"{config.sweep.steps} sweep steps, "
              f"{len(config.strategies)} strategies")
        return 0

    out_path = args.out or f"{config.scenario}_sweep.csv"
    try:
        n = run_experiment(config, out_path, args.svg, jobs=args.jobs)
    except (OSError, MemoryError, RuntimeError, ValueError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {n} rows to {out_path}" + (f" and plot to {args.svg}" if args.svg else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
