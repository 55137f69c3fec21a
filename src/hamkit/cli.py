"""Command-line entry point for the benchmark harness.

Exit codes: 0 all verdicts pass, 2 a verdict failed, 1 execution error.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys

from .bench import _COMMANDS, ExperimentConfig, run_experiment
from .errors import ConfigError, HamkitError


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hamkit",
        description="Dissipative Hamiltonian optimisation / sampling benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name, help=f"run a {name} experiment")
        cmd.add_argument("--config", required=True, help="JSON config path")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the config seed (non-negative integer)")
        cmd.add_argument("--out", default=None, help="override the output directory")
        cmd.add_argument("--reps", type=int, default=None,
                         help="override the repetition count")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.load(args.config)
        if cfg.experiment != args.command:
            raise ConfigError(
                f"config declares experiment {cfg.experiment!r} but the "
                f"{args.command!r} subcommand was invoked")
        overrides = {"seed": args.seed, "out_dir": args.out,
                     "reps": args.reps}
        # replace() re-runs ExperimentConfig's checks on the new values
        cfg = dataclasses.replace(cfg, **{k: v for k, v in overrides.items()
                                          if v is not None})
        report = run_experiment(cfg)
        path = report.write(cfg.out_dir)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except HamkitError as exc:
        print(f"execution error: {exc}", file=sys.stderr)
        return 1
    for v in report.verdicts:
        status = "PASS" if v["pass"] else "FAIL"
        print(f"[{status}] {v['name']}: {v['agg']}({v['metric']}) = "
              f"{v['value']} {v['op']} {v['threshold']}")
    print(f"report written to {path}")
    return 0 if report.passed else 2


if __name__ == "__main__":
    sys.exit(main())
