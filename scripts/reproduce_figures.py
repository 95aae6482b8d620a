#!/usr/bin/env python3
"""Run every experiment sweep and collect the outputs in one directory.

validate         analytical vs simulated near-user outage over target rates
distance-sweep   both users' outage vs far-user distance at fixed power
optimize         per-user outage curves over the power split, with optima
minmax           fair power split vs the near user's target rate
gain-comparison  fair split vs fixed and per-user baselines over SNR

Exit code is the worst exit code among the sweeps (0 = all embedded
checks passed, 1 = some check failed, 2 = configuration problem,
3 = an outage quadrature missed its error contract).
"""
import argparse
import pathlib
import sys

from noma_secrecy.cli import main as run_subcommand

COMMANDS = ("validate", "distance-sweep", "optimize", "minmax", "gain-comparison")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", default="results", help="directory for the output tables")
    parser.add_argument("--seed", type=int, default=1, help="seed of validate's Monte Carlo sample stream")
    parser.add_argument("--samples", type=int, default=10**6, help="validate's Monte Carlo realizations")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--config", help="key=value file applied to every sweep")
    args = parser.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    worst = 0
    for command in COMMANDS:
        out = outdir / f"{command.replace('-', '_')}.{args.format}"
        argv = [command, "--out", str(out), "--format", args.format]
        if command == "validate":
            argv.extend(["--seed", str(args.seed), "--samples", str(args.samples)])
        if args.config:
            argv.extend(["--config", args.config])
        code = run_subcommand(argv)
        print(f"{command:16s} -> {out}  (exit {code})")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
