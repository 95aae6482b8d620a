"""Experiment command line: figure-style sweeps with embedded self-checks.

Each subcommand loads a run configuration (all defaults prefilled, overridable
from a key=value file and a few flags), executes one sweep, writes CSV or JSON
rows, and exits 0 only if its embedded consistency checks pass. Exit code 1
flags a failed check, 2 a configuration problem, 3 an outage quadrature that
missed its error contract. Outputs carry no timestamps or environment detail,
so identical config and seed give identical bytes.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Optional

import numpy as np

from .channel import ChannelStats, mean_gain, with_received_snr
from .config import ConfigError, RunConfig, SweepSpec, load_config
from .montecarlo import SimConfig, empirical_sops
from .optimize import (
    XTOL,
    MinMaxOutcome,
    minmax_pa,
    optimal_pa_far_asymptotic,
    optimal_pa_near_asymptotic,
)
from .rates import ALPHA_MAX, ALPHA_MIN
from .sop import (
    QuadratureError,
    TargetRates,
    asymptotic_sop_far,
    asymptotic_sop_near,
    exact_sop_far,
    exact_sop_near,
    exact_sops,
)

__all__ = ["main", "build_parser"]

# Reference average gains commonly quoted for this comparison; their averaging
# protocol is unspecified, so they are echoed for side-by-side reading only.
REFERENCE_GAINS_PCT = {"fixed": 55.12, "near_opt": 69.30, "far_opt": 19.11}

_DOMINANCE_GRID = np.linspace(ALPHA_MIN, ALPHA_MAX, 1000)
# The fair split's max-SOP may exceed the dense grid's best by this fraction.
# Relative, because at high SNR the SOPs are about 1e-4.
_GRID_REL_SLACK = 1e-6
_TREND_SLACK = 1e-9
# Allowed rise of the selected split between adjacent near-user target rates.
_ALPHA_TREND_SLACK = 0.01


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


def _emit(cfg: RunConfig, columns: list, rows: list, summary: dict) -> None:
    if cfg.out_format == "json":
        payload = {"rows": [dict(zip(columns, row)) for row in rows], "summary": summary}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        lines = [",".join(columns)]
        lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
        text = "\n".join(lines) + "\n"
    if cfg.out_path:
        with open(cfg.out_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    if cfg.out_format == "csv" and summary:
        for key in sorted(summary):
            print(f"# {key} = {_summary_text(summary[key])}")


def _summary_text(value) -> str:
    if isinstance(value, dict) and "degenerate" in value:
        suffix = " (degenerate)" if value["degenerate"] else ""
        return f"{_fmt(value['alpha'])}{suffix}"
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def _closed_form_payload(alpha: float) -> dict:
    # Degenerate: the closed form leaves the admissible window.
    return {"alpha": alpha, "degenerate": not ALPHA_MIN <= alpha <= ALPHA_MAX}


def cmd_validate(cfg: RunConfig) -> bool:
    sweep = cfg.sweep_or(SweepSpec("rth1_bits", 0.5, 3.0, 0.5))
    targets_seq = [TargetRates(rth1=float(rth1), rth2=float(rth1)) for rth1 in sweep.values()]
    base = cfg.stats()
    columns = [
        "rho_r_db", "rth1_bits", "so1_exact", "so1_sim",
        "abs_diff", "bound_3sigma", "within_bound", "rmse_curve",
    ]
    grid = cfg.validate_rho_r_grid_db
    stats_seq = [with_received_snr(base, rho_r) for rho_r in grid]
    # One stream for the whole grid: every SNR and target rate is counted on the same draws.
    sim = SimConfig(realizations=cfg.realizations, seed=cfg.seed)
    empiricals_seq = empirical_sops(stats_seq, cfg.alpha, targets_seq, sim)
    rows = []
    all_within = True
    for rho_r, stats, empiricals in zip(grid, stats_seq, empiricals_seq):
        curve = []
        for targets, empirical in zip(targets_seq, empiricals):
            exact = exact_sop_near(stats, cfg.alpha, targets).value
            diff = abs(empirical.so1_hat - exact)
            bound = 3.0 * empirical.stderr1 + 1e-6
            within = diff <= bound
            all_within = all_within and within
            curve.append((rho_r, targets.rth1, exact, empirical.so1_hat, diff, bound, within))
        rmse = float(np.sqrt(np.mean([row[4] ** 2 for row in curve])))
        rows.extend(row + (rmse,) for row in curve)
    summary = {"all_within_bound": bool(all_within), "alpha": cfg.alpha, "samples": cfg.realizations}
    _emit(cfg, columns, rows, summary)
    return all_within


def cmd_distance_sweep(cfg: RunConfig) -> bool:
    sweep = cfg.sweep_or(SweepSpec("d2_m", 60.0, 150.0, 10.0))
    distances = sweep.values()
    base = cfg.stats()  # fixes the transmit power at the configured geometry
    targets = cfg.targets()
    columns = ["d2_m", "so1_exact", "so2_exact", "so1_asym", "so2_asym"]
    rows = []
    for d2 in distances:
        lam2 = mean_gain(float(d2), cfg.path_loss_exp)
        stats = ChannelStats(lambda1=base.lambda1, lambda2=lam2, rho_t=base.rho_t)
        rows.append((
            float(d2),
            *exact_sops(stats, cfg.alpha, targets).value.tolist(),
            asymptotic_sop_near(stats, cfg.alpha, targets),
            asymptotic_sop_far(stats, cfg.alpha, targets),
        ))
    so1 = np.array([row[1] for row in rows])
    so2 = np.array([row[2] for row in rows])
    near_ok = bool(np.all(np.diff(so1) <= _TREND_SLACK))
    far_ok = bool(np.all(np.diff(so2) >= -_TREND_SLACK))
    summary = {"so1_nonincreasing": near_ok, "so2_nondecreasing": far_ok}
    _emit(cfg, columns, rows, summary)
    return near_ok and far_ok


def cmd_optimize(cfg: RunConfig) -> bool:
    sweep = cfg.sweep_or(SweepSpec("alpha", 0.01, 0.99, 0.01))
    grid = sweep.values()
    stats = cfg.stats()
    targets = cfg.targets()
    so1_curve, so2_curve = exact_sops(stats, grid, targets).value
    columns = ["alpha", "so1_exact", "so2_exact", "so1_asym", "so2_asym"]
    rows = list(zip(
        grid.tolist(),
        so1_curve.tolist(),
        so2_curve.tolist(),
        np.asarray(asymptotic_sop_near(stats, grid, targets)).tolist(),
        np.asarray(asymptotic_sop_far(stats, grid, targets)).tolist(),
    ))
    outcome = minmax_pa(stats, targets)
    near, far = outcome.near, outcome.far
    # A unimodal curve's grid argmin lies within one step of its minimizer,
    # or of the swept window's edge when the minimizer lies outside it.
    slack = sweep.step + XTOL
    near_ok = abs(grid[int(np.argmin(so1_curve))] - np.clip(near.alpha, grid[0], grid[-1])) <= slack
    far_ok = abs(grid[int(np.argmin(so2_curve))] - np.clip(far.alpha, grid[0], grid[-1])) <= slack
    summary = {
        "alpha1_star": near.alpha,
        "so1_at_alpha1_star": near.so1,
        "alpha2_star": far.alpha,
        "so2_at_alpha2_star": far.so2,
        "alpha1_hat": _closed_form_payload(optimal_pa_near_asymptotic(targets)),
        "alpha2_hat": _closed_form_payload(optimal_pa_far_asymptotic(targets)),
        "alpha_sop": outcome.selected,
        "max_sop": outcome.objective,
        "curve_minima_consistent": bool(near_ok and far_ok),
    }
    _emit(cfg, columns, rows, summary)
    return bool(near_ok and far_ok)


def _minmax_row(outcome: MinMaxOutcome) -> tuple:
    crossing = outcome.crossing
    return (
        outcome.near.alpha,
        outcome.far.alpha,
        crossing.alpha if crossing is not None else None,
        outcome.selected,
        outcome.objective,
    )


def cmd_minmax(cfg: RunConfig) -> bool:
    sweep = cfg.sweep_or(SweepSpec("rth1_bits", 0.5, 3.0, 0.5))
    stats = cfg.stats()
    columns = ["rth1_bits", "alpha1_star", "alpha2_star", "alpha3_star", "alpha_sop", "max_sop"]
    rows = []
    dominance_ok = True
    for rth1 in sweep.values():
        targets = TargetRates(rth1=float(rth1), rth2=cfg.rth2)
        outcome = minmax_pa(stats, targets)
        # Two one-user passes take less time than one two-user pass of twice the width.
        grid_max = np.maximum(exact_sop_near(stats, _DOMINANCE_GRID, targets).value,
                              exact_sop_far(stats, _DOMINANCE_GRID, targets).value)
        grid_min = float(grid_max.min())
        dominance_ok = dominance_ok and outcome.objective <= grid_min * (1.0 + _GRID_REL_SLACK)
        rows.append((float(rth1),) + _minmax_row(outcome))
    alphas = np.array([row[4] for row in rows])
    objectives = np.array([row[5] for row in rows])
    trend_alpha = bool(np.all(np.diff(alphas) <= _ALPHA_TREND_SLACK))
    trend_obj = bool(np.all(np.diff(objectives) >= -_TREND_SLACK))
    summary = {
        "grid_dominance": bool(dominance_ok),
        "alpha_sop_nonincreasing": trend_alpha,
        "objective_nondecreasing": trend_obj,
        "rth2_bits": cfg.rth2,
    }
    _emit(cfg, columns, rows, summary)
    return bool(dominance_ok and trend_alpha and trend_obj)


def cmd_gain_comparison(cfg: RunConfig) -> bool:
    sweep = cfg.sweep_or(SweepSpec("rho_r_db", 10.0, 40.0, 5.0))
    base = cfg.stats()
    targets = cfg.targets()
    columns = [
        "rho_r_db", "alpha_sop", "max_sop_opt", "max_sop_fixed",
        "max_sop_near_opt", "max_sop_far_opt",
        "gain_fixed_pct", "gain_near_pct", "gain_far_pct",
    ]
    rows = []
    dominance_ok = True
    for rho_r in sweep.values():
        stats = with_received_snr(base, float(rho_r))
        outcome = minmax_pa(stats, targets)
        baselines = {
            "fixed": exact_sops(stats, cfg.fixed_alpha, targets).value.max(axis=0),
            "near_opt": outcome.near.max_sop,
            "far_opt": outcome.far.max_sop,
        }
        dominance_ok = dominance_ok and all(
            outcome.objective <= value + 1e-12 for value in baselines.values()
        )
        gains = {
            key: (value - outcome.objective) / value * 100.0 if value > 0.0 else 0.0
            for key, value in baselines.items()
        }
        rows.append((
            float(rho_r), outcome.selected, outcome.objective,
            baselines["fixed"], baselines["near_opt"], baselines["far_opt"],
            gains["fixed"], gains["near_opt"], gains["far_opt"],
        ))
    summary = {
        "dominance_at_every_point": bool(dominance_ok),
        "avg_gain_fixed_pct": float(np.mean([row[6] for row in rows])),
        "avg_gain_near_pct": float(np.mean([row[7] for row in rows])),
        "avg_gain_far_pct": float(np.mean([row[8] for row in rows])),
        "reference_gain_fixed_pct": REFERENCE_GAINS_PCT["fixed"],
        "reference_gain_near_pct": REFERENCE_GAINS_PCT["near_opt"],
        "reference_gain_far_pct": REFERENCE_GAINS_PCT["far_opt"],
        "reference_note": "reference averages use an unspecified protocol; side-by-side reading only",
    }
    _emit(cfg, columns, rows, summary)
    return bool(dominance_ok)


_COMMANDS = {
    "validate": cmd_validate,
    "distance-sweep": cmd_distance_sweep,
    "optimize": cmd_optimize,
    "minmax": cmd_minmax,
    "gain-comparison": cmd_gain_comparison,
}

_HELP = {
    "validate": "compare exact and simulated near-user outage over target-rate sweeps",
    "distance-sweep": "exact and asymptotic outage of both users versus far-user distance",
    "optimize": "per-user outage curves over alpha with numerical and closed-form optima",
    "minmax": "min-max fair power split versus the near user's target rate",
    "gain-comparison": "max-outage of the fair split versus fixed and per-user baselines",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noma-secrecy",
        description="secrecy outage sweeps for the two-user untrusted downlink",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub = subparsers.add_parser(name, help=_HELP[name])
        sub.add_argument("--config", help="key=value run configuration file")
        sub.add_argument("--out", help="output file path (default: stdout)")
        sub.add_argument("--format", choices=("csv", "json"), help="output format")
        if name == "validate":
            sub.add_argument("--seed", type=int, help="seed of the Monte Carlo sample stream")
            sub.add_argument("--samples", type=int, help="Monte Carlo realizations")
    return parser


# Each flag and the run-configuration field it overrides; only validate has
# the Monte Carlo ones.
_OVERRIDES = {"seed": "seed", "samples": "realizations", "out": "out_path", "format": "out_format"}


def _configure(args: argparse.Namespace) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    flags = vars(args)
    overrides = {key: flags[flag] for flag, key in _OVERRIDES.items() if flags.get(flag) is not None}
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    return cfg


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _configure(args)
        checks_passed = _COMMANDS[args.command](cfg)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except QuadratureError as exc:
        print(f"quadrature error: {exc}", file=sys.stderr)
        return 3
    return 0 if checks_passed else 1


if __name__ == "__main__":
    sys.exit(main())
