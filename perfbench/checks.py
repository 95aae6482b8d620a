"""Output checks, run in the parent after every timed pass has ended.

Each workload's check turns one pass's op outputs into a list of verdicts
(True for an op whose answer holds) and a list of integrity problems: a
contradiction that means the run itself cannot be trusted, such as the CLI
exiting 0 while one of its own rows says out of bound.

The SOP oracle integrates the outage probability written straight from the
decoding-order SINRs, with ``scipy.integrate.quad``; it shares no code or
substitution with the package's Gauss-Legendre quadrature.
"""
from __future__ import annotations

import csv
import io
import math

import inputs

QUAD_TOLERANCE = 1e-9      # absolute, on an outage probability
FAIR_SPLIT_REL_SLACK = 1e-3  # objective may exceed the dense-grid optimum by this share
GRID_POINTS = 1000


def _survival(threshold, lam_int: float, lam_exp: float, knee: float) -> float:
    """E_y[exp(-threshold(y)/lam_exp)] for y ~ Exponential(lam_int).

    With y = lam_int * t the weight becomes exp(-t); the integrand bends near
    t = knee, so the range is split geometrically from there.
    """
    from scipy.integrate import quad

    def integrand(t: float) -> float:
        return math.exp(-t - threshold(lam_int * t) / lam_exp)

    edges = [0.0]
    edge = min(knee, 1.0)
    while edge < 60.0:
        edges.append(edge)
        edge *= 10.0
    edges.append(60.0)  # exp(-60) ~ 1e-26: the rest of the tail is below double precision
    return sum(
        quad(integrand, lo, hi, epsabs=1e-15, epsrel=1e-13, limit=200)[0]
        for lo, hi in zip(edges, edges[1:])
    )


def oracle_sop_near(lambda1: float, lambda2: float, rho_t: float, alpha: float, rth1: float) -> float:
    """Pr{log2(1 + g11) - log2(1 + g12) < rth1}, g11 = a rho g1, 1 + g12 = (rho g2 + 1)/((1-a) rho g2 + 1)."""
    pi1 = 2.0 ** rth1
    a, rho = alpha, rho_t

    def threshold(g2: float) -> float:  # outage iff g1 below this
        return ((pi1 - 1.0) + rho * g2 * (pi1 - 1.0 + a)) / (a * rho * ((1.0 - a) * rho * g2 + 1.0))

    return 1.0 - _survival(threshold, lambda2, lambda1, 1.0 / ((1.0 - a) * rho * lambda2))


def oracle_sop_far(lambda1: float, lambda2: float, rho_t: float, alpha: float, rth2: float) -> float:
    """Pr{log2(1 + g22) - log2(1 + g21) < rth2}, g22 = (1-a) rho g2, 1 + g21 = (rho g1 + 1)/(a rho g1 + 1)."""
    pi2 = 2.0 ** rth2
    a, rho = alpha, rho_t

    def threshold(g1: float) -> float:  # outage iff g2 below this
        return ((pi2 - 1.0) + rho * g1 * (pi2 - a)) / ((1.0 - a) * rho * (a * rho * g1 + 1.0))

    return 1.0 - _survival(threshold, lambda1, lambda2, 1.0 / (a * rho * lambda1))


def check_validate(spec: dict, outputs: list) -> tuple:
    """The CLI's own per-point within_bound and exit code, plus each exact SOP against the oracle."""
    output = outputs[0]
    if "error" in output:
        return [False], []
    problems = []
    rows = list(csv.DictReader(io.StringIO(output["csv"])))
    if len(rows) != inputs.VALIDATE_POINTS:
        return [False], [f"validate wrote {len(rows)} rows, expected {inputs.VALIDATE_POINTS}"]
    lambda1 = inputs.D1_M ** -inputs.PATH_LOSS_EXP
    lambda2 = spec["d2_m"] ** -inputs.PATH_LOSS_EXP
    ok = output["exit_code"] == 0
    all_within = True
    for row in rows:
        exact, sim = float(row["so1_exact"]), float(row["so1_sim"])
        within = row["within_bound"] == "1"
        all_within = all_within and within
        diff, bound = abs(sim - exact), float(row["bound_3sigma"])
        # The CSV keeps 12 significant digits; a tie at that precision decides nothing.
        if abs(diff - bound) > 1e-9 * bound and within != (diff <= bound):
            problems.append(f"row {row}: within_bound disagrees with |so1_sim - so1_exact| <= bound")
        rho_t = 10.0 ** (float(row["rho_r_db"]) / 10.0) / lambda2
        oracle = oracle_sop_near(lambda1, lambda2, rho_t, spec["alpha"], float(row["rth1_bits"]))
        ok = ok and abs(exact - oracle) <= QUAD_TOLERANCE
    if all_within != (output["exit_code"] == 0):
        problems.append(f"exit code {output['exit_code']} disagrees with within_bound column")
    return [ok], problems


def check_fair_split(spec: dict, outputs: list) -> tuple:
    """Objective within 1e-3 (relative) of the best max-SOP on a dense alpha grid."""
    import numpy as np
    from noma_secrecy import ChannelStats, TargetRates, exact_sop_far, exact_sop_near
    from noma_secrecy.rates import ALPHA_MAX, ALPHA_MIN

    grid = np.linspace(ALPHA_MIN, ALPHA_MAX, GRID_POINTS)
    verdicts, problems = [], []
    for config, output in zip(spec["configs"], outputs):
        if "error" in output:
            verdicts.append(False)
            continue
        stats = ChannelStats(config["lambda1"], config["lambda2"], config["rho_t"])
        targets = TargetRates(config["rth1"], config["rth2"])
        try:
            grid_min = float(np.maximum(
                exact_sop_near(stats, grid, targets).value, exact_sop_far(stats, grid, targets).value
            ).min())
        except RuntimeError as exc:
            problems.append(f"dense-grid reference failed for {config}: {exc}")
            verdicts.append(False)
            continue
        alpha, objective = output["selected"], output["objective"]
        in_window = ALPHA_MIN <= alpha <= ALPHA_MAX and 0.0 <= objective <= 1.0
        verdicts.append(in_window and objective <= grid_min * (1.0 + FAIR_SPLIT_REL_SLACK))
    return verdicts, problems


def check_sop_curves(spec: dict, outputs: list) -> tuple:
    """Checked grid points against the oracle, and the reported quadrature error bound."""
    verdicts = []
    for config, output in zip(spec["configs"], outputs):
        if "error" in output:
            verdicts.append(False)
            continue
        ok = output["quad_error"] <= QUAD_TOLERANCE
        args = (config["lambda1"], config["lambda2"], config["rho_t"])
        for alpha, near, far in zip(output["alpha"], output["near"], output["far"]):
            ok = ok and abs(near - oracle_sop_near(*args, alpha, config["rth1"])) <= QUAD_TOLERANCE
            ok = ok and abs(far - oracle_sop_far(*args, alpha, config["rth2"])) <= QUAD_TOLERANCE
        verdicts.append(ok)
    return verdicts, []


CHECKS = {"validate-mc": check_validate, "fair-split": check_fair_split, "sop-curves": check_sop_curves}


def check_run(spec: dict, pass_outputs: list) -> tuple:
    """Verdicts for every op of every pass, and the run's integrity problems.

    Identical inputs must give identical outputs (the package's determinism
    contract), so each distinct output list is checked once.
    """
    verdicts_of: dict = {}
    problems = []
    keys = [repr(outputs) for outputs in pass_outputs]
    for key, outputs in zip(keys, pass_outputs):
        if key not in verdicts_of:
            verdicts, found = CHECKS[spec["workload"]](spec, outputs)
            verdicts_of[key] = verdicts
            problems.extend(found)
    if len(verdicts_of) > 1:
        problems.append(f"{len(verdicts_of)} different outputs from {len(pass_outputs)} passes on the same inputs")
    return [verdicts_of[key] for key in keys], problems
