"""End-to-end checks of every shipped guarantee, one test per criterion.

Each test prints a single `criterion NN [PASS|FAIL]` line before asserting,
so `pytest tests/test_acceptance.py -v -s` reads as a checklist. Stochastic
checks pin their seeds; everything here is reproducible bit-for-bit.
"""
import dataclasses
import json
import math

import numpy as np

import reference
from noma_secrecy.channel import with_received_snr
from noma_secrecy.cli import main as cli_main
from noma_secrecy.config import RunConfig
from noma_secrecy.montecarlo import SimConfig, empirical_sops
from noma_secrecy.optimize import minmax_pa, optimal_pa_asymptotic
from noma_secrecy.rates import ALPHA_MAX, ALPHA_MIN
from noma_secrecy.sop import (
    TargetRates,
    asymptotic_sops,
    exact_sop_far,
    exact_sop_near,
)
from reference import (
    GainSample,
    empirical_conventional_violation_rate,
    log_integrand_far,
    log_integrand_near,
    positive_secrecy_window,
    rates_from_sinrs,
    sample_gains,
    sinr_proposed,
)

RTH = TargetRates(1.0, 1.0)
RTH_GRID = np.arange(0.5, 3.01, 0.5)
SNR_GRID_DB = (20.0, 30.0, 40.0)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} [{verdict}] {name}: {detail}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def _single_valley(curve: np.ndarray, tol: float = 1e-12) -> bool:
    diffs = np.diff(curve)
    signs = np.sign(diffs[np.abs(diffs) > tol])
    if signs.size == 0:
        return True
    changes = int(np.count_nonzero(np.diff(signs) != 0))
    if changes == 0:
        return True
    return changes == 1 and signs[0] < 0.0 < signs[-1]


def test_criterion_01_simulation_validation():
    # Mirrors `noma-secrecy validate` at seed 1: one batched call, a column
    # of SNRs by a row of target rates, counts the whole grid on one stream
    # seeded 1; each config's exact SOP is its own scalar call.
    base = RunConfig().stats()
    stats_seq = [with_received_snr(base, rho_r) for rho_r in SNR_GRID_DB]
    stats = dataclasses.replace(base, rho_t=np.array([[entry.rho_t] for entry in stats_seq]))
    empirical = empirical_sops(stats, 0.5, TargetRates(RTH_GRID, RTH_GRID), SimConfig(10**6, 1))
    exact = [[exact_sop_near(entry, 0.5, TargetRates(float(rth), float(rth))).value for rth in RTH_GRID]
             for entry in stats_seq]
    deviations = np.abs(empirical.value[0] - exact)
    bound = 3.0 * empirical.stderr[0] + 1e-6
    all_within = bool(np.all(deviations <= bound))
    worst_budget = float(np.max(deviations / bound))
    rmse = float(np.sqrt(np.mean(np.square(deviations))))
    ok = all_within and rmse <= 5e-3
    _report(
        1,
        "simulation-validation",
        ok,
        f"{deviations.size} points at 1e6 samples, worst |dev|/bound = {worst_budget:.2f}, "
        f"RMSE = {rmse:.2e} (limit 5e-3)",
    )


def _asymptotic_gap_envelope(stats, alpha, targets, user):
    """Bounds (lower, upper) on asymptotic - exact SOP, from the mean-value theorem.

    Both SOPs are 1 - exp(-A/lam_e) * E[exp(-Pi*X/lam_e)], the exact one with
    X = Y/(c*Y + 1) and the closed form with its limit X = 1/c, where
    Y ~ Exponential(lam_i). Their difference is therefore
    exp(-A/lam_e) * E[exp(-Pi*X/lam_e) - exp(-Pi/(c*lam_e))], and each term
    lies between exp(-Pi/(c*lam_e)) and 1 times Pi/(c*lam_e)/(1 + c*Y). So
    e^(-Pi/(c*lam_e)) * B <= asymptotic - exact <= B, with
    B = exp(-A/lam_e) * Pi/(c*lam_e) * E[1/(1 + c*Y)] and
    E[1/(1 + c*Y)] = e^(1/m) * E1(1/m) / m, m = c*lam_i.
    """
    from scipy.special import exp1

    if user == "near":
        pi, lam_e, lam_i = targets.pi1, stats.lambda1, stats.lambda2
        slope = (1.0 - alpha) * stats.rho_t
        shift = (pi - 1.0) / (alpha * stats.rho_t)
    else:
        pi, lam_e, lam_i = targets.pi2, stats.lambda2, stats.lambda1
        slope = alpha * stats.rho_t
        shift = (pi - 1.0) / ((1.0 - alpha) * stats.rho_t)
    m = slope * lam_i
    mean_inverse = np.exp(1.0 / m) * exp1(1.0 / m) / m
    saturation = pi / (slope * lam_e)
    upper = np.exp(-shift / lam_e) * saturation * mean_inverse
    return np.exp(-saturation) * upper, upper


def test_criterion_02_asymptotic_accuracy():
    base = RunConfig().stats()
    grid = np.round(np.arange(0.1, 0.91, 0.1), 12)
    points = len(SNR_GRID_DB) * grid.size * 2
    violations = []
    worst_per_snr = []
    for rho_r in SNR_GRID_DB:
        stats = with_received_snr(base, rho_r)
        worst = 0.0
        asymptotic = asymptotic_sops(stats, grid, RTH)
        for row, (user, exact_fn) in enumerate((("near", exact_sop_near), ("far", exact_sop_far))):
            exact = exact_fn(stats, grid, RTH)
            gap = asymptotic[row] - exact.value
            lower, upper = _asymptotic_gap_envelope(stats, grid, RTH, user)
            outside = (gap < lower - exact.quad_error) | (gap > upper + exact.quad_error)
            violations += [f"{rho_r:g} dB/{user}/alpha={a:g}" for a in grid[outside]]
            worst = max(worst, float(np.max(np.abs(gap) / exact.value)))
        worst_per_snr.append(f"{worst * 100:.2f}% at {rho_r:g} dB")
    ok = not violations
    _report(
        2,
        "asymptotic-accuracy",
        ok,
        f"asymptotic - exact within its high-SNR envelope at {points - len(violations)}/{points} points"
        + (f" (outside: {', '.join(violations)})" if violations else "")
        + f"; worst |exact - asymptotic|/exact = {', '.join(worst_per_snr)}",
    )


def _golden_section_minimize(objective, lower=ALPHA_MIN, upper=ALPHA_MAX, tol=1e-9):
    """Minimizer of a unimodal objective on [lower, upper], independent of the package's solver."""
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lower, upper
    c, d = b - ratio * (b - a), a + ratio * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = objective(d)
    return 0.5 * (a + b)


def test_criterion_03_closed_form_optima():
    issues = []
    alpha1_hat, alpha2_hat = optimal_pa_asymptotic(RTH)
    if abs(alpha1_hat - (math.sqrt(2.0) - 1.0)) > 1e-12:
        issues.append("alpha1_hat(pi=2)")
    if abs(alpha2_hat - (2.0 - math.sqrt(2.0))) > 1e-12:
        issues.append("alpha2_hat(pi=2)")
    for pi in (1.1, 1.5, 2.0, 4.0, 8.0):
        targets = TargetRates(math.log2(pi), math.log2(pi))
        total = sum(optimal_pa_asymptotic(targets))
        if abs(total - 1.0) > 1e-12:
            issues.append(f"complement identity at pi={pi:g}")
    stats = RunConfig().stats()
    near = _golden_section_minimize(lambda a: asymptotic_sops(stats, a, RTH)[0])
    far = _golden_section_minimize(lambda a: asymptotic_sops(stats, a, RTH)[1])
    if abs(near - (math.sqrt(2.0) - 1.0)) > 1e-6:
        issues.append("golden-section search vs alpha1_hat")
    if abs(far - (2.0 - math.sqrt(2.0))) > 1e-6:
        issues.append("golden-section search vs alpha2_hat")
    _report(
        3,
        "closed-form-optima",
        not issues,
        "formulas to 1e-12, complement identity on 5 targets, golden-section search within 1e-6"
        if not issues
        else "failed: " + ", ".join(issues),
    )


def test_criterion_04_unimodality_and_log_concavity():
    base = RunConfig().stats()
    grid = np.linspace(ALPHA_MIN, ALPHA_MAX, 1000)
    issues = []
    for rho_r in (10.0, 20.0, 30.0):
        stats = with_received_snr(base, rho_r)
        so1 = exact_sop_near(stats, grid, RTH).value
        so2 = exact_sop_far(stats, grid, RTH).value
        for name, curve in (("so1", so1), ("so2", so2), ("max", np.maximum(so1, so2))):
            if not _single_valley(curve):
                issues.append(f"{name} at {rho_r:g} dB")
    h = 1e-3
    alpha = np.linspace(0.05, 0.95, 301)[:, None]
    y = np.logspace(-8, -3, 30)[None, :]
    stats = with_received_snr(base, 30.0)
    worst_second = -np.inf
    for log_integrand in (log_integrand_near, log_integrand_far):
        second = (
            log_integrand(stats, alpha - h, RTH, y)
            - 2.0 * log_integrand(stats, alpha, RTH, y)
            + log_integrand(stats, alpha + h, RTH, y)
        )
        worst_second = max(worst_second, float(np.max(second)))
    if worst_second > 1e-8:
        issues.append(f"log-integrand second difference {worst_second:.2e}")
    _report(
        4,
        "unimodality-evidence",
        not issues,
        f"9 curves single-valley, max second difference {worst_second:.1e} (limit 1e-8)"
        if not issues
        else "failed: " + ", ".join(issues),
    )


def test_criterion_05_minmax_global_optimality():
    stats = RunConfig().stats()
    grid = np.linspace(ALPHA_MIN, ALPHA_MAX, 1000)
    worst_excess = -np.inf
    for rth1 in (0.5, 1.0, 2.0):
        for rth2 in (0.5, 1.0, 2.0):
            targets = TargetRates(rth1, rth2)
            outcome = minmax_pa(stats, targets)
            curve = np.maximum(
                exact_sop_near(stats, grid, targets).value,
                exact_sop_far(stats, grid, targets).value,
            )
            worst_excess = max(worst_excess, outcome.objective - float(curve.min()))
    ok = worst_excess <= 1e-9
    _report(
        5,
        "minmax-global-optimality",
        ok,
        f"9 target pairs, worst (objective - grid min) = {worst_excess:.2e} (limit 1e-9)",
    )


def test_criterion_06_symmetric_configuration():
    from noma_secrecy.channel import ChannelStats

    stats = ChannelStats(lambda1=1e-4, lambda2=1e-4, rho_t=1e7)
    grid = np.linspace(0.02, 0.98, 97)
    mirror_gap = float(
        np.max(
            np.abs(
                exact_sop_far(stats, grid, RTH).value
                - exact_sop_near(stats, 1.0 - grid, RTH).value
            )
        )
    )
    outcome = minmax_pa(stats, RTH)
    crossing = outcome.crossing
    crossing_gap = abs(crossing.alpha - 0.5) if crossing is not None else np.inf
    selected_gap = abs(outcome.selected - 0.5)
    ok = mirror_gap <= 1e-8 and crossing_gap <= 1e-6 and selected_gap <= 1e-6
    _report(
        6,
        "symmetric-configuration",
        ok,
        f"mirror gap {mirror_gap:.1e} (1e-8), crossing offset {crossing_gap:.1e} (1e-6), "
        f"minmax offset {selected_gap:.1e} (1e-6)",
    )


def test_criterion_07_decoding_order_theorems():
    stats = RunConfig().stats()
    sim = SimConfig(realizations=10**5, seed=1)
    violation = empirical_conventional_violation_rate(stats, 0.5, sim)
    gains = sample_gains(stats, sim.realizations, sim.seed)
    mask = gains.g1 > gains.g2
    ordered = GainSample(g1=gains.g1[mask], g2=gains.g2[mask])
    rates = rates_from_sinrs(sinr_proposed(ordered, 0.5, stats.rho_t))
    lower, upper = positive_secrecy_window(ordered, stats.rho_t)
    near_agree = np.array_equal(rates.rs1 > 0.0, np.full(lower.shape, 0.5) < upper)
    far_agree = np.array_equal(rates.rs2 > 0.0, np.full(lower.shape, 0.5) > lower)
    ok = violation == 0.0 and near_agree and far_agree
    _report(
        7,
        "decoding-order-theorems",
        ok,
        f"{int(mask.sum())} ordered draws: conventional positive-secrecy count = "
        f"{violation * int(mask.sum()):.0f}, window sign agreement "
        f"near={near_agree} far={far_agree}",
    )


def test_criterion_07_catches_a_swapped_decoding_order(monkeypatch):
    # Under the proposed order the far user keeps positive secrecy on some
    # g1 > g2 draws, so the conventional-order count must see them once the
    # proposed SINRs stand in for the conventional ones.
    monkeypatch.setattr(reference, "sinr_conventional", sinr_proposed)
    stats = RunConfig().stats()
    sim = SimConfig(realizations=10**5, seed=1)
    assert empirical_conventional_violation_rate(stats, 0.5, sim) > 0.0


def test_criterion_08_figure_trends():
    cfg = RunConfig()
    base = cfg.stats()
    issues = []

    so1_d2, so2_d2 = [], []
    for d2 in np.arange(60.0, 151.0, 10.0):
        from noma_secrecy.channel import ChannelStats, mean_gain

        stats = ChannelStats(base.lambda1, mean_gain(float(d2)), base.rho_t)
        so1_d2.append(exact_sop_near(stats, 0.5, RTH).value)
        so2_d2.append(exact_sop_far(stats, 0.5, RTH).value)
    if not np.all(np.diff(so1_d2) <= 1e-9):
        issues.append("so1 vs d2")
    if not np.all(np.diff(so2_d2) >= -1e-9):
        issues.append("so2 vs d2")

    so1_rth = [
        exact_sop_near(base, 0.5, TargetRates(float(r), float(r))).value for r in RTH_GRID
    ]
    if not np.all(np.diff(so1_rth) > 0.0):
        issues.append("so1 vs rth1")
    so1_snr = [
        exact_sop_near(with_received_snr(base, rho_r), 0.5, RTH).value for rho_r in SNR_GRID_DB
    ]
    if not np.all(np.diff(so1_snr) < 0.0):
        issues.append("so1 vs rho_r")

    alphas, objectives = [], []
    for rth1 in RTH_GRID:
        outcome = minmax_pa(base, TargetRates(float(rth1), 1.0))
        alphas.append(outcome.selected)
        objectives.append(outcome.objective)
    if not np.all(np.diff(alphas) <= 0.01):
        issues.append("alpha_sop vs rth1")
    if not np.all(np.diff(objectives) >= -1e-9):
        issues.append("objective vs rth1")

    _report(
        8,
        "figure-trends",
        not issues,
        "distance, target-rate, SNR, and fairness trends all hold"
        if not issues
        else "failed: " + ", ".join(issues),
    )


def test_criterion_09_gain_comparison_dominance():
    cfg = RunConfig()
    base = cfg.stats()
    gains = {"fixed": [], "near_opt": [], "far_opt": []}
    dominance = True
    for rho_r in np.arange(10.0, 41.0, 5.0):
        stats = with_received_snr(base, float(rho_r))
        outcome = minmax_pa(stats, RTH)
        baselines = {
            "fixed": max(
                exact_sop_near(stats, cfg.fixed_alpha, RTH).value,
                exact_sop_far(stats, cfg.fixed_alpha, RTH).value,
            ),
            "near_opt": outcome.near.max_sop,
            "far_opt": outcome.far.max_sop,
        }
        for key, value in baselines.items():
            dominance = dominance and outcome.objective <= value + 1e-12
            gains[key].append((value - outcome.objective) / value * 100.0 if value > 0 else 0.0)
    averages = {key: float(np.mean(vals)) for key, vals in gains.items()}
    _report(
        9,
        "gain-comparison-dominance",
        dominance,
        "fair split dominates at all 7 SNR points; average gains "
        f"{averages['fixed']:.2f}%/{averages['near_opt']:.2f}%/{averages['far_opt']:.2f}% "
        "(reference 55.12%/69.30%/19.11% uses an unspecified averaging protocol)",
    )


def test_criterion_10_byte_identical_reruns(tmp_path):
    configs = {
        "validate": "sim.realizations = 50000\n",
        "distance-sweep": "",
        "optimize": "",
        "minmax": "sweep.axis = rth1_bits\nsweep.start = 1\nsweep.stop = 2\nsweep.step = 0.5\n",
        "gain-comparison": (
            "sweep.axis = rho_r_db\nsweep.start = 20\nsweep.stop = 30\nsweep.step = 10\n"
        ),
    }
    mismatched = []
    for command, text in configs.items():
        name = command.replace("-", "_")
        cfg_path = tmp_path / f"{name}.cfg"
        cfg_path.write_text(text, encoding="utf-8")
        outputs = []
        for attempt in range(2):
            out_path = tmp_path / f"{name}_{attempt}.json"
            code = cli_main([
                command, "--config", str(cfg_path),
                "--out", str(out_path), "--format", "json",
            ])
            assert code == 0, f"{command} exited {code}"
            outputs.append(out_path.read_bytes())
            json.loads(outputs[-1])  # emitted documents stay well-formed
        if outputs[0] != outputs[1]:
            mismatched.append(command)
    _report(
        10,
        "deterministic-outputs",
        not mismatched,
        "all 5 subcommands byte-identical on rerun"
        if not mismatched
        else "mismatch in: " + ", ".join(mismatched),
    )
