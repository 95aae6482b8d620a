"""Seeded inputs for the three benchmark workloads.

Everything here is plain Python (no numpy, no package import), so the parent
process can build a run's inputs without loading what it is about to time.
The same (workload, seed) always gives the same inputs; the package only
ever sees the generated numbers and config text.
"""
from __future__ import annotations

import random

WORKLOADS = ("validate-mc", "fair-split", "sop-curves")

# Geometry shared with the package's reference setup: near user at 50 m,
# path-loss exponent 2.5, unit path-loss constant.
D1_M = 50.0
PATH_LOSS_EXP = 2.5

# The box the fair-split and sop-curves configs are drawn from. It keeps the
# configs on which minmax_pa returns a spurious crossing (about 2 in 100), so
# the fair-split failure ratio shows that defect instead of hiding it.
RHO_R_DB = (10.0, 40.0)
D2_M = (60.0, 150.0)
RTH_BITS = (0.25, 3.0)
RHO_STRATA = 20

FAIR_SPLIT_CONFIGS = 200     # one op = one minmax_pa solve
SOP_CURVE_CONFIGS = 400      # one op = one near+far curve pair
CURVE_POINTS = 1000          # alpha grid size of one curve
CHECKED_POINTS_PER_CURVE = 3  # grid points per config checked against the oracle

# validate-mc keeps the CLI's default sizes (3 SNRs x 6 target rates x 1e6
# samples) and draws only the power split, far-user distance and MC seed.
VALIDATE_ALPHA = (0.3, 0.7)
VALIDATE_D2_M = (80.0, 120.0)
VALIDATE_POINTS = 18
VALIDATE_SAMPLES = 10**6


def channel_config(rho_r_db: float, d2_m: float, rth1: float, rth2: float) -> dict:
    """Linear channel statistics for one point of the box."""
    lambda1 = D1_M ** -PATH_LOSS_EXP
    lambda2 = d2_m ** -PATH_LOSS_EXP
    return {
        "rho_r_db": rho_r_db,
        "d2_m": d2_m,
        "rth1": rth1,
        "rth2": rth2,
        "lambda1": lambda1,
        "lambda2": lambda2,
        "rho_t": 10.0 ** (rho_r_db / 10.0) / lambda2,
    }


def _box_configs(rng: random.Random, count: int) -> list:
    """Stratified uniform draws over the box, in a seeded order.

    The (rho_r, d2) plane, which sets how many quadrature nodes a config
    needs, is cut into a RHO_STRATA x (count / RHO_STRATA) grid with one draw
    per cell; each target rate is a Latin hypercube column. Plain uniform
    draws let one seed put more configs in the costly corner than another,
    and since per-op latency is multi-modal, its median would jump with the
    seed; the stratified draw covers the box as uniformly with far less of that.
    """
    if count % RHO_STRATA:
        raise ValueError(f"config count {count} is not a multiple of {RHO_STRATA}")
    d2_strata = count // RHO_STRATA

    def draw(bounds: tuple, stratum: int, strata: int) -> float:
        low, high = bounds
        return low + (high - low) * (stratum + rng.random()) / strata

    cells = [(i, j) for i in range(RHO_STRATA) for j in range(d2_strata)]
    rng.shuffle(cells)
    rates = []
    for _ in range(2):
        strata = list(range(count))
        rng.shuffle(strata)
        rates.append([draw(RTH_BITS, stratum, count) for stratum in strata])
    return [
        channel_config(draw(RHO_R_DB, i, RHO_STRATA), draw(D2_M, j, d2_strata), rth1, rth2)
        for (i, j), rth1, rth2 in zip(cells, *rates)
    ]


def generate(workload: str, seed: int) -> dict:
    """The inputs of one run: what the child passes to the package, and what the checks need."""
    # A string seed is hashed with SHA-512, so it is stable across interpreters.
    rng = random.Random(f"{workload}:{seed}")
    if workload == "validate-mc":
        alpha = rng.uniform(*VALIDATE_ALPHA)
        d2_m = rng.uniform(*VALIDATE_D2_M)
        sim_seed = rng.randrange(1, 2**31)
        config_text = (
            f"system.alpha = {alpha!r}\n"
            f"system.d2_m = {d2_m!r}\n"
            f"sim.seed = {sim_seed}\n"
            f"sim.realizations = {VALIDATE_SAMPLES}\n"
        )
        return {
            "workload": workload,
            "alpha": alpha,
            "d2_m": d2_m,
            "sim_seed": sim_seed,
            "config_text": config_text,
            "samples_per_point": VALIDATE_SAMPLES,
            "ops_per_pass": 1,
        }
    if workload == "fair-split":
        configs = _box_configs(rng, FAIR_SPLIT_CONFIGS)
        return {"workload": workload, "configs": configs, "ops_per_pass": len(configs)}
    if workload == "sop-curves":
        configs = _box_configs(rng, SOP_CURVE_CONFIGS)
        for config in configs:
            config["check_indices"] = sorted(rng.sample(range(CURVE_POINTS), CHECKED_POINTS_PER_CURVE))
        # Swept in (rho_r, d2) order, as curves over a parameter grid are drawn. In a
        # seeded order the sequence of large temporaries, and with it the allocator's
        # peak memory, changed more with the seed (100, 115 or 117 MB for the same work).
        configs.sort(key=lambda config: (config["rho_r_db"], config["d2_m"]))
        return {
            "workload": workload,
            "configs": configs,
            "curve_points": CURVE_POINTS,
            "ops_per_pass": len(configs),
        }
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
