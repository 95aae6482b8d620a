"""Run configuration: flat key=value files with dotted section keys.

Every key has a default filled in (50 m / 100 m geometry, exponent 2.5,
unit path-loss constant, -60 dBm noise, received SNR parameterization), so
a bare invocation reproduces the reference setup. Unknown keys and
malformed values are reported with their line number.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .channel import ChannelStats, SystemParams, dbm_to_watt, derive_stats, mean_gain, rho_t_for_received_snr
from .montecarlo import SimConfig
from .rates import ALPHA_MAX, ALPHA_MIN
from .sop import TargetRates

__all__ = ["ConfigError", "SweepSpec", "RunConfig", "parse_config", "load_config"]

SWEEP_AXES = ("alpha", "rho_r_db", "d2_m", "rth1_bits")


class ConfigError(ValueError):
    """Raised for unparseable or inconsistent run configuration."""


@dataclass(frozen=True)
class SweepSpec:
    axis: str
    start: float
    stop: float
    step: float

    def __post_init__(self) -> None:
        if self.axis not in SWEEP_AXES:
            raise ConfigError(f"sweep axis must be one of {SWEEP_AXES}, got {self.axis!r}")
        if self.step <= 0.0:
            raise ConfigError("sweep step must be positive")
        if self.stop < self.start:
            raise ConfigError("sweep range is empty (stop < start)")

    def values(self) -> np.ndarray:
        count = int(np.floor((self.stop - self.start) / self.step + 1e-9)) + 1
        return self.start + self.step * np.arange(count)


@dataclass(frozen=True)
class RunConfig:
    d1_m: float = 50.0
    d2_m: float = 100.0
    path_loss_exp: float = 2.5
    path_loss_const: float = 1.0
    noise_dbm: float = -60.0
    rho_r_db: float = 30.0           # mean received SNR at the far user; sets P_t
    alpha: float = 0.5               # power split for fixed-split subcommands
    rth1: float = 1.0                # target secrecy rates, bits/s/Hz
    rth2: float = 1.0
    sweep: Optional[SweepSpec] = None
    validate_rho_r_grid_db: tuple = (20.0, 30.0, 40.0)
    realizations: int = 10**6
    seed: int = 1
    condition_on_ordering: bool = False
    out_path: Optional[str] = None
    out_format: str = "csv"
    fixed_alpha: float = 0.33        # fixed-split baseline for gain comparison

    def __post_init__(self) -> None:
        if self.out_format not in ("csv", "json"):
            raise ConfigError(f"output format must be csv or json, got {self.out_format!r}")
        if self.realizations < 1:
            raise ConfigError("sim.realizations must be at least 1")
        if not self.validate_rho_r_grid_db:
            raise ConfigError("validate.rho_r_grid_db must be nonempty")
        for key, value in (("system.alpha", self.alpha), ("fixed.alpha", self.fixed_alpha)):
            if not (ALPHA_MIN <= value <= ALPHA_MAX):
                raise ConfigError(f"{key} must lie within [{ALPHA_MIN:g}, {ALPHA_MAX:g}], got {value!r}")

    def system(self) -> SystemParams:
        lam2 = mean_gain(self.d2_m, self.path_loss_const, self.path_loss_exp)
        noise = dbm_to_watt(self.noise_dbm)
        transmit = rho_t_for_received_snr(self.rho_r_db, lam2) * noise
        return SystemParams(
            d1=self.d1_m,
            d2=self.d2_m,
            transmit_power=transmit,
            path_loss_exp=self.path_loss_exp,
            path_loss_const=self.path_loss_const,
            noise_power=noise,
        )

    def stats(self) -> ChannelStats:
        return derive_stats(self.system())

    def targets(self) -> TargetRates:
        return TargetRates(rth1=self.rth1, rth2=self.rth2)

    def sim(self) -> SimConfig:
        return SimConfig(
            realizations=self.realizations,
            seed=self.seed,
            condition_on_ordering=self.condition_on_ordering,
        )


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_float_list(raw: str) -> tuple:
    items = [part.strip() for part in raw.split(",") if part.strip()]
    if not items:
        raise ValueError("empty list")
    return tuple(float(part) for part in items)


# dotted key -> (RunConfig attribute, value parser)
_KEYS = {
    "system.d1_m": ("d1_m", float),
    "system.d2_m": ("d2_m", float),
    "system.path_loss_exp": ("path_loss_exp", float),
    "system.path_loss_const": ("path_loss_const", float),
    "system.noise_dbm": ("noise_dbm", float),
    "system.rho_r_db": ("rho_r_db", float),
    "system.alpha": ("alpha", float),
    "targets.rth1_bits": ("rth1", float),
    "targets.rth2_bits": ("rth2", float),
    "sweep.axis": (None, str),
    "sweep.start": (None, float),
    "sweep.stop": (None, float),
    "sweep.step": (None, float),
    "validate.rho_r_grid_db": ("validate_rho_r_grid_db", _parse_float_list),
    "sim.realizations": ("realizations", int),
    "sim.seed": ("seed", int),
    "sim.condition_on_ordering": ("condition_on_ordering", _parse_bool),
    "output.path": ("out_path", str),
    "output.format": ("out_format", str),
    "fixed.alpha": ("fixed_alpha", float),
}


def parse_config(text: str, base: Optional[RunConfig] = None) -> RunConfig:
    overrides = {}
    sweep_parts = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        attr, parser = _KEYS[key]
        try:
            value = parser(raw)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
        if attr is None:
            sweep_parts[key.split(".", 1)[1]] = value
        else:
            overrides[attr] = value
    if sweep_parts:
        missing = {"axis", "start", "stop", "step"} - set(sweep_parts)
        if missing:
            raise ConfigError(f"incomplete sweep section, missing {sorted(missing)}")
        overrides["sweep"] = SweepSpec(**sweep_parts)
    base = base if base is not None else RunConfig()
    try:
        return replace(base, **overrides)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str, base: Optional[RunConfig] = None) -> RunConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read(), base)
