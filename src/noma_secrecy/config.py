"""Run configuration: flat key=value files with dotted section keys.

Every key has a default filled in (50 m / 100 m geometry, path-loss exponent
2.5, 30 dB mean received SNR at the far user), so a bare invocation
reproduces the reference setup. Because the configuration fixes the received
SNR at the far user, the channel statistics follow from the geometry alone:
lambda_i = d_i**-n and rho_t = 10**(rho_r_db / 10) / lambda2.

RunConfig checks every value that comes from outside, once, when it is
built: unknown keys and malformed values are reported with their line
number, out-of-domain values with their key, all as ConfigError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .channel import ChannelStats, mean_gain, rho_t_for_received_snr
from .rates import ALPHA_MAX, ALPHA_MIN
from .sop import _MAX_RTH, TargetRates

__all__ = ["ConfigError", "SweepSpec", "RunConfig", "parse_config", "load_config"]

SWEEP_AXES = ("alpha", "rho_r_db", "d2_m", "rth1_bits")
_MAX_SEED = 2**128 - 1  # Philox keys are 128-bit
_MAX_SWEEP_POINTS = 100_000  # default sweeps have at most 99 points


class ConfigError(ValueError):
    """Raised for unparseable or inconsistent run configuration."""


def _require(ok, message: str) -> None:
    if not ok:
        raise ConfigError(message)


@dataclass(frozen=True)
class SweepSpec:
    axis: str
    start: float
    stop: float
    step: float

    def __post_init__(self) -> None:
        _require(self.axis in SWEEP_AXES, f"sweep axis must be one of {SWEEP_AXES}, got {self.axis!r}")
        _require(
            all(math.isfinite(x) for x in (self.start, self.stop, self.step)),
            "sweep start, stop and step must be finite",
        )
        _require(self.step > 0.0, "sweep step must be positive")
        _require(self.stop >= self.start, "sweep range is empty (stop < start)")
        # The point count is floor(span) + 1, so span < limit caps it at the limit.
        span = self._span()
        _require(
            span < _MAX_SWEEP_POINTS,
            f"sweep from {self.start!r} to {self.stop!r} by {self.step!r} gives more than "
            f"{_MAX_SWEEP_POINTS} points",
        )

    def _span(self) -> float:
        return (self.stop - self.start) / self.step + 1e-9

    def values(self) -> np.ndarray:
        return self.start + self.step * np.arange(math.floor(self._span()) + 1)


@dataclass(frozen=True)
class RunConfig:
    d1_m: float = 50.0
    d2_m: float = 100.0
    path_loss_exp: float = 2.5
    rho_r_db: float = 30.0           # mean received SNR at the far user; sets rho_t
    alpha: float = 0.5               # power split for fixed-split subcommands
    rth1: float = 1.0                # target secrecy rates, bits/s/Hz
    rth2: float = 1.0
    sweep: Optional[SweepSpec] = None
    validate_rho_r_grid_db: tuple = (20.0, 30.0, 40.0)
    realizations: int = 10**6
    seed: int = 1
    out_path: Optional[str] = None
    out_format: str = "csv"
    fixed_alpha: float = 0.33        # fixed-split baseline for gain comparison

    def __post_init__(self) -> None:
        _require(self.out_format in ("csv", "json"), f"output format must be csv or json, got {self.out_format!r}")
        _require(
            0.0 < self.d1_m < self.d2_m < math.inf,
            f"system.d1_m and system.d2_m must satisfy 0 < d1_m < d2_m < inf, got {self.d1_m!r} and {self.d2_m!r}",
        )
        _require(
            0.0 < self.path_loss_exp < math.inf,
            f"system.path_loss_exp must be finite and positive, got {self.path_loss_exp!r}",
        )
        _require(math.isfinite(self.rho_r_db), f"system.rho_r_db must be finite, got {self.rho_r_db!r}")
        grid = self.validate_rho_r_grid_db
        _require(
            len(grid) > 0 and all(math.isfinite(x) for x in grid),
            f"validate.rho_r_grid_db must be a nonempty list of finite values, got {grid!r}",
        )
        for key, value in (("targets.rth1_bits", self.rth1), ("targets.rth2_bits", self.rth2)):
            _require(0.0 <= value < _MAX_RTH, f"{key} must lie within [0, {_MAX_RTH:g}), got {value!r}")
        for key, value in (("system.alpha", self.alpha), ("fixed.alpha", self.fixed_alpha)):
            _require(
                ALPHA_MIN <= value <= ALPHA_MAX,
                f"{key} must lie within [{ALPHA_MIN:g}, {ALPHA_MAX:g}], got {value!r}",
            )
        # Slicing a stream and keying Philox both need true integers; a float
        # or bool would be truncated or fail later inside the Monte Carlo kernel.
        for key, value in (("sim.realizations", self.realizations), ("sim.seed", self.seed)):
            _require(
                isinstance(value, (int, np.integer)) and not isinstance(value, bool),
                f"{key} must be an integer, got {value!r}",
            )
        _require(self.realizations >= 1, f"sim.realizations must be at least 1, got {self.realizations!r}")
        _require(0 <= self.seed <= _MAX_SEED, f"sim.seed must lie within [0, 2**128), got {self.seed!r}")
        distances, snrs = [self.d1_m, self.d2_m], [self.rho_r_db, *grid]
        if self.sweep is not None:
            values = self.sweep.values()
            inside, need = {
                "alpha": ((values >= ALPHA_MIN) & (values <= ALPHA_MAX), f"lie within [{ALPHA_MIN:g}, {ALPHA_MAX:g}]"),
                "rho_r_db": (np.isfinite(values), "be finite"),
                "d2_m": (values > self.d1_m, f"exceed system.d1_m = {self.d1_m!r}"),
                "rth1_bits": ((values >= 0.0) & (values < _MAX_RTH), f"lie within [0, {_MAX_RTH:g})"),
            }[self.sweep.axis]
            _require(
                inside.all(),
                f"sweep values over {self.sweep.axis} must {need}, got {values[0]:g} to {values[-1]:g}",
            )
            if self.sweep.axis == "d2_m":
                distances.extend(values)
            elif self.sweep.axis == "rho_r_db":
                snrs.extend(values)
        # Every distance and SNR a run reaches must give a normal mean gain and rho_t.
        with np.errstate(over="ignore", under="ignore", divide="ignore"):
            gains = np.array(distances) ** -self.path_loss_exp
            rho_t = 10.0 ** (np.array(snrs) / 10.0) / gains[1]
        _require(
            all(np.isfinite(x).all() and x.min() > 0.0 for x in (gains, rho_t)),
            "the distances, path-loss exponent and SNRs give a mean gain or transmit SNR "
            "outside the floating-point range",
        )

    def stats(self) -> ChannelStats:
        lam1 = mean_gain(self.d1_m, self.path_loss_exp)
        lam2 = mean_gain(self.d2_m, self.path_loss_exp)
        return ChannelStats(lambda1=lam1, lambda2=lam2, rho_t=rho_t_for_received_snr(self.rho_r_db, lam2))

    def targets(self) -> TargetRates:
        return TargetRates(rth1=self.rth1, rth2=self.rth2)

    def sweep_or(self, default: SweepSpec) -> SweepSpec:
        """The configured sweep, or a subcommand's default when none is set.

        A configured sweep must run over the default's axis; a default meets
        the same domain checks as a configured sweep.
        """
        if self.sweep is None:
            return replace(self, sweep=default).sweep
        _require(
            self.sweep.axis == default.axis,
            f"this subcommand sweeps {default.axis!r}, config sweeps {self.sweep.axis!r}",
        )
        return self.sweep


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
    "output.path": ("out_path", str),
    "output.format": ("out_format", str),
    "fixed.alpha": ("fixed_alpha", float),
}


def parse_config(text: str) -> RunConfig:
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
    return RunConfig(**overrides)


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())
