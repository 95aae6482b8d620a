"""Run configuration: flat key=value files with dotted section keys.

Every key has a default filled in (50 m / 100 m geometry, path-loss exponent
2.5, 30 dB mean received SNR at the far user), so a bare invocation
reproduces the reference setup. Because the configuration fixes the received
SNR at the far user, the channel statistics follow from the geometry alone:
lambda_i = d_i**-n and rho_t = 10**(rho_r_db / 10) / lambda2.

RunConfig checks every value that comes from outside, once, when it is built:
unknown keys, repeated keys and malformed values (an empty list item among
them) are reported with their line numbers, out-of-domain values with their
key, all as ConfigError; load_config drops a leading byte-order mark and
reports a file that is not UTF-8 with the offset of its first bad byte. Each
domain rule has one owner, the library code that takes the value:
rates.validated_alpha for the power splits, sop.TargetRates for the target
rates, montecarlo.SimConfig for the seed and sample count, and the channel
statistics (mean_gain, rho_t_for_received_snr, ChannelStats) for the geometry,
the path-loss exponent and every SNR of the run. RunConfig calls the owner and
raises its error as a ConfigError that names each key and value. It checks on
its own only what no owner does: the output format, d1 < d2 (ChannelStats
admits ties), a nonempty SNR grid, and a sweep's axis and point count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .channel import ChannelStats, mean_gain, rho_t_for_received_snr, with_received_snr
from .montecarlo import SimConfig
from .rates import validated_alpha
from .sop import TargetRates

__all__ = ["ConfigError", "SweepSpec", "RunConfig", "parse_config", "load_config"]

# sweep axis -> the RunConfig field it sets
_SWEPT_FIELDS = {"alpha": "alpha", "rho_r_db": "rho_r_db", "d2_m": "d2_m", "rth1_bits": "rth1"}
_MAX_SWEEP_POINTS = 100_000  # default sweeps have at most 99 points


class ConfigError(ValueError):
    """Raised for unparseable or inconsistent run configuration."""


def _require(ok, message: str) -> None:
    if not ok:
        raise ConfigError(message)


def _owned(given: dict, owner, *args):
    """owner(*args), whose error is raised as a ConfigError naming each given key and value."""
    try:
        return owner(*args)
    except (ValueError, TypeError, ArithmeticError) as exc:
        named = ", ".join(f"{key} = {value!r}" for key, value in given.items())
        reason = str(exc)
        if isinstance(exc, ArithmeticError):  # a float ** beyond the range raises OverflowError
            reason = "a mean gain or transmit SNR overflows the floating-point range"
        raise ConfigError(f"{named}: {reason}") from exc


@dataclass(frozen=True)
class SweepSpec:
    axis: str
    start: float
    stop: float
    step: float

    def __post_init__(self) -> None:
        _require(
            self.axis in _SWEPT_FIELDS,
            f"sweep.axis = {self.axis!r}: sweep axis must be one of {tuple(_SWEPT_FIELDS)}",
        )
        named = f"sweep.start = {self.start!r}, sweep.stop = {self.stop!r}, sweep.step = {self.step!r}"
        _require(all(math.isfinite(x) for x in (self.start, self.stop, self.step)), f"{named}: each must be finite")
        _require(self.step > 0.0, f"{named}: the step must be positive")
        _require(self.stop >= self.start, f"{named}: the range is empty (stop < start)")
        # The point count is floor(span) + 1, so span < limit caps it at the limit.
        _require(self._span() < _MAX_SWEEP_POINTS, f"{named}: gives more than {_MAX_SWEEP_POINTS} points")

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
        _require(
            self.out_format in ("csv", "json"),
            f"output.format = {self.out_format!r}: output format must be csv or json",
        )
        _require(
            self.d1_m < self.d2_m,
            f"system.d1_m = {self.d1_m!r}, system.d2_m = {self.d2_m!r}: the near user must be nearer, d1_m < d2_m",
        )
        grid = self.validate_rho_r_grid_db
        _require(len(grid) > 0, f"validate.rho_r_grid_db = {grid!r}: need at least one SNR")
        for key, value in (("system.alpha", self.alpha), ("fixed.alpha", self.fixed_alpha)):
            _owned({key: value}, validated_alpha, value)
        _owned({"targets.rth1_bits": self.rth1, "targets.rth2_bits": self.rth2}, self.targets)
        _owned({"sim.realizations": self.realizations, "sim.seed": self.seed}, SimConfig, self.realizations, self.seed)
        geometry = {"system.d1_m": self.d1_m, "system.d2_m": self.d2_m, "system.path_loss_exp": self.path_loss_exp}
        stats = _owned({**geometry, "system.rho_r_db": self.rho_r_db}, self.stats)
        for snr in grid:
            _owned({**geometry, "validate.rho_r_grid_db": snr}, with_received_snr, stats, snr)
        # Each axis's domain is an interval and a sweep increases, so its first
        # and last values cover every point between.
        if self.sweep is not None:
            for end in self.sweep.values()[[0, -1]].tolist():
                try:
                    replace(self, sweep=None, **{_SWEPT_FIELDS[self.sweep.axis]: end})
                except ConfigError as exc:
                    raise ConfigError(f"sweep over {self.sweep.axis} reaches {end!r}: {exc}") from exc

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
    items = [part.strip() for part in raw.split(",")]
    if not any(items):
        raise ValueError("empty list")
    if not all(items):
        raise ValueError(f"empty item {items.index('') + 1} of {len(items)}")
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
    seen = {}  # key -> the line that set it
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
        if key in seen:
            raise ConfigError(f"line {lineno}: key {key!r} repeats line {seen[key]}")
        seen[key] = lineno
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
    with open(path, "rb") as handle:
        data = handle.read()
    try:  # Windows editors save UTF-8 with a leading byte-order mark
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8: byte {data[exc.start]:#04x} at offset {exc.start}") from exc
    return parse_config(text)
