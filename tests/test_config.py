import pathlib
import re

import numpy as np
import pytest

from noma_secrecy.config import (
    _KEYS,
    _MAX_SWEEP_POINTS,
    ConfigError,
    RunConfig,
    SweepSpec,
    load_config,
    parse_config,
)

FULL_TEXT = """
# geometry and radio
system.d1_m = 40
system.d2_m = 120
system.path_loss_exp = 3.0
system.rho_r_db = 25
system.alpha = 0.4

targets.rth1_bits = 0.5
targets.rth2_bits = 1.5

sweep.axis = rho_r_db
sweep.start = 10
sweep.stop = 40
sweep.step = 5

validate.rho_r_grid_db = 15, 25, 35
sim.realizations = 5000
sim.seed = 42
output.path = out.csv
output.format = json
fixed.alpha = 0.25
"""


def test_defaults_reproduce_reference_setup():
    cfg = RunConfig()
    assert cfg.d1_m == 50.0 and cfg.d2_m == 100.0
    assert cfg.path_loss_exp == 2.5 and cfg.rho_r_db == 30.0
    assert cfg.alpha == 0.5 and cfg.rth1 == 1.0 and cfg.rth2 == 1.0
    assert cfg.realizations == 10**6 and cfg.seed == 1
    assert cfg.validate_rho_r_grid_db == (20.0, 30.0, 40.0)
    assert cfg.out_format == "csv" and cfg.sweep is None


def test_full_file_round_trip():
    cfg = parse_config(FULL_TEXT)
    assert cfg.d1_m == 40.0 and cfg.d2_m == 120.0
    assert cfg.path_loss_exp == 3.0 and cfg.rho_r_db == 25.0
    assert cfg.alpha == 0.4
    assert cfg.rth1 == 0.5 and cfg.rth2 == 1.5
    assert cfg.sweep == SweepSpec("rho_r_db", 10.0, 40.0, 5.0)
    assert cfg.validate_rho_r_grid_db == (15.0, 25.0, 35.0)
    assert cfg.realizations == 5000 and cfg.seed == 42
    assert cfg.out_path == "out.csv" and cfg.out_format == "json"
    assert cfg.fixed_alpha == 0.25


def test_unknown_key_reports_line_number():
    with pytest.raises(ConfigError, match=r"line 2: unknown key 'system\.d3_m'"):
        parse_config("system.d1_m = 50\nsystem.d3_m = 1\n")
    # The Monte Carlo oracle counts every draw; the ordering-conditioned key is gone.
    with pytest.raises(ConfigError, match=r"line 1: unknown key 'sim\.condition_on_ordering'"):
        parse_config("sim.condition_on_ordering = false\n")


def test_bad_value_reports_line_number():
    with pytest.raises(ConfigError, match="line 1: bad value for system.d1_m"):
        parse_config("system.d1_m = fifty\n")


def test_missing_equals_sign_is_rejected():
    with pytest.raises(ConfigError, match="line 3: expected key = value"):
        parse_config("# comment\n\nsystem.d1_m 50\n")


def test_incomplete_sweep_is_rejected():
    with pytest.raises(ConfigError, match=r"incomplete sweep section, missing \['step', 'stop'\]"):
        parse_config("sweep.axis = alpha\nsweep.start = 0.1\n")


def test_bad_sweep_axis_is_rejected():
    text = "sweep.axis = bananas\nsweep.start = 0\nsweep.stop = 1\nsweep.step = 0.1\n"
    with pytest.raises(ConfigError, match="sweep axis must be one of"):
        parse_config(text)


def test_empty_sweep_range_is_rejected():
    with pytest.raises(ConfigError, match="stop < start"):
        SweepSpec("alpha", 0.9, 0.1, 0.1)
    with pytest.raises(ConfigError, match="step must be positive"):
        SweepSpec("alpha", 0.1, 0.9, 0.0)


def test_power_splits_must_lie_in_the_window():
    for key in ("system.alpha", "fixed.alpha"):
        for bad in ("0", "1e-7", "1", "1.5", "nan"):
            with pytest.raises(ConfigError, match=rf"{key} must lie within"):
                parse_config(f"{key} = {bad}\n")
        assert parse_config(f"{key} = 1e-6\n") is not None


def test_bool_and_list_parsing():
    # No key takes a boolean; integer keys refuse one.
    with pytest.raises(ConfigError, match="line 1: bad value for sim.seed"):
        parse_config("sim.seed = true\n")
    assert parse_config("validate.rho_r_grid_db = 10\n").validate_rho_r_grid_db == (10.0,)
    with pytest.raises(ConfigError, match="empty list"):
        parse_config("validate.rho_r_grid_db = ,\n")


def test_bad_output_format_is_rejected():
    with pytest.raises(ConfigError, match="output format must be csv or json"):
        parse_config("output.format = yaml\n")


def test_system_derivation_at_reference_point():
    cfg = RunConfig()
    # lambda_i = d_i**-n; 30 dB received SNR at 100 m with n = 2.5: rho_t = 1e8
    stats = cfg.stats()
    assert stats.lambda1 == 50.0 ** -2.5
    assert stats.lambda2 == 100.0 ** -2.5 == pytest.approx(1e-5, rel=1e-12)
    assert stats.rho_t == pytest.approx(1e8, rel=1e-12)
    targets = cfg.targets()
    assert targets.pi1 == 2.0 and targets.pi2 == 2.0


def _sweep(axis, start, stop, step):
    return f"sweep.axis = {axis}\nsweep.start = {start}\nsweep.stop = {stop}\nsweep.step = {step}\n"


@pytest.mark.parametrize(
    "text,match",
    [
        ("system.d1_m = 0\n", "0 < d1_m < d2_m"),
        ("system.d1_m = 200\n", "0 < d1_m < d2_m"),
        ("system.d1_m = 100\n", "0 < d1_m < d2_m"),
        ("system.d1_m = nan\n", "0 < d1_m < d2_m"),
        ("system.d2_m = inf\n", "0 < d1_m < d2_m"),
        ("system.path_loss_exp = 0\n", "path_loss_exp must be finite and positive"),
        ("system.path_loss_exp = inf\n", "path_loss_exp must be finite and positive"),
        ("system.path_loss_exp = 1000\n", "floating-point range"),
        ("system.d1_m = 1e-300\n", "floating-point range"),
        ("system.rho_r_db = nan\n", "rho_r_db must be finite"),
        ("system.rho_r_db = 4000\n", "floating-point range"),
        ("validate.rho_r_grid_db = 20, inf\n", "rho_r_grid_db must be a nonempty list of finite values"),
        ("validate.rho_r_grid_db = -4000\n", "floating-point range"),
        ("targets.rth1_bits = -1\n", r"rth1_bits must lie within \[0, 1024\)"),
        ("targets.rth2_bits = nan\n", r"rth2_bits must lie within \[0, 1024\)"),
        ("targets.rth2_bits = 1024\n", r"rth2_bits must lie within \[0, 1024\)"),
        ("sim.realizations = 0\n", "realizations must be at least 1"),
        ("sim.seed = -3\n", "seed must lie within"),
        (f"sim.seed = {2**128}\n", "seed must lie within"),
        (_sweep("alpha", 0, 0.5, 0.1), "must lie within"),
        (_sweep("d2_m", 40, 100, 10), "must exceed system.d1_m"),
        (_sweep("rth1_bits", -1, 2, 0.5), r"must lie within \[0, 1024\)"),
        (_sweep("rth1_bits", 1000, 1100, 50), r"must lie within \[0, 1024\)"),
        (_sweep("rho_r_db", 10, 4000, 10), "floating-point range"),
        (_sweep("rho_r_db", 10, "nan", 10), "must be finite"),
        (_sweep("rho_r_db", 10, 40, "inf"), "must be finite"),
        (_sweep("alpha", 0.01, 0.99, 1e-300), "gives more than 100000 points"),
        (_sweep("alpha", 0.01, 0.99, 1e-9), "gives more than 100000 points"),
        (_sweep("rho_r_db", -1e308, 1e308, 1), "gives more than 100000 points"),
    ],
    ids=[
        "d1-zero", "d1-beyond-d2", "d1-equals-d2", "d1-nan", "d2-infinite",
        "exp-zero", "exp-infinite", "gain-underflow", "gain-overflow",
        "rho-r-nan", "rho-t-overflow", "grid-infinite", "grid-rho-t-underflow",
        "rth1-negative", "rth2-nan", "rth2-overflow", "realizations-zero",
        "seed-negative", "seed-past-philox-keys", "alpha-sweep-outside-window",
        "d2-sweep-inside-d1", "rth1-sweep-negative", "rth1-sweep-overflow", "rho-sweep-overflow",
        "sweep-stop-nan", "sweep-step-infinite", "sweep-step-tiny", "sweep-billion-points",
        "sweep-count-infinite",
    ],
)
def test_out_of_domain_values_are_config_errors(text, match):
    with pytest.raises(ConfigError, match=match):
        parse_config(text)


@pytest.mark.parametrize("key,attr", [("sim.seed", "seed"), ("sim.realizations", "realizations")])
def test_seed_and_realizations_must_be_integers(key, attr):
    # Philox truncates a float or bool key (seed 1.5 or True would draw seed 1's
    # stream), and a float sample count would fail inside the Monte Carlo kernel.
    for value in (1.5, 2000.0, True):
        with pytest.raises(ConfigError, match=rf"{key} must be an integer, got {value!r}"):
            RunConfig(**{attr: value})
    assert getattr(RunConfig(**{attr: np.int64(5)}), attr) == 5


def test_seed_leaves_room_for_one_stream_per_snr():
    # Philox keys stop at 2**128 - 1; validate counts its whole SNR grid on the
    # one stream keyed by the seed, so every key is usable with any grid.
    cfg = parse_config(f"sim.seed = {2**128 - 1}\n")
    assert cfg.seed == 2**128 - 1 and len(cfg.validate_rho_r_grid_db) == 3


def test_default_sweeps_meet_the_same_checks():
    default = SweepSpec("d2_m", 60.0, 150.0, 10.0)
    assert RunConfig().sweep_or(default) == default
    with pytest.raises(ConfigError, match="must exceed system.d1_m"):
        RunConfig(d1_m=70.0, d2_m=100.0).sweep_or(default)
    other = parse_config(_sweep("alpha", 0.1, 0.9, 0.1))
    with pytest.raises(ConfigError, match="this subcommand sweeps 'd2_m', config sweeps 'alpha'"):
        other.sweep_or(default)



def test_sweep_point_count_is_capped():
    assert len(SweepSpec("alpha", 0.0, _MAX_SWEEP_POINTS - 1.0, 1.0).values()) == _MAX_SWEEP_POINTS
    with pytest.raises(ConfigError, match="gives more than"):
        SweepSpec("alpha", 0.0, float(_MAX_SWEEP_POINTS), 1.0)


def test_sweep_values_are_inclusive():
    assert np.allclose(SweepSpec("rho_r_db", 10.0, 35.0, 5.0).values(), [10, 15, 20, 25, 30, 35])
    values = SweepSpec("alpha", 0.1, 0.7, 0.1).values()
    assert len(values) == 7
    assert values[-1] == pytest.approx(0.7, abs=1e-12)


def test_example_config_names_every_key_at_its_default():
    # README promises that scripts/example.cfg lists every key, active or commented out.
    path = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "example.cfg"
    named = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        match = re.fullmatch(r"#?\s*([a-z0-9_]+\.[a-z0-9_]+)\s*=.*", line.strip())
        if match:
            named.add(match.group(1))
    assert named == set(_KEYS)
    assert load_config(str(path)) == RunConfig()


def test_load_config_reads_files(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("system.rho_r_db = 20\nsim.seed = 3\n", encoding="utf-8")
    cfg = load_config(str(path))
    assert cfg.rho_r_db == 20.0 and cfg.seed == 3

