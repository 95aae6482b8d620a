import numpy as np
import pytest

from noma_secrecy.config import ConfigError, RunConfig, SweepSpec, load_config, parse_config

FULL_TEXT = """
# geometry and radio
system.d1_m = 40
system.d2_m = 120
system.path_loss_exp = 3.0
system.path_loss_const = 2.0
system.noise_dbm = -70
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
sim.condition_on_ordering = yes
output.path = out.csv
output.format = json
fixed.alpha = 0.25
"""


def test_defaults_reproduce_reference_setup():
    cfg = RunConfig()
    assert cfg.d1_m == 50.0 and cfg.d2_m == 100.0
    assert cfg.path_loss_exp == 2.5 and cfg.path_loss_const == 1.0
    assert cfg.noise_dbm == -60.0 and cfg.rho_r_db == 30.0
    assert cfg.alpha == 0.5 and cfg.rth1 == 1.0 and cfg.rth2 == 1.0
    assert cfg.realizations == 10**6 and cfg.seed == 1
    assert cfg.validate_rho_r_grid_db == (20.0, 30.0, 40.0)
    assert cfg.out_format == "csv" and cfg.sweep is None


def test_full_file_round_trip():
    cfg = parse_config(FULL_TEXT)
    assert cfg.d1_m == 40.0 and cfg.d2_m == 120.0
    assert cfg.path_loss_exp == 3.0 and cfg.path_loss_const == 2.0
    assert cfg.noise_dbm == -70.0 and cfg.rho_r_db == 25.0
    assert cfg.alpha == 0.4
    assert cfg.rth1 == 0.5 and cfg.rth2 == 1.5
    assert cfg.sweep == SweepSpec("rho_r_db", 10.0, 40.0, 5.0)
    assert cfg.validate_rho_r_grid_db == (15.0, 25.0, 35.0)
    assert cfg.realizations == 5000 and cfg.seed == 42
    assert cfg.condition_on_ordering is True
    assert cfg.out_path == "out.csv" and cfg.out_format == "json"
    assert cfg.fixed_alpha == 0.25


def test_unknown_key_reports_line_number():
    with pytest.raises(ConfigError, match=r"line 2: unknown key 'system\.d3_m'"):
        parse_config("system.d1_m = 50\nsystem.d3_m = 1\n")


def test_bad_value_reports_line_number():
    with pytest.raises(ConfigError, match="line 1: bad value for system.d1_m"):
        parse_config("system.d1_m = fifty\n")
    with pytest.raises(ConfigError, match="line 1: bad value for sim.condition_on_ordering"):
        parse_config("sim.condition_on_ordering = maybe\n")


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
    assert parse_config("sim.condition_on_ordering = TRUE\n").condition_on_ordering is True
    assert parse_config("sim.condition_on_ordering = 0\n").condition_on_ordering is False
    assert parse_config("validate.rho_r_grid_db = 10\n").validate_rho_r_grid_db == (10.0,)
    with pytest.raises(ConfigError, match="empty list"):
        parse_config("validate.rho_r_grid_db = ,\n")


def test_bad_output_format_is_rejected():
    with pytest.raises(ConfigError, match="output format must be csv or json"):
        parse_config("output.format = yaml\n")


def test_system_derivation_at_reference_point():
    cfg = RunConfig()
    system = cfg.system()
    # -60 dBm noise and 30 dB received SNR at 100 m with n = 2.5: P_t = 0.1 W
    assert system.noise_power == pytest.approx(1e-9, rel=1e-12)
    assert system.transmit_power == pytest.approx(0.1, rel=1e-9)
    stats = cfg.stats()
    assert stats.lambda1 == pytest.approx(50.0 ** -2.5, rel=1e-12)
    assert stats.lambda2 == pytest.approx(1e-5, rel=1e-12)
    assert stats.rho_t == pytest.approx(1e8, rel=1e-9)
    targets = cfg.targets()
    assert targets.pi1 == 2.0 and targets.pi2 == 2.0
    sim = cfg.sim()
    assert sim.realizations == 10**6 and sim.seed == 1


def test_sweep_values_are_inclusive():
    assert np.allclose(SweepSpec("rho_r_db", 10.0, 35.0, 5.0).values(), [10, 15, 20, 25, 30, 35])
    values = SweepSpec("alpha", 0.1, 0.7, 0.1).values()
    assert len(values) == 7
    assert values[-1] == pytest.approx(0.7, abs=1e-12)


def test_load_config_reads_files(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("system.rho_r_db = 20\nsim.seed = 3\n", encoding="utf-8")
    cfg = load_config(str(path))
    assert cfg.rho_r_db == 20.0 and cfg.seed == 3


def test_base_config_is_extended_not_replaced():
    base = parse_config("system.rho_r_db = 20\n")
    derived = parse_config("sim.seed = 9\n", base)
    assert derived.rho_r_db == 20.0 and derived.seed == 9
