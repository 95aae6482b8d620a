import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noma_secrecy.channel import ChannelStats, mean_gain, rho_t_for_received_snr
from noma_secrecy.cli import main
from noma_secrecy.config import (
    _KEYS,
    _MAX_SWEEP_POINTS,
    _SWEPT_FIELDS,
    ConfigError,
    RunConfig,
    SweepSpec,
    load_config,
    parse_config,
)
from noma_secrecy.montecarlo import SimConfig
from noma_secrecy.rates import ALPHA_MAX, ALPHA_MIN, validated_alpha
from noma_secrecy.sop import TargetRates

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


def test_repeated_key_reports_both_lines(tmp_path, capsys):
    # A repeated key is refused, not silently set to its last value.
    text = "system.d2_m = 120\n# far user\nsystem.d2_m = 80\n"
    with pytest.raises(ConfigError, match=r"^line 3: key 'system\.d2_m' repeats line 1$"):
        parse_config(text)
    with pytest.raises(ConfigError, match=r"^line 5: key 'sweep\.step' repeats line 4$"):
        parse_config(_sweep("alpha", 0.1, 0.9, 0.1) + "sweep.step = 0.2\n")
    path = tmp_path / "repeated.cfg"
    path.write_text(text, encoding="utf-8")
    assert main(["optimize", "--config", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["config error: line 3: key 'system.d2_m' repeats line 1"]


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
            with pytest.raises(ConfigError, match=re.escape(f"{key} = {float(bad)!r}: power split alpha must lie within")):
                parse_config(f"{key} = {bad}\n")
        assert parse_config(f"{key} = 1e-6\n") is not None


def test_bool_and_list_parsing():
    # No key takes a boolean; integer keys refuse one.
    with pytest.raises(ConfigError, match="line 1: bad value for sim.seed"):
        parse_config("sim.seed = true\n")
    assert parse_config("validate.rho_r_grid_db = 10\n").validate_rho_r_grid_db == (10.0,)
    with pytest.raises(ConfigError, match="empty list"):
        parse_config("validate.rho_r_grid_db = ,\n")
    # An empty item is refused, not dropped.
    with pytest.raises(ConfigError, match=r"line 2: bad value for validate\.rho_r_grid_db: empty item 2 of 3$"):
        parse_config("sim.seed = 3\nvalidate.rho_r_grid_db = 20,,30\n")
    with pytest.raises(ConfigError, match=r"line 1: bad value for validate\.rho_r_grid_db: empty item 3 of 3$"):
        parse_config("validate.rho_r_grid_db = 20, 30,\n")


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
        ("system.d1_m = 0\n", r"system\.d1_m = 0\.0, .*: distance and path-loss exponent must be positive"),
        ("system.d1_m = 200\n", r"system\.d1_m = 200\.0, system\.d2_m = 100\.0: .*d1_m < d2_m"),
        ("system.d1_m = 100\n", r"system\.d1_m = 100\.0, system\.d2_m = 100\.0: .*d1_m < d2_m"),
        ("system.d1_m = nan\n", r"system\.d1_m = nan, system\.d2_m = 100\.0: .*d1_m < d2_m"),
        ("system.d2_m = inf\n", r"system\.d2_m = inf, .*: lambda2 must be positive"),
        ("system.path_loss_exp = 0\n", r"system\.path_loss_exp = 0\.0, .*: distance and path-loss exponent must be positive"),
        ("system.path_loss_exp = inf\n", r"system\.path_loss_exp = inf, .*: lambda2 must be positive"),
        ("system.path_loss_exp = 1000\n", r"system\.path_loss_exp = 1000\.0, .*: lambda2 must be positive"),
        ("system.d1_m = 1e-300\n", r"system\.d1_m = 1e-300, .*: .*floating-point range"),
        ("system.rho_r_db = nan\n", r"system\.rho_r_db = nan: mean gains and transmit SNR must be finite"),
        ("system.rho_r_db = 4000\n", r"system\.rho_r_db = 4000\.0: .*floating-point range"),
        ("validate.rho_r_grid_db = 20, inf\n", r"validate\.rho_r_grid_db = inf: mean gains and transmit SNR must be finite"),
        ("validate.rho_r_grid_db = -4000\n", r"validate\.rho_r_grid_db = -4000\.0: transmit SNR must be positive"),
        ("targets.rth1_bits = -1\n", r"targets\.rth1_bits = -1\.0, .*: .*must lie within \[0, 1024\)"),
        ("targets.rth2_bits = nan\n", r"targets\.rth2_bits = nan: .*must lie within \[0, 1024\)"),
        ("targets.rth2_bits = 1024\n", r"targets\.rth2_bits = 1024\.0: .*must lie within \[0, 1024\)"),
        ("sim.realizations = 0\n", r"sim\.realizations = 0, .*: need at least one realization"),
        ("sim.seed = -3\n", r"sim\.seed = -3: seed must lie within"),
        (f"sim.seed = {2**128}\n", rf"sim\.seed = {2**128}: seed must lie within"),
        (_sweep("alpha", 0, 0.5, 0.1), r"sweep over alpha reaches 0\.0: system\.alpha = 0\.0: .*must lie within"),
        (_sweep("d2_m", 40, 100, 10), r"sweep over d2_m reaches 40\.0: .*system\.d2_m = 40\.0: .*d1_m < d2_m"),
        (_sweep("rth1_bits", -1, 2, 0.5), r"sweep over rth1_bits reaches -1\.0: targets\.rth1_bits = -1\.0, .*\[0, 1024\)"),
        (_sweep("rth1_bits", 1000, 1100, 50), r"sweep over rth1_bits reaches 1100\.0: targets\.rth1_bits = 1100\.0, .*\[0, 1024\)"),
        (_sweep("rho_r_db", 10, 4000, 10), r"sweep over rho_r_db reaches 4000\.0: .*system\.rho_r_db = 4000\.0: .*floating-point range"),
        (_sweep("rho_r_db", 10, "nan", 10), r"sweep\.start = 10\.0, sweep\.stop = nan, .*must be finite"),
        (_sweep("rho_r_db", 10, 40, "inf"), r"sweep\.step = inf: .*must be finite"),
        (_sweep("alpha", 0.01, 0.99, 1e-300), r"sweep\.step = 1e-300: gives more than 100000 points"),
        (_sweep("alpha", 0.01, 0.99, 1e-9), r"sweep\.step = 1e-09: gives more than 100000 points"),
        (_sweep("rho_r_db", -1e308, 1e308, 1), r"sweep\.start = -1e\+308, sweep\.stop = 1e\+308, .*gives more than 100000 points"),
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
def test_out_of_domain_values_are_config_errors(tmp_path, capsys, text, match):
    with pytest.raises(ConfigError, match=match):
        parse_config(text)
    # The command line refuses the same file with the same message.
    path = tmp_path / "bad.cfg"
    path.write_text(text, encoding="utf-8")
    assert main(["optimize", "--config", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and re.match(r"config error: .*" + match, err[0])


@pytest.mark.parametrize("key,attr", [("sim.seed", "seed"), ("sim.realizations", "realizations")])
def test_seed_and_realizations_must_be_integers(key, attr):
    # Philox truncates a float or bool key (seed 1.5 or True would draw seed 1's
    # stream), and a float sample count would fail inside the Monte Carlo kernel.
    # Both keys are shown with their values; the reason names the one at fault.
    for value in (1.5, 2000.0, True):
        reason = re.escape(f": {attr} must be an integer, not {value!r}") + "$"
        with pytest.raises(ConfigError, match=re.escape(f"{key} = {value!r}") + "(, .*)?" + reason):
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
    with pytest.raises(ConfigError, match=r"sweep over d2_m reaches 60\.0: system\.d1_m = 70\.0, system\.d2_m = 60\.0: "):
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


def test_load_config_refuses_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes("system.rho_r_db = 20\n# café\n".encode("latin-1"))
    with pytest.raises(ConfigError, match=re.escape(f"{path}: not UTF-8: byte 0xe9 at offset 26")):
        load_config(str(path))


def test_load_config_drops_a_byte_order_mark(tmp_path):
    # Windows editors save UTF-8 with a byte-order mark (utf-8-sig).
    text = "sim.realizations = 5000\nsystem.rho_r_db = 20\n"
    path = tmp_path / "bom.cfg"
    path.write_text(text, encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_config(str(path)) == parse_config(text)
    # A bad byte after the mark is reported at its offset in the file.
    path.write_bytes(b"\xef\xbb\xbf" + "system.rho_r_db = 20\n# café\n".encode("latin-1"))
    with pytest.raises(ConfigError, match=re.escape(f"{path}: not UTF-8: byte 0xe9 at offset 29")):
        load_config(str(path))


def _refuses(call) -> bool:
    try:
        call()
    except (ValueError, TypeError, ArithmeticError):
        return True
    return False


def _channel_at_every_snr(**fields):
    """ChannelStats at every SNR of a run, from the channel functions alone."""
    run = {"d1_m": 50.0, "d2_m": 100.0, "path_loss_exp": 2.5, "rho_r_db": 30.0,
           "validate_rho_r_grid_db": (20.0, 30.0, 40.0)} | fields
    lam1 = mean_gain(run["d1_m"], run["path_loss_exp"])
    lam2 = mean_gain(run["d2_m"], run["path_loss_exp"])
    for snr in (run["rho_r_db"], *run["validate_rho_r_grid_db"]):
        ChannelStats(lam1, lam2, rho_t_for_received_snr(snr, lam2))


def _near(*points):
    return st.sampled_from([math.nextafter(x, d) for x in points for d in (-math.inf, math.inf)] + list(points))


_SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf])
_ALPHAS = st.floats(-0.5, 1.5) | _near(ALPHA_MIN, ALPHA_MAX, 0.0, 1.0) | _SPECIAL
_RATES = st.floats(-1e-3, 1e-3) | st.floats(1023.0, 1025.0) | _near(0.0, 1024.0) | _SPECIAL
# Transmit SNRs overflow near 3032 dB (10**(x/10) / lambda2) and 10**(x/10) underflows to 0 below -3233 dB.
_SNRS = st.floats(-50.0, 80.0) | st.floats(3000.0, 3100.0) | st.floats(-3300.0, -3200.0) | _SPECIAL
_INTEGER_LIKE = st.sampled_from([True, False, 1.0, 2.5, 1e6])

# field -> (key, values across and just outside its domain, the library call that owns the rule)
_OWNED = {
    "alpha": ("system.alpha", _ALPHAS, validated_alpha),
    "fixed_alpha": ("fixed.alpha", _ALPHAS, validated_alpha),
    "rth1": ("targets.rth1_bits", _RATES, lambda v: TargetRates(v, 1.0)),
    "rth2": ("targets.rth2_bits", _RATES, lambda v: TargetRates(1.0, v)),
    "seed": ("sim.seed", st.integers(-3, 3) | st.integers(2**128 - 3, 2**128 + 3) | _INTEGER_LIKE,
             lambda v: SimConfig(seed=v)),
    "realizations": ("sim.realizations", st.integers(-3, 3) | _INTEGER_LIKE, lambda v: SimConfig(realizations=v)),
    "rho_r_db": ("system.rho_r_db", _SNRS, lambda v: _channel_at_every_snr(rho_r_db=v)),
    "validate_rho_r_grid_db": ("validate.rho_r_grid_db", _SNRS.map(lambda v: (20.0, v)),
                               lambda v: _channel_at_every_snr(validate_rho_r_grid_db=v)),
    # Exponents past about 152 overflow rho_t = 1e4 / 100**-n, past about 190 50**-n underflows.
    "path_loss_exp": ("system.path_loss_exp", st.floats(-1.0, 10.0) | st.floats(140.0, 200.0) | _near(0.0) | _SPECIAL,
                      lambda v: _channel_at_every_snr(path_loss_exp=v)),
    # d1 below the default d2 = 100 m and d2 above the default d1 = 50 m, so only owned rules can fail.
    "d1_m": ("system.d1_m", st.floats(-1.0, 99.0) | st.floats(-125.0, -121.0).map(lambda e: 10.0**e),
             lambda v: _channel_at_every_snr(d1_m=v)),
    "d2_m": ("system.d2_m", st.floats(121.0, 131.0).map(lambda e: 10.0**e) | st.just(math.inf),
             lambda v: _channel_at_every_snr(d2_m=v)),
}


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(_OWNED)).flatmap(lambda field: st.tuples(st.just(field), _OWNED[field][1])))
def test_config_refuses_exactly_what_the_owning_library_call_refuses(case):
    field, value = case
    key, _, owner = _OWNED[field]
    if not _refuses(lambda: owner(value)):
        assert getattr(RunConfig(**{field: value}), field) == value
        return
    with pytest.raises(ConfigError) as refused:
        RunConfig(**{field: value})
    named = value[-1] if field == "validate_rho_r_grid_db" else value
    assert f"{key} = {named!r}" in str(refused.value)


# axis -> domain edges that a sweep starts near
_SWEEP_EDGES = {"alpha": (ALPHA_MIN, ALPHA_MAX), "rth1_bits": (0.0, 1024.0), "rho_r_db": (-3233.0, 3032.5),
                "d2_m": (50.0, 1.3e122)}


@st.composite
def _sweeps(draw):
    axis = draw(st.sampled_from(sorted(_SWEEP_EDGES)))
    edge = draw(st.sampled_from(_SWEEP_EDGES[axis]))
    scale = max(abs(edge), 1.0) * 1e-2
    start = edge + scale * draw(st.floats(-1.0, 1.0))
    step = scale * draw(st.floats(0.01, 1.0))
    return SweepSpec(axis, start, start + step * draw(st.integers(0, 20)), step)


@settings(max_examples=200, deadline=None)
@given(_sweeps())
def test_a_sweep_is_valid_exactly_when_every_point_is(sweep):
    # Each axis's domain is an interval, so the config checks a sweep's two ends only.
    field = _SWEPT_FIELDS[sweep.axis]
    points_valid = not any(_refuses(lambda: RunConfig(**{field: float(x)})) for x in sweep.values())
    assert points_valid == (not _refuses(lambda: RunConfig(sweep=sweep)))
