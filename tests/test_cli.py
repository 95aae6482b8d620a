import json
import os
import pathlib
import subprocess
import sys
import warnings

import pytest

from noma_secrecy import cli, sop
from noma_secrecy.channel import ChannelStats
from noma_secrecy.cli import main
from noma_secrecy.optimize import minmax_pa
from noma_secrecy.sop import SopValue, TargetRates, exact_sop_near

FAST_SIM = "sim.realizations = 50000\n"
SMALL_MINMAX = "sweep.axis = rth1_bits\nsweep.start = 1\nsweep.stop = 2\nsweep.step = 0.5\n"
SMALL_GAIN = "sweep.axis = rho_r_db\nsweep.start = 20\nsweep.stop = 30\nsweep.step = 10\n"

EXPECTED_HEADERS = {
    "validate": "rho_r_db,rth1_bits,so1_exact,so1_sim,abs_diff,bound_3sigma,within_bound,rmse_curve",
    "distance-sweep": "d2_m,so1_exact,so2_exact,so1_asym,so2_asym",
    "optimize": "alpha,so1_exact,so2_exact,so1_asym,so2_asym",
    "minmax": "rth1_bits,alpha1_star,alpha2_star,alpha3_star,alpha_sop,max_sop",
    "gain-comparison": (
        "rho_r_db,alpha_sop,max_sop_opt,max_sop_fixed,max_sop_near_opt,"
        "max_sop_far_opt,gain_fixed_pct,gain_near_pct,gain_far_pct"
    ),
}


def run_to_file(tmp_path, command, config_text="", fmt="csv", extra=()):
    name = command.replace("-", "_")
    cfg_path = tmp_path / f"{name}.cfg"
    cfg_path.write_text(config_text, encoding="utf-8")
    out_path = tmp_path / f"{name}.{fmt}"
    argv = [command, "--config", str(cfg_path), "--out", str(out_path), "--format", fmt]
    argv.extend(extra)
    code = main(argv)
    return code, out_path.read_bytes()


CASES = [
    ("validate", FAST_SIM),
    ("distance-sweep", ""),
    ("optimize", ""),
    ("minmax", SMALL_MINMAX),
    ("gain-comparison", SMALL_GAIN),
]


@pytest.mark.parametrize("command,config_text", CASES)
def test_reruns_are_byte_identical(tmp_path, command, config_text):
    code1, first = run_to_file(tmp_path, command, config_text)
    code2, second = run_to_file(tmp_path, command, config_text)
    assert code1 == 0 and code2 == 0
    assert first == second


@pytest.mark.parametrize("command,config_text", CASES)
def test_csv_headers(tmp_path, command, config_text):
    code, payload = run_to_file(tmp_path, command, config_text)
    assert code == 0
    header = payload.decode("utf-8").splitlines()[0]
    assert header == EXPECTED_HEADERS[command]


def test_validate_detects_broken_analytics(tmp_path, monkeypatch):
    def skewed(stats, alpha, targets):
        real = exact_sop_near(stats, alpha, targets)
        return SopValue(min(real.value + 0.05, 1.0), real.quad_error)

    monkeypatch.setattr(cli, "exact_sop_near", skewed)
    code, payload = run_to_file(tmp_path, "validate", FAST_SIM)
    assert code == 1
    assert ",0," in payload.decode("utf-8")  # some within_bound flags dropped to 0


def test_unknown_config_key_exits_two(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("system.frequency_ghz = 2.4\n", encoding="utf-8")
    assert main(["optimize", "--config", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err


def test_wrong_sweep_axis_exits_two(tmp_path):
    cfg = tmp_path / "axis.cfg"
    cfg.write_text("sweep.axis = alpha\nsweep.start = 0.1\nsweep.stop = 0.9\nsweep.step = 0.1\n")
    assert main(["validate", "--config", str(cfg), "--samples", "100"]) == 2


def test_distance_sweep_must_stay_beyond_near_user(tmp_path):
    cfg = tmp_path / "too_close.cfg"
    cfg.write_text("sweep.axis = d2_m\nsweep.start = 30\nsweep.stop = 60\nsweep.step = 10\n")
    assert main(["distance-sweep", "--config", str(cfg)]) == 2


def test_negative_seed_exits_two():
    assert main(["validate", "--seed", "-1"]) == 2


def test_monte_carlo_flags_are_validate_only(capsys):
    # The other subcommands draw no samples, so they have no seed or sample count.
    with pytest.raises(SystemExit) as exited:
        main(["optimize", "--seed", "1"])
    assert exited.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_zero_samples_exits_two():
    assert main(["validate", "--samples", "0"]) == 2


def test_empty_sweep_range_exits_two(tmp_path):
    cfg = tmp_path / "range.cfg"
    cfg.write_text("sweep.axis = alpha\nsweep.start = 0.9\nsweep.stop = 0.1\nsweep.step = 0.1\n")
    assert main(["optimize", "--config", str(cfg)]) == 2


def test_missing_config_file_exits_two(tmp_path):
    assert main(["optimize", "--config", str(tmp_path / "absent.cfg")]) == 2


def test_bad_format_flag_is_rejected_by_parser():
    # --conditioned is gone with the ordering-conditioned Monte Carlo mode.
    for argv in (["optimize", "--format", "yaml"], ["validate", "--conditioned"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2


def test_optimize_json_reports_degenerate_closed_forms(tmp_path):
    # Closed forms outside the window [1e-6, 1 - 1e-6] are flagged degenerate:
    # a zero rate puts them on its boundary, a tiny one just inside (0, 1).
    # At 60 bits both are 0.5 to within 1e-19.
    for rate, alpha1, alpha2, degenerate in (
        ("0", 0.0, 1.0, True),
        ("60", 0.5, 0.5, False),
        ("1e-13", 2.632e-7, 1.0 - 2.632e-7, True),
    ):
        config = f"targets.rth1_bits = {rate}\ntargets.rth2_bits = {rate}\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, payload = run_to_file(tmp_path, "optimize", config, fmt="json")
        assert code == 0
        doc = json.loads(payload)
        summary = doc["summary"]
        assert summary["alpha1_hat"] == {"alpha": pytest.approx(alpha1, abs=1e-10), "degenerate": degenerate}
        assert summary["alpha2_hat"] == {"alpha": pytest.approx(alpha2, abs=1e-10), "degenerate": degenerate}
    assert set(doc) == {"rows", "summary"}
    assert len(doc["rows"]) == 99
    assert doc["rows"][0]["alpha"] == pytest.approx(0.01)


def test_optimize_rows_match_direct_evaluation(tmp_path):
    code, payload = run_to_file(tmp_path, "optimize", "", fmt="json")
    assert code == 0
    doc = json.loads(payload)
    stats = ChannelStats(50.0 ** -2.5, 100.0 ** -2.5, 1e8)
    targets = TargetRates(1.0, 1.0)
    for row in doc["rows"][:3]:
        direct = exact_sop_near(stats, row["alpha"], targets).value
        assert row["so1_exact"] == pytest.approx(direct, rel=1e-9)


def test_optimize_summary_carries_the_fair_split(tmp_path):
    # At defaults (rth1 = rth2 = 1) the fair split is minmax's rth1 = 1 row.
    code, payload = run_to_file(tmp_path, "optimize", "", fmt="json")
    assert code == 0
    summary = json.loads(payload)["summary"]
    row = (GOLDEN / "minmax.csv").read_text(encoding="utf-8").splitlines()[2].split(",")
    assert row[0] == "1"
    printed = [cli._fmt(summary["alpha_sop"]), cli._fmt(summary["max_sop"])]
    assert printed == row[4:6] == ["0.585269741092", "0.00580375218543"]


def test_optimize_sweep_that_misses_the_minimizers_passes_its_check(tmp_path):
    # Both minimizers (0.4164 and 0.5853) lie right of this window, so each
    # curve's grid argmin is the window's right edge.
    config = "sweep.axis = alpha\nsweep.start = 0.01\nsweep.stop = 0.2\nsweep.step = 0.01\n"
    code, payload = run_to_file(tmp_path, "optimize", config, fmt="json")
    assert code == 0
    doc = json.loads(payload)
    assert doc["summary"]["curve_minima_consistent"] is True
    assert doc["summary"]["alpha1_star"] > 0.2 and doc["summary"]["alpha2_star"] > 0.2
    assert len(doc["rows"]) == 20


def _count_kernel_passes(monkeypatch) -> list:
    """Wrap the quadrature kernel; the list gets each pass's moment count."""
    calls = []
    kernel = sop._survival_integral

    def counted(*args, **kwargs):
        calls.append(kwargs.get("moments", 0))
        return kernel(*args, **kwargs)

    monkeypatch.setattr(sop, "_survival_integral", counted)
    return calls


def test_distance_sweep_takes_one_kernel_pass_per_distance(monkeypatch, capsys):
    calls = _count_kernel_passes(monkeypatch)
    assert main(["distance-sweep"]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines()[1:] if not line.startswith("#")]
    assert len(rows) == 10
    assert len(calls) == len(rows)


def test_optimize_solves_both_minimizers_in_one_bracket_pass(monkeypatch, capsys):
    # One order-3 pass (6 moments) brackets both users' minimizers at once.
    calls = _count_kernel_passes(monkeypatch)
    assert main(["optimize"]) == 0
    capsys.readouterr()
    assert calls.count(6) == 1


def test_gain_comparison_summary_carries_reference_numbers(tmp_path):
    code, payload = run_to_file(tmp_path, "gain-comparison", SMALL_GAIN, fmt="json")
    assert code == 0
    summary = json.loads(payload)["summary"]
    assert summary["reference_gain_fixed_pct"] == 55.12
    assert summary["reference_gain_near_pct"] == 69.30
    assert summary["reference_gain_far_pct"] == 19.11
    assert "unspecified protocol" in summary["reference_note"]
    assert summary["dominance_at_every_point"] is True
    for key in ("avg_gain_fixed_pct", "avg_gain_near_pct", "avg_gain_far_pct"):
        assert summary[key] >= 0.0


def test_minmax_json_summary_flags(tmp_path):
    code, payload = run_to_file(tmp_path, "minmax", SMALL_MINMAX, fmt="json")
    assert code == 0
    summary = json.loads(payload)["summary"]
    assert summary["grid_dominance"] is True
    assert summary["alpha_sop_nonincreasing"] is True
    assert summary["objective_nondecreasing"] is True


def test_stdout_output_when_no_file_given(capsys):
    assert main(["distance-sweep"]) == 0
    captured = capsys.readouterr().out
    lines = captured.splitlines()
    assert lines[0] == EXPECTED_HEADERS["distance-sweep"]
    assert any(line.startswith("# so1_nonincreasing = ") for line in lines)


def test_parser_lists_all_subcommands():
    parser = cli.build_parser()
    assert parser.prog == "noma-secrecy"
    help_text = parser.format_help()
    for name in ("validate", "distance-sweep", "optimize", "minmax", "gain-comparison"):
        assert name in help_text


def test_minmax_reproducer_reaches_true_optimum(tmp_path):
    # At 40 dB with the far user at 60 m the SOPs are about 2.5e-4, so an
    # absolute grid slack of 1e-3 would pass any split in the window.
    config = (
        "system.d2_m = 60\nsystem.rho_r_db = 40\ntargets.rth2_bits = 0.25\n"
        "sweep.axis = rth1_bits\nsweep.start = 0.5\nsweep.stop = 0.5\nsweep.step = 0.5\n"
    )
    code, payload = run_to_file(tmp_path, "minmax", config, fmt="json")
    assert code == 0
    doc = json.loads(payload)
    (row,) = doc["rows"]
    assert row["max_sop"] <= 2.532e-4
    assert row["alpha_sop"] == pytest.approx(0.567, abs=1e-3)
    assert doc["summary"]["grid_dominance"] is True


def test_minmax_flags_a_split_worse_than_the_grid(tmp_path, monkeypatch):
    def detuned(stats, targets):
        outcome = minmax_pa(stats, targets)
        return outcome._replace(objective=outcome.objective * (1.0 + 1e-5))

    monkeypatch.setattr(cli, "minmax_pa", detuned)
    code, payload = run_to_file(tmp_path, "minmax", SMALL_MINMAX, fmt="json")
    assert code == 1
    assert json.loads(payload)["summary"]["grid_dominance"] is False


def test_quadrature_failure_exits_three(monkeypatch, capsys):
    # A negative tolerance cannot be met, so every quadrature fails its contract.
    monkeypatch.setattr(sop, "_ACCEPT_TOL", -1.0)
    assert main(["distance-sweep"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("quadrature error: ")
    with pytest.raises(sop.QuadratureError):
        exact_sop_near(ChannelStats(1e-4, 1e-4, 1e7), 0.5, TargetRates(1.0, 1.0))


def test_removed_solver_tolerance_key_exits_two(tmp_path, capsys):
    cfg = tmp_path / "old.cfg"
    cfg.write_text("gss.tolerance = 0.01\n", encoding="utf-8")
    assert main(["minmax", "--config", str(cfg)]) == 2
    assert "unknown key 'gss.tolerance'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,config_text",
    [
        ("distance-sweep", "system.alpha = 1.5\n"),
        ("validate", "system.alpha = 1e-7\n" + FAST_SIM),
        ("gain-comparison", "fixed.alpha = 1.0\n"),
    ],
    ids=["system-alpha-above-window", "system-alpha-below-window", "fixed-alpha-at-edge"],
)
def test_out_of_window_alpha_exits_two(tmp_path, capsys, command, config_text):
    cfg = tmp_path / "alpha.cfg"
    cfg.write_text(config_text, encoding="utf-8")
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ") and "alpha must lie within" in err[0]


def _sweep(axis, start, stop, step):
    return f"sweep.axis = {axis}\nsweep.start = {start}\nsweep.stop = {stop}\nsweep.step = {step}\n"


@pytest.mark.parametrize(
    "command,config_text",
    [
        ("optimize", "system.d1_m = 200\n"),
        ("optimize", "system.d1_m = 0\n"),
        ("optimize", "system.path_loss_exp = 0\n"),
        ("optimize", "system.d2_m = inf\n"),
        ("validate", "sim.seed = -3\n" + FAST_SIM),
        ("validate", _sweep("rth1_bits", -1, 1, 0.5) + FAST_SIM),
        ("optimize", "targets.rth2_bits = nan\n"),
        ("optimize", "system.rho_r_db = nan\n"),
        ("optimize", "system.noise_dbm = -93.7\n"),
        ("optimize", "system.path_loss_const = 0.0137\n"),
        ("optimize", _sweep("alpha", 0, 0.5, 0.1)),
        ("optimize", _sweep("alpha", 0.01, 0.99, 1e-300)),
        ("optimize", _sweep("alpha", 0.01, 0.99, 1e-9)),
    ],
    ids=[
        "d1-beyond-d2", "d1-zero", "path-loss-exp-zero", "d2-infinite", "negative-seed-in-file",
        "negative-rth1-sweep", "nan-rth2", "nan-rho-r", "removed-noise-key",
        "removed-path-loss-const-key", "alpha-sweep-outside-window", "sweep-step-tiny",
        "sweep-billion-points",
    ],
)
def test_bad_config_input_exits_two(tmp_path, capsys, command, config_text):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(config_text, encoding="utf-8")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")


# The ROADMAP's reproducers of known defects: the command, its config and
# the summary check that reads False, so the command exits 1.
KNOWN_DEFECTS = [
    pytest.param(
        "minmax",
        "system.d2_m = 145\nsystem.rho_r_db = 2.5\ntargets.rth2_bits = 1.73\n" + _sweep("rth1_bits", 3.5, 4, 0.25),
        "grid_dominance",
        id="item2-far-user-two-valleys",
    ),
    pytest.param(
        "minmax",
        "system.d1_m = 1.5261245260890042\nsystem.d2_m = 7.561497725641861\n"
        "system.path_loss_exp = 5.1130189431829205\nsystem.rho_r_db = 113.77189848549787\n"
        "targets.rth2_bits = 0.8552254227190663\n",
        "grid_dominance",
        id="item6B-small-sop-dominance",
    ),
    pytest.param(
        "minmax",
        "system.d2_m = 60\nsystem.rho_r_db = 40\ntargets.rth2_bits = 0.25\n",
        "alpha_sop_nonincreasing",
        id="item4-rising-alpha-sop",
    ),
]


# Reproducers of defects since mended, in the same form; each check reads True.
MENDED_DEFECTS = [
    # The SOPs lie below about 1e-13, where the curves are quantized to ulps
    # of 1; the check compares the solved minimizers with the curves' grid
    # argmax of psi = log(1 - s_o), which keeps its digits there.
    pytest.param(
        "optimize",
        "system.d1_m = 0.4961870181617896\nsystem.d2_m = 17.12488324678882\n"
        "system.path_loss_exp = 5.719339656271105\nsystem.rho_r_db = 50.74322889910188\n"
        "targets.rth1_bits = 0.1075976790052291\ntargets.rth2_bits = 0.7710038597765054\n",
        "curve_minima_consistent",
        id="item6A-small-sop-minima",
    ),
]


def _reproducer_check(tmp_path, command, config_text, flag):
    _, payload = run_to_file(tmp_path, command, config_text, fmt="json")
    return json.loads(payload)["summary"][flag]


# A fix turns its case into an XPASS, which fails the run until the case
# moves to MENDED_DEFECTS.
@pytest.mark.xfail(strict=True, raises=AssertionError, reason="known defect; see the ROADMAP item in the test id")
@pytest.mark.parametrize("command,config_text,flag", KNOWN_DEFECTS)
def test_known_defect_reproducer_passes_its_check(tmp_path, command, config_text, flag):
    assert _reproducer_check(tmp_path, command, config_text, flag) is True


@pytest.mark.parametrize("command,config_text,flag", MENDED_DEFECTS)
def test_mended_defect_reproducer_passes_its_check(tmp_path, command, config_text, flag):
    assert _reproducer_check(tmp_path, command, config_text, flag) is True


@pytest.mark.parametrize(
    "command,config_text",
    [pytest.param(*case, id=case[0]) for case in CASES]
    + [pytest.param(*case.values[:2], id=case.id) for case in KNOWN_DEFECTS + MENDED_DEFECTS],
)
def test_exit_code_is_the_conjunction_of_the_summary_checks(tmp_path, command, config_text):
    # A subcommand's checks are its summary's true/false entries; a nested
    # flag, such as optimize's closed-form "degenerate", is not one.
    code, payload = run_to_file(tmp_path, command, config_text, fmt="json")
    checks = [value for value in json.loads(payload)["summary"].values() if isinstance(value, bool)]
    assert checks and code == (0 if all(checks) else 1)


# ROADMAP item 14: at 80 bits the survival integral underflows to 0, and
# numpy warns "divide by zero" in the SOP pass's derivative algebra, while
# the command prints SOP 1 on every row and exits 0. The suite turns the
# warning into an error. A fix either resolves these rates or refuses them
# with exit 2, and turns this test into an XPASS.
@pytest.mark.xfail(strict=True, raises=RuntimeWarning, reason="known defect; see ROADMAP item 14")
def test_optimize_at_80_bit_targets_resolves_or_refuses(tmp_path):
    code, _ = run_to_file(tmp_path, "optimize", "targets.rth1_bits = 80\ntargets.rth2_bits = 80\n")
    assert code in (0, 2)


GOLDEN = pathlib.Path(__file__).parent / "data"
# Extra flags of each golden run; every other setting is the default.
GOLDEN_FLAGS = {
    "validate": ["--samples", "20000"],
    "distance-sweep": [],
    "optimize": [],
    "minmax": [],
    "gain-comparison": [],
}


@pytest.mark.parametrize("command", GOLDEN_FLAGS)
def test_default_output_matches_golden_file(tmp_path, command):
    # Any change to these files changes the CLI's output bytes, and is recorded as such.
    out = tmp_path / f"{command}.csv"
    assert main([command, "--out", str(out), *GOLDEN_FLAGS[command]]) == 0
    assert out.read_bytes() == (GOLDEN / f"{command}.csv").read_bytes()


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run_python(args, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120, **kwargs
    )


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_validate_bytes_do_not_depend_on_cpu_count(tmp_path):
    # Pinned to one CPU the Monte Carlo stream is counted in one slice;
    # unpinned, in one slice per usable CPU. The tables must agree byte for byte.
    def validate(name, **kwargs):
        out = tmp_path / f"{name}.csv"
        proc = run_python(["-m", "noma_secrecy.cli", "validate", "--samples", "300001", "--out", str(out)], **kwargs)
        assert proc.returncode in (0, 1), proc.stdout + proc.stderr
        return proc.returncode, out.read_bytes()

    pinned = validate("pinned", preexec_fn=lambda: os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}))
    assert validate("unpinned") == pinned


def test_cli_loads_neither_futures_nor_logging():
    # Either import costs milliseconds on every invocation; the pool that
    # the Monte Carlo count and wide SOP passes share uses plain threading
    # instead.
    code = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import noma_secrecy.cli
from noma_secrecy import montecarlo, sop
from noma_secrecy.channel import ChannelStats
from noma_secrecy.sop import TargetRates
loaded = lambda: sorted(name for name in ("concurrent.futures", "logging") if name in sys.modules)
print(loaded())
sop._usable_cpus = lambda: 2
montecarlo._CHUNK = 1000
montecarlo.empirical_sops((ChannelStats(1.0, 0.5, 10.0),), 0.5, [TargetRates(1.0, 1.0)], montecarlo.SimConfig(2001))
sop.exact_sops(ChannelStats(1.0, 0.5, 10.0), np.linspace(0.01, 0.99, 1000), TargetRates(1.0, 1.0))
print(loaded())
"""
    proc = run_python(["-I", "-c", code, str(SRC)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "[]"]


def test_cli_import_leaves_numpy_random_unloaded():
    # numpy.random loads at the first Philox draw and costs milliseconds; the
    # subcommands that draw nothing must not pay for it at import.
    code = """
import sys
sys.path.insert(0, sys.argv[1])
import noma_secrecy.cli
print("numpy.random" in sys.modules)
"""
    proc = run_python(["-I", "-c", code, str(SRC)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
