"""The names the benchmark harness in perfbench/ imports and wraps.

Its tracer wraps every name in each layer's `__all__`, and its checks import
the power-split window from `noma_secrecy.rates`; a name that no longer
resolves breaks the benchmark, so it fails here first. Its workloads and
checks also call a few functions and read fields of what they return; a
change to those calls breaks the benchmark too, so they are pinned here.
"""
import importlib

import numpy as np
import pytest

import noma_secrecy
from noma_secrecy import cli, optimize, sop
from noma_secrecy.channel import ChannelStats
from noma_secrecy.sop import TargetRates

LAYERS = ("cli", "config", "channel", "rates", "montecarlo", "sop", "optimize")


@pytest.mark.parametrize("layer", LAYERS)
def test_every_exported_name_resolves(layer):
    module = importlib.import_module(f"noma_secrecy.{layer}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing


def test_power_split_window_is_importable_from_rates():
    from noma_secrecy.rates import ALPHA_MAX, ALPHA_MIN

    assert 0.0 < ALPHA_MIN < ALPHA_MAX < 1.0


STATS = ChannelStats(50.0 ** -2.5, 100.0 ** -2.5, 1e8)
TARGETS = TargetRates(1.0, 1.0)


@pytest.mark.parametrize(
    "curve",
    [sop.exact_sop_near, sop.exact_sop_far, noma_secrecy.exact_sop_near, noma_secrecy.exact_sop_far],
    ids=["sop.near", "sop.far", "top.near", "top.far"],
)
def test_curve_calls_return_value_and_error_shaped_like_alpha(curve):
    # The sop-curves workload and the fair-split check take whole curves.
    grid = np.linspace(0.1, 0.9, 7)
    result = curve(STATS, grid, TARGETS)
    assert result.value.shape == grid.shape
    assert result.quad_error.shape == grid.shape


def test_minmax_pa_returns_the_selected_split_and_objective():
    # The fair-split workload reports these two fields of each solve.
    outcome = optimize.minmax_pa(STATS, TARGETS)
    assert isinstance(outcome.selected, float) and isinstance(outcome.objective, float)


def test_cli_main_returns_an_int_exit_code(tmp_path):
    # The validate-mc workload calls main with a config file and an output path.
    config = tmp_path / "run.cfg"
    config.write_text("sim.realizations = 2000\n", encoding="utf-8")
    code = cli.main(["validate", "--config", str(config), "--out", str(tmp_path / "out.csv")])
    assert type(code) is int
