"""The names the benchmark harness in perfbench/ imports and wraps.

Its tracer wraps every name in each layer's `__all__`, and its checks import
the power-split window from `noma_secrecy.rates`; a name that no longer
resolves breaks the benchmark, so it fails here first.
"""
import importlib

import pytest

LAYERS = ("cli", "config", "channel", "rates", "montecarlo", "sop", "optimize")


@pytest.mark.parametrize("layer", LAYERS)
def test_every_exported_name_resolves(layer):
    module = importlib.import_module(f"noma_secrecy.{layer}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing


def test_power_split_window_is_importable_from_rates():
    from noma_secrecy.rates import ALPHA_MAX, ALPHA_MIN

    assert 0.0 < ALPHA_MIN < ALPHA_MAX < 1.0
