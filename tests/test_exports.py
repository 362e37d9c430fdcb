"""The export lists name exactly what each module defines."""

import importlib

import pytest

LAYERS = ["model_io", "complexes", "homology", "bundle", "operators", "bloch"]


@pytest.mark.parametrize("name", ["magbloch"] + [f"magbloch.{layer}" for layer in LAYERS])
def test_all_names_resolve_once(name):
    # tracing tools wrap every entry of a layer's __all__ with getattr, so a
    # stale entry would break them
    module = importlib.import_module(name)
    assert len(module.__all__) == len(set(module.__all__))
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert missing == []
