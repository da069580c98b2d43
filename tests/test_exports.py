import importlib

import pytest


@pytest.mark.parametrize("package", ["savi.group", "savi.zkp", "savi.protocol", "savi.harness"])
def test_every_export_resolves(package):
    # a deleted function must take its __all__ entry with it
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
