import importlib

import pytest


@pytest.mark.parametrize("package", ["savi.group", "savi.zkp", "savi.protocol", "savi.harness"])
def test_every_export_resolves(package):
    # a deleted function must take its __all__ entry with it
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_sigma_imports_nothing_from_rangeproof():
    # the link identity is a plain term list, so the sigma module stands
    # without the range proof, which the four-squares slack is to replace
    import ast
    from pathlib import Path

    import savi.zkp.sigma

    tree = ast.parse(Path(savi.zkp.sigma.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = "savi.zkp." * (node.level == 1) + (node.module or "")
            imported += [module] + [f"{module}.{alias.name}".lstrip(".") for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert [name for name in imported if "rangeproof" in name] == []
