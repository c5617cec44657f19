"""The demos import only names the library defines.

The demos are scripts that take seconds to minutes, so they are parsed here,
not run: every `from trish... import name` must resolve, and every
`import trish...` must import.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_present():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_imports_resolve(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported, missing = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "trish":
            module = importlib.import_module(node.module)
            imported += [alias.name for alias in node.names]
            missing += [f"{node.module}.{alias.name}" for alias in node.names
                        if not hasattr(module, alias.name)]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "trish":
                    importlib.import_module(alias.name)
                    imported.append(alias.name)
    assert imported, f"{path.name} imports nothing from trish"
    assert missing == []
