"""The demos import only names the library defines, and the quick ones run.

`step_rule_basics.py`, `adaptive_batch_growth.py` and `verify_bounds.py`
take about a second each, so they run here in-process with stdout captured.
`logistic_grid_benchmark.py` takes several seconds, so every demo is also
parsed: every `from trish... import name` must resolve, and every
`import trish...` must import.
"""

import ast
import importlib
import runpy
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))

# Lines each quick demo prints once its own checks have passed.
RUN = {
    "step_rule_basics.py": ["the normalized step is optimal, as expected"],
    "adaptive_batch_growth.py": ["growth is monotone"],
    "verify_bounds.py": ["holds=True"] * 3 + ["<= 0.0437: True", "gamma ratio ok=True"],
}


def test_demos_present():
    assert len(DEMOS) >= 4
    assert set(RUN) <= {path.name for path in DEMOS}


@pytest.mark.parametrize("name", sorted(RUN))
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMO_DIR / name), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    for expected in set(RUN[name]):
        assert sum(expected in line for line in lines) == RUN[name].count(expected)
    assert not any("holds=False" in line or line.endswith(": False") for line in lines)


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
