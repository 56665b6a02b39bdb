"""No package module asks for the centers of a whole grid: grids are walked
a chunk of cells at a time, so no (R^d, d) array of centers comes back."""

import ast
from pathlib import Path

import pytest

import wavedens

MODULES = sorted(Path(wavedens.__file__).parent.glob("*.py"))


def whole_grid_calls(source: str) -> list[str]:
    """Calls of ``cell_centers`` without a cell range, as 'line N'."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and not node.args and not node.keywords:
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "cell_centers":
                found.append(f"line {node.lineno}")
    return found


def test_finds_a_whole_grid_call():
    source = "a = grid.cell_centers()\nb = grid.cell_centers(0, 4)\nc = cell_centers()\nd = grid.cell_centers\n"
    assert whole_grid_calls(source) == ["line 1", "line 3"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_whole_grid_of_centers(path):
    assert whole_grid_calls(path.read_text(encoding="utf-8")) == []
