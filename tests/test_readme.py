"""The README's python examples import only what the package provides."""

import ast
import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def imported_names(markdown: str) -> set[tuple[str, str]]:
    """(module, name) for every ``from wavedens... import name`` in the
    python code blocks of a markdown text."""
    names = set()
    for block in re.findall(r"^```python\n(.*?)^```", markdown, flags=re.S | re.M):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "wavedens":
                names.update((node.module, alias.name) for alias in node.names)
    return names


def test_finds_the_names_of_python_blocks_only():
    text = "```python\nfrom wavedens import a, b\nimport numpy\n```\n```\nfrom wavedens import c\n```\n"
    assert imported_names(text) == {("wavedens", "a"), ("wavedens", "b")}


def test_readme_imports_only_exported_names():
    names = imported_names(README.read_text(encoding="utf-8"))
    assert ("wavedens", "fit_model") in names
    missing = sorted(f"{module}.{name}" for module, name in names if not hasattr(importlib.import_module(module), name))
    assert missing == []
