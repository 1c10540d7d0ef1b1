"""Package layout: the modules import only each other's public names."""

import ast
from pathlib import Path

import obsched

SRC = Path(obsched.__file__).parent


def private_imports(source: str, filename: str) -> list[str]:
    """Each ``from .mod import _name`` (any relative level) in the source."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            module = "." * node.level + (node.module or "")
            found += [
                f"{filename}:{node.lineno}: from {module} import {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    return found


def test_detector_sees_private_names():
    source = "from .index import _orbit_walk, whittle_index\nfrom .. import _x\n"
    assert private_imports(source, "m.py") == [
        "m.py:1: from .index import _orbit_walk",
        "m.py:2: from .. import _x",
    ]
    assert private_imports("from __future__ import annotations\n", "m.py") == []


def test_no_private_cross_module_imports():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 9
    found = [
        line for path in paths for line in private_imports(path.read_text(), path.name)
    ]
    assert found == []
