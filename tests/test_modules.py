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


def private_attributes(source: str, filename: str) -> list[str]:
    """Each ``mod._name`` where ``mod`` is bound by ``from . import mod`` (any level)."""
    tree = ast.parse(source, filename)
    siblings = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0 and node.module is None
        for alias in node.names
    }
    found = [
        (node.lineno, f"{filename}:{node.lineno}: {node.value.id}.{node.attr}")
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in siblings
        and node.attr.startswith("_")
        and not node.attr.endswith("__")
    ]
    return [line for _, line in sorted(found)]


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


def test_attribute_detector_sees_private_names():
    source = (
        "import numpy as np\n"
        "from . import bandit, costs as c\n"
        "from .index import whittle_index\n"
        "def f():\n"
        "    return bandit._table_range(c.linear(), np._x, whittle_index._y)\n"
        "c._private = bandit.__name__\n"
    )
    assert private_attributes(source, "m.py") == [
        "m.py:5: bandit._table_range",
        "m.py:6: c._private",
    ]
    assert private_attributes("from .. import words\nwords._FROM_TEXT\n", "m.py") == [
        "m.py:2: words._FROM_TEXT",
    ]


def test_no_private_attributes_of_sibling_modules():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 9
    found = [
        line for path in paths for line in private_attributes(path.read_text(), path.name)
    ]
    assert found == []
