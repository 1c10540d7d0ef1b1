"""Package layout: the modules import only each other's public names,
every name they import is used, every private name they define is read,
the CLI does not re-wrap library errors, and only the CLI writes to the
console."""

import ast
import importlib
from pathlib import Path

import obsched

SRC = Path(obsched.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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


def unused_imports(source: str, filename: str, keep: frozenset = frozenset()) -> list[str]:
    """Each name the source imports but never reads, other than those in ``keep``.

    A name is read when it is loaded anywhere in the module or listed in
    ``__all__``; ``from __future__`` imports bind no name.
    """
    tree = ast.parse(source, filename)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            read |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    found = [
        (node.lineno, f"{filename}:{node.lineno}: {name}")
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for name in (alias.asname or alias.name.split(".")[0] for alias in node.names)
        if name not in read and name not in keep
    ]
    return [line for _, line in sorted(found)]


def wrapped_names(monkeypatch) -> dict[str, frozenset]:
    """Per module file, the attributes ``perfbench/layers.py`` wraps by name."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    names: dict[str, set] = {}
    for _, paths, _ in layers.SPANS + layers.LEAVES:
        for path in paths:
            if len(path) == 2:
                names.setdefault(f"{path[0]}.py", set()).add(path[1])
    return {name: frozenset(attrs) for name, attrs in names.items()}


def test_unused_import_detector():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import Callable, Optional, Union\n"
        "from .dynamics import phi, phi0  # noqa: F401\n"
        "from .words import Word\n"
        "__all__ = ['Word']\n"
        "def f(g: Callable) -> Union[int, None]:\n"
        "    import logging\n"
        "    return os.path.join(np.pi)\n"
    )
    assert unused_imports(source, "m.py", frozenset({"phi"})) == [
        "m.py:4: Optional",
        "m.py:5: phi0",
        "m.py:9: logging",
    ]


def test_every_import_is_used(monkeypatch):
    keep = wrapped_names(monkeypatch)
    assert keep["bandit.py"] >= {"phi", "phi0"}
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 9
    found = [
        line
        for path in paths
        for line in unused_imports(path.read_text(), path.name,
                                   keep.get(path.name, frozenset()))
    ]
    assert found == []


def orphaned_private_names(sources: dict[str, str]) -> list[str]:
    """Each module-level private name (``_name``, not dunder) that no source reads.

    ``sources`` maps file names to their text.  A name is read when any
    source loads it, reads it as an attribute or imports it; its own
    definition does not count.
    """
    trees = {filename: ast.parse(text, filename) for filename, text in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
    found = []
    for filename, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            found += [
                f"{filename}:{node.lineno}: {name}"
                for name in names
                if name.startswith("_") and not name.endswith("__") and name not in read
            ]
    return found


def test_orphan_detector():
    sources = {
        "a.py": (
            "_LIMIT = 3\n"
            "_unused: int = 4\n"
            "__all__ = ['f']\n"
            "def _helper():\n"
            "    return _LIMIT\n"
            "def _dead():\n"
            "    return 0\n"
            "class _Orphan:\n"
            "    pass\n"
            "def f():\n"
            "    return _helper()\n"
        ),
        "b.py": "from . import c\n_ALIAS = c._read_elsewhere\n_ALIAS()\n",
        "c.py": "def _read_elsewhere():\n    pass\n",
    }
    assert orphaned_private_names(sources) == [
        "a.py:2: _unused",
        "a.py:6: _dead",
        "a.py:8: _Orphan",
    ]


def test_no_orphaned_private_names():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 9
    assert orphaned_private_names({path.name: path.read_text() for path in paths}) == []


def cli_rewraps(source: str, filename: str) -> list[str]:
    """Each ``except`` handler whose body is only ``raise CliError(str(<caught>))``.

    ``cli.main`` already prints such an exception as one error line with
    its exit code, so the handler adds nothing.
    """
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.ExceptHandler) and node.name and len(node.body) == 1:
            rewrap = ast.parse(f"CliError(str({node.name}))", mode="eval").body
            stmt = node.body[0]
            if isinstance(stmt, ast.Raise) and ast.dump(stmt.exc) == ast.dump(rewrap):
                found.append(f"{filename}:{node.lineno}")
    return found


def test_rewrap_detector():
    source = (
        "try:\n"
        "    f()\n"
        "except ValueError as exc:\n"
        "    raise CliError(str(exc)) from None\n"
        "except KeyError as err:\n"
        "    raise CliError(str(err))\n"
        "except OSError as exc:\n"
        "    raise CliError(f'cannot read scenario: {exc}') from None\n"
        "except TypeError as exc:\n"
        "    raise CliError(str(other)) from None\n"
        "except ArithmeticError as exc:\n"
        "    log(exc)\n"
        "    raise CliError(str(exc)) from None\n"
    )
    assert cli_rewraps(source, "m.py") == ["m.py:3", "m.py:5"]


def test_cli_has_no_rewraps():
    assert cli_rewraps((SRC / "cli.py").read_text(), "cli.py") == []


def side_channels(source: str, filename: str) -> list[str]:
    """Each import of ``logging``, ``print`` call and use of ``sys.stdout`` or ``sys.stderr``.

    A library module returns what it finds; only the CLI prints it.
    """
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names if alias.name.split(".")[0] == "logging"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [
                f"{node.module}.{alias.name}" for alias in node.names
                if node.module.split(".")[0] == "logging"
                or (node.module == "sys" and alias.name in ("stdout", "stderr"))
            ]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            names = ["print"] if node.func.id == "print" else []
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"sys.{node.attr}"] if (
                node.value.id == "sys" and node.attr in ("stdout", "stderr")) else []
        else:
            names = []
        found += [(node.lineno, f"{filename}:{node.lineno}: {name}") for name in names]
    return [line for _, line in sorted(found)]


def test_side_channel_detector():
    source = (
        "import sys\n"
        "import logging.handlers\n"
        "from logging import getLogger\n"
        "from sys import stderr, argv\n"
        "def f(out=sys.stdout):\n"
        "    print('x', file=out)\n"
        "    sys.stderr.write('y')\n"
        "    return out.print(sys.argv), print\n"
    )
    assert side_channels(source, "m.py") == [
        "m.py:2: logging.handlers",
        "m.py:3: logging.getLogger",
        "m.py:4: sys.stderr",
        "m.py:5: sys.stdout",
        "m.py:6: print",
        "m.py:7: sys.stderr",
    ]
    assert side_channels("def g():\n    import logging\n", "m.py") == ["m.py:2: logging"]


def test_only_the_cli_writes_to_the_console():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 9
    found = [
        line
        for path in paths
        if path.name != "cli.py"
        for line in side_channels(path.read_text(), path.name)
    ]
    assert found == []
