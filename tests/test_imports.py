"""Every name a library module imports is read in that module, and
importing the package leaves ``numpy.random`` unloaded.

A name left imported after its last use goes unnoticed otherwise. The
package's ``__init__`` (whose imports are its exports), ``__future__``
imports and imports marked ``# noqa: F401`` (kept for the benchmark's
tracer, which wraps them where they are imported) are exempt.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "advicecheck"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unread_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, in import order."""
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported.append(alias.asname or alias.name.split(".")[0])
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("module", MODULES, ids=[p.stem for p in MODULES])
def test_every_imported_name_is_read(module):
    assert unread_imports(module.read_text()) == []


def test_an_unread_import_is_found():
    source = ("from __future__ import annotations\n"
              "import math\n"
              "import os.path\n"
              "from .games import (\n"
              "    Game,\n"
              "    _composed,\n"
              ")\n"
              "from .games import joint_distribution  # noqa: F401 (a traced site)\n"
              "def f(game: Game):\n"
              "    return os.path.join(str(game))\n")
    assert unread_imports(source) == ["math", "_composed"]


def test_import_leaves_numpy_random_unloaded():
    # numpy loads numpy.random lazily, on first use; loading it at import
    # would cost every command ~15 ms before it starts
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-c", "import sys, advicecheck; "
                           "print('numpy.random' in sys.modules)"],
                          env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"
