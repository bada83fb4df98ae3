"""Every import in ``src/nfadsim`` is used: no linter runs in CI."""

import ast
from pathlib import Path

import pytest

_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nfadsim"


def _unused_imports(source):
    """Names a module imports and never reads, with their line numbers.

    A name counts as read where it appears as a bare name anywhere in the
    module (``np`` in ``np.log``), annotations included, or in the module's
    ``__all__``: the package's re-exports.
    """
    tree = ast.parse(source)
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = \
                    node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


@pytest.mark.parametrize("path", sorted(_PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nimport numpy as np\n"
              "from typing import Any, Iterable\n"
              "from .params import PS_PER_S\n"
              "__all__ = ['PS_PER_S']\n"
              "def f(x: Any) -> float:\n    return np.log(x)\n")
    assert _unused_imports(source) == [(2, "math"), (3, "os"),
                                       (5, "Iterable")]
