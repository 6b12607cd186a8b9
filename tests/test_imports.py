"""The package imports only the standard library, numpy and itself."""
import ast
import sys
from pathlib import Path

import rigidconvex

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "rigidconvex"}


def _imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_runtime_imports_are_stdlib_numpy_or_package():
    sources = sorted(Path(rigidconvex.__file__).parent.glob("*.py"))
    assert len(sources) >= 10
    foreign = {}
    for path in sources:
        roots = set(_imported_roots(ast.parse(path.read_text(), str(path))))
        if roots - ALLOWED:
            foreign[path.name] = sorted(roots - ALLOWED)
    assert foreign == {}
