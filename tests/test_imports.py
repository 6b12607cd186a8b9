"""The package imports only the standard library, numpy and itself."""
import ast
import os
import subprocess
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


def test_plain_pytest_finds_the_package():
    """pyproject.toml puts src/ on the path, so ``python -m pytest`` from the
    repository root collects without PYTHONPATH."""
    root = Path(__file__).resolve().parents[1]
    env = {key: val for key, val in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q",
                           "-p", "no:cacheprovider", "tests/test_imports.py"],
                          cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
