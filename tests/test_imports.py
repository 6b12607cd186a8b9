"""The package imports only the standard library, numpy and itself."""
import ast
import importlib
import importlib.util
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


def test_every_imported_name_is_used():
    """No linter runs offline, so unused imports are caught here: each name a
    module imports is read in it, or listed in its ``__all__``."""
    unused = {}
    for path in sorted(Path(rigidconvex.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Import)
                    or isinstance(node, ast.ImportFrom) and node.module != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= {elt.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                 and any(getattr(target, "id", None) == "__all__" for target in node.targets)
                 for elt in node.value.elts}
        if imported - used:
            unused[path.name] = sorted(imported - used)
    assert unused == {}


def test_every_private_function_has_a_caller():
    """A module-level ``_private`` function of the package is read somewhere
    in the package outside its own body, so a dead helper does not linger;
    a test that still needs one keeps its own copy."""
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(Path(rigidconvex.__file__).parent.glob("*.py"))}
    private = {(mod, node.name) for mod, tree in trees.items() for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
               and not node.name.startswith("__")}
    read = set()
    for tree in trees.values():
        for top in tree.body:
            owner = top.name if isinstance(top, ast.FunctionDef) else None
            read |= {(node.id if isinstance(node, ast.Name) else node.attr, owner)
                     for node in ast.walk(top) if isinstance(node, (ast.Name, ast.Attribute))}
    uncalled = sorted(f"{mod}.{name}" for mod, name in private
                      if not any(used == name and owner != name for used, owner in read))
    assert len(private) >= 20 and uncalled == []


def test_every_private_constant_is_read():
    """A module-level ``_PRIVATE`` name bound by assignment (a table, a
    pattern, a constant) is read somewhere in the package, so a table or
    constant whose last reader is gone fails here."""
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(Path(rigidconvex.__file__).parent.glob("*.py"))}
    private = {(mod, target.id) for mod, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.Assign, ast.AnnAssign))
               for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
               if isinstance(target, ast.Name) and target.id.startswith("_")
               and not target.id.startswith("__")}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}
    unread = sorted(f"{mod}.{name}" for mod, name in private if name not in read)
    assert len(private) >= 10 and unread == []


def test_plain_pytest_finds_the_package():
    """pyproject.toml puts src/ on the path, so ``python -m pytest`` from the
    repository root collects without PYTHONPATH."""
    root = Path(__file__).resolve().parents[1]
    env = {key: val for key, val in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q",
                           "-p", "no:cacheprovider", "tests/test_imports.py"],
                          cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_traced_layer_names_resolve():
    """Every function bench/tracer.py wraps exists, so deleting or renaming
    one fails here and not only in a traced benchmark run."""
    tracer = _load_tracer()
    missing = []
    for mod_name, names in tracer.LAYERS.items():
        module = importlib.import_module(f"rigidconvex.{mod_name}")
        for name in names:
            if "." in name:  # Class.method, wrapped on the class
                cls_name, meth = name.split(".")
                found = meth in vars(getattr(module, cls_name, object))
            else:
                found = callable(getattr(module, name, None))
            if not found:
                missing.append(f"{mod_name}.{name}")
    assert missing == []


def test_tracer_size_counters_read_results(capsys):
    """The tracer's size counters read what the package returns (a
    determinant's ``.c + .s``, ``.candidates``, the representations), so a
    change of those fails here and not only in a traced benchmark run.
    ``check-rigid`` decides without a TrigMatrix, and ``psd_on_circle``
    without ``TrigMatrix.det``, so the determinant counters are driven by
    ``det`` on Hermite matrices."""
    from rigidconvex import cli, hermite, parse_poly

    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        for text in ("1-x1^2-2*x2^2+1/4*x1^3", "1-x1^2-2*x2^2+1/2*x2-x1*x2^2"):
            hermite.hermite_matrix(parse_poly(text)).det()
            tracer.flush_counters()
        for argv in (["find-component", "--q0=45,-8,10,0,1", "--q1=-7,44,-18,-4,1",
                      "--q2=49,-28,-10,4,1"],
                     ["cubic-repr", "--poly", "x1^3-x2^2-x1"]):
            assert cli.main(argv + ["--json"]) == 0, argv
            tracer.flush_counters()
    finally:
        tracer.uninstall()
    capsys.readouterr()
    counters = tracer.counters
    for name in ("polycore.TrigMatrix.det.m_max", "polycore.TrigMatrix.det.d_max",
                 "polycore.TrigMatrix.det.result_bits_max",
                 "locate.find_interior_point.candidates", "cubicrepr.cubic_representations.reps"):
        assert counters[name] > 0, name
    assert tracer.layer_times()["polycore.TrigMatrix.det"][0] >= 2


def test_numpy_roots_only_for_complex_points():
    """Float root finding decides nothing: numpy's ``roots`` is called only
    in ``UniPoly.roots``, for the complex singular-point note."""
    calls = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                  and child.func.attr == "roots" and isinstance(child.func.value, ast.Name)
                  and child.func.value.id in ("np", "numpy")):
                calls.add(f"{path.stem}.{scope}")
            visit(child, inner)

    for path in sorted(Path(rigidconvex.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        assert not any(isinstance(node, ast.ImportFrom) and node.module == "numpy"
                       for node in ast.walk(tree)), path.name
        visit(tree, "")
    assert calls == {"polycore.UniPoly.roots"}
