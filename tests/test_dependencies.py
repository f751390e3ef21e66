"""The core package imports nothing outside the standard library, and all
of its concurrency lives in the engine."""
import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "arcelim"


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_core_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    imported = {
        (path.name, name.partition(".")[0])
        for path in sources
        for name in absolute_imports(path)
    }
    assert imported, "no absolute import found; the scan is not reading the sources"
    outside = sorted(pair for pair in imported if pair[1] not in sys.stdlib_module_names)
    assert outside == []


def test_only_the_engine_imports_threading():
    importers = sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        if "threading" in {name.partition(".")[0] for name in absolute_imports(path)}
    )
    assert importers == ["engine.py"]


def test_every_array_has_the_one_id_typecode():
    """Vertex and arc ids live in arrays of one typecode: every ``array``
    call names ``ID``, and none spells a typecode of its own."""
    typecodes = [
        (path.name, node.lineno, ast.unparse(node.args[0]) if node.args else None)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "array"
    ]
    assert typecodes, "no array call found; the scan is not reading the sources"
    assert [call for call in typecodes if call[2] != "ID"] == []


def test_no_module_reads_validate_writes():
    """An engine holds its validation switch once, as ``log_write``, None
    unless validating: ``validate_writes`` is only the constructor's
    keyword, and no module, the engine included, loads it as an attribute."""
    readers = {
        path.name
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "validate_writes"
        and isinstance(node.ctx, ast.Load)
    }
    assert readers == set()


def functions_with(path, attr=None, param=None, call=None):
    """Names of the functions (``Class.method`` for methods) in path that
    load ``.attr``, take a parameter named ``param`` or call the name
    ``call``, and their nesting; module-level code is the name ``""``."""
    found = set()

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = f"{scope}.{child.name}" if scope else child.name
                if isinstance(child, ast.FunctionDef) and param is not None:
                    args = child.args
                    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                    if param in names:
                        found.add(name)
                walk(child, name)
            else:
                if (attr is not None and isinstance(child, ast.Attribute)
                        and child.attr == attr and isinstance(child.ctx, ast.Load)):
                    found.add(scope)
                if (call is not None and isinstance(child, ast.Call)
                        and isinstance(child.func, ast.Name) and child.func.id == call):
                    found.add(scope)
                walk(child, scope)

    walk(ast.parse(path.read_text(), str(path)), "")
    return found


def test_only_the_build_binds_the_write_log():
    """Outside the engine, only ``ElimGraph.__init__`` reads ``log_write``:
    every body binds it once, at construction, and no visit reloads it."""
    readers = {
        (path.name, name)
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "engine.py"
        for name in functions_with(path, attr="log_write")
    }
    assert readers == {("elim.py", "ElimGraph.__init__")}


def test_only_the_entry_points_take_an_engine():
    """A search structure runs on the engine it was built on: in traverse.py
    only the public ``dfs``, ``bfs`` and ``sweep`` accept ``engine``, to
    check it, and in elim.py only the constructors."""
    assert functions_with(PACKAGE / "traverse.py", param="engine") == {"dfs", "bfs", "sweep"}
    assert functions_with(PACKAGE / "elim.py", param="engine") == {
        "ElimGraph.__init__", "ElimGraph.build"}


def test_only_solve_opens_an_engine():
    """The engine sequence (open, build, report, traverse, close) is written
    once, in ``solve``: the CLI and ``verify_against_oracle`` reach an engine
    through it, and the only other ``ParEngine(`` is the default engine of
    a structure built with none."""
    openers = {
        (path.name, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for name in functions_with(path, call="ParEngine")
    }
    assert openers == {("traverse.py", "solve"), ("elim.py", "ElimGraph.__init__")}


def test_one_start_check():
    """What a valid start is, ``0 <= s < n``, is written once:
    ``InvalidStart`` is raised only in ``graph.check_start``, which the
    drivers, the oracles, ``solve`` and the CLI call."""
    raisers = {
        (path.name, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for name in functions_with(path, call="InvalidStart")
    }
    assert raisers == {("graph.py", "check_start")}


def test_one_backend_list():
    """The backends are listed once, as ``engine.BACKENDS``: no other
    tuple, list or set in the package names both ``SIMULATED`` and
    ``THREADED``."""
    lists = [
        (path.name, ast.unparse(parent))
        for path in sorted(PACKAGE.glob("*.py"))
        for parent in ast.walk(ast.parse(path.read_text(), str(path)))
        for node in ast.iter_child_nodes(parent)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set))
        and {"SIMULATED", "THREADED"} <= {e.id for e in node.elts if isinstance(e, ast.Name)}
    ]
    assert lists == [("engine.py", "BACKENDS = (SIMULATED, THREADED)")]


def test_one_dispatch_on_the_kind():
    """traverse.py decides a search kind in one place, the ``_SEARCHES``
    table: no comparison names a kind, and one site refuses an unknown one."""
    source = (PACKAGE / "traverse.py").read_text()
    compares = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Compare)]
    assert compares, "no comparison found; the scan is not reading the source"
    kinds = [
        (node.lineno, ast.unparse(operand))
        for node in compares
        for operand in (node.left, *node.comparators)
        if (isinstance(operand, ast.Name) and operand.id in ("DFS", "BFS"))
        or (isinstance(operand, ast.Constant) and operand.value in ("dfs", "bfs"))
    ]
    assert kinds == []
    assert source.count("unknown traversal kind") == 1


def test_generators_draw_only_from_getrandbits():
    """generators.py calls no ``Random`` method but ``getrandbits``, and
    names nothing of ``random`` but ``Random``: the graphs rest on the
    Mersenne Twister word stream alone, not on ``randrange``, ``shuffle``
    and the other Python-level algorithms, which may change between
    versions."""
    import random

    tree = ast.parse((PACKAGE / "generators.py").read_text())
    attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "getrandbits" in attrs, "no draw found; the scan is not reading the source"
    assert attrs & set(dir(random.Random)) == {"getrandbits"}
    from_random = {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "random"
    }
    assert from_random == {"Random"}
    assert not [node for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "random"]
