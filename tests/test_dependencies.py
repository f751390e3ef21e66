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


def test_only_the_engine_reads_validate_writes():
    """Bodies get ``engine.log_write``, None unless validating; no other
    module asks the engine whether it validates."""
    readers = {
        path.name
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "validate_writes"
        and isinstance(node.ctx, ast.Load)
    }
    assert readers == {"engine.py"}
