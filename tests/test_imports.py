"""Import hygiene: every absolute import in the package names a
standard-library module, every imported name is used, every module-level
private definition and private method is read, every public method is
read outside the tests, and the undo journal is read only by its model."""

import ast
import re
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pupsolver"
PERFBENCH = PACKAGE.parents[1] / "perfbench"


def _absolute_imports(path: Path) -> list[str]:
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 7
    outside = [
        f"{path.name}: {name}"
        for path in modules
        for name in _absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []


def _unread_imports(path: Path) -> list[str]:
    """Names the module imports but neither reads nor lists in ``__all__``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.extend(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.extend(alias.asname or alias.name for alias in node.names if alias.name != "*")
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_every_import_is_read_or_exported():
    unread = [
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for name in _unread_imports(path)
    ]
    assert unread == []


def _private_definitions(tree: ast.Module) -> list[str]:
    """Module-level ``_private`` functions, classes and constants, and the
    ``_private`` methods defined in module-level class bodies (not dunders)."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names.extend(m.name for m in node.body
                         if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(t.id for t in targets if isinstance(t, ast.Name))
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def test_every_private_definition_is_read():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(PACKAGE.rglob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = [f"{name}: {d}" for name, tree in trees.items()
              for d in _private_definitions(tree) if d not in read]
    assert unread == []


def _journal_touches(path: Path) -> list[str]:
    """Each ``_journal`` attribute outside class ``PartialModel`` that is
    not the ``X`` of an ``X._journal.clear()`` call, as file:line."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    allowed = {id(node) for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) and cls.name == "PartialModel"
               for node in ast.walk(cls)}
    allowed.update(id(node.func.value) for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and not node.args and not node.keywords
                   and isinstance(node.func, ast.Attribute) and node.func.attr == "clear")
    return [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "_journal"
            and id(node) not in allowed]


def test_only_the_model_reads_its_journal():
    """The journal's entry layout is PartialModel's own: outside the class,
    package code only clears it (minimize, whose merges are not journaled).
    The search returns the path of a paused entry, so no caller reads it."""
    touches = [t for path in sorted(PACKAGE.rglob("*.py")) for t in _journal_touches(path)]
    assert touches == []


def test_every_package_name_the_benchmark_reads_exists():
    """The benchmark scripts read the package as ``pup``.  Each ``pup.<name>``
    they read must exist, also where no run of theirs reaches the line."""
    import pupsolver

    read = {
        (path.name, node.attr)
        for path in sorted(PERFBENCH.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "pup"
    }
    assert ("replay.py", "ElementOrder") in read and ("run.py", "solve") in read
    missing = sorted(f"{name}: pup.{attr}" for name, attr in read if not hasattr(pupsolver, attr))
    assert missing == []


def test_every_public_method_is_read_outside_the_tests():
    """Each public method of a package class is read by the package, by the
    benchmark scripts or by the README's Python example, which runs as a
    test: a method only the tests read is a test aid, and belongs in them."""
    readme = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    sources = [path.read_text(encoding="utf-8")
               for path in (*sorted(PACKAGE.rglob("*.py")), *sorted(PERFBENCH.glob("*.py")))]
    sources += re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    read = {node.attr for source in sources for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)}
    unread = [
        f"{path.name}: {node.name}.{method.name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body
        if isinstance(node, ast.ClassDef)
        for method in node.body
        if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not method.name.startswith("_") and method.name not in read
    ]
    assert unread == []
