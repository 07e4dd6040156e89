"""Every name a module under ``src/repro`` imports is used there.

A module uses a name when it reads it (in code, or inside a string
annotation such as a ``TYPE_CHECKING`` import's) or lists it in
``__all__``.  A package ``__init__.py`` imports in order to re-export,
so every name it imports must be in its ``__all__``.  An import marked
``# noqa: F401`` is exempt: ``run_key``/``run_key_batch`` stay
importable where bench/tracing.py patches them.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent


def _imports(tree):
    """``(name, line)`` for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, alias.lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
            a = node.args
            for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]:
                yield arg.annotation if arg is not None else None
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names(tree):
    """Every name the module reads, string annotations parsed."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in filter(None, _annotations(tree)):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                names.update(
                    n.id for n in ast.walk(expr) if isinstance(n, ast.Name)
                )
    return names


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _unused(path, root=SRC):
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _exported(tree)
    if path.name != "__init__.py":
        used |= _names(tree)
    return [
        f"{path.relative_to(root)}:{line}: {name}"
        for name, line in _imports(tree)
        if name not in used and "# noqa: F401" not in lines[line - 1]
    ]


def test_every_imported_name_is_used():
    modules = [p for p in SRC.rglob("*.py") if p.name != "__init__.py"]
    assert len(modules) > 100
    assert [u for p in sorted(modules) for u in _unused(p)] == []


def test_packages_export_every_name_they_import():
    packages = sorted(SRC.rglob("__init__.py"))
    assert len(packages) > 10
    assert [u for p in packages for u in _unused(p)] == []


def test_the_check_sees_an_unused_import(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from typing import TYPE_CHECKING, List, Optional\n"
        "import os.path\n"
        "from json import dumps  # noqa: F401\n"
        "if TYPE_CHECKING:\n"
        "    from pathlib import Path\n"
        "def f(x: 'Optional[Path]') -> None:\n"
        "    return os.path.join(x)\n"
    )
    assert _unused(module, tmp_path) == ["mod.py:1: List"]
