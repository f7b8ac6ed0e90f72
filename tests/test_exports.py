"""Every name the package re-exports is used by the program itself, or is a
function the benchmark tracer wraps (``bench/traced.py`` ``SPANS``), so that
a second API kept alive only by tests does not grow back unnoticed."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "emoskit"


def exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names]


def used_outside_definition(tree: ast.AST, name: str) -> bool:
    """Whether a module reads ``name`` (as a name or an attribute) anywhere
    but inside a function or class of that name: a recursive call does not
    count, nor do imports and ``__all__`` strings."""
    stack = [(tree, False)]
    while stack:
        node, inside = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name == name:
            inside = True
        if not inside and name in (getattr(node, "id", None), getattr(node, "attr", None)):
            return True
        stack += [(child, inside) for child in ast.iter_child_nodes(node)]
    return False


def test_every_export_is_used_by_the_program_or_traced(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    traced = importlib.import_module("traced")
    wrapped = {name for _, name in traced.SPANS.values()}
    modules = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"]
    unused = [name for name in exported_names()
              if name not in wrapped and not any(used_outside_definition(tree, name) for tree in modules)]
    assert unused == []


def test_a_name_used_only_by_itself_counts_as_unused():
    tree = ast.parse("__all__ = ['f']\n\ndef f(n):\n    return f(n - 1) if n else 0\n\ndef g():\n    return 1\n\nx = g()\n")
    assert not used_outside_definition(tree, "f")
    assert used_outside_definition(tree, "g")


def test_every_name_in_each_modules_all_resolves():
    # Nothing star-imports a module, so a stale __all__ string would
    # otherwise go unnoticed.
    stale = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"emoskit.{path.stem}" if path.stem != "__init__" else "emoskit")
        stale += [f"{module.__name__}.{name}" for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert stale == []
