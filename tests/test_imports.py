"""Every name a heavyseries module imports is used in that module, every
import sits at module level, and one-owner helpers stay with their owners.

`__init__.py` is left out of the unused-name check: its imports are the
package's public names.
"""

import ast
import pathlib

import pytest

_PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "heavyseries"
_ALL_MODULES = sorted(_PACKAGE.glob("*.py"))
_MODULES = [p for p in _ALL_MODULES if p.name != "__init__.py"]


def _unused_imports(source):
    """(line, name) of each imported name that no expression reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                name = alias.asname or alias.name.partition(".")[0]
                imported.append((alias.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_unused_import_check_finds_unused_names():
    source = ("import os\nimport a.b\nfrom x import y as z, w\n"
              "def f():\n    from . import q\n    return a.b(w)\n")
    assert _unused_imports(source) == [(1, "os"), (3, "z"), (5, "q")]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def _function_imports(source):
    """Sorted lines of the import statements inside function bodies."""
    tree = ast.parse(source)
    return sorted({inner.lineno for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for inner in ast.walk(node)
                   if isinstance(inner, (ast.Import, ast.ImportFrom))})


def test_function_import_check_finds_nested_imports():
    source = ("import os\ndef f():\n    import a\n    def g():\n"
              "        from . import b\n    return a\n"
              "class C:\n    def m(self):\n        from x import y\n")
    assert _function_imports(source) == [3, 5, 9]


@pytest.mark.parametrize("path", _ALL_MODULES, ids=lambda p: p.name)
def test_no_imports_inside_functions(path):
    assert _function_imports(path.read_text()) == []


def _referenced_names(source):
    """Names a module defines, imports, reads or reads as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def test_referenced_names_finds_every_kind_of_reference():
    source = ("from x import a\nimport y.b\ndef c():\n    return d + e.f\n")
    assert _referenced_names(source) >= {"a", "b", "c", "d", "e", "f"}


def test_flat_levels_stays_with_priors_and_wavelets():
    # the flat position -> wavelet level layout is defined in `wavelets`
    # and mapped to prior scales only by `priors.coordinate_index`
    users = [p.name for p in _ALL_MODULES
             if "flat_levels" in _referenced_names(p.read_text())]
    assert users == ["priors.py", "wavelets.py"]
