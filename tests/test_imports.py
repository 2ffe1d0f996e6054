"""The package's import graph, read from the source with ``ast``.

Importing one module loads only the package modules its top-level relative
imports reach, so the package root re-exports nothing; and every module uses
each name it imports.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hractivity

PACKAGE = Path(hractivity.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def module_tree(name: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))


def relative_imports(name: str) -> set[str]:
    """The package modules that ``name`` imports at its top level."""
    found = set()
    for node in module_tree(name).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import config
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module)
    return found


def reached(name: str) -> set[str]:
    """``name`` and every package module its top-level relative imports reach."""
    seen, todo = set(), [name]
    while todo:
        module = todo.pop()
        if module not in seen:
            seen.add(module)
            todo.extend(relative_imports(module))
    return seen


def loaded_by(statement: str) -> set[str]:
    """The ``hractivity`` modules a fresh interpreter holds after ``statement``."""
    code = (f"{statement}; import sys; print(' '.join(m for m in sys.modules "
            f"if m == 'hractivity' or m.startswith('hractivity.')))")
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def test_the_package_root_loads_no_module():
    assert loaded_by("import hractivity") == {"hractivity"}


@pytest.mark.parametrize("name", MODULES)
def test_a_module_loads_only_the_package_modules_it_imports(name):
    expected = {"hractivity"} | {f"hractivity.{m}" for m in reached(name)}
    assert loaded_by(f"import hractivity.{name}") == expected


def test_the_cli_reaches_every_module():
    assert reached("cli") == set(MODULES)


@pytest.mark.parametrize("name", ["__init__"] + MODULES)
def test_every_imported_name_is_used(name):
    tree = module_tree(name)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {n: line for n, line in imported.items() if n not in used}
    assert not unused, f"{name}.py imports names it never uses (name: line): {unused}"
