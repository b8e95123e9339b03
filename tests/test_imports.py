"""Imports of the package stay at module level.

Importing ``fblab`` runs every module, so an import inside a function saves
nothing and hides a dependency between modules.  The one exception is
``scipy.optimize``, whose solvers are looked up at call time.
"""

import ast
from pathlib import Path

import fblab

_ALLOWED = {"scipy.optimize"}


def _function_imports(path: Path) -> list[str]:
    """``file:line module`` of each import inside a function or lambda."""
    found = []
    for scope in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for node in ast.walk(scope):
            if isinstance(node, ast.ImportFrom):
                modules = ["." * node.level + (node.module or "")]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {m}" for m in modules if m not in _ALLOWED]
    return found


def test_no_imports_inside_functions_but_scipy_optimize():
    package = Path(fblab.__file__).parent
    found = sorted({hit for path in package.glob("*.py") for hit in _function_imports(path)})
    assert found == []
