"""Module structure: every import in the library sits at module level.

An import inside a function usually hides an import cycle between library
modules; keeping imports at the top keeps the module graph acyclic and
visible.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "coxeter_l2"


def test_no_import_inside_a_function():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{path.name}:{node.lineno} in {func.name}"
                    for node in ast.walk(func)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert found == []
