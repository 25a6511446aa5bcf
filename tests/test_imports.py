import ast
from pathlib import Path

import newslens


def test_no_relative_import_inside_a_function():
    # A relative import inside a function body can hide an import cycle
    # between package modules; every such import belongs at module level.
    found = set()
    for path in sorted(Path(newslens.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if isinstance(node, ast.ImportFrom) and node.level > 0:
                        found.add(f"{path.name}:{node.lineno}")
    assert not found, f"relative imports inside functions: {sorted(found)}"
