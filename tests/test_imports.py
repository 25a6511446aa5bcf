import ast
import os
import subprocess
import sys
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


def _module_bindings(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module's top-level statements, with their lines."""
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        bound[name.id] = node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    return bound


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_module_level_name_is_read():
    # A module-level name that nothing in its module reads, and that the
    # module does not export through __all__, is dead code.
    found = set()
    for path in sorted(Path(newslens.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        exempt = read | _exported(tree)
        for name, line in _module_bindings(tree).items():
            dunder = name.startswith("__") and name.endswith("__")
            if name not in exempt and not dunder:
                found.add(f"{path.name}:{line} {name}")
    assert not found, f"module-level names never read: {sorted(found)}"


# Exported names nothing in the package reads, each with why it stays.
UNREAD_EXPORTS = {
    "sentiment.tally_mentions": "acceptance criterion 01 calls it",
    "tsstats.spearman": "acceptance criterion 05 calls it",
    "sentiment.score_sentence": "the rule scorer's public entry; its tests and oracles call it",
    "tsstats.adf_test": "acceptance criterion 06 calls it",
}


def test_every_exported_name_is_read():
    # A name in __all__ that neither its own module reads nor another
    # module imports is dead code unless UNREAD_EXPORTS says why it stays.
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(Path(newslens.__file__).parent.glob("*.py"))
    }
    read = set()
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(f"{name}.{node.id}")
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                read.update(f"{node.module}.{alias.name}" for alias in node.names)
    exported = {f"{name}.{e}" for name, tree in trees.items() for e in _exported(tree)}
    assert sorted(exported - read) == sorted(UNREAD_EXPORTS)


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats costs most of the package's import time, and
    # scipy.sparse.linalg (only the NMF start's svds route needs it) about
    # half a second; nothing on the CLI's import path, nor on a library
    # caller's (config, pipeline, report), may pull either in.  Nor
    # scipy.special, about 47 ms and 5.6 MiB over scipy.sparse: the slope
    # test computes its Student's t tail in tsstats.  Nor xml.sax or
    # urllib.request: chart text is escaped with html.escape.
    env = dict(os.environ, PYTHONPATH=str(Path(newslens.__file__).parent.parent))
    code = (
        "import sys, newslens.cli, newslens.config, newslens.pipeline, newslens.report; "
        "print([m for m in ('scipy.stats', 'scipy.special', 'scipy.sparse.linalg',"
        " 'urllib.request', 'xml.sax') if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.strip() == "[]"
