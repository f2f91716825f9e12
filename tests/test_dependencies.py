"""The library depends on numpy and the standard library only."""

import ast
import sys
from pathlib import Path

import difprec

ALLOWED = {"numpy", "difprec"} | set(sys.stdlib_module_names)


def imported_top_level_names(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_library_imports_only_numpy_and_stdlib():
    sources = sorted(Path(difprec.__file__).parent.glob("*.py"))
    assert sources
    stray = {
        (path.name, name)
        for path in sources
        for name in imported_top_level_names(path)
        if name not in ALLOWED
    }
    assert not stray, f"imports outside numpy + stdlib: {sorted(stray)}"
