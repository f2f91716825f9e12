"""The library depends on numpy and the standard library only, and the tests'
reference formulas on nothing else either: not even on difprec."""

import ast
import subprocess
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


def test_oracles_import_only_numpy_and_stdlib():
    path = Path(__file__).with_name("oracles.py")
    names = set(imported_top_level_names(path))
    assert "numpy" in names
    stray = names - ({"numpy"} | set(sys.stdlib_module_names))
    assert not stray, f"tests/oracles.py imports outside numpy + stdlib: {sorted(stray)}"


def test_importing_difprec_leaves_multiprocessing_out():
    """Only a --jobs > 1 run imports the process pool, and with it
    multiprocessing: a fresh interpreter's import of the library does not."""
    src = str(Path(difprec.__file__).parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import difprec; print('multiprocessing' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
