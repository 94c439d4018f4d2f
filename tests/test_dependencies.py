"""numpy is fluxlab's only runtime dependency.

Every import in src/fluxlab, at module level or inside a function, names
the standard library, numpy or fluxlab itself.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "fluxlab"}


def _imports():
    """(file name, top-level module) of every import in src/fluxlab;
    a relative import is fluxlab's own."""
    for path in sorted((ROOT / "src" / "fluxlab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = ["fluxlab" if node.level else node.module]
            else:
                continue
            for name in names:
                yield path.name, name.partition(".")[0]


def test_runtime_imports_are_stdlib_numpy_or_fluxlab():
    found = list(_imports())
    # the walk reaches imports inside functions, such as quadrature's lazy pool
    assert ("quadrature.py", "concurrent") in found
    outside = sorted({(f, m) for f, m in found if m not in ALLOWED})
    assert outside == []
