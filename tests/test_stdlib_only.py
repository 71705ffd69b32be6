"""The package imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "lawson").glob("*.py"))


def test_every_absolute_import_is_in_the_standard_library():
    assert SOURCES
    outside = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            top = (module.split(".")[0] for module in modules)
            outside += [f"{path.name}: {m}" for m in top if m not in sys.stdlib_module_names]
    assert outside == []
