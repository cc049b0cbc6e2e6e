"""The package needs nothing at run time beyond the standard library and numpy."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fedsmell"


def absolute_imports(path):
    """The module named by each absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_absolute_import_is_stdlib_or_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    imports = [(path.name, module) for path in sorted(PACKAGE.glob("*.py"))
               for module in absolute_imports(path)]
    assert ("nn.py", "numpy") in imports  # the scan reads the package's sources
    assert [(name, module) for name, module in imports
            if module.partition(".")[0] not in allowed] == []
