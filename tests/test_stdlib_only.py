"""The package imports nothing outside the standard library.

The README promises no runtime dependencies, so every absolute import in
``src/symdyn`` must name a module of ``sys.stdlib_module_names``; the
package's own modules import each other relatively.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "symdyn"


def absolute_imports(path):
    """``(line, module)`` for each absolute import statement in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_package_imports_only_the_standard_library():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    stray = [
        f"{path.name}:{line}: {module}"
        for path in files
        for line, module in absolute_imports(path)
        if module.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert stray == []
