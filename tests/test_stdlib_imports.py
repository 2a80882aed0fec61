"""The runtime imports only the standard library.

``README.md`` promises a runtime with no third-party dependency
(``pyproject.toml`` lists none).  Every absolute ``import`` in the package
sources must therefore name a module of ``sys.stdlib_module_names``;
relative imports stay inside the package and are skipped.
"""

import ast
import pathlib
import sys

SOURCES = sorted((pathlib.Path(__file__).resolve().parents[1] / "src" / "wsegre").glob("*.py"))


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_the_standard_library():
    assert len(SOURCES) >= 9
    outside = [
        f"{path.name}: {name}"
        for path in SOURCES
        for name in _imported_modules(path)
        if name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []
