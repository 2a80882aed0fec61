"""The runtime imports only the standard library, and starts without the
slow part of it.

``README.md`` promises a runtime with no third-party dependency
(``pyproject.toml`` lists none).  Every absolute ``import`` in the package
sources must therefore name a module of ``sys.stdlib_module_names``;
relative imports stay inside the package and are skipped.  Every CLI call
is a fresh process, so importing the CLI must not load ``dataclasses`` and
the chain it pulls in (``inspect``, ``ast``, ``dis``, ``tokenize``, ...).
The sources also parse as the oldest Python ``pyproject.toml`` declares
(``requires-python = ">=3.10"``), so a newer syntax cannot slip in unseen
while the suite runs on a newer interpreter.
"""

import ast
import os
import pathlib
import subprocess
import sys

PYTHON_FLOOR = (3, 10)
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


def test_package_parses_as_the_declared_python_floor():
    project = (SOURCES[0].parents[2] / "pyproject.toml").read_text()
    assert f'requires-python = ">={PYTHON_FLOOR[0]}.{PYTHON_FLOOR[1]}"' in project
    for path in SOURCES:
        ast.parse(path.read_text(), filename=str(path), feature_version=PYTHON_FLOOR)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # The child imports the package from these sources, installed or not.
    src = str(SOURCES[0].parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = ("import sys; before = set(sys.modules); import wsegre.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
