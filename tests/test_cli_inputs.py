"""CLI subcommands read their inputs only from the resolved dict.

``build_parser`` declares each subcommand's inputs once, and ``main``
resolves them once, from flag, geometry file or default, into the dict that
each ``_cmd_*`` computes from and echoes in json.  So no ``_cmd_*`` may read
an input of ``cli._INPUTS`` from ``args`` or rebuild the echo as a dict
literal with those keys.
"""

import ast
import pathlib

from wsegre.cli import _INPUTS

SOURCE = pathlib.Path(__file__).resolve().parents[1] / "src" / "wsegre" / "cli.py"


def _input_uses(func):
    for node in ast.walk(func):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "args" and node.attr in _INPUTS):
            yield f"args.{node.attr}"
        elif isinstance(node, ast.Dict):
            yield from (f"{{{key.value!r}: ...}}" for key in node.keys
                        if isinstance(key, ast.Constant) and key.value in _INPUTS)


def test_commands_take_inputs_only_from_the_resolved_dict():
    commands = [
        node for node in ast.parse(SOURCE.read_text(), filename=str(SOURCE)).body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")
    ]
    assert len(commands) >= 9
    assert [f"{func.name}: {use}" for func in commands for use in _input_uses(func)] == []
