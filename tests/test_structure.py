"""Module boundaries of the package.

Core claim: no module of mixvol imports a private (underscore) name from
another; the one exception is the pair of solvers the CLI module keeps
bound under its own name so that they can be traced there.
"""

import ast
from pathlib import Path

import mixvol

PACKAGE = Path(mixvol.__file__).parent
ALLOWED = {("cli.py", "_roots_2d"), ("cli.py", "_zeros_1d")}


def test_no_private_names_imported_across_modules():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found += [
                    (path.name, alias.name)
                    for alias in node.names
                    if alias.name.startswith("_") and (path.name, alias.name) not in ALLOWED
                ]
    assert found == []
