"""Module boundaries of the package.

Core claims:
- no module of mixvol imports a private (underscore) name from another; the
  one exception is the pair of solvers the CLI module keeps bound under its
  own name so that they can be traced there.
- sampling.map_chunks is the package's only thread pool: no other function
  names ThreadPoolExecutor.
- every name in mixvol.__all__ resolves, and none is listed twice.
- only sampling.py calls MCEstimate(...) itself; every other module builds
  an estimate through MCEstimate.from_moments, MCEstimate.exact or the
  estimate's own methods.
- no comparison in the package names a kernel kind: what depends on the
  kind is a row of fields._KINDS, so a new kind is a new row; and no code
  of fields.py outside that table names a kind's own _trig_* or _poly_*
  function, so every caller reaches a kind through its row.
- nothing in the package calls np.linalg.det: geometry.batch_det is the one
  determinant routine.
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


def _pool_scopes(node, scope=""):
    """Qualified name of the function around each ThreadPoolExecutor name
    (as a name, an attribute or an import) below node; "" at module level."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        scope = f"{scope}.{node.name}" if scope else node.name
    names = (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))
    found = [scope] if "ThreadPoolExecutor" in names else []
    for child in ast.iter_child_nodes(node):
        found += _pool_scopes(child, scope)
    return found


def test_map_chunks_is_the_only_thread_pool():
    found = {
        (path.name, scope)
        for path in sorted(PACKAGE.glob("*.py"))
        for scope in _pool_scopes(ast.parse(path.read_text(), filename=str(path)))
    }
    assert found == {("sampling.py", "map_chunks")}


def test_every_export_resolves_once():
    missing = [name for name in mixvol.__all__ if not hasattr(mixvol, name)]
    assert missing == []
    assert len(set(mixvol.__all__)) == len(mixvol.__all__)


def test_only_sampling_calls_the_estimate_constructor():
    found = [
        (path.name, node.lineno)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "sampling.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and "MCEstimate" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert found == []


def _names_a_kind(node) -> bool:
    """Whether the TRIG or POLYNOMIAL constant, or its string, occurs below node."""
    return any(
        {getattr(n, "id", None), getattr(n, "attr", None)} & {"TRIG", "POLYNOMIAL"}
        or (isinstance(n, ast.Constant) and n.value in ("trig", "polynomial"))
        for n in ast.walk(node)
    )


def test_no_comparison_names_a_kernel_kind():
    found = [
        (path.name, node.lineno)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Compare) and _names_a_kind(node)
    ]
    assert found == []


def test_kind_functions_are_named_only_in_the_kind_table():
    tree = ast.parse((PACKAGE / "fields.py").read_text(), filename="fields.py")
    found = [
        (getattr(statement, "name", None), node.lineno, node.id)
        for statement in tree.body
        if not (isinstance(statement, ast.Assign) and ast.unparse(statement.targets[0]) == "_KINDS")
        for node in ast.walk(statement)
        if isinstance(node, ast.Name) and node.id.startswith(("_trig_", "_poly_"))
    ]
    assert found == []


def test_batch_det_is_the_only_determinant():
    found = [
        (path.name, node.lineno)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Call) and ast.unparse(node.func).endswith("linalg.det"))
        or (isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg"
            and any(alias.name == "det" for alias in node.names))
    ]
    assert found == []
