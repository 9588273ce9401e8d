"""Module boundaries of the package.

Core claims:
- no module of mixvol imports a private (underscore) name from another; the
  one exception is the pair of solvers the CLI module keeps bound under its
  own name so that they can be traced there.
- sampling.map_chunks is the package's only thread pool: no other function
  names ThreadPoolExecutor.
- every name in mixvol.__all__ resolves, and none is listed twice.
- chunked_mc_mean is called only in sampling.py and in
  volumes.sudakov_width, whose statistic is no Gram volume: every Gaussian
  volume estimate goes through expected_gram_volume and its power-of-two
  scaling.
- only sampling.py calls MCEstimate(...) itself; every other module builds
  an estimate through MCEstimate.from_moments, MCEstimate.exact or the
  estimate's own methods.
- no comparison in the package names a kernel kind: what depends on the
  kind is a row of fields._KINDS, so a new kind is a new row; and no code
  of fields.py outside that table names a kind's own _trig_* or _poly_*
  function, so every caller reaches a kind through its row.
- only fields._moments reads a _KINDS row's moments, so every moment is
  read at the one weight scale it sets.
- nothing in the package calls np.linalg.det: geometry.batch_det is the one
  determinant routine.
- in discriminant.py only _second_moment calls batch_det: mixed
  discriminants and Gram second moments share one inclusion-exclusion.
- a binary exponent (frexp) of an array maximum, taken directly or through
  a name bound to one, is taken in three functions only: geometry.split_pow2,
  the helper that divides an array by the power of two of its largest
  entry; discriminant._split_minors, which sets the one scale of the
  exact second moment from the row maxima; and planar._area, which reuses
  the maximum its convexity test reads.
- in fields.py only _chunk_coefficients calls standard_normal: realizations
  have one draw routine, and simulate_realization is a chunk of one of it.
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


def _scopes(node, hit, scope=""):
    """Qualified name of the function around each node below node for which
    hit(node) holds; "" at module level."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        scope = f"{scope}.{node.name}" if scope else node.name
    found = [scope] if hit(node) else []
    for child in ast.iter_child_nodes(node):
        found += _scopes(child, hit, scope)
    return found


def _names_pool(node) -> bool:
    """Whether node is the ThreadPoolExecutor name, as a name, an attribute
    or an import."""
    names = (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))
    return "ThreadPoolExecutor" in names


def _calls(node, name) -> bool:
    """Whether node calls name, as a bare name or an attribute."""
    return isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)
    )


def _package_scopes(hit):
    return {
        (path.name, scope)
        for path in sorted(PACKAGE.glob("*.py"))
        for scope in _scopes(ast.parse(path.read_text(), filename=str(path)), hit)
    }


def test_map_chunks_is_the_only_thread_pool():
    assert _package_scopes(_names_pool) == {("sampling.py", "map_chunks")}


def test_only_sampling_and_sudakov_width_call_the_chunked_mean():
    calls = _package_scopes(lambda node: _calls(node, "chunked_mc_mean"))
    found = {(name, scope) for name, scope in calls if name != "sampling.py"}
    assert found == {("volumes.py", "sudakov_width")}


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


def test_only_moments_reads_a_kind_rows_moments():
    tree = ast.parse((PACKAGE / "fields.py").read_text(), filename="fields.py")
    found = [
        (getattr(statement, "name", None), node.lineno)
        for statement in tree.body
        if getattr(statement, "name", None) != "_moments"
        for node in ast.walk(statement)
        if isinstance(node, ast.Attribute) and node.attr == "moments"
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


def test_one_inclusion_exclusion_calls_batch_det():
    tree = ast.parse((PACKAGE / "discriminant.py").read_text(), filename="discriminant.py")
    assert set(_scopes(tree, lambda node: _calls(node, "batch_det"))) == {"_second_moment"}


def _frexp_of_a_maximum(func) -> bool:
    """Whether func calls frexp on a maximum: a max call in the argument, or
    a name that func binds to an expression with a max call."""
    def has_max(node):
        return any(_calls(inner, "max") for inner in ast.walk(node))

    maxima = {
        target.id
        for node in ast.walk(func)
        if isinstance(node, ast.Assign) and has_max(node.value)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    return any(
        _calls(node, "frexp")
        and any(has_max(arg) or isinstance(arg, ast.Name) and arg.id in maxima for arg in node.args)
        for node in ast.walk(func)
    )


def test_frexp_of_a_maximum_is_taken_in_three_places():
    found = {
        (path.name, node.name)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.FunctionDef) and _frexp_of_a_maximum(node)
    }
    assert found == {
        ("geometry.py", "split_pow2"),
        ("discriminant.py", "_split_minors"),
        ("planar.py", "_area"),
    }


def test_realizations_have_one_draw_routine():
    tree = ast.parse((PACKAGE / "fields.py").read_text(), filename="fields.py")
    assert set(_scopes(tree, lambda node: _calls(node, "standard_normal"))) == {"_chunk_coefficients"}
