"""Guards on the package source itself."""

import ast
from pathlib import Path

import twistedzeta

PACKAGE = Path(twistedzeta.__file__).resolve().parent


def test_no_assert_statements():
    # `python -O` strips assert statements, so a check written as one
    # silently stops running; every check must raise explicitly.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"


def _called_names(module: str, function: str) -> set[str]:
    """Names called by a module-level function of the package and, in turn,
    by the module's own functions that it calls."""
    path = PACKAGE / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    defs = {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)}
    seen, todo, called = set(), [function], set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                called.add(node.func.id)
                if node.func.id in defs:
                    todo.append(node.func.id)
    return called


def test_closed_form_and_trace_route_stay_apart():
    # The closed form is built from power sums; the signed trace forms the
    # blocks kron(wedge^i M, B).  Were both to form the blocks, the trace
    # route would no longer check the closed form independently.
    blocks = {"kron", "exterior_power"}
    assert not blocks & _called_names("zeta", "zeta_product")
    assert blocks <= _called_names("reidemeister", "r_product_traces")
