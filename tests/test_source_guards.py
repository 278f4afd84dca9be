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


# The method an operator calls on its operands.
_OPERATOR_METHODS = {ast.Add: "__add__", ast.Sub: "__sub__",
                     ast.Mult: "__mul__", ast.MatMult: "__matmul__",
                     ast.USub: "__neg__"}


def _reached_names(module: str, function: str) -> set[str]:
    """Names reached from a module-level function of the package.

    A function reaches every name it calls or refers to, by itself or as an
    attribute (``x.apply_word(w)``, ``map(power.apply, ...)``), and the
    method of every operator it applies (``A @ B`` reaches ``__matmul__``).
    The module's own functions and methods (by name, whatever their class)
    reached that way are followed in turn, so the set over-approximates
    what the function can run within its module.
    """
    path = PACKAGE / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    defs: dict[str, list[ast.FunctionDef]] = {}
    for node in tree.body:
        body = node.body if isinstance(node, ast.ClassDef) else [node]
        for item in body:
            if isinstance(item, ast.FunctionDef):
                defs.setdefault(item.name, []).append(item)
    seen, todo, reached_names = set(), [function], set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in (n for d in defs[name] for n in ast.walk(d)):
            if isinstance(node, ast.Name):
                reached = node.id
            elif isinstance(node, ast.Attribute):
                reached = node.attr
            elif (isinstance(node, (ast.BinOp, ast.UnaryOp))
                  and type(node.op) in _OPERATOR_METHODS):
                reached = _OPERATOR_METHODS[type(node.op)]
            else:
                continue
            reached_names.add(reached)
            if reached in defs:
                todo.append(reached)
    return reached_names


def test_closed_form_and_trace_route_stay_apart():
    # The closed form is built from power sums; the signed trace forms the
    # blocks kron(wedge^i M, B).  Were both to form the blocks, the trace
    # route would no longer check the closed form independently.
    blocks = {"kron", "exterior_power"}
    assert not blocks & _reached_names("zeta", "zeta_product")
    assert blocks <= _reached_names("reidemeister", "r_product_traces")


def test_image_lengths_and_ring_products_stay_apart():
    # The lengths of the reduced images phi^n(a_i) are the formula route of
    # the twisted power norms; the group-ring products P_n are its oracle.
    # They share the generator images only: were the lengths taken from
    # joined or pushed words, the ring products would check them against
    # their own word code.
    ring_words = {"_join", "apply_word", "_add_product"}
    assert not ring_words & _reached_names("fox", "power_image_lengths")
    assert ring_words <= _reached_names("fox", "twisted_power_norms")


def test_intlinalg_has_no_fraction_helpers():
    # Sign counts and the cyclotomic test run on IntPolynomial by one
    # integer pseudo-division; a Fraction import would let a second,
    # rational polynomial layer grow back next to it.
    tree = ast.parse((PACKAGE / "intlinalg.py").read_text(encoding="utf-8"))
    modules = {alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names}
    modules |= {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    assert "fractions" not in modules


def test_iterate_check_takes_no_matrix_powers():
    # Root-of-unity eigenvalues are the cyclotomic factors of one
    # characteristic polynomial; powers and determinants of M would be a
    # second test of the same fact.
    powers = {"mat_pow", "det", "__matmul__"}
    assert not powers & _reached_names("zeta", "check_all_iterates_finite")


def test_formula_counts_advance_their_own_iterates():
    # The formula counts take M^n = M^(n-1) M and phi_F^n = phi_F phi_F^(n-1)
    # in one pass; a power from scratch for each n costs O(N^2).  The trace
    # route and the oracle keep their own iterates, so that neither is
    # handed the formula's M^n.
    assert not ({"mat_pow", "iterate_endo"}
                & _reached_names("reidemeister", "r_product_counts"))
    for route in ("r_product_traces", "r_product_oracle"):
        assert "r_product_counts" not in _reached_names("reidemeister", route)


def test_product_oracle_counts_without_the_formula():
    # The oracle multiplies the Smith coset count by an orbit enumeration
    # of F; a determinant, the fixed-class count or the class partition
    # would be the product formula's own factors.
    formula = {"det", "_lattice_count", "r_finite", "class_function_matrix",
               "conjugacy_classes", "r_product_counts"}
    assert not formula & _reached_names("reidemeister", "r_product_oracle")


def test_bounds_decide_without_floats():
    # Each Perron root has an exact dyadic bracket, which decides root <= N
    # for the integer chain norm N; a float compared with a tolerance would
    # let rounding decide the section's agreement.
    assert "float" not in _reached_names("cli", "_bounds")


def test_torsion_routes_stay_apart():
    # The closed-form route evaluates zeta_product, built from power sums;
    # the Lefschetz route takes char_poly of the blocks kron(wedge^i M, B).
    # Were either to reach the other's construction, the identity that
    # compares them would check a route against itself.
    blocks = {"class_function_matrix", "kron", "exterior_power",
              "lefschetz_zeta"}
    power_sums = {"zeta_product", "_power_sums", "_from_power_sums",
                  "_fixed_class_counts"}
    assert not blocks & _reached_names("zeta", "torsion_special_value")
    assert "zeta_product" in _reached_names("zeta", "torsion_special_value")
    assert not power_sums & _reached_names("zeta", "torsion_via_lefschetz")
    assert blocks <= _reached_names("zeta", "torsion_via_lefschetz")


def test_one_product_kernel():
    # Element and matrix products run the one prepared-operand kernel, so
    # the entry-level tests of `*` check the words of the ring-product
    # oracle as well; neither keeps a per-pair join of its own.
    for product in ("__mul__", "__matmul__"):
        reached = _reached_names("fox", product)
        assert "_add_product" in reached
        assert "_join" not in reached
