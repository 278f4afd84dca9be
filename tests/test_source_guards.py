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
    attribute (``x.apply_word(w)``, ``map(pieces.__getitem__, w)``), and the
    method of every operator it applies (``A @ B`` reaches ``__matmul__``).
    Annotations name types and run nothing, so they reach nothing.  An
    operator with an int literal operand (``2 * hi``, ``n - 1``, ``-1``)
    reaches no method: no operator method of the package takes an int.  The
    module's own functions and methods (by name, whatever their class)
    reached that way are followed in turn, so the set over-approximates
    what the function can run within its module.
    """
    path = PACKAGE / f"{module}.py"
    return _reached_in(path.read_text(encoding="utf-8"), function)


def _int_literal(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) is int


def _reached_in(source: str, function: str) -> set[str]:
    """``_reached_names`` of a function of the module source."""
    tree = ast.parse(source)
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
        for node in (n for d in defs[name] for n in _runtime_nodes(d)):
            if isinstance(node, ast.Name):
                reached = node.id
            elif isinstance(node, ast.Attribute):
                reached = node.attr
            elif (isinstance(node, (ast.BinOp, ast.UnaryOp))
                  and type(node.op) in _OPERATOR_METHODS
                  and not any(map(_int_literal, ast.iter_child_nodes(node)))):
                reached = _OPERATOR_METHODS[type(node.op)]
            else:
                continue
            reached_names.add(reached)
            if reached in defs:
                todo.append(reached)
    return reached_names


def _runtime_nodes(node: ast.AST) -> list[ast.AST]:
    """The nodes of ``ast.walk(node)`` outside annotations."""
    annotations = {id(n) for a in ast.walk(node)
                   for field in ("annotation", "returns")
                   if isinstance(getattr(a, field, None), ast.AST)
                   for n in ast.walk(getattr(a, field))}
    return [n for n in ast.walk(node) if id(n) not in annotations]


def test_annotations_reach_nothing():
    # A parameter typed FreeGroupEndo does not build one; a call does.
    source = """
class FreeGroupEndo:
    def __post_init__(self):
        return _validate(self)

def typed(phi: FreeGroupEndo, n: int) -> FreeGroupEndo:
    x: FreeGroupEndo = phi
    return x

def built(rank, images):
    return FreeGroupEndo(rank, images)
"""
    assert not {"FreeGroupEndo", "int"} & _reached_in(source, "typed")
    assert "FreeGroupEndo" in _reached_in(source, "built")


def test_int_literal_operands_reach_no_operator_method():
    # 2 * hi is integer arithmetic; read as GroupRingElement.__mul__, it
    # would make any function that doubles an int reach the ring products.
    source = """
class GroupRingElement:
    def __mul__(self, other):
        return _add_product(self, other)

def doubled(hi, n):
    return 2 * hi, hi * 2, n - 1, -1

def squared(x):
    return x * x
"""
    doubled = _reached_in(source, "doubled")
    assert not {"__mul__", "__sub__", "__neg__", "_add_product"} & doubled
    assert {"__mul__", "_add_product"} <= _reached_in(source, "squared")


def test_closed_form_and_trace_route_stay_apart():
    # The closed form is built from power sums of one characteristic
    # polynomial; the signed trace reads the traces of the factors
    # wedge^i M and B of the blocks kron(wedge^i M, B) off the principal
    # minors of M^n and the powers of B.  Were the closed form to reach
    # those kernels, or the trace route the formula's determinants and
    # counts, neither would check the other independently.
    factors = {"wedge_traces", "power_traces", "class_function_matrix"}
    traces = _reached_names("reidemeister", "r_product_traces")
    assert factors <= traces
    assert not {"det", "_lattice_count", "r_finite",
                "r_product_counts"} & traces
    assert not ({"kron", "exterior_power"} | factors) & _reached_names(
        "zeta", "zeta_product")


def test_image_lengths_and_ring_products_stay_apart():
    # The lengths of the reduced images phi^n(a_i) are the formula route of
    # the twisted power norms; the group-ring products P_n are its oracle.
    # They share the generator images only: were the lengths taken from
    # joined or pushed words, the ring products would check them against
    # their own word code.  The lengths reduce at piece junctions, not
    # letter by letter, and the products, which run on prefix chains and
    # push A through phi^(n-1) by one sweep of prefix images, keep away
    # from that junction code.  The products take the generator images as
    # words the module reduced itself: they build no FreeGroupEndo, whose
    # construction would validate every long image again at each step.
    ring_words = {"_join", "apply_word", "_prefix_images", "_add_product"}
    chains = {"_chain_matmul", "_canonical", "_merge", "_chains", "_words",
              "_nonzero"}
    image_words = {"_reduced_product", "_cancelled_length"}
    lengths = _reached_names("fox", "power_image_lengths")
    products = _reached_names("fox", "twisted_power_norms")
    assert not (ring_words | chains | {"free_reduce"}) & lengths
    assert image_words <= lengths
    assert {"_join", "_prefix_images", "_add_product", "_chain_matmul",
            "_canonical", "_chains"} <= products
    assert not image_words & products
    assert not {"FreeGroupEndo", "__post_init__"} & products


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


def test_root_facts_stay_in_integers():
    # Eigenvalue sign counts, the Perron bracket and the cyclotomic test are
    # exact decisions.  A float, a Fraction or a true division anywhere in
    # what they run would let rounding, or a second rational layer, decide
    # them; Newton steps too propose their cells by floor division.
    tree = ast.parse((PACKAGE / "intlinalg.py").read_text(encoding="utf-8"))
    defs = {item.name: item for node in tree.body
            for item in (node.body if isinstance(node, ast.ClassDef)
                         else [node])
            if isinstance(item, ast.FunctionDef)}
    for root in ("count_eigen_signs", "largest_real_root",
                 "first_cyclotomic_factor"):
        reached = _reached_names("intlinalg", root)
        assert not {"float", "Fraction", "__truediv__"} & reached, root
        for name in {root} | (reached & set(defs)):
            for node in _runtime_nodes(defs[name]):
                assert not (isinstance(node, (ast.BinOp, ast.AugAssign))
                            and isinstance(node.op, ast.Div)), (root, name)
                assert not (isinstance(node, ast.Constant)
                            and isinstance(node.value, float)), (root, name)


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


def test_one_counts_section_for_every_product_kind():
    # finite documents are Z^0 x F and abelian ones Z^k x 1, so all three
    # kinds count by the product routes; a per-kind route next to them
    # would be a second path that the product guards do not see.
    from twistedzeta import cli
    assert {cli._SECTIONS[kind]["counts"]
            for kind in ("finite", "abelian", "product")} == {cli._counts}
    counts = _reached_names("cli", "_counts")
    assert {"r_product_counts", "r_product_traces",
            "r_product_oracle"} <= counts
    assert not {"r_abelian_smith", "r_abelian_trace", "r_finite",
                "class_function_matrix", "phi_conjugacy_classes"} & counts


def test_bounds_decide_without_floats():
    # Each Perron root has an exact dyadic bracket, which decides root <= N
    # for the integer chain norm N; a float compared with a tolerance would
    # let rounding decide the section's agreement.
    assert "float" not in _reached_names("cli", "_bounds")


def test_torsion_routes_stay_apart():
    # The closed-form route evaluates zeta_product, built from the power
    # sums of char_poly(M) and the fixed-class counts; the Lefschetz route
    # builds each det(I - (wedge^i M (x) B) z) by its own Newton step from
    # the principal minors of M^m and the power traces of B.  Were either
    # to reach the other's construction, the identity that compares them
    # would check a route against itself.
    blocks = {"class_function_matrix", "kron", "exterior_power",
              "lefschetz_zeta", "_alternating_product", "wedge_traces",
              "power_traces", "_factor_from_traces"}
    power_sums = {"zeta_product", "_power_sums", "_from_power_sums",
                  "_fixed_class_counts"}
    dual = {"class_function_matrix", "wedge_traces", "power_traces"}
    assert not blocks & _reached_names("zeta", "torsion_special_value")
    assert "zeta_product" in _reached_names("zeta", "torsion_special_value")
    assert not power_sums & _reached_names("zeta", "torsion_via_lefschetz")
    assert dual <= _reached_names("zeta", "torsion_via_lefschetz")


def test_one_product_kernel():
    # Element and matrix products run the one prepared-operand kernel, so
    # the entry-level tests of `*` check the words of the ring-product
    # oracle as well; neither keeps a per-pair join of its own.
    for product in ("__mul__", "__matmul__"):
        reached = _reached_names("fox", product)
        assert "_add_product" in reached
        assert "_join" not in reached
