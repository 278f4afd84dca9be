"""Guards on the package source itself."""

import ast
from pathlib import Path

import twistedzeta

PACKAGE = Path(twistedzeta.__file__).resolve().parent


def _unread_imports(source: str) -> set[str]:
    """The names a module's imports bind that the module never reads;
    ``from __future__`` imports bind no name."""
    tree = ast.parse(source)
    bound = {(alias.asname or alias.name).split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names}
    return bound - {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name)}


def test_unread_imports_are_found():
    source = """
from __future__ import annotations
import os.path
from .m import a, b as c, d

def f(x: a) -> None:
    return os.path.join(c, x)
"""
    assert _unread_imports(source) == {"d"}


def test_every_import_is_read():
    # A name imported and never read is a dependency no code has: it makes
    # a module look as if it leant on a kernel it no longer calls.  The
    # package's __init__ imports its exports, which it reads nowhere.
    unread = {path.name: names for path in sorted(PACKAGE.glob("*.py"))
              if path.name != "__init__.py"
              and (names := _unread_imports(path.read_text(encoding="utf-8")))}
    assert unread == {}


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


def _reached_names(module: str, function: str,
                   follow_operators: bool = True) -> set[str]:
    """Names reached from a module-level function of the package.

    A function reaches every name it calls or refers to, by itself or as an
    attribute (``phi.compose(psi)``, ``map(pieces.__getitem__, w)``), and the
    method of every operator it applies (``A @ B`` reaches ``__matmul__``).
    Annotations name types and run nothing, so they reach nothing.  An
    operator with an int literal operand (``2 * hi``, ``n - 1``, ``-1``)
    reaches no method: no operator method of the package takes an int.  The
    module's own functions and methods (by name, whatever their class)
    reached that way are followed in turn, so the set over-approximates
    what the function can run within its module.  With
    ``follow_operators`` false an operator's method is reached but not
    followed, for functions whose operators all act on ints.
    """
    path = PACKAGE / f"{module}.py"
    return _reached_in(path.read_text(encoding="utf-8"), function,
                       follow_operators)


def _int_literal(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) is int


def _reached_in(source: str, function: str,
                follow_operators: bool = True) -> set[str]:
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
            follow = True
            if isinstance(node, ast.Name):
                reached = node.id
            elif isinstance(node, ast.Attribute):
                reached = node.attr
            elif (isinstance(node, (ast.BinOp, ast.UnaryOp))
                  and type(node.op) in _OPERATOR_METHODS
                  and not any(map(_int_literal, ast.iter_child_nodes(node)))):
                reached = _OPERATOR_METHODS[type(node.op)]
                follow = follow_operators
            else:
                continue
            reached_names.add(reached)
            if follow and reached in defs:
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


def test_unfollowed_operators_are_still_reached():
    # q * row[t] on ints names IntPolynomial.__mul__ by method name only;
    # not following it keeps that method's own names out, and @ still shows.
    source = """
class IntPolynomial:
    def __mul__(self, other):
        return IntMatrix._trusted(other)

def eliminate(q, row, t):
    return q * row[t]

def transformed(L, A):
    return L @ A
"""
    assert "_trusted" in _reached_in(source, "eliminate")
    eliminate = _reached_in(source, "eliminate", follow_operators=False)
    assert "__mul__" in eliminate and "_trusted" not in eliminate
    assert "__matmul__" in _reached_in(source, "transformed",
                                       follow_operators=False)


def _module_functions(module: str) -> set[str]:
    """The names of the module-level functions of a package module."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    return {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef)}


def _reached_through_intlinalg(module: str, function: str,
                               follow_operators: bool = True) -> set[str]:
    """``_reached_names`` of the function, together with the names reached
    within ``intlinalg`` from each module-level function of it that the
    function names: the kernels a route calls, followed one module down,
    their operators followed as ``follow_operators`` says."""
    reached = _reached_names(module, function)
    for name in reached & _module_functions("intlinalg"):
        reached |= _reached_names("intlinalg", name, follow_operators)
    return reached


def test_closed_form_and_trace_route_stay_apart():
    # The closed form is built from power sums of one Faddeev-LeVerrier
    # characteristic polynomial of M, and its cyclotomic test and Sturm
    # sign counts run on that polynomial; the signed trace reads the traces
    # of the factors wedge^i M and B of the blocks kron(wedge^i M, B) off a
    # division-free characteristic polynomial of each M^n and the powers of
    # B, and its infinite iterates and sign parities off its own level
    # sums.  Were the closed form to reach those kernels, or the trace
    # route the closed form's polynomial, root facts or the formula's
    # determinants and counts, neither would check the other independently.
    factors = {"wedge_traces", "power_traces", "class_function_matrix"}
    traces = _reached_through_intlinalg("reidemeister", "r_product_traces")
    assert factors | {"_berkowitz"} <= traces
    root_facts = {"char_poly", "count_eigen_signs",
                  "first_cyclotomic_factor", "cyclotomic", "_sturm_sequence"}
    assert not {"det", "det_rows", "_lattice_count", "r_finite",
                "r_product_counts"} & traces
    assert not root_facts & traces
    # The level kernels' operators act on ints: followed, they would name
    # the polynomial type through its own operator methods.
    assert not (root_facts | {"IntPolynomial"}) & _reached_through_intlinalg(
        "reidemeister", "r_product_traces", follow_operators=False)
    closed = _reached_through_intlinalg("zeta", "zeta_product")
    assert "char_poly" in closed
    assert not ({"kron", "exterior_power", "_berkowitz"} | factors) & closed


def test_level_kernel_reads_no_other_polynomial():
    # The levels come from Berkowitz's recursion alone: Faddeev-LeVerrier,
    # the closed form's Newton steps or an elimination inside it would
    # hand the trace and dual routes a kernel of another route.
    for function in ("_berkowitz", "wedge_traces"):
        reached = _reached_names("intlinalg", function)
        assert not {"char_poly", "_power_sums", "_from_power_sums",
                    "det", "det_rows"} & reached, function
    assert "_berkowitz" in _reached_names("intlinalg", "wedge_traces")


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
              "_nonzero", "_joined"}
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
    # them.
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
    # in one pass; a power from scratch for each n costs O(N^2).  The powers
    # are row lists and each I - M^n a fresh one: no IntMatrix product,
    # identity or difference is formed per n.  The trace route and the
    # oracle keep their own iterates, so that neither is handed the
    # formula's M^n.
    counts = _reached_names("reidemeister", "r_product_counts")
    assert not {"mat_pow", "iterate_endo"} & counts
    assert not {"__matmul__", "__sub__", "identity"} & counts
    assert {"row_powers", "det_rows"} <= counts
    for route in ("r_product_traces", "r_product_oracle",
                  "r_product_oracles"):
        assert "r_product_counts" not in _reached_names("reidemeister", route)


def test_smith_diagonal_forms_no_transform():
    # The coset oracle reads only the Smith diagonal.  Unimodular L and R
    # kept next to it would be matrices that no route reads: the
    # elimination works on lists of ints and builds no IntMatrix.  Its
    # operators all act on entries, so their methods are not followed.
    # Nor does it take a determinant or the formula's lattice count, as a
    # modulus or otherwise: the diagonal's product is the oracle's check
    # of |det(I - M^n)|.
    transforms = {"IntMatrix", "identity", "_trusted", "__matmul__",
                  "det", "det_rows", "_lattice_count"}
    assert not transforms & _reached_names("intlinalg", "smith_normal_form",
                                           follow_operators=False)


def test_product_oracle_counts_without_the_formula():
    # The oracle multiplies the Smith coset count by an orbit enumeration
    # of F; a determinant, the fixed-class count or the class partition
    # would be the product formula's own factors, and the row powers and
    # row-list determinant its kernels.  The ladder for n = 1..N keeps to
    # the same: its size cap reads the Smith coset count it multiplies.
    formula = {"det", "_lattice_count", "r_finite", "class_function_matrix",
               "conjugacy_classes", "r_product_counts", "det_rows",
               "row_powers"}
    for route in ("r_product_oracle", "r_product_oracles"):
        reached = _reached_names("reidemeister", route)
        assert "smith_normal_form" in reached, route
        assert not formula & reached, route


def test_one_counts_section_for_every_product_kind():
    # finite documents are Z^0 x F and abelian ones Z^k x 1, so all three
    # kinds count by the product routes; a per-kind route next to them
    # would be a second path that the product guards do not see.  Each
    # route decides its infinite iterates and the oracle's cap from its
    # own numbers: a shared pre-check or a determinant here would decide
    # for all three.
    from twistedzeta import cli
    assert {cli._SECTIONS[kind]["counts"]
            for kind in ("finite", "abelian", "product")} == {cli._counts}
    counts = _reached_names("cli", "_counts")
    assert {"r_product_counts", "r_product_traces",
            "r_product_oracles"} <= counts
    assert not {"r_abelian_smith", "r_abelian_trace", "r_finite",
                "class_function_matrix", "phi_conjugacy_classes",
                "check_all_iterates_finite", "r_abelian", "det",
                "det_rows"} & counts


def test_sections_read_the_document_alone():
    # A section that read the report so far would depend on the sections
    # run before it; what several of them share is a cached property of
    # the parsed document.
    import inspect
    from twistedzeta import cli
    sections = {section for table in cli._SECTIONS.values()
                for section in table.values()}
    for section in sections:
        assert len(inspect.signature(section).parameters) == 1, section
        assert "report" not in _reached_names("cli", section.__name__), section


def test_bounds_decide_without_floats():
    # Each Perron root has an exact dyadic bracket, which decides root <= N
    # for the integer chain norm N; a float compared with a tolerance would
    # let rounding decide the section's agreement.
    assert "float" not in _reached_names("cli", "_bounds")


def test_torsion_routes_stay_apart():
    # The closed-form route evaluates zeta_product, built from the power
    # sums of char_poly(M) and the fixed-class counts; the Lefschetz route
    # builds each det(I - (wedge^i M (x) B) z) by its own Newton step from
    # the levels of M^m, read off Berkowitz polynomials, and the power
    # traces of B.  Were either to reach the other's construction, the
    # identity that compares them would check a route against itself.
    blocks = {"class_function_matrix", "kron", "exterior_power",
              "lefschetz_zeta", "_alternating_product", "wedge_traces",
              "power_traces", "_factor_from_traces"}
    power_sums = {"zeta_product", "_power_sums", "_from_power_sums",
                  "_fixed_class_counts"}
    dual = {"class_function_matrix", "wedge_traces", "power_traces"}
    for route in ("torsion_special_value", "zeta_product"):
        assert not blocks & _reached_names("zeta", route), route
    for route in ("torsion_via_lefschetz", "dual_lefschetz_zeta"):
        assert not power_sums & _reached_names("zeta", route), route
    assert dual <= _reached_names("zeta", "dual_lefschetz_zeta")
    lefschetz = _reached_through_intlinalg("zeta", "dual_lefschetz_zeta")
    assert "_berkowitz" in lefschetz
    assert not {"char_poly", "det", "det_rows"} & lefschetz


def test_zeta_forms_are_built_by_their_owners():
    # The closed form and the dual are built once, by the report that
    # reads them, and passed in.  A function of zeta.py that built one
    # again would run a path the command line never runs: a guard proved
    # on it would not hold for the program.
    builders = {"zeta_product", "dual_lefschetz_zeta"}
    for function in _module_functions("zeta"):
        assert not builders & _reached_names("zeta", function), function


def test_only_the_identities_merge_by_exponents():
    # The functional equation and the torsion identity compare maps
    # {factor: summed exponent} built by _exponents.  The closed form and
    # the dual merge their factors by their own loops: a fault in a merge
    # they shared would reach both sides of the identity unseen.
    for route in ("zeta_product", "dual_lefschetz_zeta", "expand_rational",
                  "torsion_special_value", "torsion_via_lefschetz"):
        assert "_exponents" not in _reached_names("zeta", route), route
    for identity in ("lefschetz_identity", "functional_equation_check"):
        assert "_exponents" in _reached_names("zeta", identity)


def test_one_product_kernel():
    # Element and matrix products run the one prepared-operand kernel, so
    # the entry-level tests of `*` check the words of the ring-product
    # oracle as well; neither keeps a per-pair join of its own.
    for product in ("__mul__", "__matmul__"):
        reached = _reached_names("fox", product)
        assert "_add_product" in reached
        assert "_join" not in reached
