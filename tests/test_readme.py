"""The README's library quick tour runs, and shows what its comments say."""

import ast
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_tour() -> str:
    """The fenced Python block under the "Library quick tour" heading."""
    section = README.read_text(encoding="utf-8").split(
        "## Library quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_tour():
    # Each statement runs in order.  An expression with a comment on its
    # last line shows that comment: what it prints, or else its repr.
    source = quick_tour()
    lines, namespace, shown = source.splitlines(), {}, []
    for stmt in ast.parse(source).body:
        tail = lines[stmt.end_lineno - 1][stmt.end_col_offset:].strip()
        if isinstance(stmt, ast.Expr) and tail.startswith("#"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                value = eval(compile(ast.Expression(stmt.value), README.name,
                                     "eval"), namespace)
            comment = tail[1:].strip()
            assert (out.getvalue().strip() or repr(value)) == comment
            shown.append(comment)
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), README.name,
                         "exec"), namespace)
    assert shown == ["3", "(1 + z)^1 * (1 - 2*z)^-1", "(1, 3, 6, 12)",
                     "Fraction(-1, 2)", "2.0"]
