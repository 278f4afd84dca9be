"""Spans around the calls into the package's public functions.

The spans are taken from outside the package: every public module-level
function of the six layer modules is replaced, in every ``twistedzeta``
namespace that holds it, by a wrapper that records a span.  The modules
import each other's functions by name (``from .intlinalg import det``), so
patching only the defining module would miss most calls.

A span is (name, start, end, parent span, document id, raised, value).
Spans nest strictly because the run has one thread, so a span's self time
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "twistedzeta"
LAYERS = ("cli", "intlinalg", "groups", "reidemeister", "zeta", "fox")

# Word and arithmetic helpers called in the innermost loops: their time is
# charged to the caller instead of spanned.
UNSPANNED = {"free_reduce", "word_inverse", "ring_norm", "mobius"}


def _rows(args, result):
    return args[0].rows


def _order(args, result):
    return result.order


def _first_order(args, result):
    return result[0].order


def _value(args, result):
    return result


# A number recorded with each span of these functions: the dimension of a
# characteristic polynomial, the order of a multiplication table built, the
# norm returned.
SPAN_VALUE = {
    "intlinalg.char_poly": _rows,
    "groups.group_from_permutations": _order,
    "groups.trivial_group": _order,
    "groups.eventual_image": _first_order,
    "fox.twisted_power_norm": _value,
}


class Tracer:
    """Records spans while installed; restores the package on ``remove``."""

    def __init__(self):
        self.spans: list = []
        self.doc_id = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        measure = SPAN_VALUE.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            raised = True
            value = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                if measure is not None:
                    value = measure(args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.doc_id,
                                raised, value)

        return wrapper

    def install(self) -> list[str]:
        """Wrap every public function of the layer modules; return names."""
        modules = {name: sys.modules[f"{PACKAGE}.{name}"] for name in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_") and attr not in UNSPANNED):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((namespace, attr, obj))
                    setattr(namespace, attr, wrappers[obj])
        return sorted(f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
                      for fn in wrappers)

    def remove(self) -> None:
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def aggregate(spans, functions, keep_doc) -> tuple[dict, dict]:
    """Per-function and per-layer totals over the spans of kept documents.

    Returns a table of ``<fn>.calls``, ``<fn>.total_s`` and ``<fn>.self_s``
    for every function (0 when never called), ``<layer>.self_s`` and
    ``<layer>.raised`` (exceptions leaving the layer: raised by a span whose
    parent is in another layer or absent), and the recorded span values per
    function.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, doc, raised, value in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for fn in functions:
        out[f"{fn}.calls"] = 0
        out[f"{fn}.total_s"] = 0.0
        out[f"{fn}.self_s"] = 0.0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.raised"] = 0
    values = defaultdict(list)
    for index, (name, start, end, parent, doc, raised, value) in \
            enumerate(spans):
        if not keep_doc(doc):
            continue
        duration = end - start
        own = duration - child_time[index]
        out[f"{name}.calls"] += 1
        out[f"{name}.total_s"] += duration
        out[f"{name}.self_s"] += own
        layer = layer_of(name)
        out[f"{layer}.self_s"] += own
        if raised and (parent < 0 or layer_of(spans[parent][0]) != layer):
            out[f"{layer}.raised"] += 1
        if value is not None:
            values[name].append(value)
    return out, values


def emit_seconds(spans, keep_doc) -> float:
    """Time in ``cli.main`` outside ``parse_problem`` and ``run``: argument
    parsing, reading the document and writing the report."""
    total = 0.0
    for name, start, end, parent, doc, raised, value in spans:
        if not keep_doc(doc):
            continue
        if name == "cli.main":
            total += end - start
        elif name in ("cli.parse_problem", "cli.run") and parent >= 0 \
                and spans[parent][0] == "cli.main":
            total -= end - start
    return total
