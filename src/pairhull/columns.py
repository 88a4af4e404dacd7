"""Column versions of the scalar formulas, for batches of points.

The cell predicates, the hull pieces and the family formulas are written
once, as arithmetic on the seven named coordinates of a point.  A column
view (:class:`pairhull.core.HullColumns`) carries the same names as numpy
columns, so the arithmetic itself runs on a whole batch unchanged.  Only
the control flow cannot: short-circuit ``and``/``or``, ``not`` and
conditional expressions ask one point a yes-or-no question.

:func:`elementwise` therefore recompiles a scalar function from its own
source with those four constructs made elementwise, and runs it with
every package function it calls replaced by that function's column
version.  The scalar function itself is untouched and keeps its
short-circuits.  Every column version is compiled so: no formula has a
second, hand-written body.  ``max`` and ``min`` of two or more values keep
the builtins' choice on ties (the first argument, so ``min(-0.0, 0.0)`` is
``-0.0``) and on NaN; ``math.sqrt``, ``math.isinf`` and
``math.nextafter`` map to their numpy counterparts.

A conditional expression computes both branches on every row and picks
one per row, unless its test is a plain ``bool`` (a flag of the caller,
such as ``closed``): then it picks one branch, so a body may switch on
its arguments.  An ``if`` statement tests such a flag, or guards a
single ``raise``: that guard raises when any row trips it.

The modules of the scalar functions import numpy as ``np`` from here.
That ``np`` is a stand-in that imports numpy when a column path first
reads a name of it, so a process that only decides short streams row by
row never imports numpy, which is most of its start.  Each name read is
kept on the stand-in, so a later read of it is a plain attribute read.
"""

from __future__ import annotations

import __future__
import ast
import functools
import inspect
import math
import types

#: The compiled column version of each function, by function.
_COLUMN_OF: dict = {}


class _NumpyOnFirstUse:
    """The ``np`` of the package's modules: a name read of it is read of
    numpy, imported then, and kept."""

    def __getattr__(self, name: str):
        import numpy

        value = getattr(numpy, name)
        setattr(self, name, value)
        return value


np = _NumpyOnFirstUse()


def _and(*masks):
    return functools.reduce(np.logical_and, masks)


def _or(*masks):
    return functools.reduce(np.logical_or, masks)


def _where(test, yes, no):
    if isinstance(test, (bool, np.bool_)):  # a flag of the caller
        return yes if test else no
    return np.where(test, yes, no)


def _min(*values):
    return functools.reduce(lambda a, b: np.where(b < a, b, a), values)


def _max(*values):
    return functools.reduce(lambda a, b: np.where(b > a, b, a), values)


def _not(mask):
    return np.logical_not(mask)


def _any(test):
    return np.any(test)


@functools.cache
def _math() -> types.SimpleNamespace:
    """``math`` as the column versions see it, built on first use."""
    return types.SimpleNamespace(
        sqrt=np.sqrt, isinf=np.isinf, inf=math.inf, nextafter=np.nextafter
    )


_BUILTINS = {"max": _max, "min": _min}
_HELPERS = {
    "_columns_and": _and,
    "_columns_or": _or,
    "_columns_not": _not,
    "_columns_where": _where,
    "_columns_any": _any,
}


class _Elementwise(ast.NodeTransformer):
    """and/or/not, conditional expressions and raise guards as helper calls."""

    @staticmethod
    def _call(name: str, args: list, node):
        return ast.copy_location(ast.Call(ast.Name(name, ast.Load()), args, []), node)

    def visit_BoolOp(self, node):
        self.generic_visit(node)
        name = "_columns_and" if isinstance(node.op, ast.And) else "_columns_or"
        return self._call(name, node.values, node)

    def visit_UnaryOp(self, node):
        self.generic_visit(node)
        if isinstance(node.op, ast.Not):
            return self._call("_columns_not", [node.operand], node)
        return node

    def visit_IfExp(self, node):
        self.generic_visit(node)
        return self._call("_columns_where", [node.test, node.body, node.orelse], node)

    def visit_If(self, node):
        self.generic_visit(node)
        if not node.orelse and [type(n) for n in node.body] == [ast.Raise]:
            node.test = self._call("_columns_any", [node.test], node.test)
        return node

    def visit_Compare(self, node):
        if len(node.ops) > 1:
            raise TypeError(f"line {node.lineno}: chained comparisons have no column form")
        self.generic_visit(node)
        return node


def elementwise(fn):
    """The column version of the package function ``fn`` (built once)."""
    fn = inspect.unwrap(fn)
    col = _COLUMN_OF.get(fn)
    if col is None:
        col = _COLUMN_OF[fn] = _compile(fn)
    return col


def _compile(fn):
    import textwrap  # the one compiler import no other module of a start loads

    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    (node,) = tree.body
    node.decorator_list = []
    ast.increment_lineno(tree, fn.__code__.co_firstlineno - 1)
    used = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
    scope = dict(fn.__globals__)
    for name in used:
        value = inspect.unwrap(scope[name]) if name in scope else None
        if value is math:
            scope[name] = _math()
        elif (
            isinstance(value, types.FunctionType)
            and value.__module__.startswith("pairhull.")
        ):
            scope[name] = elementwise(value)
        elif value is None and name in _BUILTINS:
            scope[name] = _BUILTINS[name]
    scope.update(_HELPERS)
    code = compile(
        ast.fix_missing_locations(_Elementwise().visit(tree)),
        fn.__code__.co_filename,
        "exec",
        flags=__future__.annotations.compiler_flag,
        dont_inherit=True,
    )
    exec(code, scope)
    return scope[fn.__name__]
