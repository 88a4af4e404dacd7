"""Column and derivative versions of the scalar formulas.

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
short-circuits.  Every column version and every gradient (below) is built
so: no formula has a second, hand-written body.  ``max`` and ``min`` of
two or more values keep the builtins' choice on ties (the first argument,
so ``min(-0.0, 0.0)`` is ``-0.0``) and on NaN; ``math.sqrt``,
``math.isinf`` and ``math.nextafter`` map to their numpy counterparts.

A conditional expression computes both branches on every row and picks
one per row, unless its test is a plain ``bool`` (a flag of the caller,
such as ``closed``): then it picks one branch, so a body may switch on
its arguments.  An ``if`` statement tests such a flag, or guards a
single ``raise``: that guard raises when any row trips it.

:func:`derivative` is the forward-mode target: a function's unchanged
code run on duals (:class:`Dual`), a value with its partials by the
variables of :meth:`Dual.seeds`, with ``math`` and every package function
it calls in their dual versions; it needs no numpy.  A column version runs
on duals as it is: its ``where``, ``max``, ``min`` and ``sqrt`` take duals,
so ``derivative`` in a compiled body is the identity.  Each rule is one
function of the tangents, applied entry by entry on numbers and to the
arrays at once on columns, so the bits of both agree, but for the sign of
a zero where a column's conditional picks a constant: its zero tangents
enter the arithmetic, where the number's dual has none.

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
import numbers
import operator
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
    if isinstance(test, bool) or isinstance(test, np.bool_):  # a flag of the caller
        return yes if test else no
    if not (isinstance(yes, Dual) or isinstance(no, Dual)):
        return np.where(test, yes, no)
    # a constant is a dual with zero tangents
    yes, no = (x if isinstance(x, Dual) else Dual(x, 0.0) for x in (yes, no))
    return Dual(np.where(test, yes.value, no.value), np.where(test, yes.tangents, no.tangents))


def _min(*values):
    return functools.reduce(lambda a, b: _where(b < a, b, a), values)


def _max(*values):
    return functools.reduce(lambda a, b: _where(b > a, b, a), values)


def _not(mask):
    return np.logical_not(mask)


def _any(test):
    return np.any(test)


def _sqrt(x, root=math.sqrt):
    """``root`` of a value, and of a dual: d sqrt(v) = dv / (2 sqrt(v))."""
    if not isinstance(x, Dual):
        return root(x)
    r = root(x.value)
    k = 0.5 / r
    return Dual(r, _each(lambda t: t * k, x.tangents))


@functools.cache
def _math() -> types.SimpleNamespace:
    """``math`` as the column versions see it, built on first use."""
    return types.SimpleNamespace(
        sqrt=functools.partial(_sqrt, root=np.sqrt),
        isinf=np.isinf,
        inf=math.inf,
        nextafter=np.nextafter,
    )


#: ``math`` as the dual versions on numbers see it.
_DUAL_MATH = types.SimpleNamespace(sqrt=_sqrt, inf=math.inf)


def _each(rule, *tangents):
    """``rule`` on the tangents of duals: entry by entry of their tuples on
    numbers, on their arrays at once on columns."""
    if isinstance(tangents[0], tuple):
        return tuple([rule(*entries) for entries in zip(*tangents)])
    return rule(*tangents)


@functools.cache
def _units(n: int, number: type) -> tuple:
    """The tangents e_1..e_n of the variables of a dual on numbers of a type."""
    one = number(1)
    return tuple(tuple(one if i == k else one - one for i in range(n)) for k in range(n))


def _on_values(compare):
    return lambda self, o: compare(self.value, o.value if isinstance(o, Dual) else o)


class Dual:
    """A value and its tangents, its partials by the variables of
    :meth:`seeds`: a tuple on numbers, on columns one array whose first axis
    runs over the variables.  An operand that is not a dual is a constant;
    comparisons compare values.  The rules are those the package's formulas
    use: a constant may stand left of ``-`` only."""

    __slots__ = ("value", "tangents")
    __array_ufunc__ = None  # an array operand leaves the operation to the dual

    def __init__(self, value, tangents):
        self.value, self.tangents = value, tangents

    @staticmethod
    def seeds(*values) -> tuple:
        """The variables at ``values``: dual k has the tangent e_k, of the
        numbers' type (float for int) on numbers, an array on columns."""
        n, v = len(values), values[0]
        if isinstance(v, numbers.Number):
            units = _units(n, float if isinstance(v, int) else type(v))
        else:
            units = np.eye(n).reshape((n, n) + (1,) * np.ndim(v))
        return tuple(map(Dual, values, units))

    def __add__(self, o):
        if isinstance(o, Dual):
            return Dual(self.value + o.value, _each(operator.add, self.tangents, o.tangents))
        return Dual(self.value + o, self.tangents)

    def __sub__(self, o):
        if isinstance(o, Dual):
            return Dual(self.value - o.value, _each(operator.sub, self.tangents, o.tangents))
        return Dual(self.value - o, self.tangents)

    def __rsub__(self, o):
        return Dual(o - self.value, _each(operator.neg, self.tangents))

    def __mul__(self, o):
        if isinstance(o, Dual):
            v, w = self.value, o.value
            return Dual(v * w, _each(lambda t, u: t * w + u * v, self.tangents, o.tangents))
        return Dual(self.value * o, _each(lambda t: t * o, self.tangents))

    def __truediv__(self, o):
        if isinstance(o, Dual):
            w = o.value
            q = self.value / w
            return Dual(q, _each(lambda t, u: (t - u * q) / w, self.tangents, o.tangents))
        return Dual(self.value / o, _each(lambda t: t / o, self.tangents))

    def __neg__(self):
        return Dual(-self.value, _each(operator.neg, self.tangents))

    def __abs__(self):
        return _where(self.value < 0.0, -self, self)

    __lt__, __le__, __gt__, __ge__, __eq__, __ne__ = map(
        _on_values, (operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne)
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


@functools.cache
def derivative(fn):
    """The dual version of the package function ``fn`` on numbers (built
    once): its own code, run with the names of its globals that
    :func:`_scope` rebinds."""
    fn = inspect.unwrap(fn)
    scope = _scope(fn, fn.__code__.co_names, _DUAL_MATH, derivative)
    return types.FunctionType(fn.__code__, scope, fn.__name__, fn.__defaults__)


def _scope(fn, names, maths, version) -> dict:
    """fn's globals, each of ``names`` bound to ``math`` rebound to
    ``maths``, to ``derivative`` to the identity, and to a package function
    to ``version`` of it."""
    scope = dict(fn.__globals__)
    for name in names:
        value = scope.get(name)
        if value is math:
            scope[name] = maths
        elif value is derivative:
            scope[name] = lambda f: f
        elif isinstance(value, types.FunctionType) and value.__module__.startswith("pairhull."):
            scope[name] = version(value)
    return scope


def _compile(fn):
    import textwrap  # the one compiler import no other module of a start loads

    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    (node,) = tree.body
    node.decorator_list = []
    ast.increment_lineno(tree, fn.__code__.co_firstlineno - 1)
    used = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
    scope = _scope(fn, used, _math(), elementwise)
    scope.update({name: _BUILTINS[name] for name in used - scope.keys() if name in _BUILTINS})
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
