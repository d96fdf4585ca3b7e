"""Forward-mode automatic differentiation for chart functions.

Two lift types carry every derivative.  Mixed partials up to total order
4 nest first-order :class:`VDual` numbers, one level per differentiation:
``vlift`` lifts in all n directions, ``derive`` in the one direction of
each index, and ``split`` reads a lifted result.  At every level *all*
coordinates are lifted into fresh duals, so any value flowing through the
target function is either a plain number or a dual of the current level;
no perturbation mixing between levels can occur.

Second order has its own Taylor jet, :class:`Jet2` (value, gradient and
packed Hessian as stacked arrays), which is always the innermost level:
``lift2``/``read2``/``jet2`` use it, and outer VDual levels may be lifted
over it (a third or fourth derivative).

A Richardson-extrapolated central-difference backend is provided as an
independent cross-check for orders up to 3.

Component functions must be written against the math wrappers exported
here (``sin``, ``exp``, ...), which accept plain floats and duals alike.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import OrderTooHigh

MAX_ORDER = 4


class VDual:
    """Vector-mode dual number: value plus one derivative per direction.

    A single lifted evaluation yields all n first partials at once,
    which is what the curvature pipeline wants (it always needs full
    coordinate gradients); ``derive`` lifts in one direction per level.
    Components may be floats, (m,) columns (numpy defers to these operators
    because __array_ufunc__ is None), Jet2s or nested VDuals.
    """

    __slots__ = ("a", "b")
    __array_ufunc__ = None

    def __init__(self, a, b):
        self.a = a
        self.b = b  # list, one entry per direction

    def __repr__(self):
        return f"VDual({self.a!r}, {self.b!r})"

    def __add__(self, o):
        if isinstance(o, VDual):
            return VDual(self.a + o.a, [x + y for x, y in zip(self.b, o.b)])
        return VDual(self.a + o, self.b)

    __radd__ = __add__

    def __sub__(self, o):
        if isinstance(o, VDual):
            return VDual(self.a - o.a, [x - y for x, y in zip(self.b, o.b)])
        return VDual(self.a - o, self.b)

    def __rsub__(self, o):
        return VDual(o - self.a, [-x for x in self.b])

    def __neg__(self):
        return VDual(-self.a, [-x for x in self.b])

    def __pos__(self):
        return self

    def __mul__(self, o):
        if isinstance(o, VDual):
            sa, oa = self.a, o.a
            return VDual(
                sa * oa, [sa * y + x * oa for x, y in zip(self.b, o.b)]
            )
        return VDual(self.a * o, [x * o for x in self.b])

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, VDual):
            aa = self.a / o.a
            return VDual(aa, [(x - aa * y) / o.a for x, y in zip(self.b, o.b)])
        return VDual(self.a / o, [x / o for x in self.b])

    def __rtruediv__(self, o):
        aa = o / self.a
        return VDual(aa, [-aa * x / self.a for x in self.b])

    def __pow__(self, p):
        if isinstance(p, VDual):
            raise TypeError("dual exponents are not supported")
        if p == 0:
            return VDual(self.a ** 0, [0.0] * len(self.b))
        if p == 1:
            return self
        fac = p * self.a ** (p - 1)
        return VDual(self.a ** p, [fac * x for x in self.b])

    def __rpow__(self, base):
        return exp(self * math.log(base))


@lru_cache(maxsize=None)
def _triangle(n):
    """Row and column index of each packed upper-triangle slot (row-major,
    i <= j), and the slot of every (i, j) as nested lists."""
    rows, cols = np.triu_indices(n)
    slot = np.zeros((n, n), dtype=int)
    slot[rows, cols] = slot[cols, rows] = np.arange(len(rows))
    return rows, cols, slot.tolist()


class Jet2:
    """Second-order Taylor jet in n coordinates (Griewank & Walther,
    *Evaluating Derivatives*, ch. 13).

    ``v`` is the value (a float, or an array of shape S over a batch),
    ``g`` the gradient (n, *S) and ``h`` the upper triangle of the Hessian
    packed row by row, (n(n+1)/2, *S).  Jet2 is always the innermost lift:
    an operation with a VDual operand returns NotImplemented so
    that the outer type carries the Jet2 in its components.  The product
    and quotient rules group their terms as two nested VDual levels would
    (hess[i][j] is the inner direction i of the outer direction j), so both
    round alike.
    """

    __slots__ = ("v", "g", "h")
    __array_ufunc__ = None

    def __init__(self, v, g, h):
        self.v = v
        self.g = g
        self.h = h

    def __repr__(self):
        return f"Jet2({self.v!r}, {self.g!r}, {self.h!r})"

    def __add__(self, o):
        if isinstance(o, Jet2):
            return Jet2(self.v + o.v, self.g + o.g, self.h + o.h)
        if isinstance(o, VDual):
            return NotImplemented
        return Jet2(self.v + o, self.g, self.h)

    __radd__ = __add__

    def __sub__(self, o):
        if isinstance(o, Jet2):
            return Jet2(self.v - o.v, self.g - o.g, self.h - o.h)
        if isinstance(o, VDual):
            return NotImplemented
        return Jet2(self.v - o, self.g, self.h)

    def __rsub__(self, o):
        return Jet2(o - self.v, -self.g, -self.h)

    def __neg__(self):
        return Jet2(-self.v, -self.g, -self.h)

    def __pos__(self):
        return self

    def __mul__(self, o):
        if isinstance(o, Jet2):
            i, j = _triangle(len(self.g))[:2]
            a, b, ga, gb = self.v, o.v, self.g, o.g
            h = (a * o.h + ga[i] * gb[j]) + (ga[j] * gb[i] + self.h * b)
            return Jet2(a * b, a * gb + ga * b, h)
        if isinstance(o, VDual):
            return NotImplemented
        return Jet2(self.v * o, self.g * o, self.h * o)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, Jet2):
            i, j = _triangle(len(self.g))[:2]
            b, gb = o.v, o.g
            q = self.v / b
            dq = (self.g - q * gb) / b
            h = ((self.h - (q * o.h + dq[i] * gb[j])) - dq[j] * gb[i]) / b
            return Jet2(q, dq, h)
        if isinstance(o, VDual):
            return NotImplemented
        return Jet2(self.v / o, self.g / o, self.h / o)

    def __rtruediv__(self, o):
        i, j = _triangle(len(self.g))[:2]
        a, g = self.v, self.g
        q = o / a
        dq = (-q) * g / a
        return Jet2(q, dq, (((-q) * self.h - dq[i] * g[j]) - dq[j] * g[i]) / a)

    def __pow__(self, p):
        if isinstance(p, (VDual, Jet2)):
            raise TypeError("dual exponents are not supported")
        if p == 0:
            return Jet2(self.v**0, np.zeros_like(self.g), np.zeros_like(self.h))
        if p == 1:
            return self
        a = self.v
        return _chain(self, a**p, p * a ** (p - 1), p * (p - 1) * a ** (p - 2))

    def __rpow__(self, base):
        return exp(self * math.log(base))


def _chain(x, f0, f1, f2):
    """f(x) for a Jet2 ``x``, from f, f' and f'' at its value."""
    i, j = _triangle(len(x.g))[:2]
    return Jet2(f0, f1 * x.g, f1 * x.h + (f2 * x.g[i]) * x.g[j])


def vlift(coords):
    """Lift every coordinate into one vector-mode dual layer."""
    n = len(coords)
    return [
        VDual(v, [1.0 if k == i else 0.0 for i in range(n)])
        for k, v in enumerate(coords)
    ]


def split(v, n):
    """``(value, parts)`` of a result of ``n``-direction VDual coordinates,
    ``parts[k]`` its derivative in direction k (0.0 for a constant); nested
    lists map entry by entry, so ``parts[k]`` has the shape of ``value``."""
    if isinstance(v, list):
        pairs = [split(x, n) for x in v]
        return [a for a, _ in pairs], [[b[k] for _, b in pairs] for k in range(n)]
    if isinstance(v, VDual):
        return v.a, list(v.b)
    return v, [0.0] * n


def value_of(v):
    """Collapse a dual tower to its underlying float value."""
    while isinstance(v, VDual):
        v = v.a
    return v.v if isinstance(v, Jet2) else v


# -- elementary functions, float/dual polymorphic -------------------------

def _elementary(name, on_float, on_array, d1, d2):
    """An elementary function of floats, columns, duals and jets.
    ``d1(a, y)`` and ``d2(a, y)`` give its first and second derivative at
    a value ``a`` (itself possibly a dual) where it takes the value ``y``."""

    def fn(x):
        if isinstance(x, VDual):
            y = fn(x.a)
            c = d1(x.a, y)
            return VDual(y, [c * v for v in x.b])
        if isinstance(x, Jet2):
            y = fn(x.v)
            return _chain(x, y, d1(x.v, y), d2(x.v, y))
        return on_float(x) if type(x) is float else on_array(x)

    fn.__name__ = fn.__qualname__ = name
    return fn


sin = _elementary("sin", math.sin, np.sin, lambda a, y: cos(a), lambda a, y: -y)
cos = _elementary("cos", math.cos, np.cos, lambda a, y: -sin(a), lambda a, y: -y)
tan = _elementary(
    "tan", math.tan, np.tan, lambda a, y: 1.0 + y * y, lambda a, y: 2.0 * y * (1.0 + y * y)
)
exp = _elementary("exp", math.exp, np.exp, lambda a, y: y, lambda a, y: y)
log = _elementary("log", math.log, np.log, lambda a, y: 1.0 / a, lambda a, y: -1.0 / (a * a))
sqrt = _elementary("sqrt", math.sqrt, np.sqrt, lambda a, y: 0.5 / y, lambda a, y: -0.25 / (a * y))
sinh = _elementary("sinh", math.sinh, np.sinh, lambda a, y: cosh(a), lambda a, y: y)
cosh = _elementary("cosh", math.cosh, np.cosh, lambda a, y: sinh(a), lambda a, y: y)
tanh = _elementary(
    "tanh", math.tanh, np.tanh, lambda a, y: 1.0 - y * y, lambda a, y: -2.0 * y * (1.0 - y * y)
)
atan = _elementary(
    "atan", math.atan, np.arctan, lambda a, y: 1.0 / (1.0 + a * a),
    lambda a, y: -2.0 * a / ((1.0 + a * a) * (1.0 + a * a)),
)


# -- derivative drivers ----------------------------------------------------

def derive(f, coords, index):
    """Mixed partial d^k f / dx_{i1}...dx_{ik} at ``coords``.

    ``coords`` entries may themselves be duals, in which case the result
    is a dual tower carrying the dependence on the outer perturbations.
    The index order is immaterial (mixed partials commute for the smooth
    fields this package evaluates).
    """
    if len(index) > MAX_ORDER:
        raise OrderTooHigh(
            f"derivative order {len(index)} exceeds supported maximum {MAX_ORDER}"
        )
    g = f
    for i in reversed(index):
        g = _lift(g, i)
    return g(list(coords))


def _lift(f, direction):
    def df(q):
        lifted = [VDual(v, [1.0 if k == direction else 0.0]) for k, v in enumerate(q)]
        return split(f(lifted), 1)[1][0]

    return df


def gradient(f, coords):
    """All first partials of ``f`` at ``coords`` in one vector-mode pass."""
    return split(f(vlift(list(coords))), len(coords))[1]


def value_and_gradient(f, coords):
    return split(f(vlift(list(coords))), len(coords))


def lift2(coords):
    """Every coordinate lifted into a Jet2.

    A function evaluated on these carries its value, gradient and second
    partials; ``read2`` takes them out.  Work done on the lifted
    coordinates (a chart embedding, say) can be shared by several fields.
    Coordinates must be floats or columns: Jet2 is the innermost lift.
    """
    coords = list(coords)
    if any(isinstance(c, (VDual, Jet2)) for c in coords):
        raise TypeError("lift2 takes float coordinates or columns, not lifted ones")
    n = len(coords)
    shape = np.broadcast_shapes(*(np.shape(c) for c in coords))
    unit = np.broadcast_to(np.eye(n).reshape((n, n) + (1,) * len(shape)), (n, n) + shape)
    zero = np.zeros((n * (n + 1) // 2,) + shape)
    return [Jet2(c, unit[k], zero) for k, c in enumerate(coords)]


def _rows(a):
    """The leading-axis entries of a Jet2 part: floats at a point, arrays
    over a batch."""
    return a.tolist() if a.ndim == 1 else list(a)


def read2(r, n):
    """Value, gradient and (exactly symmetric) second-partial matrix of a
    result computed on ``lift2`` coordinates (zeros when it does not
    depend on them)."""
    if not isinstance(r, Jet2):
        zero = [0.0] * n
        return r, list(zero), [list(zero) for _ in range(n)]
    h = _rows(r.h)
    return r.v, _rows(r.g), [[h[k] for k in row] for row in _triangle(n)[2]]


def jet2(f, coords):
    """Value, gradient, and full second-partial matrix in one Jet2
    evaluation."""
    return read2(f(lift2(coords)), len(coords))


# -- finite-difference cross-check backend ---------------------------------

def fd_partial(f, coords, direction, step):
    """Central difference with two Richardson extrapolation levels.

    Leading error of the base rule is O(h^2); two elimination rounds
    leave O(h^6) truncation on smooth integrands.
    """
    def central(h):
        xp = list(coords)
        xm = list(coords)
        xp[direction] = xp[direction] + h
        xm[direction] = xm[direction] - h
        return (f(xp) - f(xm)) / (2.0 * h)

    d0 = central(step)
    d1 = central(step / 2.0)
    d2 = central(step / 4.0)
    r0 = (4.0 * d1 - d0) / 3.0
    r1 = (4.0 * d2 - d1) / 3.0
    return (16.0 * r1 - r0) / 15.0


def fd_derive(f, coords, index, steps):
    """Nested Richardson central differences for mixed partials.

    ``steps`` gives the base step per coordinate.  Intended as an
    independent oracle for orders <= 3; truncation/roundoff trade-off
    makes order 4 unreliable, which is why the dual backend is primary.
    """
    if len(index) > MAX_ORDER:
        raise OrderTooHigh(
            f"derivative order {len(index)} exceeds supported maximum {MAX_ORDER}"
        )
    if not index:
        return f(list(coords))
    head, rest = index[0], index[1:]
    return fd_partial(
        lambda q: fd_derive(f, q, rest, steps), coords, head, steps[head]
    )
