"""Forward-mode automatic differentiation for chart functions.

Mixed partial derivatives up to total order 4 are computed by nesting
first-order dual numbers, one level per differentiation.  At every level
*all* coordinates are lifted into fresh duals, so any value flowing
through the target function is either a plain number or a dual belonging
to the current level; no perturbation mixing between levels can occur.

A Richardson-extrapolated central-difference backend is provided as an
independent cross-check for orders up to 3.

Component functions must be written against the math wrappers exported
here (``sin``, ``exp``, ...), which accept plain floats and duals alike.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import OrderTooHigh

MAX_ORDER = 4


class Dual:
    """First-order dual number a + b*eps with eps**2 = 0.

    Components may themselves be duals, which is how higher derivatives
    are represented (a depth-k tower carries a k-th order jet).
    Components may also be numpy arrays, which evaluates a whole batch
    of points in one pass (numpy defers to these operators because
    __array_ufunc__ is None).
    """

    __slots__ = ("a", "b")
    __array_ufunc__ = None

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def __repr__(self):
        return f"Dual({self.a!r}, {self.b!r})"

    # -- ring operations -------------------------------------------------

    def __add__(self, o):
        if isinstance(o, Dual):
            return Dual(self.a + o.a, self.b + o.b)
        return Dual(self.a + o, self.b)

    __radd__ = __add__

    def __sub__(self, o):
        if isinstance(o, Dual):
            return Dual(self.a - o.a, self.b - o.b)
        return Dual(self.a - o, self.b)

    def __rsub__(self, o):
        return Dual(o - self.a, -self.b)

    def __neg__(self):
        return Dual(-self.a, -self.b)

    def __pos__(self):
        return self

    def __mul__(self, o):
        if isinstance(o, Dual):
            return Dual(self.a * o.a, self.a * o.b + self.b * o.a)
        return Dual(self.a * o, self.b * o)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, Dual):
            inv = 1.0 / o.a if not isinstance(o.a, Dual) else None
            if inv is not None:
                return Dual(self.a * inv, (self.b * o.a - self.a * o.b) * inv * inv)
            aa = self.a / o.a
            return Dual(aa, (self.b - aa * o.b) / o.a)
        return Dual(self.a / o, self.b / o)

    def __rtruediv__(self, o):
        if isinstance(self.a, Dual):
            aa = o / self.a
            return Dual(aa, -aa * self.b / self.a)
        inv = 1.0 / self.a
        return Dual(o * inv, -o * self.b * inv * inv)

    def __pow__(self, p):
        if isinstance(p, Dual):
            raise TypeError("dual exponents are not supported")
        if p == 0:
            return Dual(_one_like(self.a), _zero_like(self.b))
        if p == 1:
            return self
        return Dual(self.a ** p, (p * self.a ** (p - 1)) * self.b)

    def __rpow__(self, base):
        return exp(self * math.log(base))


class VDual:
    """Vector-mode dual number: value plus one derivative per direction.

    A single lifted evaluation yields all n first partials at once,
    which is what the curvature pipeline wants (it always needs full
    coordinate gradients, never a single direction).  Components may be
    floats, Dual towers, or nested VDuals.
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
        if isinstance(p, (Dual, VDual)):
            raise TypeError("dual exponents are not supported")
        if p == 0:
            return VDual(_one_like(self.a), [_zero_like(x) for x in self.b])
        if p == 1:
            return self
        fac = p * self.a ** (p - 1)
        return VDual(self.a ** p, [fac * x for x in self.b])

    def __rpow__(self, base):
        return exp(self * math.log(base))


def vlift(coords):
    """Lift every coordinate into one vector-mode dual layer."""
    n = len(coords)
    return [
        VDual(v, [1.0 if k == i else 0.0 for i in range(n)])
        for k, v in enumerate(coords)
    ]


def vparts(v, n):
    """All direction derivatives of a vector-dual result (0s if constant)."""
    return list(v.b) if isinstance(v, VDual) else [0.0] * n


def _one_like(v):
    if isinstance(v, Dual):
        return Dual(_one_like(v.a), _zero_like(v.b))
    if isinstance(v, VDual):
        return VDual(_one_like(v.a), [_zero_like(x) for x in v.b])
    return 1.0


def _zero_like(v):
    if isinstance(v, Dual):
        return Dual(_zero_like(v.a), _zero_like(v.b))
    if isinstance(v, VDual):
        return VDual(_zero_like(v.a), [_zero_like(x) for x in v.b])
    return 0.0


def value_of(v):
    """Collapse a dual tower to its underlying float value."""
    while isinstance(v, (Dual, VDual)):
        v = v.a
    return v


def eps_of(v):
    """Derivative part of a dual, or 0 for a value with no dependence."""
    return v.b if isinstance(v, Dual) else 0.0


# -- elementary functions, float/dual polymorphic -------------------------

def sin(x):
    if isinstance(x, Dual):
        return Dual(sin(x.a), cos(x.a) * x.b)
    if isinstance(x, VDual):
        c = cos(x.a)
        return VDual(sin(x.a), [c * v for v in x.b])
    if type(x) is float:
        return math.sin(x)
    return np.sin(x)


def cos(x):
    if isinstance(x, Dual):
        return Dual(cos(x.a), -sin(x.a) * x.b)
    if isinstance(x, VDual):
        s = -sin(x.a)
        return VDual(cos(x.a), [s * v for v in x.b])
    if type(x) is float:
        return math.cos(x)
    return np.cos(x)


def tan(x):
    if isinstance(x, Dual):
        c = cos(x.a)
        return Dual(tan(x.a), x.b / (c * c))
    if isinstance(x, VDual):
        c = cos(x.a)
        c2 = c * c
        return VDual(tan(x.a), [v / c2 for v in x.b])
    if type(x) is float:
        return math.tan(x)
    return np.tan(x)


def exp(x):
    if isinstance(x, Dual):
        e = exp(x.a)
        return Dual(e, e * x.b)
    if isinstance(x, VDual):
        e = exp(x.a)
        return VDual(e, [e * v for v in x.b])
    if type(x) is float:
        return math.exp(x)
    return np.exp(x)


def log(x):
    if isinstance(x, Dual):
        return Dual(log(x.a), x.b / x.a)
    if isinstance(x, VDual):
        return VDual(log(x.a), [v / x.a for v in x.b])
    if type(x) is float:
        return math.log(x)
    return np.log(x)


def sqrt(x):
    if isinstance(x, Dual):
        r = sqrt(x.a)
        return Dual(r, x.b / (2.0 * r))
    if isinstance(x, VDual):
        r = sqrt(x.a)
        half = 2.0 * r
        return VDual(r, [v / half for v in x.b])
    if type(x) is float:
        return math.sqrt(x)
    return np.sqrt(x)


def sinh(x):
    if isinstance(x, Dual):
        return Dual(sinh(x.a), cosh(x.a) * x.b)
    if isinstance(x, VDual):
        c = cosh(x.a)
        return VDual(sinh(x.a), [c * v for v in x.b])
    if type(x) is float:
        return math.sinh(x)
    return np.sinh(x)


def cosh(x):
    if isinstance(x, Dual):
        return Dual(cosh(x.a), sinh(x.a) * x.b)
    if isinstance(x, VDual):
        s = sinh(x.a)
        return VDual(cosh(x.a), [s * v for v in x.b])
    if type(x) is float:
        return math.cosh(x)
    return np.cosh(x)


def tanh(x):
    if isinstance(x, Dual):
        c = cosh(x.a)
        return Dual(tanh(x.a), x.b / (c * c))
    if isinstance(x, VDual):
        c = cosh(x.a)
        c2 = c * c
        return VDual(tanh(x.a), [v / c2 for v in x.b])
    if type(x) is float:
        return math.tanh(x)
    return np.tanh(x)


def atan(x):
    if isinstance(x, Dual):
        return Dual(atan(x.a), x.b / (1.0 + x.a * x.a))
    if isinstance(x, VDual):
        d = 1.0 + x.a * x.a
        return VDual(atan(x.a), [v / d for v in x.b])
    if type(x) is float:
        return math.atan(x)
    return np.arctan(x)


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
        lifted = [
            Dual(v, 1.0 if k == direction else 0.0) for k, v in enumerate(q)
        ]
        return eps_of(f(lifted))

    return df


def gradient(f, coords):
    """All first partials of ``f`` at ``coords`` in one vector-mode pass."""
    n = len(coords)
    return vparts(f(vlift(list(coords))), n)


def value_and_gradient(f, coords):
    n = len(coords)
    r = f(vlift(list(coords)))
    return (r.a, list(r.b)) if isinstance(r, VDual) else (r, [0.0] * n)


def lift2(coords):
    """Every coordinate lifted into two nested vector-dual layers.

    A function evaluated on these carries its value, gradient and second
    partials; ``read2`` takes them out.  Work done on the lifted
    coordinates (a chart embedding, say) can be shared by several fields.
    """
    n = len(coords)
    inner = vlift(list(coords))
    return [
        VDual(u, [1.0 if k == i else 0.0 for i in range(n)])
        for k, u in enumerate(inner)
    ]


def read2(r, n):
    """Value, gradient and second-partial matrix of a result computed on
    ``lift2`` coordinates (zeros when it does not depend on them)."""
    if not isinstance(r, VDual):
        zero = [0.0] * n
        return r, list(zero), [list(zero) for _ in range(n)]
    grad = vparts(r.a, n)
    hess = [[0.0] * n for _ in range(n)]
    for j, col_v in enumerate(vparts(r, n)):
        col = vparts(col_v, n)
        for i in range(n):
            hess[i][j] = col[i]
    val = r.a.a if isinstance(r.a, VDual) else r.a
    return val, grad, hess


def jet2(f, coords):
    """Value, gradient, and full second-partial matrix in one nested
    vector-mode evaluation."""
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
