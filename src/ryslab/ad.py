"""Forward-mode automatic differentiation for chart functions.

:class:`Taylor` holds the normalised coefficients f_alpha = d^alpha f / alpha!
of a truncated multivariate Taylor polynomial, packed by total degree in one
array.  One evaluation on ``lift(x, order)`` coordinates carries every mixed
partial up to that order; ``partial`` (a coefficient shift), ``split`` and
``value_of`` read them.  ``vlift`` is the order-1 lift, ``jet2`` reads
value, gradient and Hessian off one order-2 lift, and ``derive`` is an
oracle that lifts one fresh variable per differentiation.  Taylor is the
one jet: powers, quotients and the elementary functions are its rules.
``fd_derive`` (Richardson differences) checks orders up to 3.  Component
functions use the math wrappers here (``sin``, ``exp``, ...), which take
floats, columns and Taylor lifts alike.

A structural zero stays the float 0.0, so no product is spent on it
(Griewank & Walther's sparsity rule): a Taylor times the float 0.0 is 0.0
if its coefficients sum to a finite number, so that none is a NaN or inf
(else the product runs, and they propagate), a sum or difference with 0.0
is the Taylor itself, and ``partial`` is 0.0 where every shifted
coefficient is zero.  Lifted results therefore hold plain floats where an
entry is constant.  ``times``, ``plus`` and ``minus`` apply the rule to any
two operands and leave a product with a Taylor to the Taylor; ``tensors``,
``curvature`` and ``quadrature`` build their sums of products from them,
so a conformally flat metric's g^{ij} is 0.0 off the diagonal.  Beside a
column, a skipped product also drops a NaN or inf of the other factor;
a non-finite metric entry still reaches g^{ij} through the determinant.
"""

from __future__ import annotations

import math
import threading
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

from .errors import OrderTooHigh

MAX_ORDER = 4
CHUNK = 1024  # points per lifted pass (curvature lifts larger batches in chunks)
_scratch = threading.local()


# -- index tables, built once per shape on first use ------------------------

@lru_cache(maxsize=None)
def _size(n, order):
    return math.comb(n + order, order)


@lru_cache(maxsize=None)
def _indices(n):
    """Multi-indices of degree <= MAX_ORDER by degree (so each order is a
    prefix; the second order packs the upper triangle), and their positions."""
    combos = (c for d in range(MAX_ORDER + 1) for c in combinations_with_replacement(range(n), d))
    idx = [tuple(c.count(i) for i in range(n)) for c in combos]
    return idx, {alpha: k for k, alpha in enumerate(idx)}


@lru_cache(maxsize=None)
def _pairs(n, order, lo, hi):
    """Pairs alpha + beta = gamma per gamma in slots lo:hi (alpha of lower
    degree if lo > 0) for ``_convolve``: gather indices of each gamma's first
    pair, then of each second pair, ... (most pairs first, so a rank is a
    prefix), the spans of ranks 1, 2, ..., and the order restoring the
    packing.  A gamma's pairs run in alpha's packing order, so a_0 b_l +
    a_l b_0 sums as a product rule does.  The table is the same at every
    ``order`` that holds slot hi - 1, so a quotient asks for it at that
    slot's degree."""
    idx = np.array(_indices(n)[0][: _size(n, order)]).reshape(-1, n)
    factors = idx[:lo] if lo else idx
    beta = idx[lo:hi, None] - factors  # gamma - alpha per (gamma, alpha)
    fits = (beta >= 0).sum(axis=2) == n
    counts = fits.sum(axis=1).tolist()
    ranked = sorted(range(len(counts)), key=lambda k: -counts[k])
    fits, beta = fits[ranked], beta[ranked]
    gamma, alpha = np.nonzero(fits)  # gammas by rank, each one's alphas in packing order
    rank = np.cumsum(fits, axis=1)[gamma, alpha] - 1
    digits = np.array([(order + 1) ** k for k in range(n)])  # a multi-index as a number in base order + 1
    slot = np.zeros((order + 1) ** n, dtype=int)
    slot[idx @ digits] = np.arange(len(idx))
    ia, ib = np.full((2, counts[ranked[0]], len(ranked)), -1)  # (rank, gamma)
    ia[rank, gamma] = alpha
    ib[rank, gamma] = slot[beta[gamma, alpha] @ digits]
    live = ia >= 0
    sizes = live.sum(axis=1)
    spans = list(zip((np.cumsum(sizes) - sizes)[1:].tolist(), sizes[1:].tolist()))
    return ia[live], ib[live], spans, np.argsort(ranked)


def _convolve(a, b, table):
    """Per gamma of ``table``, sum a_alpha b_beta over its pairs in order.
    Batches of up to ``CHUNK`` points use a per-thread work array, so that
    their products fault in no fresh pages; larger ones allocate their own."""
    ia, ib, spans, restore = table
    shape = (2, len(ia)) + a.shape[1:]
    size = math.prod(shape)
    work = np.empty(size) if size > 2 * len(ia) * CHUNK else getattr(_scratch, "work", None)
    if work is None or work.size < size:
        work = _scratch.work = np.empty(size)
    pa, pb = work[:size].reshape(shape)
    a.take(ia, 0, pa, "clip")
    b.take(ib, 0, pb, "clip")
    prod = np.multiply(pa, pb, out=pa)
    for start, count in spans:
        head = prod[:count]
        head += prod[start : start + count]
    return prod.take(restore, 0)


@lru_cache(maxsize=None)
def _shifts(n, i):
    """Source slots and factors of (d_i f)_alpha = (alpha_i + 1) f_{alpha + e_i}
    for alpha of degree < MAX_ORDER; a lower order's are a prefix."""
    idx, pos = _indices(n)
    low = idx[: _size(n, MAX_ORDER - 1)]
    src = [pos[tuple(a + (k == i) for k, a in enumerate(alpha))] for alpha in low]
    return np.array(src), np.array([alpha[i] + 1.0 for alpha in low])


@lru_cache(maxsize=None)
def _shift(n, order, i, ndim):
    """``_shifts`` to ``order``, its factors shaped for ``ndim``-axis coefficients."""
    src, fac = _shifts(n, i)
    k = _size(n, order - 1)
    return src[:k], fac[:k].reshape((k,) + (1,) * (ndim - 1))


def _zero(o):
    """Whether ``o`` is the float 0.0, a structural zero."""
    return isinstance(o, float) and o == 0.0


def plus(a, b):
    """a + b, or the other term where one is a structural zero."""
    if isinstance(a, float) and a == 0.0:
        return b
    return a if isinstance(b, float) and b == 0.0 else a + b


def minus(a, b):
    """a - b, or ``a`` where ``b`` is a structural zero."""
    return a if isinstance(b, float) and b == 0.0 else a - b


def times(a, b):
    """a * b, or the float 0.0 where a factor is a structural zero and the
    other is no Taylor (a Taylor's own product decides)."""
    if isinstance(a, Taylor) or isinstance(b, Taylor):
        return a * b
    if (isinstance(a, float) and a == 0.0) or (isinstance(b, float) and b == 0.0):
        return 0.0
    return a * b


class Taylor:
    """Truncated Taylor polynomial in n variables (Griewank & Walther,
    *Evaluating Derivatives*, ch. 13): ``c`` of shape (coefficients, *S),
    floats at a point, (m,) columns over a batch.  Mixed orders truncate to
    the lower one.  Values and first-order slots round as a first-order dual
    number's would; only higher orders carry the series' grouping."""

    __slots__ = ("c", "n", "order")
    __array_ufunc__ = None  # numpy defers to these operators

    def __init__(self, c, n, order):
        self.c = c
        self.n = n
        self.order = order

    def _new(self, c, order=None):
        t = object.__new__(Taylor)  # every result is built here: skip __init__'s call
        t.c, t.n, t.order = c, self.n, self.order if order is None else order
        return t

    def truncate(self, order):
        """Orders above ``order`` dropped, in an array of its own."""
        return self if order >= self.order else self._new(self.c[: _size(self.n, order)].copy(), order)

    def _pair(self, o):
        if self.order == o.order:
            return self.c, o.c, self.order
        p = min(self.order, o.order)
        return self.c[: _size(self.n, p)], o.c[: _size(self.n, p)], p

    def _with_value(self, c, value):
        c[0] = value
        return self._new(c)

    def __add__(self, o):
        if isinstance(o, Taylor):
            a, b, p = self._pair(o)
            return self._new(a + b, p)
        if _zero(o):
            return self
        return self._with_value(self.c.copy(), self.c[0] + o)

    __radd__ = __add__

    def __sub__(self, o):
        if isinstance(o, Taylor):
            a, b, p = self._pair(o)
            return self._new(a - b, p)
        if _zero(o):
            return self
        return self._with_value(self.c.copy(), self.c[0] - o)

    def __rsub__(self, o):
        return self._with_value(-self.c, o - self.c[0])

    def __neg__(self):
        return self._new(-self.c)

    def __mul__(self, o):
        if not isinstance(o, Taylor):
            if _zero(o) and math.isfinite(self.c.sum()):  # a NaN or inf still propagates
                return 0.0
            return self._new(self.c * o)
        a, b, p = self._pair(o)
        if p == 1:  # the product rule itself: no tables, no work arrays
            return self._new(np.concatenate([a[:1] * b[:1], a[0] * b[1:] + a[1:] * b[0]]), p)
        return self._new(_convolve(a, b, _pairs(self.n, p, 0, len(a))), p)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, Taylor):
            return _quotient(self, o)
        return self._new(self.c / o)

    def __rtruediv__(self, o):
        return _quotient(o, self)

    def __pow__(self, p):
        if isinstance(p, Taylor):
            raise TypeError("lifted exponents are not supported")
        if p == 0:
            return self._with_value(np.zeros_like(self.c), self.c[0] ** 0)
        if p == 1:
            return self
        a = self.c[0]
        tower = [a**p, p * a ** (p - 1)]
        for k in range(2, self.order + 1):
            coef = math.prod(p - i for i in range(k)) / math.factorial(k)
            tower.append(coef * a ** (p - k) if coef else 0.0)  # 0 past an integer power
        return self._compose(tower)

    def __rpow__(self, base):
        return exp(self * math.log(base))

    def partial(self, i):
        """d_i, one order lower; ``OrderTooHigh`` on an order-0 polynomial,
        which carries no derivative."""
        if not self.order:
            raise OrderTooHigh(f"d_{i} of a polynomial lifted to order 0")
        src, fac = _shift(self.n, self.order, i, self.c.ndim)
        c = self.c.take(src, 0)
        if not np.count_nonzero(c):  # d_i vanishes to this order
            return 0.0
        return self._new(c * fac, self.order - 1)

    def _compose(self, f):
        """f(self) from f[k] = f^(k)(a) / k! at the value a: Horner in h =
        self - a, then the value f[0] and first-order slots f[1] d_i self."""
        out = h = self._with_value(self.c.copy(), 0.0)
        if self.order:
            acc = f[self.order]
            for fk in f[self.order - 1 : 0 : -1]:
                acc = h * acc + fk
            out = h * acc
            if not isinstance(out, Taylor):  # h * 0.0: no slot of order 2 or up
                out = self._new(np.zeros_like(self.c))
            out.c[1 : self.n + 1] = f[1] * self.c[1 : self.n + 1]
        out.c[0] = f[0]
        return out


def _quotient(a, b):
    """a / b for a Taylor ``b`` and a Taylor or constant ``a``, degree by
    degree: q_gamma = (a_gamma - sum q_beta b_{gamma - beta}) / b_0."""
    lifted = isinstance(a, Taylor)
    n, p = b.n, min(a.order, b.order) if lifted else b.order
    q0 = (a.c[0] if lifted else a) / b.c[0]
    q = np.empty((_size(n, p),) + np.shape(q0))
    q[0] = q0
    for d in range(1, p + 1):
        lo, hi = _size(n, d - 1), _size(n, d)  # degree 1: one product q_0 b_i per slot, no table
        s = q[0] * b.c[lo:hi] if d == 1 else _convolve(q, b.c, _pairs(n, d, lo, hi))
        q[lo:hi] = ((a.c[lo:hi] - s) if lifted else -s) / b.c[0]
    return Taylor(q, n, p)


def _lifted(coords, n, order, directions):
    """Coordinate j in n variables: value x_j, slots directions[j] set to 1."""
    coords = list(coords)
    if any(isinstance(c, Taylor) for c in coords):
        raise TypeError("lifts take float coordinates or columns, not lifted ones")
    shape = np.broadcast_shapes(*(np.shape(c) for c in coords))
    out = []
    for x, slots in zip(coords, directions):
        c = np.zeros((_size(n, order),) + shape)
        c[0] = x
        c[[1 + s for s in slots]] = 1.0
        out.append(Taylor(c, n, order))
    return out


def lift(coords, order):
    """Every coordinate (float or column) lifted to ``order``, slot e_k = 1."""
    return _lifted(coords, len(coords), order, [[k] for k in range(len(coords))])


def vlift(coords):
    """The order-1 lift: one evaluation gives all n first partials."""
    return lift(coords, 1)


def _entrywise(v, fn, arg, const):
    """``fn(t, arg)`` of each Taylor entry t of a nested list (once if
    shared), ``const(x)`` of every other entry."""
    seen = {}  # a Taylor hashes by identity

    def walk(xs):
        out = []
        for x in xs:
            if x.__class__ is Taylor:
                y = seen.get(x)
                if y is None:
                    y = seen[x] = fn(x, arg)
            else:
                y = walk(x) if isinstance(x, list) else const(x)
            out.append(y)
        return out

    return walk([v])[0]


def partial(v, i):
    """d_i of a lifted result, entry by entry (0.0 for a constant)."""
    return _entrywise(v, Taylor.partial, i, lambda x: 0.0)


def truncate(v, order):
    """A lifted result truncated to ``order``, entry by entry."""
    return _entrywise(v, Taylor.truncate, order, lambda x: x)


def _rows(a):
    """Leading-axis entries: floats at a point, arrays over a batch."""
    return a.tolist() if a.ndim == 1 else list(a)


def split(v, n):
    """``(value, parts)`` of a lifted result, ``parts[k]`` its first partial
    in x_k (0.0 for a constant), copied; nested lists map entry by entry.
    Partials of an order-0 polynomial raise ``OrderTooHigh``."""
    if isinstance(v, list):
        pairs = [split(x, n) for x in v]
        return [a for a, _ in pairs], [[b[k] for _, b in pairs] for k in range(n)]
    if isinstance(v, Taylor):
        if n and not v.order:
            raise OrderTooHigh("first partials of a polynomial lifted to order 0")
        rows = _rows(v.c[: n + 1].copy())
        return rows[0], rows[1:]
    return v, [0.0] * n


def value_of(v):
    """The value of a Taylor (the number itself if not lifted)."""
    return v.c[0] if isinstance(v, Taylor) else v


# -- elementary functions, float/column/lift polymorphic -------------------

def _elementary(name, on_float, on_array, tower):
    """An elementary function; ``tower(a, y)`` gives f^(k)(a) / k!, k = 0..4,
    at a value ``a`` where f takes the value ``y``."""

    def fn(x):
        if isinstance(x, Taylor):
            return x._compose(tower(x.c[0], fn(x.c[0])))
        return on_float(x) if isinstance(x, float) else on_array(x)

    fn.__name__ = fn.__qualname__ = name
    return fn


def _cyclic(y, d, s):
    """sin, cos (s = -1), exp, sinh, cosh (s = 1): f'' = s f, f' = d."""
    return [y, d, 0.5 * s * y, s * d / 6.0, y / 24.0]


def _tangent(y, s):
    """tan (s = 1) and tanh (s = -1): f' = 1 + s f^2."""
    t = 1.0 + s * y * y
    return [y, t, s * y * t, s * t * (1.0 + 3.0 * s * y * y) / 3.0, y * t * (2.0 + 3.0 * s * y * y) / 3.0]


def _atan_tower(a, y):
    u = 1.0 / (1.0 + a * a)
    return [y, u, -a * u * u, (3.0 * a * a - 1.0) * u**3 / 3.0, a * (1.0 - a * a) * u**4]


sin = _elementary("sin", math.sin, np.sin, lambda a, y: _cyclic(y, cos(a), -1.0))
cos = _elementary("cos", math.cos, np.cos, lambda a, y: _cyclic(y, -sin(a), -1.0))
tan = _elementary("tan", math.tan, np.tan, lambda a, y: _tangent(y, 1.0))
exp = _elementary("exp", math.exp, np.exp, lambda a, y: _cyclic(y, y, 1.0))
log = _elementary("log", math.log, np.log, lambda a, y: [y] + [(-1.0) ** (k + 1) / (k * a**k) for k in range(1, 5)])
sqrt = _elementary("sqrt", math.sqrt, np.sqrt, lambda a, y: [y, 0.5 / y] + [
    c / (a**k * y) for k, c in enumerate((-0.125, 0.0625, -0.0390625), 1)])
sinh = _elementary("sinh", math.sinh, np.sinh, lambda a, y: _cyclic(y, cosh(a), 1.0))
cosh = _elementary("cosh", math.cosh, np.cosh, lambda a, y: _cyclic(y, sinh(a), 1.0))
tanh = _elementary("tanh", math.tanh, np.tanh, lambda a, y: _tangent(y, -1.0))
atan = _elementary("atan", math.atan, np.arctan, _atan_tower)


# -- derivative drivers ----------------------------------------------------

def _check_order(k):
    if k > MAX_ORDER:
        raise OrderTooHigh(f"derivative order {k} exceeds supported maximum {MAX_ORDER}")


def derive(f, coords, index):
    """d^k f / dx_{i1}...dx_{ik} by a hyper-dual lift, independent of the
    packing it checks: x_j plus the fresh t_s with i_s = j, read at t_1..t_k."""
    k = len(index)
    _check_order(k)
    if not k:
        return f(list(coords))
    directions = [[s for s, i in enumerate(index) if i == j] for j in range(len(coords))]
    r = f(_lifted(coords, k, k, directions))
    return _rows(r.c)[_indices(k)[1][(1,) * k]] if isinstance(r, Taylor) else 0.0


def value_and_gradient(f, coords):
    """Value and all first partials of ``f`` at ``coords`` in one pass."""
    return split(f(vlift(coords)), len(coords))


def jet2(f, coords):
    """Value, gradient and (exactly symmetric) second-partial matrix of
    ``f`` from one evaluation on an order-2 lift."""
    n = len(coords)
    r = f(lift(coords, 2))
    value, grad = split(r, n)
    rows = [split(partial(r, i), n)[1] for i in range(n)]
    return value, grad, [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]


# -- finite-difference cross-check backend ---------------------------------

def fd_partial(f, coords, direction, step):
    """Central difference with two Richardson levels: O(h^6) on smooth f."""
    def central(h):
        xp, xm = list(coords), list(coords)
        xp[direction] += h
        xm[direction] -= h
        return (f(xp) - f(xm)) / (2.0 * h)

    d0, d1, d2 = central(step), central(step / 2.0), central(step / 4.0)
    r0, r1 = (4.0 * d1 - d0) / 3.0, (4.0 * d2 - d1) / 3.0
    return (16.0 * r1 - r0) / 15.0


def fd_derive(f, coords, index, steps):
    """Nested Richardson differences, base step ``steps[i]`` per coordinate:
    an oracle for orders <= 3 (rounding makes order 4 unreliable)."""
    _check_order(len(index))
    if not index:
        return f(list(coords))
    head, rest = index[0], index[1:]
    return fd_partial(lambda q: fd_derive(f, q, rest, steps), coords, head, steps[head])
