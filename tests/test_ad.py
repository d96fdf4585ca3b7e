"""Differentiation backend tests against hand-computed oracles."""

import itertools
import math

import numpy as np
import pytest

from ryslab import ad, curvature
from ryslab.errors import OrderTooHigh


def test_polynomial_mixed_partial_exact():
    f = lambda x: x[0] ** 2 * x[1]
    assert ad.derive(f, [1.0, 2.0, 0.0], (0, 0)) == 4.0


def test_empty_index_returns_value():
    f = lambda x: ad.sin(x[0]) + x[1]
    p = [0.4, 1.5]
    assert ad.derive(f, p, ()) == f(p)


def test_third_mixed_partial_against_hand_formula():
    # d/dx0 d/dx1 d/dx1 of sin(x0)cos(x1) = -cos(x0)cos(x1)
    f = lambda x: ad.sin(x[0]) * ad.cos(x[1])
    p = [0.3, 0.7, 0.1]
    expected = -math.cos(0.3) * math.cos(0.7)
    got = ad.derive(f, p, (0, 1, 1))
    assert abs(got - expected) <= 1e-12 * (1 + abs(expected))


def test_fourth_order_supported_fifth_rejected():
    f = lambda x: x[0] ** 4
    assert abs(ad.derive(f, [2.0, 0.0], (0, 0, 0, 0)) - 24.0) < 1e-9
    with pytest.raises(OrderTooHigh):
        ad.derive(f, [2.0, 0.0], (0, 0, 0, 0, 0))
    with pytest.raises(OrderTooHigh):
        ad.fd_derive(f, [2.0, 0.0], (0,) * 5, [0.01, 0.01])


def test_reads_above_the_lift_order_raise():
    """An order-0 polynomial carries no derivative: d_i and first partials
    of it raise ``OrderTooHigh`` (not a ValueError or an empty partial
    list)."""
    x = ad.lift([0.3, -0.2], 1)
    t = (x[0] * x[1] + 1.0).partial(1)
    assert t.order == 0
    assert ad.split(t, 0) == (0.3, [])
    with pytest.raises(OrderTooHigh):
        t.partial(0)
    with pytest.raises(OrderTooHigh):
        ad.partial([[t]], 1)
    with pytest.raises(OrderTooHigh):
        ad.split(t, 2)
    with pytest.raises(OrderTooHigh):
        ad.split([t, 2.0], 2)
    assert ad.split(x[0] * x[1], 2) == (0.3 * -0.2, [-0.2, 0.3])


def _random_field(seed):
    rng = np.random.default_rng(seed)
    a, b, c = rng.uniform(-1, 1, size=3)
    w = rng.uniform(0.5, 2.0, size=3)
    return lambda x: (
        a * ad.sin(w[0] * x[0]) * ad.cos(w[1] * x[1])
        + b * ad.exp(0.3 * x[2])
        + c * x[0] * x[1] * x[2]
    )


def test_mixed_partial_symmetry():
    for seed in range(10):
        f = _random_field(seed)
        rng = np.random.default_rng(100 + seed)
        p = list(rng.uniform(-0.8, 0.8, size=3))
        i, j = rng.integers(0, 3, size=2)
        dij = ad.derive(f, p, (int(i), int(j)))
        dji = ad.derive(f, p, (int(j), int(i)))
        assert abs(dij - dji) <= 1e-9 * (1 + abs(dij))


def test_linearity():
    f = _random_field(1)
    g = _random_field(2)
    a, b = 2.25, -0.75
    combo = lambda x: a * f(x) + b * g(x)
    p = [0.2, -0.4, 0.6]
    for index in [(0,), (1, 2), (0, 0, 1)]:
        lhs = ad.derive(combo, p, index)
        rhs = a * ad.derive(f, p, index) + b * ad.derive(g, p, index)
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))


def test_dual_and_fd_backends_agree_to_order_three():
    steps = [0.02, 0.02, 0.02]
    for seed in range(6):
        f = _random_field(seed)
        rng = np.random.default_rng(200 + seed)
        p = list(rng.uniform(-0.5, 0.5, size=3))
        for index in [(0,), (2,), (0, 1), (1, 1), (0, 1, 2), (2, 2, 2)]:
            dual = ad.derive(f, p, index)
            fd = ad.fd_derive(f, p, index, steps)
            assert abs(dual - fd) <= 1e-7 * (1 + abs(dual)), (seed, index)


def test_vector_mode_matches_scalar_mode():
    f = _random_field(3)
    p = [0.1, 0.5, -0.3]
    _, grad = ad.value_and_gradient(f, p)
    for i in range(3):
        assert abs(grad[i] - ad.derive(f, p, (i,))) <= 1e-14 * (1 + abs(grad[i]))
    val, g2, hess = ad.jet2(f, p)
    assert abs(val - f(p)) <= 1e-15 * (1 + abs(val))
    for i in range(3):
        assert abs(g2[i] - grad[i]) <= 1e-14 * (1 + abs(grad[i]))
        for j in range(3):
            ref = ad.derive(f, p, (i, j))
            assert abs(hess[i][j] - ref) <= 1e-12 * (1 + abs(ref))


def test_constant_function_has_zero_derivatives():
    f = lambda x: 3.5
    assert ad.derive(f, [0.1, 0.2], (0,)) == 0.0
    assert ad.derive(f, [0.1, 0.2], (0, 1)) == 0.0
    assert ad.value_and_gradient(f, [0.1, 0.2]) == (3.5, [0.0, 0.0])


def test_elementary_function_chain():
    # d/dx of exp(sqrt(log(cosh(x)) + 2)) checked against a numeric step
    f = lambda x: ad.exp(ad.sqrt(ad.log(ad.cosh(x[0])) + 2.0) + ad.tanh(x[1]))
    p = [0.7, 0.2]
    dual = ad.derive(f, p, (0,))
    fd = ad.fd_partial(f, p, 0, 1e-2)
    assert abs(dual - fd) <= 1e-9 * (1 + abs(dual))


def test_division_and_powers_on_towers():
    f = lambda x: (x[0] ** 3 + 1.0) / (x[1] ** 2 + 2.0) + x[0] ** -2
    p = [1.3, 0.4]
    # hand derivative in x0: 3 x0^2/(x1^2+2) - 2 x0^-3
    expected = 3 * 1.3**2 / (0.4**2 + 2.0) - 2 * 1.3**-3
    assert abs(ad.derive(f, p, (0,)) - expected) <= 1e-12 * (1 + abs(expected))


def test_fourth_order_trig_against_hand_formula():
    # d^4/dx^4 sin = sin; relative error well inside the order-4 budget
    f = lambda x: ad.sin(x[0]) * (1.0 + 0.0 * x[1])
    p = [0.9, 0.1]
    expected = math.sin(0.9)
    got = ad.derive(f, p, (0, 0, 0, 0))
    assert abs(got - expected) <= 1e-5 * (1 + abs(expected))
    assert abs(got - expected) <= 1e-12  # duals are exact to rounding


def test_backends_agree_on_catalog_fields():
    """Cross-check the two backends on catalog metric components and the
    quadratic potential, orders up to 3."""
    from ryslab import catalog
    from ryslab.geometry import ScalarField, partial_derivative, sample_points

    fields = []
    for entry_name in ("unit-s3", "h3", "s2xr"):
        entry = catalog.get_entry(entry_name)
        g = entry.metric
        fields.append(ScalarField(lambda x, g=g: g.matrix(x)[0][0], g.domain, f"{entry_name}-g00"))
    spec = catalog.verify_cases()["gaussian"]
    fields.append(spec.build(spec.defaults).potential)

    for field in fields:
        pts = sample_points(field.domain, 2, seed=9)
        for p in pts:
            for index in [(0,), (1, 2), (0, 0, 1)]:
                dual = partial_derivative(field, p, index, backend="dual")
                fd = partial_derivative(field, p, index, backend="fd")
                assert abs(dual - fd) <= 1e-7 * (1 + abs(dual)), (field.name, index)


# -- jet2: value, gradient and Hessian off one order-2 Taylor lift ----------

def _inner(x):
    """A nonlinear argument in (0.3, 1.1) on [0.2, 0.9]^3, so that every
    chain rule meets a full gradient and Hessian."""
    return 0.3 + 0.4 * x[0] * x[1] + 0.2 * x[2] * x[2] + 0.1 * x[1]


JET_CASES = {
    "add": lambda x: x[0] * x[1] + (x[2] + 2.0) + (3.0 + x[0]),
    "sub": lambda x: x[0] * x[1] - x[2] * x[2] - 1.5 - (0.5 - x[1]),
    "neg": lambda x: -(x[0] * x[2]),
    "mul": lambda x: (x[0] * x[1]) * (x[1] * x[2]) * 2.5,
    "div": lambda x: (x[0] * x[1] + 1.0) / (x[2] * x[0] + 0.5) / 3.0,
    "reciprocal": lambda x: 1.0 / _inner(x),
    "pow0": lambda x: _inner(x) ** 0,
    "pow1": lambda x: _inner(x) ** 1,
    "pow2": lambda x: _inner(x) ** 2,
    "pow3": lambda x: _inner(x) ** 3,
    "pow-1": lambda x: _inner(x) ** -1,
    "pow0.5": lambda x: _inner(x) ** 0.5,
    "rpow": lambda x: 2.0 ** _inner(x),
    "chain-on-coordinates": lambda x: ad.exp(x[0]) * ad.sqrt(x[1]) + x[2] ** 2 - x[1] ** 0,
}
for _name in ("sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh", "tanh", "atan"):
    JET_CASES[_name] = lambda x, fn=getattr(ad, _name): fn(_inner(x)) * x[0]


def _close(got, ref):
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    return bool(np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref))))


@pytest.mark.parametrize("name", sorted(JET_CASES))
@pytest.mark.parametrize("where", ["point", "columns"])
def test_jet2_matches_dual_towers(name, where):
    """Value, gradient and Hessian read by jet2 off one order-2 Taylor lift
    equal the Dual-tower partials to 1e-13 relative, at a float point and on
    (m,) columns."""
    f = JET_CASES[name]
    if where == "point":
        x = [0.35, 0.6, 0.8]
    else:
        x = list(np.random.default_rng(5).uniform(0.2, 0.9, size=(3, 7)))
    val, grad, hess = ad.jet2(f, x)
    assert _close(val, ad.derive(f, x, ()))
    for i in range(3):
        assert _close(grad[i], ad.derive(f, x, (i,))), i
        for j in range(3):
            assert _close(hess[i][j], ad.derive(f, x, (i, j))), (i, j)


def test_jet2_hessian_is_exactly_symmetric():
    x = list(np.random.default_rng(6).uniform(0.2, 0.9, size=(3, 9)))
    f = lambda q: ad.exp(q[0] * q[1]) / (1.0 + q[2] * q[0]) + ad.sin(q[1] * q[2])
    for coords in (x, [float(c[0]) for c in x]):
        _, _, hess = ad.jet2(f, coords)
        for i in range(3):
            for j in range(3):
                assert np.array_equal(hess[i][j], hess[j][i])


def test_jet2_rejects_lifted_coordinates():
    f = lambda q: q[0] * q[1]
    with pytest.raises(TypeError):
        ad.jet2(f, ad.vlift([0.1, 0.2]))


# -- split: the reader of first partials --------------------------------------

COLUMN = np.linspace(0.5, 1.5, 4)


def _mixed_matrix(x):
    """A nested 3x3 list of polynomial entries, float constants and (m,)
    columns, some of them lifted."""
    return [
        [x[0] * x[1], 2.5, x[2] * x[2] + x[0]],
        [COLUMN, x[1] - 3.0 * x[2], x[0] * x[1] * x[2]],
        [x[2] ** 3, COLUMN * x[0], (x[0] + 1.0) ** 2 - x[1]],
    ]


def test_split_matches_derive_on_a_mixed_nested_list():
    """Values and direction-first partials equal ``derive`` exactly on
    polynomial entries; constant entries have partials of exactly 0.0."""
    p = [COLUMN * 0.3, COLUMN - 1.7, COLUMN + 0.1]
    value, parts = ad.split(_mixed_matrix(ad.vlift(p)), 3)
    assert len(parts) == 3
    for i in range(3):
        for j in range(3):
            entry = lambda q, i=i, j=j: _mixed_matrix(q)[i][j]
            assert np.array_equal(value[i][j], ad.derive(entry, p, ())), (i, j)
            for k in range(3):
                assert np.array_equal(parts[k][i][j], ad.derive(entry, p, (k,))), (k, i, j)
    for i, j in ((0, 1), (1, 0)):
        for k in range(3):
            assert type(parts[k][i][j]) is float and parts[k][i][j] == 0.0


def _bits(nested):
    return np.asarray(nested, dtype=float).tobytes()


def _leaves(nested):
    if isinstance(nested, list):
        for v in nested:
            yield from _leaves(v)
    else:
        yield nested


def _unpack(nested, n):
    """Values and direction-first first partials of a nested list of order-2
    Taylor entries, read slot by slot."""
    if isinstance(nested, list):
        parts = [_unpack(v, n) for v in nested]
        return [v for v, _ in parts], [[d[m] for _, d in parts] for m in range(n)]
    if isinstance(nested, ad.Taylor):
        return float(nested.c[0]), [float(nested.c[1 + m]) for m in range(n)]
    return nested, [0.0] * n


def _metric(name):
    from ryslab import catalog

    if name == "perturbed":
        return catalog.make_perturbed_flat(1e-2, 11).metric
    return catalog.get_entry(name).metric


@pytest.mark.parametrize("name", ["unit-s3", "h3", "s2xr", "perturbed"])
def test_with_partials_equal_the_entrywise_unpacking(name):
    """``christoffel_with_partials`` and ``ricci_with_partials`` (read off
    one order-4 lift) equal the slot-by-slot unpacking of Christoffel and
    Ricci evaluated on an order-3 lift."""
    from ryslab.geometry import sample_points
    from ryslab.tensors import mat_inverse

    g = _metric(name)
    n = g.domain.dim
    for p in sample_points(g.domain, 2, seed=3):
        x = list(p.coords)
        gm = g.matrix(ad.lift(x, 3))
        gamma = curvature.christoffel_from(mat_inverse(gm), [ad.partial(gm, l) for l in range(n)])
        ric = curvature.ricci_from(ad.truncate(gamma, 1), [ad.partial(gamma, m) for m in range(n)])
        for got, ref in zip(curvature.christoffel_with_partials(g, x), _unpack(gamma, n)):
            assert _bits(got) == _bits(ref)
        for got, ref in zip(curvature.ricci_with_partials(g, x), _unpack(ric, n)):
            assert _bits(got) == _bits(ref)


@pytest.mark.parametrize("name", ["unit-s3", "h3", "s2xr", "perturbed"])
def test_lifted_levels_keep_the_float_bits(name):
    """g, g^-1 and Gamma read off the order-4 lift equal bit for bit the
    float metric, its inverse and the Christoffel symbols from an order-1
    lift, at a point and over a batch; over a batch, a structural zero of
    the lift is the float 0.0 where the float pass holds a zero column."""
    from ryslab.geometry import sample_points
    from ryslab.tensors import mat_inverse

    g = _metric(name)
    pts = sample_points(g.domain, 3, seed=4)
    for p in (pts[0], pts):
        data = curvature.curvature_data(g, p)
        x = data.x
        pairs = [
            (data.metric, g.matrix(x)),
            (data.inverse, mat_inverse(g.matrix(x))),
            (data.christoffel, curvature.christoffel_generic(g, x)),
        ]
        for got, ref in pairs:
            got, ref = list(_leaves(got)), list(_leaves(ref))
            assert len(got) == len(ref)
            for a, b in zip(got, ref):
                if isinstance(a, float) and isinstance(b, np.ndarray):
                    assert a == 0.0 and not b.any()
                else:
                    assert type(a) is type(b) and np.array_equal(a, b)


# -- Taylor: the packed multivariate polynomial ----------------------------------

def _taylor_read(t, index):
    """The mixed partial ``index`` of a lifted result, by coordinate shifts."""
    for i in index:
        t = ad.partial(t, i)
    return ad.value_of(t)


def _series(name, a):
    """Exact f^(k)(a) / k!, k = 0..4, from closed forms independent of the
    towers in ``ad``."""
    fact = [math.factorial(k) for k in range(5)]
    if name in ("sin", "cos"):
        shift = 0.0 if name == "sin" else 0.5 * math.pi
        return [math.sin(a + shift + 0.5 * math.pi * k) / fact[k] for k in range(5)]
    if name == "exp":
        return [math.exp(a) / fact[k] for k in range(5)]
    if name in ("sinh", "cosh"):
        pair = (math.sinh(a), math.cosh(a))
        first = 0 if name == "sinh" else 1
        return [pair[(first + k) % 2] / fact[k] for k in range(5)]
    if name == "log":
        return [math.log(a)] + [(-1) ** (k + 1) / (k * a**k) for k in range(1, 5)]
    if name == "sqrt":
        binom = [1.0, 0.5, -0.125, 0.0625, -0.0390625]
        return [b * a ** (0.5 - k) for k, b in enumerate(binom)]
    if name == "atan":
        # atan' = (1/(x - i) - 1/(x + i)) / (2i)
        out = [math.atan(a)]
        for k in range(1, 5):
            d = ((a - 1j) ** -k - (a + 1j) ** -k) / 2j * (-1) ** (k - 1) * fact[k - 1]
            out.append(d.real / fact[k])
        return out
    # tan, tanh: f^(k) = P_k(y), P_{k+1} = P_k' * (1 +- y^2)
    sign = 1.0 if name == "tan" else -1.0
    y = math.tan(a) if name == "tan" else math.tanh(a)
    poly = np.polynomial.Polynomial([0.0, 1.0])
    out = []
    for k in range(5):
        out.append(poly(y) / fact[k])
        poly = poly.deriv() * np.polynomial.Polynomial([1.0, 0.0, sign])
    return out


ELEMENTARY = ("sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh", "tanh", "atan")


@pytest.mark.parametrize("name", ELEMENTARY)
def test_elementary_towers_match_exact_series(name):
    """Univariate coefficients up to order 4 at three values, at a point and
    on a column of the same values."""
    values = (0.3, 0.7, 1.3)
    fn = getattr(ad, name)
    for a in values:
        got = fn(ad.lift([a], 4)[0]).c
        assert np.allclose(got, _series(name, a), rtol=1e-13, atol=1e-15), a
    column = fn(ad.lift([np.array(values)], 4)[0]).c
    for k, a in enumerate(values):
        assert np.allclose(column[:, k], _series(name, a), rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("p", [0, 1, 2, 3, -1, -2, 0.5, 2.5])
def test_power_towers_match_binomial_series(p):
    a = 0.8
    got = (ad.lift([a], 4)[0] ** p).c
    coef = [math.prod(p - i for i in range(k)) / math.factorial(k) for k in range(5)]
    assert np.allclose(got, [c * a ** (p - k) for k, c in enumerate(coef)], rtol=1e-14, atol=0.0)


def _mixed_indices(n, order):
    return [idx for k in range(1, order + 1) for idx in itertools.product(range(n), repeat=k)]


def test_mixed_partials_match_finite_differences():
    """Every mixed partial up to order 3 of the perturbed-flat metric and of a
    random polynomial field, read off one order-4 lift, agrees with nested
    Richardson differences to 1e-6 relative."""
    from ryslab import catalog
    from ryslab.geometry import sample_points

    g = catalog.make_perturbed_flat(1e-1, 5).metric
    f = catalog.random_polynomial_field(g.domain, seed=6)
    steps = g.domain.fd_steps()
    components = [lambda x, i=i, j=j: g.matrix(x)[i][j] for i in range(3) for j in range(i, 3)]
    for p in sample_points(g.domain, 2, seed=7):
        x = list(p.coords)
        lifted = ad.lift(x, ad.MAX_ORDER)
        for fn in components + [f.fn]:
            t = fn(lifted)
            for index in _mixed_indices(3, 3):
                got = _taylor_read(t, index)
                ref = ad.fd_derive(fn, x, index, steps)
                assert abs(got - ref) <= 1e-6 * (1.0 + abs(ref)), index


def test_hyper_dual_derive_matches_the_coordinate_lift_to_order_four():
    """On every catalog metric, each component's partials up to order 4 from
    the hyper-dual ``derive`` equal the coordinate-lift read."""
    from ryslab import catalog
    from ryslab.geometry import sample_points

    for entry in catalog.catalog_entries():
        g = entry.metric
        n = g.domain.dim
        x = list(sample_points(g.domain, 1, seed=8)[0].coords)
        lifted = g.matrix(ad.lift(x, ad.MAX_ORDER))
        for i in range(n):
            for j in range(i, n):
                entry_fn = lambda q, i=i, j=j: g.matrix(q)[i][j]
                for index in _mixed_indices(n, 4):
                    ref = ad.derive(entry_fn, x, index)
                    got = _taylor_read(lifted[i][j], index)
                    assert abs(got - ref) <= 1e-12 * (1.0 + abs(ref)), (entry.name, i, j, index)


def test_partial_lowers_the_order_and_mixed_orders_truncate():
    """d_i shifts the coefficients of x0^3 x1 + x1^2 exactly, one order lower;
    a sum or product of orders 4 and 2 is the order-2 result."""
    x = ad.lift([0.5, -2.0], 4)
    t = x[0] ** 3 * x[1] + x[1] * x[1]
    d0, d1 = ad.partial(t, 0), ad.partial(t, 1)
    assert (t.order, d0.order, ad.partial(d0, 1).order) == (4, 3, 2)
    # d0 = 3 x0^2 x1, d1 = x0^3 + 2 x1, expanded at (0.5, -2) in (h0, h1);
    # slots 1, h0, h1, h0^2, h0 h1, h1^2, h0^3, h0^2 h1, h0 h1^2, h1^3
    a, b = 0.5, -2.0
    assert d0.c.tolist() == [3 * a * a * b, 6 * a * b, 3 * a * a, 3 * b, 6 * a, 0.0, 0.0, 3.0, 0.0, 0.0]
    assert d1.c.tolist() == [a**3 + 2 * b, 3 * a * a, 2.0, 3 * a, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]
    low = ad.lift([0.5, -2.0], 2)
    for op in (lambda u, v: u + v, lambda u, v: u - v, lambda u, v: u * v, lambda u, v: u / v):
        mixed = op(x[0] * x[1] + 1.0, low[0] - low[1])
        same = op(low[0] * low[1] + 1.0, low[0] - low[1])
        assert mixed.order == 2 and np.array_equal(mixed.c, same.c)
    # (x0 + x1)(x0 - x1) = x0^2 - x1^2 and 1 / (1 + x0) to order 4, exactly
    prod = (x[0] + x[1]) * (x[0] - x[1])
    assert np.allclose(prod.c, [a * a - b * b, 2 * a, -2 * b, 1.0, 0.0, -1.0] + [0.0] * 9, rtol=0, atol=1e-15)
    inv = 1.0 / (1.0 + x[0])
    assert np.allclose(inv.c[[0, 1, 3, 6, 10]], [(-1) ** k / 1.5 ** (k + 1) for k in range(5)], rtol=1e-15)


# -- structural zeros: the float 0.0 costs no product -----------------------------

def _random_taylor(rng, n=3, order=4, points=5):
    """Random finite coefficients of both signs over a column of points."""
    return ad.Taylor(rng.standard_normal((ad._size(n, order), points)), n, order)


def _full(t, c):
    """A Taylor with coefficients ``c``: the result the full path builds."""
    return ad.Taylor(c, t.n, t.order)


def test_zero_rule_reads_match_the_full_path_bitwise():
    """x * 0.0 is 0.0, x + 0.0 and x - 0.0 are x itself; every read after
    them equals, bit for bit, the read after the full-path polynomial."""
    rng = np.random.default_rng(11)
    x, y, u = (_random_taylor(rng) for _ in range(3))
    assert x * 0.0 == 0.0 and 0.0 * x == 0.0 and isinstance(x * 0.0, float)
    assert x + 0.0 is x and 0.0 + x is x and x - 0.0 is x
    zero = _full(x, x.c * 0.0)
    plus = x.c.copy()
    plus[0] = x.c[0] + 0.0
    minus = x.c.copy()
    minus[0] = x.c[0] - 0.0
    pairs = [
        ((x * 0.0 + y) * u, (zero + y) * u),
        (y - 0.0 * x, y - zero),
        ((x * 0.0) * u + y, zero * u + y),
        (ad.exp(y + x * 0.0) / u, ad.exp(y + zero) / u),
        ((x + 0.0) * u, _full(x, plus) * u),
        ((x - 0.0) / u, _full(x, minus) / u),
        (u * (0.0 + x) - y, u * _full(x, plus) - y),
    ]
    for fast, full in pairs:
        assert fast.c.tobytes() == full.c.tobytes()
        for i in range(3):
            assert ad.partial(fast, i).c.tobytes() == ad.partial(full, i).c.tobytes()
        (v, parts), (w, ref) = ad.split(fast, 3), ad.split(full, 3)
        assert _bits([v] + parts) == _bits([w] + ref)


def test_partial_of_a_constant_direction_is_zero():
    """d_1 of a polynomial in x0 alone is 0.0; reads after it equal the
    full path's zero polynomial bit for bit."""
    rng = np.random.default_rng(12)
    x = ad.lift([rng.standard_normal(4) for _ in range(3)], 4)
    u = _random_taylor(rng, points=4)
    t = ad.sin(x[0]) * x[0] - 2.5
    assert ad.partial(t, 1) == 0.0 and ad.partial(t, 2) == 0.0
    assert isinstance(ad.partial(t, 0), ad.Taylor)
    full = _full(ad.partial(t, 0), np.zeros_like(ad.partial(t, 0).c))
    fast = ad.partial(t, 1) * u + ad.partial(t, 0)
    assert fast.c.tobytes() == (full * u.truncate(3) + ad.partial(t, 0)).c.tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("slot", [0, 7, 34])
def test_a_non_finite_coefficient_times_zero_stays_non_finite(bad, slot):
    """The zero rule needs finite coefficients: NaN or inf times 0.0 runs
    the full product, so the non-finite value propagates."""
    x = _random_taylor(np.random.default_rng(13), points=1)
    x.c[slot] = bad
    with np.errstate(invalid="ignore"):  # inf * 0.0
        for r in (x * 0.0, 0.0 * x, x * -0.0):
            assert isinstance(r, ad.Taylor)
            assert np.isnan(r.c[slot]).all()
            if slot:
                parts = [ad.partial(r, i) for i in range(3)]
                assert any(isinstance(d, ad.Taylor) and np.isnan(d.c).any() for d in parts)
            else:
                assert np.isnan(ad.value_of(r + 1.0)).all()


def _result(x):
    """A result's type, dtype, shape and bytes (a Taylor's by its coefficients)."""
    if isinstance(x, ad.Taylor):
        return ad.Taylor, x.n, x.order, x.c.dtype, x.c.shape, x.c.tobytes()
    return type(x), np.asarray(x).dtype, np.shape(x), np.asarray(x).tobytes()


def _structural(x):
    """The documented structural zero: a float (np.float64 too) equal to 0.0."""
    return isinstance(x, float) and x == 0.0


def _zero_rule_operands():
    """Structural zeros, a zero column, finite and non-finite Taylors, and
    plain numbers and columns, over a batch of two points."""
    rng = np.random.default_rng(15)
    finite = ad.lift([rng.standard_normal(2) for _ in range(2)], 2)
    nan, inf = (_full(finite[0], finite[0].c.copy()) for _ in range(2))
    nan.c[3, 0], inf.c[0, 1] = math.nan, -math.inf
    return [0.0, -0.0, np.float64(0.0), np.zeros(2), 2.5, np.float64(-1.5), np.array([1.5, -0.0])] + finite + [nan, inf]


def _expected_times(a, b):
    """The rule, in operator terms: a Taylor factor decides (0.0 beside a
    structural zero when its coefficients are finite), else a structural
    zero makes the float 0.0."""
    if isinstance(b, ad.Taylor) and not isinstance(a, ad.Taylor):
        a, b = b, a
    if isinstance(a, ad.Taylor) and not isinstance(b, ad.Taylor):
        if _structural(b) and np.isfinite(a.c).all():
            return 0.0
        return _full(a, a.c * b)
    if not isinstance(a, ad.Taylor) and (_structural(a) or _structural(b)):
        return 0.0
    return a * b


def test_zero_rule_of_times_plus_minus_and_products_is_pinned():
    """``times``, ``plus``, ``minus`` and ``Taylor.__mul__`` on every pair
    of operands: the result's type and bytes, and the operand itself where
    ``plus`` or ``minus`` returns one."""
    ops = _zero_rule_operands()
    with np.errstate(invalid="ignore"):  # inf * 0.0
        for a, b in itertools.product(ops, repeat=2):
            expected = _expected_times(a, b)
            assert _result(ad.times(a, b)) == _result(expected), (a, b)
            if isinstance(a, ad.Taylor):
                assert _result(a * b) == _result(a.__mul__(b)) == _result(expected), (a, b)
            if _structural(a):
                assert ad.plus(a, b) is b
            elif _structural(b):
                assert ad.plus(a, b) is a
            else:
                assert _result(ad.plus(a, b)) == _result(a + b)
            if _structural(b):
                assert ad.minus(a, b) is a
            else:
                assert _result(ad.minus(a, b)) == _result(a - b)
    assert type(ad.times(np.float64(0.0), 2.5)) is float and type(ad.minus(np.float64(0.0), 2.5)) is np.float64
    assert isinstance(ad.times(np.zeros(2), ops[7]), ad.Taylor)  # a zero column is no structural zero


@pytest.mark.parametrize("order", [1, 2, 4])
def test_compose_with_a_zero_tower_entry_returns_a_taylor(order):
    """x ** 2 above its degree, or at 0 where its slope is 0.0, and cos at 0
    (slope -0.0) compose through zero tower entries and still give a
    Taylor, equal to the product x * x."""
    for a in (0.0, 1.5, np.array([0.0, -0.5])):
        x = ad.lift([a, 0.25], order)[0]
        sq = x ** 2
        assert isinstance(sq, ad.Taylor) and sq.order == order
        assert np.array_equal(sq.c, (x * x).c)
        assert isinstance(x ** 3, ad.Taylor)
    c = ad.cos(ad.lift([0.0, 0.25], order)[0])
    assert isinstance(c, ad.Taylor) and c.order == order
    assert ad.value_of(c) == 1.0 and not c.c[1:3].any()
    assert order < 2 or c.c[3] == -0.5  # the x0^2 slot


# -- index tables: the numpy builder against the loop it replaced -----------------

def _loop_indices(n, order):
    """Multi-indices of degree <= order by degree, built for ``order`` alone."""
    combos = (c for d in range(order + 1) for c in itertools.combinations_with_replacement(range(n), d))
    return [tuple(c.count(i) for i in range(n)) for c in combos]


def _loop_pairs(n, order, lo, hi):
    """The loop builder of ``ad._pairs`` at ``order``, kept as its reference."""
    idx = _loop_indices(n, order)
    pos = {alpha: k for k, alpha in enumerate(idx)}
    factors = idx[:lo] if lo else idx
    groups = [
        [(pos[a], pos[r]) for a in factors if min(r := tuple(g - x for g, x in zip(gamma, a))) >= 0]
        for gamma in idx[lo:hi]
    ]
    ranked = sorted(range(len(groups)), key=lambda k: -len(groups[k]))
    ia, ib, spans = [], [], []
    for rank in range(len(groups[ranked[0]])):
        members = [groups[k][rank] for k in ranked if len(groups[k]) > rank]
        if rank:
            spans.append((len(ia), len(members)))
        ia += [a for a, _ in members]
        ib += [b for _, b in members]
    return np.array(ia), np.array(ib), spans, np.argsort(ranked)


def _requested_tables(n, order):
    """The (degree, lo, hi) that ``Taylor.__mul__`` (every slot) and
    ``_quotient`` (one degree at a time) ask ``ad._pairs`` for at ``order``."""
    size = [ad._size(n, d) for d in range(order + 1)]
    return [(order, 0, size[order])] + [(d, size[d - 1], size[d]) for d in range(1, order + 1)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
def test_pair_tables_equal_the_loop_builder(n, order):
    """The same arrays, dtypes, spans and order as the loop builder's, at the
    table's degree and at the lift order: a table shared by every order
    sums each coefficient's products as that order's own table would."""
    for d, lo, hi in _requested_tables(n, order):
        got = ad._pairs(n, d, lo, hi)
        for ref in (_loop_pairs(n, d, lo, hi), _loop_pairs(n, order, lo, hi)):
            for a, b in zip(got[:2] + got[3:], ref[:2] + ref[3:]):
                assert a.dtype == b.dtype and np.array_equal(a, b), (d, lo, hi)
            assert got[2] == ref[2] and all(type(v) is int for span in got[2] for v in span)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_shift_tables_are_prefixes_of_the_loop_builder(n, order):
    """``partial``'s slots and factors at ``order``, cut from the MAX_ORDER
    table, equal the ones built for ``order`` alone, shaped per axis count."""
    idx = _loop_indices(n, order)
    pos = {alpha: k for k, alpha in enumerate(idx)}
    low = _loop_indices(n, order - 1)
    for i in range(n):
        src = np.array([pos[tuple(a + (k == i) for k, a in enumerate(alpha))] for alpha in low])
        fac = np.array([alpha[i] + 1.0 for alpha in low])
        for ndim in (1, 2, 3):
            got_src, got_fac = ad._shift(n, order, i, ndim)
            assert got_src.dtype == src.dtype and np.array_equal(got_src, src)
            assert got_fac.shape == (len(low),) + (1,) * (ndim - 1)
            assert got_fac.dtype == fac.dtype and np.array_equal(got_fac.ravel(), fac)


def test_pair_tables_are_built_on_first_use():
    """Importing ``ad`` builds no table; a product builds its own."""
    import os
    import subprocess
    import sys

    code = (
        "from ryslab import ad; tables = (ad._indices, ad._pairs, ad._shifts); "
        "assert [t.cache_info().currsize for t in tables] == [0, 0, 0]; "
        "x = ad.lift([0.5, 1.0], 2); x[0] * x[1]; print(*[t.cache_info().currsize for t in tables])"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.split() == ["1", "1", "0"]


def test_quotient_first_degree_equals_the_table_path():
    """The degree-1 slots of a quotient, one product q_0 b_i each, keep the
    bits of the convolution over their pair table."""
    rng = np.random.default_rng(14)
    a, b = _random_taylor(rng), _random_taylor(rng)
    b.c[0] += 4.0
    q = a / b
    s = ad._convolve(q.c, b.c, ad._pairs(3, 4, 1, 4))
    assert ((a.c[1:4] - s) / b.c[0]).tobytes() == q.c[1:4].tobytes()
    r = 2.0 / b
    assert (-ad._convolve(r.c, b.c, ad._pairs(3, 4, 1, 4)) / b.c[0]).tobytes() == r.c[1:4].tobytes()
