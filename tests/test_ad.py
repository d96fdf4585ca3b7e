"""Differentiation backend tests against hand-computed oracles."""

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


# -- Jet2: the second-order Taylor jet behind lift2/read2/jet2 --------------

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
}
for _name in ("sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh", "tanh", "atan"):
    JET_CASES[_name] = lambda x, fn=getattr(ad, _name): fn(_inner(x)) * x[0]


def _close(got, ref):
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    return bool(np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref))))


@pytest.mark.parametrize("name", sorted(JET_CASES))
@pytest.mark.parametrize("where", ["point", "columns"])
def test_jet2_matches_dual_towers(name, where):
    """Value, gradient and Hessian of a Jet2 evaluation equal the Dual-tower
    partials to 1e-13 relative, at a float point and on (m,) columns."""
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


def test_read2_hessian_is_exactly_symmetric():
    x = list(np.random.default_rng(6).uniform(0.2, 0.9, size=(3, 9)))
    f = lambda q: ad.exp(q[0] * q[1]) / (1.0 + q[2] * q[0]) + ad.sin(q[1] * q[2])
    for coords in (x, [float(c[0]) for c in x]):
        _, _, hess = ad.jet2(f, coords)
        for i in range(3):
            for j in range(3):
                assert np.array_equal(hess[i][j], hess[j][i])


def test_jet2_defers_to_outer_duals():
    """A Jet2 meeting a VDual is a constant of that outer level:
    the result has the outer type, never a Jet2 holding duals."""
    jet = ad.lift2([0.4, 0.7])[0]
    outer = [ad.vlift([0.5, 0.2])[0]]
    for d in outer:
        for result in (jet + d, d + jet, jet - d, d - jet, jet * d, d * jet, jet / d, d / jet):
            assert type(result) is type(d)
            assert isinstance(result.a, ad.Jet2)
    lifted = ad.vlift(ad.lift2([0.4, 0.7]))
    y = lifted[0] * lifted[1] / (1.0 + lifted[0])
    assert isinstance(y, ad.VDual) and isinstance(y.a, ad.Jet2)
    assert all(isinstance(b, ad.Jet2) for b in y.b)


def test_jet2_rejects_lifted_coordinates():
    f = lambda q: q[0] * q[1]
    with pytest.raises(TypeError):
        ad.jet2(f, ad.vlift([0.1, 0.2]))
    with pytest.raises(TypeError):
        ad.lift2(ad.lift2([0.1, 0.2]))


# -- split: the one reader of a vector-lifted result ------------------------

COLUMN = np.linspace(0.5, 1.5, 4)


def _mixed_matrix(x):
    """A nested 3x3 list of polynomial entries, float constants and (m,)
    columns, some of them lifted with column derivative parts."""
    return [
        [x[0] * x[1], 2.5, x[2] * x[2] + x[0]],
        [COLUMN, x[1] - 3.0 * x[2], x[0] * x[1] * x[2]],
        [x[2] ** 3, COLUMN * x[0], (x[0] + 1.0) ** 2 - x[1]],
    ]


def test_split_matches_derive_on_a_mixed_nested_list():
    """Values and direction-first partials equal ``derive`` exactly on
    polynomial entries; constant entries have partials of exactly 0.0."""
    p = [0.3, -0.7, 1.1]
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


def _christoffel_by_loops(g, x):
    """Gamma and dGamma[m][k][i][j] unpacked from a lifted Christoffel
    evaluation entry by entry."""
    n = g.domain.dim
    gl = curvature.christoffel_generic(g, ad.vlift(x))
    gamma = [[[0.0] * n for _ in range(n)] for _ in range(n)]
    dgamma = [[[[0.0] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                v = gl[k][i][j]
                if isinstance(v, ad.VDual):
                    gamma[k][i][j] = v.a
                    for m in range(n):
                        dgamma[m][k][i][j] = v.b[m]
                else:
                    gamma[k][i][j] = v
    return gamma, dgamma


def _ricci_by_loops(g, x):
    """Ric and dric[k][i][j] unpacked from a lifted Ricci evaluation entry
    by entry."""
    n = g.domain.dim
    rl = curvature.ricci_generic(g, ad.vlift(x))
    ric = [[0.0] * n for _ in range(n)]
    dric = [[[0.0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            v = rl[i][j]
            if isinstance(v, ad.VDual):
                ric[i][j] = v.a
                for k in range(n):
                    dric[k][i][j] = v.b[k]
            else:
                ric[i][j] = v
    return ric, dric


def _bits(nested):
    return np.asarray(nested, dtype=float).tobytes()


@pytest.mark.parametrize("name", ["unit-s3", "h3", "s2xr", "perturbed"])
def test_with_partials_equal_the_entrywise_unpacking(name):
    from ryslab import catalog
    from ryslab.geometry import sample_points

    if name == "perturbed":
        g = catalog.make_perturbed_flat(1e-2, 11).metric
    else:
        g = catalog.get_entry(name).metric
    for p in sample_points(g.domain, 2, seed=3):
        x = list(p.coords)
        for got, ref in zip(curvature.christoffel_with_partials(g, x), _christoffel_by_loops(g, x)):
            assert _bits(got) == _bits(ref)
        for got, ref in zip(curvature.ricci_with_partials(g, x), _ricci_by_loops(g, x)):
            assert _bits(got) == _bits(ref)
