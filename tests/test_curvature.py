"""Curvature pipeline against closed-form geometries."""

import math

import numpy as np
import pytest

from ryslab import ad, catalog
from ryslab import curvature as cv
from ryslab.errors import MetricSingular, OrderTooHigh
from ryslab.tensors import mat_inverse
from ryslab.geometry import (
    ChartDomain,
    MetricField,
    PointBatch,
    ScalarField,
    VectorField,
    sample_points,
)


def flat3():
    return catalog.flat_entry(3).metric


def christoffel(g, p):
    return np.array(cv.curvature_data(g, p).christoffel, dtype=float)


def s2_polar():
    dom = ChartDomain(2, ((0.3, math.pi - 0.3), (0.0, 2.0)), "s2-polar")
    return MetricField(
        lambda x: [[1.0, 0.0], [0.0, ad.sin(x[0]) ** 2]], dom, "s2-polar"
    )


class TestChristoffel:
    def test_flat_vanishes(self):
        g = flat3()
        for p in sample_points(g.domain, 5, seed=1):
            assert np.max(np.abs(christoffel(g, p))) == 0.0

    def test_round_sphere_polar_component(self):
        """Gamma^theta_{phi phi} = -sin(theta)cos(theta) = -sqrt(3)/4 at pi/3."""
        g = s2_polar()
        gamma = christoffel(g, (math.pi / 3, 0.5))
        assert abs(gamma[0][1][1] + math.sqrt(3) / 4) < 1e-12

    def test_scale_invariance(self):
        g = s2_polar()
        scaled = MetricField(
            lambda x: [[9.0, 0.0], [0.0, 9.0 * ad.sin(x[0]) ** 2]],
            g.domain,
            "scaled",
        )
        p = (1.1, 0.4)
        assert np.allclose(
            christoffel(g, p), christoffel(scaled, p), atol=1e-12
        )


class TestRicciAndScalar:
    def test_flat_zero(self):
        g = flat3()
        p = (0.2, -0.1, 0.5)
        assert cv.ricci(g, p).max_abs() == 0.0
        assert cv.scalar_curvature(g, p) == 0.0
        assert np.max(np.abs(cv.ricci_operator(g, p))) == 0.0

    def test_unit_sphere_both_charts(self):
        entry = catalog.sphere_entry(1.0)
        g = entry.metric
        for chart in entry.charts:
            for p in sample_points(chart, 5, seed=3):
                ric = cv.ricci(g, p).components
                gm = g.matrix_np(p.coords)
                assert np.max(np.abs(ric - 2.0 * gm)) < 1e-7
                assert abs(cv.scalar_curvature(g, p) - 6.0) < 1e-7

    def test_chart_overlap_consistency(self):
        """R computed in either stereographic chart agrees at shared points."""
        entry = catalog.sphere_entry(1.0)
        g = entry.metric
        rng = np.random.default_rng(5)
        for _ in range(5):
            u = rng.uniform(-0.6, 0.6, size=3)
            u = u / np.linalg.norm(u) * rng.uniform(0.9, 1.1)
            v = entry.atlas.transition(list(u))
            r_u = cv.scalar_curvature(g, list(u))
            r_v = cv.scalar_curvature(g, v)
            assert abs(r_u - r_v) <= 1e-9 * (1 + abs(r_u))

    def test_hyperbolic_space(self):
        g = catalog.hyperbolic_entry().metric
        for p in sample_points(g.domain, 5, seed=4):
            ric = cv.ricci(g, p).components
            gm = g.matrix_np(p.coords)
            assert np.max(np.abs(ric + 2.0 * gm)) < 1e-9
            assert abs(cv.scalar_curvature(g, p) + 6.0) < 1e-9
            q = cv.ricci_operator(g, p)
            assert np.max(np.abs(q + 2.0 * np.eye(3))) < 1e-9

    def test_sphere_radius_family(self):
        for radius in (0.5, 1.0, 2.0):
            entry = catalog.sphere_entry(radius)
            g = entry.metric
            p = sample_points(entry.charts[0], 1, seed=6)[0]
            expected = 6.0 / radius**2
            assert abs(cv.scalar_curvature(g, p) - expected) < 1e-7 * (1 + expected)

    def test_scaling_law(self):
        """Under g -> c^2 g the scalar curvature scales by c^-2."""
        entry = catalog.sphere_entry(1.0)
        g = entry.metric
        c2 = 4.0
        scaled = MetricField(
            lambda x: [[c2 * v for v in row] for row in g.fn(x)],
            g.domain,
            "scaled-s3",
        )
        p = (0.2, 0.1, -0.4)
        assert abs(cv.scalar_curvature(scaled, p) - 6.0 / c2) < 1e-9
        assert np.allclose(
            christoffel(scaled, p), christoffel(g, p), atol=1e-12
        )

    def test_ricci_operator_self_adjoint(self):
        entry = catalog.make_perturbed_flat(1e-2, 9)
        g = entry.metric
        p = sample_points(g.domain, 1, seed=2)[0]
        q = cv.ricci_operator(g, p)
        gm = g.matrix_np(p.coords)
        assert np.max(np.abs(gm @ q - (gm @ q).T)) < 1e-12

    def test_ricci_norm_nonnegative(self):
        g = catalog.sphere_entry(1.0).metric
        p = (0.3, 0.0, 0.2)
        data = cv.curvature_data(g, p)
        assert abs(data.ricci_norm_sq - 12.0) < 1e-6  # |2g|^2 = 4*n on the unit 3-sphere
        assert abs(data.scalar - 6.0) < 1e-7


def grad_norm_sq(data, f):
    """|grad f|^2 = (grad f)^i d_i f."""
    return sum(u * d for u, d in zip(data.gradient_up(f), data.jet(f)[1]))


class TestHessianFamily:
    def test_flat_quadratic(self):
        g = flat3()
        f = ScalarField(
            lambda x: 0.5 * (x[0] ** 2 + x[1] ** 2 + x[2] ** 2), g.domain, "r2/2"
        )
        p = (0.3, -0.5, 0.1)
        data = cv.curvature_data(g, p)
        assert np.allclose(data.hessian(f), np.eye(3), atol=1e-12)
        assert abs(data.laplacian(f) - 3.0) < 1e-12
        r2 = sum(c * c for c in p)
        assert abs(grad_norm_sq(data, f) - r2) < 1e-12
        assert np.allclose(data.gradient_up(f), np.array(p), atol=1e-12)

    def test_constant_potential(self):
        g = flat3()
        f = ScalarField(lambda x: 4.2, g.domain, "const")
        data = cv.curvature_data(g, (0.1, 0.2, 0.3))
        assert np.max(np.abs(data.hessian(f))) == 0.0
        assert data.laplacian(f) == 0.0
        assert grad_norm_sq(data, f) == 0.0

    def test_sphere_eigenfunction(self):
        """An ambient coordinate restricted to the unit sphere satisfies
        Hess f = -f g and Delta f = -3 f."""
        entry = catalog.sphere_entry(1.0)
        g = entry.metric

        def first_ambient(x):
            q = x[0] * x[0] + x[1] * x[1] + x[2] * x[2]
            return 2.0 * x[0] / (1.0 + q)

        f = ScalarField(first_ambient, g.domain, "ambient-x")
        for p in sample_points(entry.charts[0], 5, seed=8):
            fv = first_ambient(list(p.coords))
            data = cv.curvature_data(g, p)
            hess = np.array(data.hessian(f))
            gm = g.matrix_np(p.coords)
            assert np.max(np.abs(hess + fv * gm)) < 1e-9
            assert abs(data.laplacian(f) + 3.0 * fv) < 1e-9


def lie_derivative(g, X, p):
    return np.array(cv.lie_metric_generic(g, X, list(p)), dtype=float)


class TestLieDerivative:
    def test_zero_field(self):
        g = flat3()
        X = VectorField(lambda x: [0.0, 0.0, 0.0], g.domain, "zero")
        assert np.max(np.abs(lie_derivative(g, X, (0.1, 0.2, 0.3)))) == 0.0

    def test_position_field_flat(self):
        g = flat3()
        X = VectorField(lambda x: list(x), g.domain, "position")
        p = (0.4, -0.2, 0.6)
        lie = lie_derivative(g, X, p)
        assert np.allclose(lie, 2.0 * np.eye(3), atol=1e-12)

    def test_gradient_field_gives_twice_hessian(self):
        """L_{grad f} g = 2 Hess f on a perturbed-flat metric, with grad f
        = g^{-1} df written out for f = x0 x1 + x2^2 - x0^3."""
        entry = catalog.make_perturbed_flat(1e-2, 21)
        g = entry.metric
        f = ScalarField(lambda x: x[0] * x[1] + x[2] * x[2] - x[0] ** 3, g.domain, "cubic")

        def grad_up(x):
            df = [x[1] - 3.0 * x[0] * x[0], x[0], 2.0 * x[2]]
            ginv = mat_inverse(g.matrix(x))
            return [sum(ginv[i][j] * df[j] for j in range(3)) for i in range(3)]

        X = VectorField(grad_up, g.domain, "grad-f")
        for p in sample_points(g.domain, 4, seed=23):
            lie = lie_derivative(g, X, p.coords)
            data = cv.curvature_data(g, p)
            hess = np.array(data.hessian(f))
            scale = 1.0 + np.max(np.abs(hess))
            assert np.max(np.abs(lie - 2.0 * hess)) <= 1e-9 * scale
            assert np.max(np.abs(np.array(data.lie(X)) - lie)) <= 1e-15 * scale


class TestScalarCurvatureDerivatives:
    def test_einstein_entries_have_constant_r(self):
        for entry in (catalog.sphere_entry(1.0), catalog.hyperbolic_entry()):
            g = entry.metric
            data = cv.curvature_data(g, sample_points(entry.charts[0], 1, seed=11)[0])
            _, dR, _ = data.jet(data.scalar_field)
            assert np.max(np.abs(dR)) < 1e-5
            assert abs(data.laplacian(data.scalar_field)) < 1e-5

    def test_grad_r_matches_fd_oracle(self):
        """Differentiating the scalar-curvature map agrees with Richardson
        finite differences of the same map on a perturbed-flat metric."""
        entry = catalog.make_perturbed_flat(1e-2, 31)
        g = entry.metric
        rf = cv.scalar_curvature_field(g)
        steps = [0.5 * h for h in g.domain.fd_steps()]
        for p in sample_points(g.domain, 3, seed=32):
            x = list(p.coords)
            data = cv.curvature_data(g, p)
            grad = data.jet(data.scalar_field)[1]
            for i in range(3):
                fd = ad.fd_derive(rf.fn, x, (i,), steps)
                assert abs(grad[i] - fd) <= 1e-6 * (1 + abs(grad[i]))


def test_lift_order_bounds_the_reads():
    """On a curved metric a lift of order 3 gives Ric's and R's partials
    bit for bit as order 4, and no Delta R; order 2 gives Ric and R but
    raises for their partials.  Nothing above the lift is truncated."""
    g = catalog.make_perturbed_flat(1e-2, 13).metric
    f = catalog.random_polynomial_field(g.domain, seed=14)
    cols = sample_points(g.domain, 9, seed=15).columns
    full, three, two = (cv.CurvatureData(g, cols, k) for k in (4, 3, 2))
    assert cv.CurvatureData(g, cols).order == ad.MAX_ORDER

    def same(a, b):
        return np.array_equal(np.asarray(a, dtype=float), np.asarray(b, dtype=float))

    levels = ("metric", "inverse", "christoffel", "ricci", "scalar", "ricci_partials", "scalar_partials")
    for name in levels:
        assert same(getattr(three, name), getattr(full, name)), name
    assert same(three.connection[1], full.connection[1])
    for read in ("hessian", "hessian_partials", "laplacian_partials", "grad_norm_sq_laplacian"):
        assert same(getattr(three, read)(f), getattr(full, read)(f)), read
    assert same(two.ricci, full.ricci) and same(two.scalar, full.scalar)
    assert same(two.hessian_partials(f), full.hessian_partials(f))
    for data, reads in (
        (three, [lambda d: d.laplacian(d.scalar_field)]),
        (two, [lambda d: d.ricci_partials, lambda d: d.scalar_partials, lambda d: d.grad_norm_sq_laplacian(f)]),
    ):
        for read in reads:
            with pytest.raises(OrderTooHigh):
                read(data)


def test_batch_keeps_the_order_it_was_built_at():
    """``curvature_data`` shares one lift per batch: a call without an
    order reuses it, and asking the built data for another order fails, as
    does a lift below Ric's order 2 or above ``MAX_ORDER``."""
    g = catalog.make_perturbed_flat(1e-2, 16).metric
    batch = sample_points(g.domain, 3, seed=17)
    data = cv.curvature_data(g, batch, 3)
    assert cv.curvature_data(g, batch) is data and data.order == 3
    assert cv.curvature_data(g, batch, 3) is data
    with pytest.raises(ValueError):
        cv.curvature_data(g, batch, 4)
    for order in (1, ad.MAX_ORDER + 1):
        with pytest.raises(ValueError):
            cv.curvature_data(g, PointBatch(batch.columns), order)


def test_metric_singular_guard():
    dom = ChartDomain(2, ((-1.0, 1.0),) * 2, "box")
    g = MetricField(lambda x: [[1.0, 1.0], [1.0, 1.0]], dom, "rank-1")
    with pytest.raises(MetricSingular):
        cv.ricci(g, (0.0, 0.0))


def test_sym2tensor_rejects_asymmetric():
    with pytest.raises(ValueError):
        cv.Sym2Tensor.from_matrix([[0.0, 1.0], [0.0, 0.0]])


@pytest.mark.parametrize(
    "m",
    [[[1.0, math.nan], [0.0, 1.0]], [[math.nan, 0.0], [0.0, 1.0]], [[1.0, math.inf], [math.inf, 1.0]]],
)
def test_sym2tensor_rejects_non_finite_entries(m):
    """A NaN entry, off the diagonal (a NaN antisymmetry) or on it (a NaN
    bound), or a symmetric pair of infs (inf - inf), is no symmetric
    matrix."""
    with pytest.raises(ValueError):
        cv.Sym2Tensor.from_matrix(m)


@pytest.mark.parametrize("reader", ["christoffel_generic", "hessian_generic", "laplacian_generic"])
def test_generic_readers_evaluate_the_metric_once(reader, monkeypatch):
    """Each of these readers evaluates g once per call, at one point of the
    unit 3-sphere: Gamma and g^{-1} come off one order-1 lift
    (``connection``)."""
    entry = catalog.sphere_entry(1.0)
    g = entry.metric
    p = sample_points(g.domain, 1, seed=4)[0]
    f = catalog.random_polynomial_field(g.domain, 5)
    calls, matrix = [], MetricField.matrix

    def counting(self, coords):
        calls.append(1)
        return matrix(self, coords)

    monkeypatch.setattr(MetricField, "matrix", counting)
    args = (g, p.coords) if reader == "christoffel_generic" else (g, f, p.coords)
    getattr(cv, reader)(*args)
    assert len(calls) == 1


def test_four_dimensional_batch_equals_each_point():
    """Ricci and R of a 4D metric over a batch (the n >= 4 inverse on
    columns) equal the values at each point alone."""
    g = catalog.make_perturbed_flat(1e-2, 3, dim=4).metric
    pts = sample_points(g.domain, 3, seed=1)
    batch = PointBatch(pts.columns)
    ric = cv.ricci(g, batch).components
    scal = cv.scalar_curvature(g, batch)
    for k, p in enumerate(pts):
        assert np.array_equal(ric[..., k], cv.ricci(g, p).components)
        assert scal[k] == cv.scalar_curvature(g, p)


@pytest.mark.parametrize("case, points, chunk", [("perturbed-flat", 11, 4), ("einstein-s3", ad.CHUNK + 6, ad.CHUNK)])
def test_chunked_batch_equals_one_pass(case, points, chunk, monkeypatch):
    """A batch lifted in chunks gives every read of one whole-batch pass
    bit for bit (the lifted arithmetic is per point), constants and
    structural zeros (the float 0.0 in every chunk) included; einstein-s3
    is chunked at ad.CHUNK, as verify chunks it."""
    from ryslab.soliton import SolitonParams

    if case == "perturbed-flat":
        g = catalog.make_perturbed_flat(1e-2, 5).metric
    else:
        g = catalog.einstein_sphere_instance(SolitonParams(1.0, 0.0, -2.0)).metric
    f = catalog.random_polynomial_field(g.domain, seed=6)
    X = VectorField(lambda x: [x[1] * x[2], x[0] - x[2], x[0] * x[0]], g.domain, "quadratic")
    pts = sample_points(g.domain, points, seed=7)

    def reads(data):
        return [
            data.metric, data.inverse, data.connection, data.ricci, data.ricci_partials, data.scalar,
            data.jet(f), data.hessian(f), data.hessian_partials(f), data.laplacian_partials(f),
            data.grad_norm_sq_laplacian(f), data.jet(data.scalar_field), data.lie(X),
        ]

    def leaves(v):
        if isinstance(v, (list, tuple)):
            for x in v:
                yield from leaves(x)
        else:
            yield v

    monkeypatch.setattr(cv, "CHUNK", points)
    whole = list(leaves(reads(cv.curvature_data(g, PointBatch(pts.columns)))))
    monkeypatch.setattr(cv, "CHUNK", chunk)
    chunked_data = cv.curvature_data(g, PointBatch(pts.columns))
    assert [len(c.x[0]) for c in chunked_data._chunks] == [chunk] * (points // chunk) + [points % chunk]
    chunked = list(leaves(reads(chunked_data)))
    assert len(whole) == len(chunked)
    assert case != "einstein-s3" or any(isinstance(a, float) for a in chunked)  # its zeros
    assert all(type(a) is type(b) and np.array_equal(a, b) for a, b in zip(whole, chunked))


def test_stitch_spreads_a_float_over_its_chunk():
    """A read that is a float in one chunk and a column in another joins
    into one column; the same float in every chunk stays a float."""
    three, two = np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0])
    got = cv._stitch([[0.0, 5.0, (3.0, three)], [two, 5.0, (3.0, 0.0)]], [3, 2])
    assert got[0].tolist() == [0.0, 0.0, 0.0, 4.0, 5.0]
    assert got[1] == 5.0 and isinstance(got[1], float)
    assert isinstance(got[2], tuple) and got[2][0] == 3.0
    assert got[2][1].tolist() == [1.0, 2.0, 3.0, 0.0, 0.0]
