"""Curvature pipeline against closed-form geometries."""

import math

import numpy as np
import pytest

from ryslab import ad, catalog
from ryslab import curvature as cv
from ryslab.errors import MetricSingular
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


def s2_polar():
    dom = ChartDomain(2, ((0.3, math.pi - 0.3), (0.0, 2.0)), "s2-polar")
    return MetricField(
        lambda x: [[1.0, 0.0], [0.0, ad.sin(x[0]) ** 2]], dom, "s2-polar"
    )


class TestChristoffel:
    def test_flat_vanishes(self):
        g = flat3()
        for p in sample_points(g.domain, 5, seed=1):
            assert np.max(np.abs(cv.christoffel(g, p))) == 0.0

    def test_round_sphere_polar_component(self):
        """Gamma^theta_{phi phi} = -sin(theta)cos(theta) = -sqrt(3)/4 at pi/3."""
        g = s2_polar()
        gamma = cv.christoffel(g, (math.pi / 3, 0.5))
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
            cv.christoffel(g, p), cv.christoffel(scaled, p), atol=1e-12
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
            cv.christoffel(scaled, p), cv.christoffel(g, p), atol=1e-12
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
        norm = cv.ricci_norm_sq(g, p)
        assert abs(norm - 12.0) < 1e-6  # |2g|^2 = 4*n on the unit 3-sphere
        bundle = cv.curvature_bundle(g, p)
        assert abs(bundle.ricci_norm_sq - norm) < 1e-9
        assert abs(bundle.scalar - 6.0) < 1e-7


class TestHessianFamily:
    def test_flat_quadratic(self):
        g = flat3()
        f = ScalarField(
            lambda x: 0.5 * (x[0] ** 2 + x[1] ** 2 + x[2] ** 2), g.domain, "r2/2"
        )
        p = (0.3, -0.5, 0.1)
        assert np.allclose(cv.hessian(g, f, p).components, np.eye(3), atol=1e-12)
        assert abs(cv.laplacian(g, f, p) - 3.0) < 1e-12
        r2 = sum(c * c for c in p)
        assert abs(cv.grad_norm_sq(g, f, p) - r2) < 1e-12
        assert np.allclose(cv.gradient(g, f, p), np.array(p), atol=1e-12)

    def test_constant_potential(self):
        g = flat3()
        f = ScalarField(lambda x: 4.2, g.domain, "const")
        p = (0.1, 0.2, 0.3)
        assert cv.hessian(g, f, p).max_abs() == 0.0
        assert cv.laplacian(g, f, p) == 0.0
        assert cv.grad_norm_sq(g, f, p) == 0.0

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
            hess = cv.hessian(g, f, p).components
            gm = g.matrix_np(p.coords)
            assert np.max(np.abs(hess + fv * gm)) < 1e-9
            assert abs(cv.laplacian(g, f, p) + 3.0 * fv) < 1e-9


class TestLieDerivative:
    def test_zero_field(self):
        g = flat3()
        X = VectorField(lambda x: [0.0, 0.0, 0.0], g.domain, "zero")
        assert cv.lie_derivative_metric(g, X, (0.1, 0.2, 0.3)).max_abs() == 0.0

    def test_position_field_flat(self):
        g = flat3()
        X = VectorField(lambda x: list(x), g.domain, "position")
        p = (0.4, -0.2, 0.6)
        lie = cv.lie_derivative_metric(g, X, p).components
        assert np.allclose(lie, 2.0 * np.eye(3), atol=1e-12)

    def test_gradient_field_gives_twice_hessian(self):
        entry = catalog.make_perturbed_flat(1e-2, 21)
        g = entry.metric
        f = catalog.random_polynomial_field(g.domain, seed=22)
        n = g.domain.dim

        def grad_up(x):
            up, _, _ = cv.gradient_generic(g, f, x)
            return up

        X = VectorField(grad_up, g.domain, "grad-f")
        for p in sample_points(g.domain, 4, seed=23):
            lie = cv.lie_derivative_metric(g, X, p).components
            hess = cv.hessian(g, f, p).components
            scale = 1.0 + np.max(np.abs(hess))
            assert np.max(np.abs(lie - 2.0 * hess)) <= 1e-9 * scale


class TestScalarCurvatureDerivatives:
    def test_einstein_entries_have_constant_r(self):
        for entry in (catalog.sphere_entry(1.0), catalog.hyperbolic_entry()):
            g = entry.metric
            p = sample_points(entry.charts[0], 1, seed=11)[0]
            assert np.max(np.abs(cv.grad_scalar_curvature(g, p))) < 1e-5
            assert abs(cv.laplacian_scalar_curvature(g, p)) < 1e-5

    def test_grad_r_matches_fd_oracle(self):
        """Differentiating the scalar-curvature map agrees with Richardson
        finite differences of the same map on a perturbed-flat metric."""
        entry = catalog.make_perturbed_flat(1e-2, 31)
        g = entry.metric
        rf = cv.scalar_curvature_field(g)
        steps = [0.5 * h for h in g.domain.fd_steps()]
        for p in sample_points(g.domain, 3, seed=32):
            x = list(p.coords)
            grad = cv.grad_scalar_curvature(g, p)
            for i in range(3):
                fd = ad.fd_derive(rf.fn, x, (i,), steps)
                assert abs(grad[i] - fd) <= 1e-6 * (1 + abs(grad[i]))


def test_metric_singular_guard():
    dom = ChartDomain(2, ((-1.0, 1.0),) * 2, "box")
    g = MetricField(lambda x: [[1.0, 1.0], [1.0, 1.0]], dom, "rank-1")
    with pytest.raises(MetricSingular):
        cv.ricci(g, (0.0, 0.0))


def test_sym2tensor_rejects_asymmetric():
    with pytest.raises(ValueError):
        cv.Sym2Tensor.from_matrix([[0.0, 1.0], [0.0, 0.0]])


def test_four_dimensional_batch_equals_each_point():
    """Ricci and R of a 4D metric over a batch (the n >= 4 inverse on
    columns) equal the values at each point alone."""
    g = catalog.make_perturbed_flat(1e-2, 3, dim=4).metric
    pts = sample_points(g.domain, 3, seed=1)
    batch = PointBatch(pts)
    ric = cv.ricci(g, batch).components
    scal = cv.scalar_curvature(g, batch)
    for k, p in enumerate(pts):
        assert np.array_equal(ric[..., k], cv.ricci(g, p).components)
        assert scal[k] == cv.scalar_curvature(g, p)
