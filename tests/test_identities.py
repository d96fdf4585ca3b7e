"""Identity checks: positive cases from closed forms, negative controls,
and the universal suite on random geometries."""

import numpy as np
import pytest

from ryslab import catalog, identities
from ryslab import curvature as cv
from ryslab.errors import (
    DegenerateDenominator,
    NotASoliton,
    NotCompact,
)
from ryslab.geometry import MetricField, PointBatch, ScalarField, sample_points
from ryslab.soliton import SolitonClass, SolitonInstance, SolitonKind, SolitonParams


def gaussian(lam=2.0, alpha=1.0, beta=0.0, mu=0.0):
    return catalog.gaussian_instance(SolitonParams(alpha, beta, lam, mu))


def einstein_s3(alpha=1.0, beta=0.0, mu=0.0, lam=None):
    lam = 3.0 * beta - 2.0 * alpha if lam is None else lam
    return catalog.einstein_sphere_instance(SolitonParams(alpha, beta, lam, mu))


def test_identity_residual_rel_gap_definition():
    r = identities.IdentityResidual.build("x", 3.0, 1.0, (0.0, 0.0))
    assert r.abs_gap == 2.0
    assert r.rel_gap == 2.0 / (1.0 + 3.0)


class TestTraceIdentity:
    def test_gaussian_closed_form(self):
        """lam = 2, n = 3: alpha R = 0, Delta f = -6, n lam = 6, mu term 0."""
        inst = gaussian(lam=2.0)
        p = (0.2, -0.4, 0.3)
        assert abs(cv.curvature_data(inst.metric, p).laplacian(inst.potential) + 6.0) < 1e-12
        r = identities.check_trace_identity(inst, p)
        assert r.abs_gap < 1e-12

    def test_einstein_sphere_with_mu(self):
        """6 + 0 + 3(-2) + 0 = 0 for alpha=1, beta=0, lam=-2, mu=1."""
        inst = einstein_s3(mu=1.0)
        p = sample_points(inst.entry.charts[0], 1, seed=1)[0]
        r = identities.check_trace_identity(inst, p)
        assert r.abs_gap < 1e-9

    def test_not_a_soliton_guard(self):
        entry = catalog.flat_entry(3)
        inst = SolitonInstance(
            SolitonParams(1.0, 0.0, 1.0), entry.metric, SolitonKind.GRYS,
            potential=catalog.coordinate_potential(entry.metric.domain, 0),
        )
        # f = x0 on flat space with lam = 1 is not a soliton
        with pytest.raises(NotASoliton):
            identities.check_trace_identity(inst, (0.1, 0.1, 0.1))


class TestGradientIdentity:
    def test_gaussian_all_terms_vanish(self):
        inst = gaussian(lam=1.5)
        r = identities.check_gradient_identity(inst, (0.3, 0.2, -0.1))
        assert r.lhs < 1e-12 and r.rhs < 1e-12 and r.abs_gap < 1e-12

    def test_einstein_sphere_mu_one(self):
        inst = einstein_s3(mu=1.0)
        p = sample_points(inst.entry.charts[0], 1, seed=2)[0]
        r = identities.check_gradient_identity(inst, p)
        assert r.rel_gap < 1e-6

    def test_mu_zero_specialization_agrees(self):
        """For mu = 0 the general covector identity reduces exactly to
        {alpha - beta(n-1)} grad R = 2 Ric(grad f, .)."""
        inst = gaussian(lam=2.0, alpha=1.0, beta=0.5)
        p = (0.25, -0.15, 0.35)
        general = identities.check_gradient_identity(inst, p)
        g, f, pr, n = inst.metric, inst.potential, inst.params, 3
        data = cv.curvature_data(g, p)
        dR = np.array(data.jet(data.scalar_field)[1])
        ric = cv.ricci(g, p).components
        grad_up = np.array(cv.curvature_data(g, p).gradient_up(f))
        lhs = (pr.alpha - pr.beta * (n - 1)) * dR
        rhs = 2.0 * ric @ grad_up
        special_gap = float(np.max(np.abs(lhs - rhs)))
        assert abs(general.abs_gap - special_gap) < 1e-15


class TestLaplacianIdentity:
    def test_einstein_sphere_mu_one_nontrivial_cancellation(self):
        """alpha=1, beta=0, mu=1, lam=-2 on the unit 3-sphere: the right
        side is 2*{2}*{0} - 4*{12 - 12} and both sides vanish."""
        inst = einstein_s3(mu=1.0)
        p = sample_points(inst.entry.charts[0], 1, seed=3)[0]
        assert abs(cv.curvature_data(inst.metric, p).ricci_norm_sq - 12.0) < 1e-6
        r = identities.check_laplacian_identity(inst, p)
        assert r.rel_gap < 1e-10

    def test_gaussian_reduces_to_mu_zero_form(self):
        """mu = 0: {alpha - beta(n-1)} Delta R = <grad R, grad f>
        - 2 {alpha |Ric|^2 + R(lam - beta R/2)}; every term vanishes."""
        inst = gaussian(lam=-2.0, alpha=1.2, beta=0.3)
        r = identities.check_laplacian_identity(inst, (0.2, 0.1, -0.3))
        assert abs(r.lhs) < 1e-10 and abs(r.rhs) < 1e-10

    def test_hyperbolic_einstein(self):
        inst = catalog.einstein_hyperbolic_instance(SolitonParams(1.0, 0.0, 2.0))
        p = sample_points(inst.metric.domain, 1, seed=4)[0]
        r = identities.check_laplacian_identity(inst, p)
        assert r.rel_gap < 1e-9


class TestScalarConstancy:
    def test_einstein_sphere_prediction(self):
        """alpha=1, beta=2, lam=4: predicted R = 2*3*4/(3*2-2) = 6."""
        inst = einstein_s3(alpha=1.0, beta=2.0)  # lam = 3*2-2 = 4
        assert inst.params.lam == 4.0
        pts = sample_points(inst.entry.charts[0], 10, seed=5)
        out = identities.check_scalar_constancy(inst, pts)
        assert abs(out["predicted"] - 6.0) < 1e-12
        assert out["gap"] < 1e-9
        assert out["passed"]
        assert out["sign_law_applies"]
        assert out["sign_consistent"]
        assert out["soliton_class"] is SolitonClass.EXPANDING

    def test_negative_control_reports_gap(self):
        """Probing lam = 0 on the same geometry predicts 0 while R = 6;
        the check reports the gap instead of raising."""
        inst = einstein_s3(alpha=1.0, beta=2.0, lam=0.0)
        pts = sample_points(inst.entry.charts[0], 5, seed=6)
        out = identities.check_scalar_constancy(inst, pts)
        assert abs(out["predicted"]) < 1e-12
        assert abs(out["gap"] - 6.0) < 1e-6
        assert not out["passed"]

    def test_degenerate_denominator(self):
        inst = einstein_s3(alpha=3.0, beta=2.0)  # n beta - 2 alpha = 0
        pts = sample_points(inst.entry.charts[0], 2, seed=7)
        with pytest.raises(DegenerateDenominator):
            identities.check_scalar_constancy(inst, pts)

    def test_not_compact_guard(self):
        inst = gaussian()
        with pytest.raises(NotCompact):
            identities.check_scalar_constancy(inst, [(0.1, 0.1, 0.1)])


class TestSplittingIdentity:
    def test_gaussian_closed_form(self):
        """n=3: both sides equal 3 lam^2 for the Gaussian potential."""
        lam = 1.7
        inst = gaussian(lam=lam)
        p = (0.3, -0.2, 0.4)
        r = identities.check_splitting_identity(inst, p)
        assert abs(r.lhs - 3.0 * lam * lam) < 1e-10
        assert abs(r.rhs - 3.0 * lam * lam) < 1e-10
        assert r.rel_gap < 1e-10

    def test_constant_potential_trivial(self):
        inst = einstein_s3()
        p = sample_points(inst.entry.charts[0], 1, seed=8)[0]
        r = identities.check_splitting_identity(inst, p)
        assert abs(r.lhs) < 1e-9 and abs(r.rhs) < 1e-9

    def test_product_cylinder_with_line_potential(self):
        """On the sphere-line product with f = t every term vanishes:
        |grad f| is constant, Hess f = 0, and Ric(grad f, grad f) = 0."""
        inst = catalog.cylinder_instance(SolitonParams(0.0, 1.0, 1.0))
        for p in sample_points(inst.metric.domain, 4, seed=9):
            r = identities.check_splitting_identity(inst, p)
            assert abs(r.lhs) < 1e-9 and abs(r.rhs) < 1e-9

    def test_mu_nonzero_rejected(self):
        inst = einstein_s3(mu=1.0)
        p = sample_points(inst.entry.charts[0], 1, seed=10)[0]
        with pytest.raises(ValueError):
            identities.check_splitting_identity(inst, p)

    def test_degenerate_denominator(self):
        inst = gaussian(alpha=1.0, beta=0.5)  # alpha - 2 beta = 0
        with pytest.raises(DegenerateDenominator):
            identities.check_splitting_identity(inst, (0.1, 0.1, 0.1))


class TestAffineSplittingFlags:
    def test_line_coordinate_passes(self):
        inst = catalog.cylinder_instance(SolitonParams(0.0, 1.0, 1.0))
        pts = sample_points(inst.metric.domain, 8, seed=11)
        flags = identities.check_affine_splitting_flags(inst, pts)
        assert flags["hessian_norm"] <= 1e-9
        assert flags["grad_norm_variation"] <= 1e-9

    def test_quadratic_potential_fails(self):
        entry = catalog.cylinder_entry()
        inst = SolitonInstance(
            SolitonParams(0.0, 1.0, 1.0), entry.metric, SolitonKind.GRYS,
            potential=ScalarField(lambda x: x[2] ** 2, entry.metric.domain, "t^2"),
        )
        pts = sample_points(entry.metric.domain, 8, seed=12)
        flags = identities.check_affine_splitting_flags(inst, pts)
        assert abs(flags["hessian_norm"] - 2.0) < 1e-12

    def test_constant_potential_trivial(self):
        inst = einstein_s3()
        pts = sample_points(inst.entry.charts[0], 4, seed=13)
        flags = identities.check_affine_splitting_flags(inst, pts)
        assert flags["hessian_norm"] == 0.0
        assert flags["grad_norm_variation"] == 0.0


class TestUniversalIdentities:
    def test_random_geometries(self):
        """Bianchi, commutation, and Bochner hold on seeded perturbed-flat
        metrics with random polynomial potentials."""
        for k in range(2):
            entry = catalog.make_perturbed_flat(1e-2, 60 + k)
            f = catalog.random_polynomial_field(entry.metric.domain, seed=70 + k)
            for p in sample_points(entry.metric.domain, 10, seed=80 + k):
                for r in identities.universal_residuals(entry.metric, f, p):
                    assert r.rel_gap <= 1e-6, (r.name, k)

    def test_single_check_wrappers_match_suite(self):
        entry = catalog.make_perturbed_flat(1e-2, 90)
        f = catalog.random_polynomial_field(entry.metric.domain, seed=91)
        p = sample_points(entry.metric.domain, 1, seed=92)[0]
        suite = {r.name: r for r in identities.universal_residuals(entry.metric, f, p)}
        assert (
            identities.check_contracted_bianchi(entry.metric, p).abs_gap
            == suite["contracted-bianchi"].abs_gap
        )
        assert (
            identities.check_commutation(entry.metric, f, p).abs_gap
            == suite["commutation"].abs_gap
        )
        assert (
            identities.check_bochner(entry.metric, f, p).abs_gap
            == suite["bochner"].abs_gap
        )

    def test_universal_identities_on_four_dimensions(self):
        """The generic inverse path (n >= 4) also satisfies the suite."""
        entry = catalog.make_perturbed_flat(1e-2, 95, dim=4)
        f = catalog.random_polynomial_field(entry.metric.domain, seed=96)
        for p in sample_points(entry.metric.domain, 2, seed=97):
            for r in identities.universal_residuals(entry.metric, f, p):
                assert r.rel_gap <= 1e-6, r.name

    def test_trace_of_tensor_residual_matches_trace_identity(self):
        """The g-trace of the defining tensor residual equals the scalar
        trace identity value algebraically (not just to tolerance)."""
        from ryslab.soliton import defining_residual
        from ryslab.tensors import mat_inverse

        inst = einstein_s3(mu=1.0)
        p = sample_points(inst.entry.charts[0], 1, seed=14)[0]
        res = defining_residual(inst, p).components
        x = list(p.coords)
        ginv = np.array(
            [[float(v) for v in row] for row in mat_inverse(inst.metric.matrix(x))]
        )
        traced = float(np.einsum("ij,ij->", ginv, res))
        trace_val = identities.check_trace_identity(inst, p).lhs
        assert abs(traced - trace_val) < 1e-12


def _same_at_every_point(whole, singles):
    for k, one in enumerate(singles):
        assert one.name == whole.name
        assert whole.lhs[k] == one.lhs, (whole.name, k)
        assert whole.rhs[k] == one.rhs, (whole.name, k)
        assert whole.abs_gap[k] == one.abs_gap, (whole.name, k)
        assert whole.rel_gap[k] == one.rel_gap, (whole.name, k)
        assert whole.point[k] == one.point


@pytest.mark.parametrize(
    "case", ["gaussian", "einstein-s3", "einstein-h3", "s2xr", "flat-product"]
)
def test_batch_equals_point_on_gradient_cases(case):
    """A check over a batch gives, at every point, exactly the numbers of
    the same check at that point alone."""
    from ryslab.soliton import residual_report

    spec = catalog.verify_cases()[case]
    inst = spec.build(spec.defaults)
    pts = [
        p for i, chart in enumerate(inst.entry.charts) for p in sample_points(chart, 4, seed=20 + i)
    ]
    batch = PointBatch.of_points(pts)
    checks = [
        identities.check_trace_identity,
        identities.check_gradient_identity,
        identities.check_laplacian_identity,
        identities.check_splitting_identity,
    ]
    for check in checks:
        _same_at_every_point(check(inst, batch), [check(inst, p) for p in pts])
    norms = residual_report(inst, batch)
    for k, p in enumerate(pts):
        one = residual_report(inst, p)
        assert norms["max_abs"][k] == one["max_abs"]
        assert norms["g_norm"][k] == one["g_norm"]


def test_batch_equals_point_on_perturbed_flat():
    entry = catalog.make_perturbed_flat(1e-2, 24)
    f = catalog.random_polynomial_field(entry.metric.domain, seed=25)
    pts = sample_points(entry.metric.domain, 6, seed=26)
    whole = identities.universal_residuals(entry.metric, f, PointBatch(pts.columns))
    singles = [identities.universal_residuals(entry.metric, f, p) for p in pts]
    for j, res in enumerate(whole):
        _same_at_every_point(res, [row[j] for row in singles])


def test_batch_worst_is_first_maximum():
    inst = einstein_s3(mu=1.0)
    pts = sample_points(inst.entry.charts[0], 5, seed=27)
    whole = identities.check_laplacian_identity(inst, PointBatch(pts.columns))
    worst = whole.worst()
    k = int(np.argmax(whole.rel_gap))
    assert worst.point == pts[k]
    assert worst.rel_gap == max(float(v) for v in whole.rel_gap)


def test_batch_not_a_soliton_names_worst_point():
    entry = catalog.flat_entry(3)
    inst = SolitonInstance(
        SolitonParams(1.0, 0.0, 1.0), entry.metric, SolitonKind.GRYS,
        potential=catalog.coordinate_potential(entry.metric.domain, 0),
    )
    with pytest.raises(NotASoliton):
        identities.check_gradient_identity(
            inst, sample_points(entry.metric.domain, 3, seed=28)
        )


@pytest.mark.parametrize("where", ["point", "batch"])
def test_hessian_partials_match_dual_towers(where):
    """CurvatureData's d_j (Hess f)_ki equals the Dual-tower third partial
    d_j d_k d_i f minus the Christoffel terms, at a float point and over a
    batch."""
    from ryslab import ad

    entry = catalog.make_perturbed_flat(1e-1, 31)
    dom = entry.metric.domain
    f = ScalarField(
        lambda x: ad.sin(x[0] * x[1]) * ad.exp(0.5 * x[2]) + x[0] * x[1] * x[2] * x[2], dom
    )
    pts = sample_points(dom, 5, seed=32)
    data = cv.curvature_data(entry.metric, PointBatch(pts.columns) if where == "batch" else pts[0])
    x = data.x
    gamma, dgamma = cv.christoffel_with_partials(entry.metric, x)
    dh = data.hessian_partials(f)
    n = dom.dim
    for j in range(n):
        for k in range(n):
            for i in range(n):
                ref = ad.derive(f.fn, x, (j, k, i)) - sum(
                    dgamma[j][m][k][i] * ad.derive(f.fn, x, (m,))
                    + gamma[m][k][i] * ad.derive(f.fn, x, (j, m))
                    for m in range(n)
                )
                scale = np.maximum(1.0, np.abs(ref))
                assert np.all(np.abs(dh[j][k][i] - ref) <= 1e-13 * scale), (j, k, i)


def test_per_field_memo_is_keyed_on_the_field():
    """Two fields on one batch each give bitwise the residuals they give
    alone on a fresh batch."""
    entry = catalog.make_perturbed_flat(1e-2, 33)
    dom = entry.metric.domain
    fields = [catalog.random_polynomial_field(dom, seed=s) for s in (34, 35)]
    pts = sample_points(dom, 8, seed=36)
    shared = PointBatch(pts.columns)
    together = [identities.universal_residuals(entry.metric, f, shared) for f in fields]
    for f, both in zip(fields, together):
        alone = identities.universal_residuals(entry.metric, f, PointBatch(pts.columns))
        for a, b in zip(alone[1:], both[1:]):
            assert a.name == b.name
            assert np.array_equal(a.lhs, b.lhs) and np.array_equal(a.rhs, b.rhs), a.name
            assert np.array_equal(a.abs_gap, b.abs_gap), a.name
    assert not np.array_equal(together[0][1].lhs, together[1][1].lhs)


class TestMetricEvaluationsPerBatch:
    """Every curvature level is read off one lifted metric evaluation per
    batch, shared by every check that reads it."""

    @staticmethod
    def counted(metric):
        calls = []

        def fn(x):
            calls.append(1)
            return metric.fn(x)

        return MetricField(fn, metric.domain, metric.name), calls

    def test_universal_batch(self):
        entry = catalog.make_perturbed_flat(1e-2, 7)
        g, calls = self.counted(entry.metric)
        f = catalog.random_polynomial_field(g.domain, seed=1007)
        batch = sample_points(g.domain, 16, seed=7)
        identities.universal_residuals(g, f, batch)
        assert len(calls) == 1

    def test_soliton_batch(self):
        from ryslab import cli

        spec = catalog.verify_cases()["einstein-s3"]
        inst = spec.build(spec.defaults)
        g, calls = self.counted(inst.metric)
        inst = inst.replace(metric=g)
        tols = {check.name: check.tol for check in cli.CHECKS.values()}

        class Sink:
            def add(self, record):
                assert record.passed, record.name

        cli._run_soliton_case("einstein-s3", spec, inst, 16, 7, tols, Sink())
        assert len(calls) == 2  # the lifted evaluation and the SPD check


def test_a_nan_residual_is_not_a_soliton(monkeypatch):
    """A NaN defining residual at one point raises ``NotASoliton`` (NaN > tol
    is False, so a plain comparison would accept it)."""
    from ryslab import soliton

    inst = einstein_s3()
    batch = sample_points(inst.entry.charts[0], 4, seed=2)
    identities.require_soliton(inst, batch)
    residual = soliton.residual_on

    def with_nan(inst, batch):
        r = residual(inst, batch)
        components = r.components.copy()
        components[1, 2, 2] = components[2, 1, 2] = np.nan
        return cv.Sym2Tensor(components)

    monkeypatch.setattr(identities, "residual_on", with_nan)
    with pytest.raises(NotASoliton, match="nan"):
        identities.require_soliton(inst, batch)
