"""Defining residual tensors, classification, and concircular checks."""

import math

import numpy as np
import pytest

from ryslab import catalog
from ryslab import curvature as cv
from ryslab.errors import AlphaZero, DegenerateBeta
from ryslab.geometry import (
    OneFormField,
    VectorField,
    sample_points,
)
from ryslab.soliton import (
    SolitonClass,
    SolitonInstance,
    SolitonKind,
    SolitonParams,
    classify,
    concircular_conclusions,
    concircular_defect,
    defining_residual,
    residual_report,
)
from ryslab.tensors import mat_inverse
from ryslab.ad import value_and_gradient


def test_classify_thresholds():
    assert classify(SolitonParams(1, 0, 1.0)) is SolitonClass.EXPANDING
    assert classify(SolitonParams(1, 0, 0.0)) is SolitonClass.STEADY
    assert classify(SolitonParams(1, 0, -3.0)) is SolitonClass.SHRINKING
    assert classify(SolitonParams(1, 0, 5e-13)) is SolitonClass.STEADY


def test_params_require_finite():
    with pytest.raises(ValueError):
        SolitonParams(math.nan, 0.0, 0.0)


class TestVectorResiduals:
    def test_flat_position_field_soliton(self):
        """Flat space with the position field balances at lam = -1 for any
        alpha, beta (Ric = 0, R = 0, half Lie derivative = g)."""
        entry = catalog.flat_entry(3)
        X = catalog.position_field(entry.metric.domain)
        inst = SolitonInstance(
            SolitonParams(1.0, 0.7, -1.0), entry.metric, SolitonKind.RYS,
            vector_field=X,
        )
        for p in sample_points(entry.metric.domain, 5, seed=1):
            assert defining_residual(inst, p).max_abs() < 1e-12

    def test_unit_sphere_zero_field(self):
        entry = catalog.sphere_entry(1.0)
        zero = VectorField(lambda x: [0.0] * 3, entry.metric.domain, "zero")
        good = SolitonInstance(
            SolitonParams(1.0, 0.0, -2.0), entry.metric, SolitonKind.RYS,
            vector_field=zero,
        )
        bad = SolitonInstance(
            SolitonParams(1.0, 0.0, 0.0), entry.metric, SolitonKind.RYS,
            vector_field=zero,
        )
        p = sample_points(entry.charts[0], 1, seed=2)[0]
        assert defining_residual(good, p).max_abs() < 1e-9
        res = defining_residual(bad, p).components
        gm = entry.metric.matrix_np(p.coords)
        assert np.max(np.abs(res - 2.0 * gm)) < 1e-9  # negative control


class TestGradientResiduals:
    def test_gaussian_family_all_couplings(self):
        entry = catalog.flat_entry(3)
        for lam in (-2.0, 0.0, 1.0, 2.0):
            for alpha, beta in ((1.0, 0.0), (0.0, 2.0), (2.5, -1.0)):
                inst = catalog.gaussian_instance(SolitonParams(alpha, beta, lam))
                for p in sample_points(entry.metric.domain, 3, seed=4):
                    assert defining_residual(inst, p).max_abs() < 1e-12

    def test_einstein_sphere_balance(self):
        """Constant potential on the unit 3-sphere solves exactly when
        lam = 3 beta - 2 alpha."""
        for alpha, beta in ((1.0, 0.0), (1.0, 2.0), (0.5, 1.0)):
            lam = 3.0 * beta - 2.0 * alpha
            inst = catalog.einstein_sphere_instance(SolitonParams(alpha, beta, lam))
            p = sample_points(inst.entry.charts[0], 1, seed=5)[0]
            assert defining_residual(inst, p).max_abs() < 1e-9

    def test_einstein_sphere_off_balance_magnitude(self):
        alpha, beta, lam = 1.0, 0.0, -1.5
        inst = catalog.einstein_sphere_instance(SolitonParams(alpha, beta, lam))
        p = sample_points(inst.entry.charts[0], 1, seed=6)[0]
        res = defining_residual(inst, p).components
        gm = inst.metric.matrix_np(p.coords)
        gap = abs(3.0 * beta - 2.0 * alpha - lam)
        assert np.max(np.abs(res - gap * gm)) < 1e-9

    def test_hyperbolic_balance(self):
        inst = catalog.einstein_hyperbolic_instance(SolitonParams(1.0, 0.0, 2.0))
        p = sample_points(inst.metric.domain, 1, seed=7)[0]
        assert defining_residual(inst, p).max_abs() < 1e-9


class TestMuCoupledResiduals:
    def test_mu_zero_matches_grys_exactly(self):
        entry = catalog.flat_entry(3)
        f = catalog.gaussian_potential(entry.metric.domain, 2.0)
        base = SolitonInstance(
            SolitonParams(1.0, 0.5, 2.0, 0.0), entry.metric, SolitonKind.GRYS,
            potential=f,
        )
        gen = SolitonInstance(
            SolitonParams(1.0, 0.5, 2.0, 0.0), entry.metric, SolitonKind.GEN_GRYS,
            potential=f,
        )
        for p in sample_points(entry.metric.domain, 5, seed=8):
            a = defining_residual(base, p).components
            b = defining_residual(gen, p).components
            assert np.array_equal(a, b)

    def test_einstein_sphere_with_mu(self):
        inst = catalog.einstein_sphere_instance(SolitonParams(1.0, 0.0, -2.0, 1.0))
        p = sample_points(inst.entry.charts[0], 1, seed=9)[0]
        assert defining_residual(inst, p).max_abs() < 1e-9

    def test_gaussian_mu_term_survives(self):
        """With mu = 1 the Gaussian stops solving; the residual is exactly
        mu * df (x) df = lam^2 x_i x_j (negative control)."""
        entry = catalog.flat_entry(3)
        lam = 1.0
        f = catalog.gaussian_potential(entry.metric.domain, lam)
        inst = SolitonInstance(
            SolitonParams(1.0, 0.0, lam, 1.0), entry.metric, SolitonKind.GEN_GRYS,
            potential=f,
        )
        p = (0.4, -0.3, 0.2)
        res = defining_residual(inst, p).components
        x = np.array(p)
        expected = lam * lam * np.outer(x, x)
        assert np.max(np.abs(res - expected)) < 1e-12
        assert res.max() > 0.0

    def test_eta_mu_zero_matches_rys_exactly(self):
        entry = catalog.flat_entry(3)
        X = catalog.position_field(entry.metric.domain)
        eta = OneFormField(lambda x: list(x), entry.metric.domain, "position-form")
        pr = SolitonParams(1.0, 0.3, -1.0, 0.0)
        eta_inst = SolitonInstance(
            pr, entry.metric, SolitonKind.ETA_RYS, vector_field=X, eta=eta
        )
        rys_inst = SolitonInstance(
            pr, entry.metric, SolitonKind.RYS, vector_field=X
        )
        p = (0.2, -0.6, 0.4)
        assert np.array_equal(
            defining_residual(eta_inst, p).components,
            defining_residual(rys_inst, p).components,
        )

    def test_eta_form_matches_gradient_dual(self):
        """An eta one-form equal to df reproduces the gradient mu-term."""
        entry = catalog.flat_entry(3)
        lam = 2.0
        f = catalog.gaussian_potential(entry.metric.domain, lam)
        X = VectorField(
            lambda x: [-lam * c for c in x], entry.metric.domain, "grad-f"
        )
        eta = OneFormField(
            lambda x: [-lam * c for c in x], entry.metric.domain, "df"
        )
        eta_inst = SolitonInstance(
            SolitonParams(1.0, 0.0, lam, 0.5), entry.metric, SolitonKind.ETA_RYS,
            vector_field=X, eta=eta,
        )
        gen_inst = SolitonInstance(
            SolitonParams(1.0, 0.0, lam, 0.5), entry.metric, SolitonKind.GEN_GRYS,
            potential=f,
        )
        p = (0.3, 0.1, -0.5)
        a = defining_residual(eta_inst, p).components
        b = defining_residual(gen_inst, p).components
        assert np.max(np.abs(a - b)) < 1e-12

    def test_residual_linear_structure(self):
        """gen residual(mu) - grys residual = mu * df (x) df componentwise."""
        entry = catalog.make_perturbed_flat(1e-2, 40)
        f = catalog.random_polynomial_field(entry.metric.domain, seed=41)
        mu = 0.8
        pr = SolitonParams(1.3, -0.4, 0.6, mu)
        gen = SolitonInstance(pr, entry.metric, SolitonKind.GEN_GRYS, potential=f)
        base = SolitonInstance(pr, entry.metric, SolitonKind.GRYS, potential=f)
        for p in sample_points(entry.metric.domain, 4, seed=42):
            diff = defining_residual(gen, p).components - defining_residual(base, p).components
            _, df = value_and_gradient(f.fn, list(p.coords))
            expected = mu * np.outer(df, df)
            assert np.max(np.abs(diff - expected)) < 1e-14 * (1 + np.max(np.abs(expected)))

    def test_trace_consistency(self):
        """g-trace of the full residual reproduces the scalar combination
        alpha R + Delta f + n(lam - beta R/2) + mu |grad f|^2."""
        entry = catalog.make_perturbed_flat(1e-2, 43)
        g = entry.metric
        f = catalog.random_polynomial_field(g.domain, seed=44)
        pr = SolitonParams(0.9, 1.1, -0.3, 0.7)
        inst = SolitonInstance(pr, g, SolitonKind.GEN_GRYS, potential=f)
        n = 3
        for p in sample_points(g.domain, 4, seed=45):
            x = list(p.coords)
            res = defining_residual(inst, p).components
            ginv = np.array(
                [[float(v) for v in row] for row in mat_inverse(g.matrix(x))]
            )
            traced = float(np.einsum("ij,ij->", ginv, res))
            scal = cv.scalar_curvature(g, p)
            _, df = value_and_gradient(f.fn, x)
            expected = (
                pr.alpha * scal
                + cv.curvature_data(g, p).laplacian(f)
                + n * (pr.lam - 0.5 * pr.beta * scal)
                + pr.mu * float(np.array(df) @ ginv @ np.array(df))
            )
            assert abs(traced - expected) <= 1e-10 * (1 + abs(expected))


class TestConcircular:
    def test_position_field_is_concircular(self):
        entry = catalog.flat_entry(3)
        X = catalog.position_field(entry.metric.domain)
        p = (0.2, 0.5, -0.1)
        assert np.max(np.abs(concircular_defect(entry.metric, X, 1.0, p))) == 0.0

    def test_zero_field_zero_factor(self):
        entry = catalog.flat_entry(3)
        X = VectorField(lambda x: [0.0] * 3, entry.metric.domain, "zero")
        p = (0.2, 0.5, -0.1)
        assert np.max(np.abs(concircular_defect(entry.metric, X, 0.0, p))) == 0.0

    def test_shear_field_single_entry(self):
        entry = catalog.flat_entry(3)
        X = VectorField(lambda x: [x[1], 0.0, 0.0], entry.metric.domain, "shear")
        d = concircular_defect(entry.metric, X, 0.0, (0.3, 0.4, 0.5))
        expected = np.zeros((3, 3))
        expected[0][1] = 1.0
        assert np.array_equal(d, expected)

    def test_flat_conclusions(self):
        entry = catalog.flat_entry(3)
        pr = SolitonParams(1.0, 0.0, -1.0)
        p = (0.2, -0.3, 0.4)
        out = concircular_conclusions(entry.metric, pr, 1.0, p)
        assert out["einstein_defect"] == 0.0
        assert out["scalar_pred"] == 0.0
        assert out["eigenvalue_pred"] == 0.0
        # phi = 1 above the threshold 0 means shrinking, matching lam < 0
        assert out["class"] is SolitonClass.SHRINKING
        assert classify(pr) is SolitonClass.SHRINKING
        # matrix form of the Einstein reduction: Ric = eigenvalue * g
        ric = cv.ricci(entry.metric, p).components
        gm = entry.metric.matrix_np(p)
        assert np.max(np.abs(ric - out["eigenvalue_pred"] * gm)) <= 1e-8

    def test_alpha_zero_guard(self):
        entry = catalog.flat_entry(3)
        with pytest.raises(AlphaZero):
            concircular_conclusions(
                entry.metric, SolitonParams(0.0, 1.0, 0.0), 1.0, (0.1, 0.1, 0.1)
            )

    def test_degenerate_beta_guard(self):
        """The prediction divides by n beta - 2 alpha: n beta = 2 alpha
        raises, beta = 2 alpha does not."""
        entry = catalog.flat_entry(3)
        with pytest.raises(DegenerateBeta):
            concircular_conclusions(
                entry.metric, SolitonParams(3.0, 2.0, 0.0), 1.0, (0.1, 0.1, 0.1)
            )
        out = concircular_conclusions(entry.metric, SolitonParams(1.0, 2.0, -1.0), 1.0, (0.1, 0.1, 0.1))
        assert out["scalar_pred"] == 0.0

    def test_curved_conclusions_trace_with_n_beta(self):
        """At a point of the unit S^3 (R = 6, Ric = 2 g) with (alpha, beta,
        phi) = (1, 1/2, 1) and lam = -1.5, the traced equation alpha R +
        n (phi + lam) - n beta/2 R = 6 - 1.5 - 4.5 vanishes: the prediction
        2 n (lam + phi) / (n beta - 2 alpha) is 6 = R and the eigenvalue
        (beta R - 2 phi - 2 lam) / (2 alpha) is 2.  Negative control: the
        denominator beta - 2 alpha would predict 2."""
        entry = catalog.sphere_entry(1.0)
        pr = SolitonParams(1.0, 0.5, -1.5)
        p = sample_points(entry.charts[0], 1, seed=17)[0]
        out = concircular_conclusions(entry.metric, pr, 1.0, p)
        scal = cv.scalar_curvature(entry.metric, p)
        assert abs(scal - 6.0) <= 1e-9
        assert abs(out["scalar_pred"] - scal) <= 1e-9
        assert abs(out["eigenvalue_pred"] - 2.0) <= 1e-9
        assert out["einstein_defect"] <= 1e-9
        assert out["class"] is classify(pr) is SolitonClass.SHRINKING
        old = 2.0 * 3 * (pr.lam + 1.0) / (pr.beta - 2.0 * pr.alpha)
        assert old == 2.0 and abs(scal - old) > 1.0


def test_defining_residual_dispatch():
    cases = catalog.verify_cases()
    for name, spec in cases.items():
        if spec.universal_only:
            continue
        inst = spec.build(spec.defaults)
        p = sample_points(inst.entry.charts[0] if inst.entry else inst.metric.domain, 1, seed=51)[0]
        assert defining_residual(inst, p).max_abs() < 1e-9, name


def test_residual_report_norms():
    inst = catalog.einstein_sphere_instance(SolitonParams(1.0, 0.0, 0.0))
    p = sample_points(inst.entry.charts[0], 1, seed=52)[0]
    rep = residual_report(inst, p)
    assert rep["max_abs"] > 0.1
    assert rep["g_norm"] > 0.1
