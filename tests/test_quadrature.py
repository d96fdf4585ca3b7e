"""Quadrature over compact entries: volume, divergence theorem, and the
integral theorem checks."""

import math

import numpy as np
import pytest

from ryslab import catalog, quadrature as quad
from ryslab.errors import (
    DegenerateDenominator,
    NotASoliton,
    NotCompact,
    NotSteady,
)
from ryslab.geometry import ScalarField
from ryslab.soliton import SolitonInstance, SolitonKind, SolitonParams

UNIT_VOLUME = 2.0 * math.pi**2


def ambient_poly(seed):
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1.0, 1.0, size=(4, 4))

    def fn(X):
        total = 0.0
        for i in range(4):
            total = total + c[i][i] * X[i]
            for j in range(4):
                total = total + c[i][j] * X[i] * X[j]
        return total

    return fn


class TestVolume:
    def test_unit_sphere_at_reference_resolution(self):
        v = quad.volume(catalog.sphere_entry(1.0), 24)
        assert abs(v - UNIT_VOLUME) / UNIT_VOLUME < 1e-5

    def test_scaled_spheres(self):
        for radius in (0.5, 2.0):
            entry = catalog.sphere_entry(radius)
            expected = UNIT_VOLUME * radius**3
            v = quad.volume(entry, 16)
            assert abs(v - expected) / expected < 1e-5

    def test_doubling_reduces_error_tenfold(self):
        entry = catalog.sphere_entry(1.0)
        errs = [
            abs(quad.volume(entry, res) - UNIT_VOLUME) for res in (8, 16)
        ]
        assert errs[1] <= errs[0] / 10.0

    def test_zero_field_integrates_to_zero(self):
        entry = catalog.sphere_entry(1.0)
        assert quad.integrate(entry, lambda x: 0.0, 8) == 0.0

    def test_volume_is_the_integral_of_one_summed_once(self):
        entry = catalog.sphere_entry(1.0)
        v = quad.volume(entry, 10)
        assert v == quad.integrate(entry, lambda x: 1.0, 10)
        assert quad.build_grid(entry, 10).__dict__["volume"] == v

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            quad.volume(catalog.sphere_entry(1.0), 4)

    def test_noncompact_rejected(self):
        with pytest.raises(NotCompact):
            quad.volume(catalog.gaussian_entry(), 16)


class TestPartitionOfUnity:
    def test_weights_sum_to_one_on_overlap(self):
        entry = catalog.sphere_entry(1.0)
        grid = quad.build_grid(entry, 8)
        chart = grid.charts[0]
        radii = np.linalg.norm(chart.nodes, axis=1)
        overlap = (radii > catalog.BUMP_INNER) & (radii < catalog.BUMP_OUTER)
        assert overlap.any()
        partner = entry.atlas.radius**2 / radii[overlap]
        there = quad._partition_weight(partner, entry.atlas.radius)
        assert np.max(np.abs(chart.partition[overlap] + there - 1.0)) < 1e-14

    def test_swapped_chart_roles(self):
        entry = catalog.sphere_entry(1.0)
        field = quad.ManifoldScalarField.from_ambient(entry, ambient_poly(0))
        a = quad.integrate(entry, field, 12)
        b = quad.integrate(entry, field, 12, swap_charts=True)
        assert abs(a - b) <= 1e-9 * (1.0 + abs(a))


class TestDivergenceTheorem:
    def test_laplacian_integrates_to_zero(self):
        entry = catalog.sphere_entry(1.0)
        for seed in range(5):
            field = quad.ManifoldScalarField.from_ambient(entry, ambient_poly(seed))
            out = quad.integrate_laplacian(entry, field, 12)
            assert abs(out["integral"]) <= 1e-5 * out["scale"], seed

    def test_every_compact_entry(self):
        for entry in catalog.catalog_entries():
            if not entry.compact:
                continue
            for seed in (1, 2):
                field = quad.ManifoldScalarField.from_ambient(entry, ambient_poly(seed))
                out = quad.integrate_laplacian(entry, field, 12)
                assert abs(out["integral"]) <= 1e-5 * out["scale"], entry.name


class TestSteadyIntegralInequality:
    def test_equality_case(self):
        """alpha = 3 beta / 2 makes the balanced sphere steady; the factor
        k and the Ricci term both vanish, so the inequality is 0 >= 0."""
        inst = catalog.einstein_sphere_instance(SolitonParams(1.5, 1.0, 0.0))
        out = quad.check_steady_integral_inequality(inst, 12)
        assert out["k"] == 0.0
        assert abs(out["lhs"]) < 1e-12
        assert abs(out["rhs"]) < 1e-12
        assert out["holds"]

    def test_not_steady_guard(self):
        inst = catalog.einstein_sphere_instance(SolitonParams(1.6, 1.0, 3.0 - 3.2))
        with pytest.raises(NotSteady):
            quad.check_steady_integral_inequality(inst, 8)

    def test_not_compact_guard(self):
        inst = catalog.gaussian_instance(SolitonParams(1.0, 0.0, 0.0))
        with pytest.raises(NotCompact):
            quad.check_steady_integral_inequality(inst, 8)


class TestHessianEnergy:
    def test_constant_potential_balance(self):
        inst = catalog.einstein_sphere_instance(SolitonParams(1.0, 0.0, -2.0))
        r = quad.check_hessian_energy(inst, 10)
        assert abs(r.lhs) < 1e-12
        assert abs(r.rhs) < 1e-12
        assert r.rel_gap < 1e-12

    def test_nonconstant_potential_rejected(self):
        """A nonconstant potential on the sphere is not a soliton, so the
        precondition check raises before any integration."""
        entry = catalog.sphere_entry(1.0)
        bad = ScalarField(lambda x: x[0], entry.metric.domain, "x0")
        inst = SolitonInstance(
            SolitonParams(1.0, 0.0, -2.0), entry.metric, SolitonKind.GRYS,
            potential=bad, compact=True, entry=entry,
        )
        with pytest.raises(NotASoliton):
            quad.check_hessian_energy(inst, 8)

    def test_not_compact_guard(self):
        inst = catalog.gaussian_instance(SolitonParams(1.0, 0.0, 2.0))
        with pytest.raises(NotCompact):
            quad.check_hessian_energy(inst, 8)

    def test_mu_guard_and_denominator_guard(self):
        inst = catalog.einstein_sphere_instance(SolitonParams(1.0, 0.0, -2.0, 1.0))
        with pytest.raises(ValueError):
            quad.check_hessian_energy(inst, 8)
        inst2 = catalog.einstein_sphere_instance(
            SolitonParams(1.0, 0.5, 3.0 * 0.5 - 2.0)
        )
        with pytest.raises(DegenerateDenominator):
            quad.check_hessian_energy(inst2, 8)


def test_grid_caching_and_shape():
    entry = catalog.sphere_entry(1.0)
    g1 = quad.build_grid(entry, 8)
    g2 = quad.build_grid(entry, 8)
    assert g1 is g2
    assert len(g1.charts) == 2
    assert g1.charts[0].nodes.shape[1] == 3
