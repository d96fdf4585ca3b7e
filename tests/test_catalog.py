"""Catalog ground truth: closed forms must agree with the pipeline."""

import numpy as np
import pytest

from ryslab import catalog
from ryslab import curvature as cv
from ryslab.errors import NotSPD
from ryslab.geometry import constant_scalar, sample_points
from ryslab.soliton import SolitonInstance, SolitonKind, SolitonParams, defining_residual


def test_stable_entry_names():
    names = [e.name for e in catalog.catalog_entries()]
    for required in ("gaussian", "unit-s3", "h3", "s2xr", "perturbed-flat"):
        assert required in names
    assert "flat-r3" in names and "flat-r4" in names


def test_get_entry_unknown():
    with pytest.raises(KeyError):
        catalog.get_entry("nosuch")


def test_closed_forms_match_pipeline():
    """Each entry's stored Ricci/scalar data agrees with the curvature
    pipeline to 1e-7 at sampled points of all charts."""
    for entry in catalog.catalog_entries():
        forms = entry.closed_forms
        if forms is None:
            continue
        for chart in entry.charts:
            for p in sample_points(chart, 4, seed=1):
                gm = entry.metric.matrix_np(p.coords)
                ric = cv.ricci(entry.metric, p).components
                if forms.einstein_factor is not None:
                    assert np.max(np.abs(ric - forms.einstein_factor * gm)) < 1e-7, entry.name
                if forms.ricci_fn is not None:
                    expected = np.array(forms.ricci_fn(list(p.coords)))
                    assert np.max(np.abs(ric - expected)) < 1e-7, entry.name
                if forms.scalar is not None:
                    measured = cv.scalar_curvature(entry.metric, p)
                    assert abs(measured - forms.scalar) < 1e-7 * (1 + abs(forms.scalar)), entry.name


def test_entry_metrics_are_spd_on_samples():
    for entry in catalog.catalog_entries():
        for chart in entry.charts:
            entry.metric.require_spd(sample_points(chart, 25, seed=2))


def test_default_instances_are_solitons():
    """Every verify case's default instance, and the balanced round spheres
    of radius 0.5 and 2 (constant potential, lam = -2 / radius^2)."""
    instances = [
        spec.build(spec.defaults)
        for spec in catalog.verify_cases().values()
        if spec.build is not None
    ]
    for radius in (0.5, 2.0):
        metric = catalog.sphere_entry(radius).metric
        instances.append(
            SolitonInstance(
                SolitonParams(1.0, 0.0, -2.0 / (radius * radius)),
                metric,
                SolitonKind.GRYS,
                potential=constant_scalar(metric.domain, 0.0),
            )
        )
    for inst in instances:
        for p in sample_points(inst.metric.domain, 5, seed=3):
            assert defining_residual(inst, p).max_abs() < 1e-9, inst.metric.name


def test_gaussian_entry_closed_form():
    spec = catalog.verify_cases()["gaussian"]
    inst = spec.build(spec.defaults)
    assert inst.params.lam == 2.0
    assert inst.entry is catalog.gaussian_entry()
    assert inst.metric is catalog.gaussian_entry().metric
    for p in sample_points(inst.metric.domain, 10, seed=4):
        assert defining_residual(inst, p).max_abs() < 1e-12


def test_cylinder_ricci_annihilates_line_direction():
    """Ric(grad t, grad t) = 0 on the product: the line factor is flat."""
    entry = catalog.cylinder_entry()
    f = catalog.coordinate_potential(entry.metric.domain, 2)
    for p in sample_points(entry.metric.domain, 5, seed=5):
        ric = cv.ricci(entry.metric, p).components
        up = np.array(cv.curvature_data(entry.metric, p).gradient_up(f))
        assert abs(up @ ric @ up) < 1e-10


def test_sphere_atlas_transition_is_involution():
    atlas = catalog.sphere_entry(1.0).atlas
    u = [0.3, -0.5, 0.8]
    v = atlas.transition(u)
    back = atlas.transition(v)
    assert np.allclose(back, u, atol=1e-14)


def test_sphere_ambient_consistent_across_charts():
    """Both charts embed an overlap point to the same ambient location,
    and the image lies on the sphere of the right radius."""
    for radius in (1.0, 2.0):
        atlas = catalog.sphere_entry(radius).atlas
        rng = np.random.default_rng(6)
        for _ in range(5):
            u = list(rng.uniform(-1.0, 1.0, size=3) * radius)
            v = atlas.transition(u)
            a = np.array(atlas.ambient(0, u))
            b = np.array(atlas.ambient(1, v))
            assert np.allclose(a, b, atol=1e-12)
            assert abs(np.linalg.norm(a) - radius) < 1e-12


class TestPerturbedFlat:
    def test_epsilon_zero_is_flat(self):
        entry = catalog.make_perturbed_flat(0.0, 7)
        p = sample_points(entry.metric.domain, 1, seed=8)[0]
        assert cv.ricci(entry.metric, p).max_abs() < 1e-14

    def test_small_epsilon_spd_and_bianchi(self):
        from ryslab.identities import check_contracted_bianchi

        entry = catalog.make_perturbed_flat(1e-2, 42)
        for p in sample_points(entry.metric.domain, 5, seed=9):
            assert check_contracted_bianchi(entry.metric, p).rel_gap <= 1e-6

    def test_large_epsilon_not_spd(self):
        with pytest.raises(NotSPD):
            catalog.make_perturbed_flat(10.0, 42)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            catalog.make_perturbed_flat(-0.01, 42)

    def test_seed_determinism(self):
        a = catalog.make_perturbed_flat(1e-2, 11)
        b = catalog.make_perturbed_flat(1e-2, 11)
        p = [0.2, -0.3, 0.1]
        assert np.array_equal(a.metric.matrix_np(p), b.metric.matrix_np(p))


def test_verify_case_defaults_are_solitons():
    cases = catalog.verify_cases()
    assert set(cases) == {
        "gaussian",
        "einstein-s3",
        "einstein-h3",
        "s2xr",
        "flat-product",
        "concircular-flat",
        "perturbed-flat",
    }
    for name, spec in cases.items():
        if spec.universal_only:
            continue
        inst = spec.build(spec.defaults)
        assert inst.entry is not None
        for chart in inst.entry.charts:
            p = sample_points(chart, 2, seed=10)
            for q in p:
                assert defining_residual(inst, q).max_abs() < 1e-9, name


def test_metrics_round_alike_at_a_point_and_over_a_batch():
    """Every catalog metric gives bit-identical components at a point and
    over a batch of coordinate columns, so batched checks reproduce the
    per-point ones exactly.  (libm pow(x, 2) on a float and numpy's
    square on an array disagree in the last bit for about 1 argument in
    1,100; 2,000 points per chart would catch a metric that used it.)"""
    from ryslab.geometry import PointBatch

    for entry in catalog.catalog_entries():
        for i, chart in enumerate(entry.charts):
            batch = PointBatch(sample_points(chart, 2000, seed=3 + i))
            whole = batch.matrix(entry.metric.matrix(batch.columns))
            for k, p in enumerate(batch.points):
                single = entry.metric.matrix_np(p.coords)
                assert np.array_equal(whole[:, :, k], single), (entry.name, k)
