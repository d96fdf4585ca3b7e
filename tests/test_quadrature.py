"""Quadrature over compact entries: volume, divergence theorem, and the
integral theorem checks."""

import itertools
import json
import math

import numpy as np
import pytest

from ryslab import catalog, cli, curvature, quadrature as quad
from ryslab.errors import (
    DegenerateDenominator,
    NotASoliton,
    NotCompact,
    NotSteady,
)
from ryslab.geometry import ScalarField
from ryslab.soliton import SolitonInstance, SolitonKind, SolitonParams

UNIT_VOLUME = 2.0 * math.pi**2


def grid_laplacian(grid, du, ddu):
    """Delta u at every node of ``grid`` from u's partials on its columns,
    by ``laplacian_from`` on the grid's g^{ij} and Gamma."""
    return quad._nodes(grid, curvature.laplacian_from(grid.inverse, grid.christoffel, du, ddu))


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
        assert quad.integrate(entry, quad.ManifoldScalarField.constant(0.0), 8) == 0.0

    def test_volume_is_the_integral_of_one_summed_once(self):
        entry = catalog.sphere_entry(1.0)
        v = quad.volume(entry, 10)
        assert v == quad.integrate(entry, quad.ManifoldScalarField.constant(1.0), 10)
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
        radii = np.linalg.norm(grid.columns, axis=0)
        overlap = (radii > catalog.BUMP_INNER) & (radii < catalog.BUMP_OUTER)
        assert overlap.any()
        partner = entry.atlas.radius**2 / radii[overlap]
        there = quad._partition_weight(partner, entry.atlas.radius)
        assert np.max(np.abs(grid.partition[overlap] + there - 1.0)) < 1e-14


def same_float(a, b):
    """Bit-for-bit equality of two floats: the sign of zero counts, and nan
    equals nan."""
    return np.array(a).tobytes() == np.array(b).tobytes()


def sum_cases(seed):
    """Arrays to sum: random magnitudes over wide exponent ranges
    (subnormals up to 1e300), each also joined with its negation (an exact
    zero) and with half of it negated; rounding ties; single elements,
    empty and all-zero arrays."""
    rng = np.random.default_rng(seed)
    tiny = 2.0**-1074
    cases = [
        np.array([]), np.zeros(1), np.zeros(6), np.array([-0.0]), np.array([-0.0, -0.0]),
        np.array([0.0, -0.0]), np.array([2.5]), np.array([-tiny]), np.array([1e300]),
        np.array([1.0, 2.0**-53]), np.array([1.0 + 2.0**-52, 2.0**-53]),
        np.array([1.0, 2.0**-53, tiny]), np.array([-1.0, -(2.0**-53), -tiny]),
        np.array([2.0**-1022, -tiny, 2.0**-1060]),
    ]
    for _ in range(60):
        n = int(rng.integers(1, 3000))
        low, high = np.sort(rng.uniform(-323.0, 300.0, size=2))
        x = 10.0 ** rng.uniform(low, high, size=n) * rng.choice([-1.0, 1.0], size=n)
        cases.append(x)
        cases.append(rng.permutation(np.concatenate([x, -x])))
        cases.append(rng.permutation(np.concatenate([x, -x[: n // 2]])))
    return cases


def fsum_mismatches(summer, cases):
    """Indices of the cases where ``summer`` differs from math.fsum."""
    return [k for k, x in enumerate(cases) if not same_float(summer(x), math.fsum(x.tolist()))]


class TestExactSum:
    def test_equals_fsum_bit_for_bit(self):
        cases = sum_cases(2024)
        assert fsum_mismatches(quad.exact_sum, cases) == []
        # Negative control: the same comparison catches a plain float sum.
        assert fsum_mismatches(lambda x: float(np.sum(x)), cases)

    @pytest.mark.parametrize("chunk", [3, quad._CHUNK])
    def test_joined_slices_and_chunks(self, monkeypatch, chunk):
        """Slices of 7 terms, each summed in chunks, join to fsum's sum."""
        monkeypatch.setattr(quad, "_EXACT_SLICE", 7)
        monkeypatch.setattr(quad, "_CHUNK", chunk)
        cases = [x for x in sum_cases(7) if len(x) <= 400]
        assert any(len(x) > 7 for x in cases)
        assert fsum_mismatches(quad.exact_sum, cases) == []

    def test_grid_sized_input(self):
        """Several chunks of one slice, at the size of a resolution-24 grid."""
        rng = np.random.default_rng(24)
        x = rng.standard_normal(55296) * 10.0 ** rng.uniform(-12.0, 0.0, size=55296)
        assert fsum_mismatches(quad.exact_sum, [x, np.concatenate([x, -x[::2]])]) == []

    def test_non_finite_input_goes_to_fsum(self):
        inf = math.inf
        assert math.isnan(quad.exact_sum(np.array([math.nan])))
        assert math.isnan(quad.exact_sum(np.array([1.0, math.nan, -inf])))
        assert quad.exact_sum(np.array([inf, 1.0, -2.0])) == inf
        assert quad.exact_sum(np.array([-inf, 1.0])) == -inf
        with pytest.raises(ValueError):
            quad.exact_sum(np.array([inf, -inf]))

    def test_exact_zero_takes_fsums_sign(self):
        for x in ([-0.0], [-0.0, -0.0], [0.0, -0.0], [1.5, -1.5], [-1.5, 1.5], [-0.0, 1e-300, -1e-300]):
            assert same_float(quad.exact_sum(np.array(x)), math.fsum(x)), x

    def test_intermediate_overflow_keeps_the_exact_sum(self):
        """fsum raises once a partial sum overflows; the accumulator has
        no partial sums to round, so it returns the representable result."""
        x = [1e308, 1e308, -1e308]
        with pytest.raises(OverflowError):
            math.fsum(x)
        assert quad.exact_sum(np.array(x)) == 1e308
        big = np.full(5, 1e308)
        assert quad.exact_sum(np.concatenate([big, -big, [-1e308]])) == -1e308

    def test_final_overflow_raises_as_fsum_does(self):
        """A sum beyond the largest double, or one rounding up to 2**1024
        (the tie at max + half an ulp goes to even), raises OverflowError."""
        top = np.finfo(float).max
        for x in ([1e308, 1e308], [-1e308, -1e308], [top, 2.0**970], [-top, -1e292]):
            for summer in (quad.exact_sum, math.fsum):
                with pytest.raises(OverflowError):
                    summer(np.array(x))
        below_tie = [top, 2.0**970 * (1.0 - 2.0**-20)]
        assert quad.exact_sum(np.array(below_tie)) == math.fsum(below_tie) == top


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


def recording_metric_lifts(monkeypatch):
    """(order, node count) of every metric evaluation on Taylor
    coordinates from now on, in call order."""
    from ryslab import ad, geometry

    lifts, matrix = [], geometry.MetricField.matrix

    def recording(self, coords):
        coords = list(coords)
        for order in {c.order for c in coords if isinstance(c, ad.Taylor)}:
            lifts.append((order, np.size(ad.value_of(coords[0]))))
        return matrix(self, coords)

    monkeypatch.setattr(geometry.MetricField, "matrix", recording)
    return lifts


def test_spot_check_lifts_its_batch_to_order_2(monkeypatch):
    """The spot check's defining residual reads order 2 of g, so its one
    lifted metric evaluation is at order 2."""
    lifts = recording_metric_lifts(monkeypatch)
    inst = catalog.einstein_sphere_instance(SolitonParams(1.0, 0.0, -2.0))
    quad._spot_check_soliton(inst, quad._require_compact_instance(inst))
    assert lifts == [(2, 12)]


@pytest.mark.parametrize("check, params", [
    (quad.check_steady_integral_inequality, SolitonParams(1.5, 1.0, 0.0)),
    (quad.check_hessian_energy, SolitonParams(1.0, 0.0, -2.0)),
])
def test_compact_checks_lift_each_node_once_to_order_2(check, params, monkeypatch):
    """Each compact check evaluates g on Taylor coordinates only at order 2:
    once for the spot check's 12 points, then once per node block, whose
    ``CurvatureData`` lifts it in runs of ``ad.CHUNK`` nodes.  At
    resolution 24 (four node blocks) every node is lifted exactly once,
    for every integral the check takes."""
    from ryslab import ad

    monkeypatch.setattr(quad, "_GRID_CACHE", {})
    inst = catalog.einstein_sphere_instance(params)
    grid = quad.build_grid(inst.entry, 24)
    sizes = [len(block.weight) for _, block in grid.blocks()]
    assert len(sizes) == 4
    lifts = recording_metric_lifts(monkeypatch)
    check(inst, 24)
    per_block = [(2, min(ad.CHUNK, m - start)) for m in sizes for start in range(0, m, ad.CHUNK)]
    assert lifts == [(2, 12)] + per_block


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


def product_potential(entry):
    """f = x_0 x_1 + x_2 / 2 in every chart: not a soliton potential, so
    every compact integrand is nonzero."""
    return ScalarField(lambda x: x[0] * x[1] + 0.5 * x[2], entry.metric.domain, "x0*x1+x2/2")


def per_node_curvature_integrals(entry, f, resolution, ricci_factor=1.0):
    """Reference: int R^2, int Ric(grad f, grad f) and int |Hess f|^2 as
    per-node closures through ``integrate`` and the ``*_generic`` readers,
    with g^{-1} from the float metric and Ric times ``ricci_factor``."""
    from ryslab.ad import value_of
    from ryslab.curvature import gradient_generic, hessian_generic, ricci_generic
    from ryslab.tensors import mat_inverse, sym2_norm_sq

    g, n = entry.metric, entry.metric.domain.dim

    def ric(x):
        return [[ricci_factor * e for e in row] for row in ricci_generic(g, x)]

    def r_squared(x):
        ginv, r = mat_inverse(g.matrix(x)), ric(x)
        scal = sum(ginv[i][j] * r[i][j] for i in range(n) for j in range(n))
        return scal * scal

    def ric_ff(x):
        up, r = gradient_generic(g, f, x)[0], ric(x)
        return value_of(sum(r[i][j] * up[i] * up[j] for i in range(n) for j in range(n)))

    def hess_sq(x):
        return value_of(sym2_norm_sq(mat_inverse(g.matrix(x)), hessian_generic(g, f, x)))

    return [quad.integrate(entry, quad.ManifoldScalarField((fn,) * 2), resolution) for fn in (r_squared, ric_ff, hess_sq)]


@pytest.mark.parametrize("radius", [1.0, 0.5])
def test_curvature_integrals_equal_the_per_node_reference(radius):
    """The compact checks' integrals of R^2, Ric(grad f, grad f) and
    |Hess f|^2, read off one order-2 ``CurvatureData`` per node block,
    equal the per-node reference bit for bit on a potential where none
    vanishes, and int R^2 is (6 / r^2)^2 vol(S^3_r) to 1e-5.  Negative
    control: the reference with Ric scaled by 1 + 1e-6 matches neither
    integral that reads Ric."""
    entry = catalog.sphere_entry(radius)
    f = product_potential(entry)
    got = quad._curvature_integrals(entry, f, 12, *quad._CURVATURE_READS)
    assert all(value > 0.0 for value in got)
    assert [same_float(a, b) for a, b in zip(got, per_node_curvature_integrals(entry, f, 12))] == [True] * 3
    exact = (6.0 / radius**2) ** 2 * UNIT_VOLUME * radius**3
    assert abs(got[0] - exact) <= 1e-5 * exact
    scaled = per_node_curvature_integrals(entry, f, 12, ricci_factor=1.0 + 1e-6)
    assert [same_float(a, b) for a, b in zip(got, scaled)] == [False, False, True]


def test_grid_cache_follows_the_metric():
    """An entry that keeps its name but takes another metric gets its own
    grid: the volume of 4 g is 8 times the unit sphere's, cached or not."""
    entry = catalog.sphere_entry(1.0)
    g = entry.metric
    scaled = g.replace(fn=lambda x: [[4.0 * v for v in row] for row in g.fn(x)])
    unit = quad.volume(entry, 12)
    assert quad.volume(entry.replace(metric=scaled), 12) == pytest.approx(8.0 * unit, rel=1e-12)
    assert quad.volume(entry, 12) == unit
    assert quad.build_grid(entry, 12) is quad.build_grid(entry, 12)


def test_grid_caching_and_shape():
    entry = catalog.sphere_entry(1.0)
    g1 = quad.build_grid(entry, 8)
    g2 = quad.build_grid(entry, 8)
    assert g1 is g2
    assert g1.chart_count == 2
    assert [c.shape for c in g1.columns] == [g1.weight.shape] * 3


@pytest.mark.parametrize("resolution", [8, 12, 24, 40])
def test_radial_partition_matches_per_node_weights(resolution):
    """The partition, evaluated once per radius, equals the per-node
    evaluation bit for bit."""
    entry = catalog.sphere_entry(1.0)
    radius = entry.atlas.radius
    inner, outer = catalog.BUMP_INNER * radius, catalog.BUMP_OUTER * radius
    x, _ = np.polynomial.legendre.leggauss(resolution)
    rho = np.concatenate([(x + 1.0) / 2.0 * inner, inner + (x + 1.0) / 2.0 * (outer - inner)])
    per_node_rho = np.meshgrid(rho, x, x, indexing="ij")[0].ravel()
    per_node = quad._partition_weight(per_node_rho, radius)
    live = per_node > 0.0
    grid = quad.build_grid(entry, resolution)
    assert np.allclose(np.linalg.norm(grid.columns, axis=0), per_node_rho[live], rtol=1e-14)
    assert np.array_equal(grid.partition, per_node[live])


def node_blocks(resolution):
    """Node blocks of the unit-sphere grid at ``resolution``."""
    return len(list(quad.build_grid(catalog.sphere_entry(1.0), resolution).blocks()))


@pytest.mark.parametrize("divergence", [3, 9])
def test_integrate_builds_grid_geometry_once(divergence, tmp_path, capsys, monkeypatch):
    """One `integrate` builds Gamma once per node block, however many
    divergence checks it runs, and still reads the volume once per record."""
    from ryslab import cli

    calls = {"christoffel": 0, "volume": 0}
    christoffel, volume = curvature.christoffel_from, quad.volume

    def counting_christoffel(ginv, dg):
        calls["christoffel"] += 1
        return christoffel(ginv, dg)

    def counting_volume(entry, resolution):
        calls["volume"] += 1
        return volume(entry, resolution)

    assert node_blocks(24) == 4
    monkeypatch.setattr(quad, "_GRID_CACHE", {})
    monkeypatch.setattr(curvature, "christoffel_from", counting_christoffel)
    monkeypatch.setattr(quad, "volume", counting_volume)
    argv = [
        "integrate", "--case", "unit-s3", "--resolution", "24",
        "--divergence", str(divergence), "--out", str(tmp_path / "report.json"),
    ]
    assert cli.main(argv) == 0
    assert calls == {"christoffel": 4, "volume": divergence + 1}


def laplacian_integral_per_field(entry, field, resolution):
    """Reference: each chart's Laplacian through laplacian_generic, one
    field at a time."""
    from ryslab.ad import value_of
    from ryslab.curvature import laplacian_generic

    grid = quad.build_grid(entry, resolution)
    terms, max_abs = [], 0.0
    for fn in field.per_chart:
        sf = ScalarField(fn, entry.metric.domain)
        lap = np.broadcast_to(
            np.asarray(value_of(laplacian_generic(entry.metric, sf, list(grid.columns))), dtype=float),
            grid.weight.shape,
        )
        max_abs = max(max_abs, float(np.max(np.abs(lap))))
        terms.extend((grid.weight * lap).tolist())
    vol = quad.volume(entry, resolution)
    return {"integral": math.fsum(terms), "scale": vol * max_abs, "volume": vol}


@pytest.mark.parametrize("radius", [1.0, 0.5])
def test_quadrature_sums_equal_fsum_of_the_same_terms(radius):
    """Every quadrature sum is math.fsum of its terms, bit for bit: the
    divergence integrals of 3 fields (through their per-chart expressions,
    whose Laplacians match laplacian_integral_per_field's exactly), the
    integral of an odd field (its terms cancel to rounding), and the
    volume."""
    from ryslab.ad import value_of
    from ryslab.cli import _ambient_quadratic

    entry = catalog.sphere_entry(radius)
    fields = [
        quad.ManifoldScalarField(quad.ManifoldScalarField.from_ambient(entry, _ambient_quadratic(s)).per_chart)
        for s in (1, 2, 3)
    ]
    got = quad.integrate_laplacians(entry, fields, 12)
    assert got == [laplacian_integral_per_field(entry, f, 12) for f in fields]

    grid = quad.build_grid(entry, 12)
    weights = np.concatenate([grid.weight] * grid.chart_count)
    assert grid.volume == math.fsum(weights.tolist())

    def fn(x):
        return x[0] + x[1] * x[2]

    terms = []
    for _ in range(grid.chart_count):
        terms.extend((grid.weight * np.asarray(value_of(fn(list(grid.columns))))).tolist())
    assert quad.integrate(entry, quad.ManifoldScalarField((fn,) * 2), 12) == math.fsum(terms)


def smooth_field(a):
    """u = exp(a_4 / 2) + a_1^2 cos a_2, a field that is no ambient quadratic
    and not odd in a_1, a_2 or a_3 (the symmetric partition of unity would
    integrate an odd one to rounding, whatever its Laplacian)."""
    from ryslab import ad

    return ad.exp(0.5 * a[3]) + a[0] * a[0] * ad.cos(a[1])


def test_many_fields_match_one_field_at_a_time():
    """Fields integrated together, in any order, give each field's
    one-at-a-time result bit for bit.  Fields without an ambient quadratic
    (a quadratic's per-chart expressions, a constant and an elementary
    function of the ambient coordinates) go through their own jets, bit for
    bit as laplacian_integral_per_field; the quadratic test fields go
    through the chart basis and agree with it to rounding."""
    from ryslab.cli import _ambient_quadratic

    entry = catalog.sphere_entry(1.0)
    ambient = [
        quad.ManifoldScalarField.from_ambient(entry, _ambient_quadratic(s)) for s in (1, 2)
    ]
    fields = ambient + [
        quad.ManifoldScalarField(ambient[0].per_chart),
        quad.ManifoldScalarField.constant(3.0),
        quad.ManifoldScalarField.from_ambient(entry, smooth_field),
    ]
    expected = [laplacian_integral_per_field(entry, f, 10) for f in fields]
    own = [quad.integrate_laplacian(entry, f, 10) for f in fields]
    for got, want in zip(own[:2], expected[:2]):
        assert got["volume"] == want["volume"]
        for key in ("integral", "scale"):
            assert abs(got[key] - want[key]) <= 1e-13 * want["scale"], key
    assert own[2:] == expected[2:]
    for order in itertools.permutations(range(len(fields))):
        got = quad.integrate_laplacians(entry, [fields[k] for k in order], 10)
        assert got == [own[k] for k in order], order


def test_factored_test_field_matches_the_double_sum():
    """cli's divergence test field is sum_ij c_ij a_i a_j + sum_i lin_i a_i
    from the same seeded coefficients, evaluated in factored form."""
    from ryslab.cli import _ambient_quadratic

    points = np.random.default_rng(11).uniform(-2.0, 2.0, size=(200, 4)).tolist()
    for seed in (0, 7, 1001):
        rng = np.random.default_rng(seed)
        c = rng.uniform(-1.0, 1.0, size=(4, 4))
        lin = rng.uniform(-1.0, 1.0, size=4)
        field = _ambient_quadratic(seed)
        for a in points:
            terms = [c[i][j] * a[i] * a[j] for i in range(4) for j in range(4)]
            terms += [lin[i] * a[i] for i in range(4)]
            expanded = math.fsum(terms)
            scale = math.fsum(abs(t) for t in terms)
            assert abs(field(a) - expanded) <= 1e-14 * scale, (seed, a)


def monomials(ambient):
    """The ambient monomials in basis order: a_i a_j (i <= j), then a_i."""
    k = len(ambient)
    return [ambient[i] * ambient[j] for i in range(k) for j in range(i, k)] + list(ambient)


def test_chart_basis_matches_each_monomials_jet():
    """Every product-rule column, reflected into each chart by its row
    signs, equals the Laplacian of that monomial's own order-2 Taylor jet
    (``ad.jet2`` of the monomial of ``ambient``), at every node of both
    charts."""
    from ryslab.ad import jet2

    entry = catalog.sphere_entry(1.0)
    grid = quad.build_grid(entry, 10)
    chart0 = quad._chart_basis(entry, grid)
    for chart in range(grid.chart_count):
        basis = chart0 * quad._monomial_signs(entry.atlas.signs(chart, 3))[:, None]
        expected = [
            grid_laplacian(grid, *jet2(lambda x, k=k: monomials(entry.atlas.ambient(chart, x))[k], grid.columns)[1:])
            for k in range(14)
        ]
        assert basis.shape == (14, len(grid.weight))
        for row, (got, want) in enumerate(zip(basis, expected)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (chart, row)


@pytest.mark.parametrize("resolution", [10, 12])
@pytest.mark.parametrize("radius", [0.5, 1.0, 2.0])
def test_chart_basis_is_the_spherical_harmonic_spectrum(radius, resolution):
    """On the round S^3 of radius r the ambient coordinates are degree-1
    harmonics and a_i a_j - delta_ij r^2 / 4 degree-2 ones, so Delta a_i =
    -3 a_i / r^2 and Delta (a_i a_j) = -8 a_i a_j / r^2 + 2 delta_ij.  Every
    row of the chart-0 basis meets this closed form at every node within
    a few ulps of its largest value, 10 (|a| = r)."""
    entry = catalog.sphere_entry(radius)
    grid = quad.build_grid(entry, resolution)
    a = [np.asarray(v, dtype=float) for v in entry.atlas.ambient(0, list(grid.columns))]
    i, j = np.triu_indices(4)
    want = [-8.0 * a[p] * a[q] / radius**2 + (2.0 if p == q else 0.0) for p, q in zip(i, j)]
    want += [-3.0 * b / radius**2 for b in a]
    basis = quad._chart_basis(entry, grid)
    for row, (got, spectrum) in enumerate(zip(basis, want)):
        assert np.max(np.abs(got - spectrum)) <= 16 * np.finfo(float).eps * 10.0, row


def test_basis_coefficients_expand_the_quadratic():
    """The 14 coefficients reproduce the field on the monomials."""
    from ryslab.cli import _ambient_quadratic

    a = np.random.default_rng(3).uniform(-1.0, 1.0, size=(4, 50))
    for seed in (1, 2, 7):
        field = _ambient_quadratic(seed)
        combined = field.basis_coefficients @ np.array(monomials(list(a)))
        assert np.allclose(combined, field(list(a)), rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("seed", [1, 2, 7])
def test_quadratic_field_matches_the_generic_path(seed):
    """The basis path and the field's own jet (the same field wrapped as an
    opaque callable) give the same integral and scale to rounding."""
    from ryslab.cli import _ambient_quadratic

    entry = catalog.sphere_entry(1.0)
    field = _ambient_quadratic(seed)
    basis = quad.integrate_laplacian(entry, quad.ManifoldScalarField.from_ambient(entry, field), 12)
    opaque = quad.ManifoldScalarField.from_ambient(entry, lambda a: field(a))
    generic = quad.integrate_laplacian(entry, opaque, 12)
    assert basis["volume"] == generic["volume"]
    for key in ("integral", "scale"):
        assert abs(basis[key] - generic[key]) <= 1e-13 * generic["scale"], key


@pytest.mark.parametrize("radius", [1.0, 0.5, 2.0])
@pytest.mark.parametrize("factor", [1.0, 1.1])
def test_non_polynomial_field_passes_the_divergence_check(factor, radius, monkeypatch):
    """``smooth_field``, through its own jet (elementary functions of an
    order-2 Taylor lift), integrates its Laplacian to a gap of at most 1e-5
    at resolution 24 on every catalog sphere (about 1e-9); negative
    control: with Gamma scaled by 1.1 the gap exceeds 1e-5 on each."""
    christoffel = curvature.christoffel_from
    monkeypatch.setattr(quad, "_GRID_CACHE", {})
    monkeypatch.setattr(
        curvature, "christoffel_from",
        lambda ginv, dg: [[[factor * e for e in row] for row in plane] for plane in christoffel(ginv, dg)],
    )
    entry = catalog.sphere_entry(radius)
    out = quad.integrate_laplacian(entry, quad.ManifoldScalarField.from_ambient(entry, smooth_field), 24)
    gap = abs(out["integral"]) / out["scale"]
    assert gap <= 1e-5 if factor == 1.0 else gap > 1e-5, gap


def test_integrate_lifts_each_node_block_once_to_order_one(tmp_path, capsys, monkeypatch):
    """`integrate` on its command path lifts each node block's columns once,
    to order 1 (g^{ij} and Gamma): the basis takes its second partials from
    the closed-form embedding jets, never from an order-2 Taylor."""
    from ryslab import ad, cli

    orders, lift, blocks = [], ad.lift, node_blocks(24)

    def recording_lift(coords, order):
        orders.append(order)
        return lift(coords, order)

    monkeypatch.setattr(quad, "_GRID_CACHE", {})
    monkeypatch.setattr(ad, "lift", recording_lift)
    monkeypatch.setattr(curvature, "lift", recording_lift)
    argv = [
        "integrate", "--case", "unit-s3", "--resolution", "24",
        "--divergence", "3", "--out", str(tmp_path / "report.json"),
    ]
    assert cli.main(argv) == 0
    assert orders == [1] * blocks


@pytest.mark.parametrize("resolution", [12, 24])
@pytest.mark.parametrize("divergence", [3, 20])
def test_integrate_cost_is_flat_in_the_divergence_count(divergence, resolution, tmp_path, capsys, monkeypatch):
    """However many divergence checks run, each node block's embedding
    jets are built once, on chart 0, and its 4 coordinate Laplacians are
    taken once; chart 1 reflects that basis instead of embedding again."""
    from ryslab import cli

    events = []
    jets, laplacian = catalog.SphereAtlas.ambient_jets, quad.laplacian_from

    def counting_jets(self, coords):
        events.append("embed")
        return jets(self, coords)

    def counting_laplacian(ginv, gamma, du, ddu):
        events.append("laplacian")
        return laplacian(ginv, gamma, du, ddu)

    monkeypatch.setattr(catalog.SphereAtlas, "ambient_jets", counting_jets)
    monkeypatch.setattr(quad, "laplacian_from", counting_laplacian)
    argv = [
        "integrate", "--case", "unit-s3", "--resolution", str(resolution),
        "--divergence", str(divergence), "--out", str(tmp_path / "report.json"),
    ]
    assert cli.main(argv) == 0
    assert events == (["embed"] + ["laplacian"] * 4) * node_blocks(resolution)


@pytest.mark.parametrize("resolution", [12, 24])
@pytest.mark.parametrize("mutation", ["gamma-scaled", "gamma-zeroed", "pairing-factor-dropped", "ddu-cubic-scaled"])
def test_divergence_check_fails_when_the_laplacian_is_wrong(mutation, resolution, tmp_path, capsys, monkeypatch):
    """Negative controls: with Gamma scaled by 1.1 or zeroed, without the
    factor 2 on the product rule's pairing term, or with the 8 of
    d_j d_k u = 8 x_j x_k u^3 - 2 delta_jk u^2 (u = 1 / (r^2 + q)) in the
    embedding's second partials scaled by 1 + 1e-3, in every node block,
    every divergence record fails and `integrate` exits 1.  The volume,
    which needs no Laplacian, still passes."""
    from ryslab import cli

    christoffel, pairings = curvature.christoffel_from, quad._gradient_pairings
    jets = catalog.SphereAtlas.ambient_jets
    mutated_blocks = []
    if mutation == "ddu-cubic-scaled":
        # a_i = 2 r^2 x_i u (i < 3) and a_3 = r - 2 r^3 u carry d_j d_k u
        # times 2 r^2 x_i and -2 r^3: each gains that times 8e-3 x_j x_k u^3.
        def mutated(self, coords):
            mutated_blocks.append(len(coords[0]))
            r = self.radius
            u = 1.0 / (r * r + sum(c * c for c in coords))
            factors = [2.0 * r * r * x for x in coords] + [-2.0 * r**3]
            return [
                (v, grad, [[h[j][k] + f * 8e-3 * u**3 * coords[j] * coords[k] for k in range(3)] for j in range(3)])
                for (v, grad, h), f in zip(jets(self, coords), factors)
            ]

        monkeypatch.setattr(catalog.SphereAtlas, "ambient_jets", mutated)
    elif mutation == "pairing-factor-dropped":
        # 2 x (pairing / 2): the term enters once instead of twice.
        def mutated(grid, grads):
            mutated_blocks.append(len(grid.weight))
            return [0.5 * p for p in pairings(grid, grads)]

        monkeypatch.setattr(quad, "_gradient_pairings", mutated)
    else:
        factor = 1.1 if mutation == "gamma-scaled" else 0.0

        def mutated(ginv, dg):
            mutated_blocks.append(len(ginv[0][0]))
            return [[[factor * e for e in row] for row in plane] for plane in christoffel(ginv, dg)]

        monkeypatch.setattr(quad, "_GRID_CACHE", {})
        monkeypatch.setattr(curvature, "christoffel_from", mutated)
    out = tmp_path / "report.json"
    argv = [
        "integrate", "--case", "unit-s3", "--resolution", str(resolution),
        "--divergence", "3", "--out", str(out),
    ]
    assert cli.main(argv) == 1
    grid = quad.build_grid(catalog.sphere_entry(1.0), resolution)
    assert mutated_blocks == [len(block.weight) for _, block in grid.blocks()]
    verdicts = {r["name"]: r["verdict"] for r in json.loads(out.read_text())["records"]}
    assert verdicts.pop("unit-s3:volume") == "pass"
    assert verdicts == {f"unit-s3:divergence-theorem[{k}]": "fail" for k in range(3)}


def _bits(x):
    """The bytes of a float, a node column or a ``Taylor``'s coefficients,
    so that equality also compares the signs of zeros."""
    from ryslab.ad import Taylor

    return np.asarray(x.c if isinstance(x, Taylor) else x, dtype=float).tobytes()


@pytest.mark.parametrize("radius", [0.5, 1.0, 2.0])
def test_chart_one_is_chart_zero_reflected(radius):
    """Chart 1's embedding is chart 0's with the last ambient coordinate
    negated, bit for bit, on floats, node columns and order-2 Taylor lifts;
    and it equals the direct formula r (r^2 - q) / (r^2 + q) on the grid
    nodes."""
    from ryslab.ad import lift

    entry = catalog.sphere_entry(radius)
    atlas = entry.atlas
    assert atlas.signs(0, 3) == (1.0, 1.0, 1.0, 1.0)
    assert atlas.signs(1, 3) == (1.0, 1.0, 1.0, -1.0)
    columns = list(quad.build_grid(entry, 10).columns)
    points = np.random.default_rng(5).uniform(-2.0 * radius, 2.0 * radius, size=(20, 3)).tolist()
    for x in points + [columns, lift(columns, 2)]:
        a0, a1 = atlas.ambient(0, x), atlas.ambient(1, x)
        assert [_bits(a) for a in a1] == [_bits(a) for a in a0[:3] + [-a0[3]]]
    for x in (columns, lift(columns, 2)):
        q = sum(c * c for c in x)
        direct = radius * (radius * radius - q) / (radius * radius + q)
        assert _bits(atlas.ambient(1, x)[3]) == _bits(direct)


def chart_basis_from_own_jets(entry, grid, chart):
    """Reference: a chart's basis from that chart's own embedding jets
    (chart 0's closed-form jets with each coordinate's value, gradient and
    Hessian times the chart's sign), through the product rule, as every
    chart built it before the basis was shared."""
    jets = entry.atlas.ambient_jets(list(grid.columns))
    values, grads, laps = [], [], []
    for sign, (v, da, dda) in zip(entry.atlas.signs(chart, len(grid.columns)), jets):
        if sign < 0.0:
            v, da, dda = -v, [-d for d in da], [[-h for h in row] for row in dda]
        values.append(v)
        grads.append(da)
        laps.append(grid_laplacian(grid, da, dda))
    pairings = list(quad._gradient_pairings(grid, grads))
    rows = [
        values[a] * laps[b] + values[b] * laps[a] + 2.0 * pairings[row]
        for row, (a, b) in enumerate(zip(*np.triu_indices(len(values))))
    ]
    return np.array(rows + laps)


@pytest.mark.parametrize("resolution", [10, 12])
@pytest.mark.parametrize("radius", [0.5, 1.0, 2.0])
def test_reflected_basis_is_chart_ones_own_bit_for_bit(radius, resolution):
    """Chart 0's basis times each row's monomial sign equals the basis
    built from chart 1's own jets, bit for bit; the rows a_i a_4 (i < 4)
    and a_4 flip and a_4^2 does not.  Each test field's chart-1 Laplacian,
    read through its sign-flipped coefficients, is the reference basis
    combination bit for bit."""
    from ryslab.cli import _ambient_quadratic

    entry = catalog.sphere_entry(radius)
    grid = quad.build_grid(entry, resolution)
    signs = quad._monomial_signs(entry.atlas.signs(1, 3))
    assert [k for k in range(14) if signs[k] < 0] == [3, 6, 8, 13]
    own = chart_basis_from_own_jets(entry, grid, 1)
    basis = quad._chart_basis(entry, grid)
    assert _bits(basis * signs[:, None]) == _bits(own)
    for seed in (1, 7):
        field = quad.ManifoldScalarField.from_ambient(entry, _ambient_quadratic(seed))
        lap = quad._chart_laplacian(entry, grid, field, 1, basis)
        assert _bits(lap) == _bits(field.ambient.basis_coefficients @ own)


def test_divergence_checks_fail_without_the_reflection(tmp_path, capsys, monkeypatch):
    """Negative control: with chart 1's sign vector all +1, chart 1 embeds
    as chart 0 does, the two charts no longer cover the sphere with one
    field, and every divergence record fails; the volume still passes."""
    from ryslab import cli

    monkeypatch.setattr(catalog.SphereAtlas, "signs", lambda self, chart, n: (1.0,) * (n + 1))
    out = tmp_path / "report.json"
    argv = [
        "integrate", "--case", "unit-s3", "--resolution", "12",
        "--divergence", "3", "--out", str(out),
    ]
    assert cli.main(argv) == 1
    records = {r["name"]: r for r in json.loads(out.read_text())["records"]}
    assert records.pop("unit-s3:volume")["verdict"] == "pass"
    assert sorted(records) == [f"unit-s3:divergence-theorem[{k}]" for k in range(3)]
    for record in records.values():
        assert record["verdict"] == "fail" and record["gap"] > 1e3 * record["tol"]


@pytest.mark.parametrize("resolution", [12, 24])
@pytest.mark.parametrize("radius", [1.0, 0.5, 2.0])
def test_blocked_basis_is_the_whole_grid_basis_bit_for_bit(radius, resolution, monkeypatch):
    """The basis that ``integrate_laplacians`` writes into its reused
    buffer for each node block equals that block's columns of
    ``_chart_basis`` on the whole grid, bit for bit (signs of zero
    included): one block at resolution 12, three full blocks and a
    partial one at 24."""
    from ryslab.cli import _ambient_quadratic

    monkeypatch.setattr(quad, "_GRID_CACHE", {})
    entry = catalog.sphere_entry(radius)
    grid = quad.build_grid(entry, resolution)
    blocks = [nodes for nodes, _ in grid.blocks()]
    sizes = [nodes.stop - nodes.start for nodes in blocks]
    assert sizes == ([quad._CHUNK] * 3 + [27648 - 3 * quad._CHUNK] if resolution == 24 else [3456])
    laplacian, seen = quad._chart_laplacian, []

    def keeping_basis(entry, block, field, chart, basis):
        if chart == 0:
            seen.append(np.array(basis))
        return laplacian(entry, block, field, chart, basis)

    monkeypatch.setattr(quad, "_chart_laplacian", keeping_basis)
    quad.integrate_laplacian(entry, quad.ManifoldScalarField.from_ambient(entry, _ambient_quadratic(1)), resolution)
    whole = quad._chart_basis(entry, grid)
    assert [_bits(basis) for basis in seen] == [_bits(whole[:, nodes]) for nodes in blocks]


def whole_grid_laplacian_integrals(entry, fields, resolution):
    """Reference: ``integrate_laplacians`` on the whole grid at once, each
    chart's Laplacian one array over every node."""
    from ryslab.ad import jet2

    grid = quad.build_grid(entry, resolution)
    basis = quad._chart_basis(entry, grid)
    results = []
    for field in fields:
        laps = []
        for c in range(grid.chart_count):
            if isinstance(field.ambient, quad.AmbientQuadratic):
                signs = quad._monomial_signs(entry.atlas.signs(c, 3))
                laps.append((field.ambient.basis_coefficients * signs) @ basis)
            else:
                laps.append(grid_laplacian(grid, *jet2(field.per_chart[c], grid.columns)[1:]))
        terms = np.concatenate([grid.weight * lap for lap in laps])
        peak = max(float(np.max(np.abs(lap))) for lap in laps)
        results.append({"integral": quad.exact_sum(terms), "scale": grid.volume * peak, "volume": grid.volume})
    return results


def test_blocked_integrals_equal_the_whole_grid_arithmetic(monkeypatch):
    """At resolution 24 (four node blocks), ambient-quadratic fields,
    per-chart callables and a constant field integrate to the whole-grid
    arithmetic's integral, scale and volume exactly, in one call.  Gamma
    is built once per block, for the basis and for both fields read
    through their own jets."""
    from ryslab.cli import _ambient_quadratic

    monkeypatch.setattr(quad, "_GRID_CACHE", {})
    entry = catalog.sphere_entry(1.0)
    quadratic = [quad.ManifoldScalarField.from_ambient(entry, _ambient_quadratic(s)) for s in (1, 2)]
    fields = quadratic + [
        quad.ManifoldScalarField(quadratic[0].per_chart),
        quad.ManifoldScalarField.constant(3.0),
    ]
    christoffel, builds = curvature.christoffel_from, []
    monkeypatch.setattr(curvature, "christoffel_from", lambda ginv, dg: builds.append(1) or christoffel(ginv, dg))
    got = quad.integrate_laplacians(entry, fields, 24)
    assert len(builds) == node_blocks(24)
    assert got == whole_grid_laplacian_integrals(entry, fields, 24)
    assert got[3]["integral"] == 0.0 and got[0]["volume"] == quad.build_grid(entry, 24).volume


def test_integrate_forms_no_off_trace_second_partial(tmp_path, capsys, monkeypatch):
    """On the round sphere g^{ij} is a structural zero off the diagonal, so
    the divergence records read only the diagonal second partials: with
    every off-diagonal entry of the 4 embedding Hessians NaN, every
    `integrate` record keeps its bytes at resolution 12.  The on-demand
    jets form only the diagonal entries, bit-equal to the fully formed
    jets'.  Negative control: NaN on the diagonal instead fails every
    divergence record."""
    from ryslab import cli

    out = tmp_path / "report.json"
    argv = ["integrate", "--case", "unit-s3", "--resolution", "12", "--divergence", "6", "--out", str(out)]

    def report():
        code = cli.main(argv)
        return code, out.read_bytes()

    jets, kept = catalog.SphereAtlas.ambient_jets, []

    def keeping(self, coords):
        built = jets(self, coords)
        kept.append((self, coords, list(built)))  # _chart_basis drops built's entries as it goes
        return built

    monkeypatch.setattr(catalog.SphereAtlas, "ambient_jets", keeping)
    reference = report()
    assert reference[0] == 0 and len(kept) == node_blocks(12) == 1
    for atlas, coords, formed in kept:
        for (_, _, hess), (_, _, full) in zip(formed, jets(atlas, coords)):
            full = [[full[j][k] for k in range(3)] for j in range(3)]
            assert sorted(hess._formed) == [(0, 0), (1, 1), (2, 2)]
            assert [_bits(hess[j][j]) for j in range(3)] == [_bits(full[j][j]) for j in range(3)]

    def nan_where(on_diagonal):
        def mutated(self, coords):
            nan = np.full(len(coords[0]), np.nan)
            return [
                (v, grad, [[nan if (j == k) == on_diagonal else hess[j][k] for k in range(3)] for j in range(3)])
                for v, grad, hess in jets(self, coords)
            ]

        return mutated

    monkeypatch.setattr(catalog.SphereAtlas, "ambient_jets", nan_where(False))
    assert report() == reference
    monkeypatch.setattr(catalog.SphereAtlas, "ambient_jets", nan_where(True))
    assert report()[0] == 1
    verdicts = {r["name"]: r["verdict"] for r in json.loads(out.read_text())["records"]}
    assert verdicts.pop("unit-s3:volume") == "pass"
    assert set(verdicts.values()) == {"fail"} and len(verdicts) == 6


# -- structural zeros on the node columns --------------------------------------

@pytest.mark.parametrize("radius", [0.5, 1.0])
def test_sphere_grid_geometry_keeps_structural_zeros(radius):
    """The round metric is conformally flat: on a sphere grid g^{ij} holds
    the float 0.0 off the diagonal, and Gamma^k_ij is 0.0 where i, j and k
    differ; every other entry is a node column."""
    grid = quad.build_grid(catalog.sphere_entry(radius), 12)
    m = len(grid.weight)
    for i, j in itertools.product(range(3), repeat=2):
        entry = grid.inverse[i][j]
        if i == j:
            assert isinstance(entry, np.ndarray) and entry.shape == (m,)
        else:
            assert isinstance(entry, float) and entry == 0.0, (i, j)
    for k, i, j in itertools.product(range(3), repeat=3):
        entry = grid.christoffel[k][i][j]
        if len({k, i, j}) == 3:
            assert isinstance(entry, float) and entry == 0.0, (k, i, j)
        else:
            assert isinstance(entry, np.ndarray) and entry.shape == (m,), (k, i, j)


def poisoned_sphere(node, resolution):
    """The unit 3-sphere with g_00 NaN at one grid node in its lifted
    evaluations (the ones that build g^{ij}, Gamma and the basis); the
    float evaluation that weights the nodes stays finite."""
    from ryslab import ad

    entry = catalog.sphere_entry(1.0)
    target = [c[node] for c in quad.build_grid(entry, resolution).columns]
    fn = entry.metric.fn

    def g(x):
        m = fn(x)
        if isinstance(x[0], ad.Taylor):
            hit = np.logical_and.reduce([ad.value_of(c) == t for c, t in zip(x, target)])
            c = m[0][0].c.copy()
            c[:, hit] = np.nan
            m = [row[:] for row in m]
            m[0][0] = ad.Taylor(c, m[0][0].n, m[0][0].order)
        return m

    return entry.replace(metric=entry.metric.replace(fn=g))


def test_a_nan_metric_component_reaches_its_basis_column_and_fails(tmp_path, capsys, monkeypatch):
    """Negative control: with g_00 NaN at one node (in the second node
    block), no skipped zero stops it: that node's basis column is NaN in
    every row and every other column is finite; `integrate` reads each
    divergence record's gap as unbounded, fails it and exits 1, while the
    volume passes."""
    from ryslab import cli

    node = quad._CHUNK + 123
    entry = poisoned_sphere(node, 24)
    monkeypatch.setattr(quad, "_GRID_CACHE", {})  # a grid keeps the metric it was built with
    blocks = quad.build_grid(entry, 24).blocks()
    basis = np.concatenate([quad._chart_basis(entry, block) for _, block in blocks], axis=1)
    assert np.isnan(basis[:, node]).all()
    assert np.isfinite(np.delete(basis, node, axis=1)).all()

    monkeypatch.setattr(quad, "_GRID_CACHE", {})
    monkeypatch.setattr(catalog, "get_entry", lambda name: entry)
    out = tmp_path / "report.json"
    argv = ["integrate", "--case", "unit-s3", "--resolution", "24", "--divergence", "2", "--out", str(out)]
    assert cli.main(argv) == 1
    records = {r["name"]: r for r in json.loads(out.read_text())["records"]}
    assert records.pop("unit-s3:volume")["verdict"] == "pass"
    assert len(records) == 2
    for record in records.values():
        assert record["verdict"] == "fail" and record["gap"] == math.inf and math.isnan(record["lhs"])


@pytest.mark.parametrize("deg", [*range(quad.MIN_RESOLUTION, cli.MAX_RESOLUTION + 1), 64])
def test_gauss_legendre_is_numpys_leggauss(deg):
    """Bit for bit ``np.polynomial.legendre.leggauss`` at every resolution
    from quadrature's least to the CLI's largest, and at 64, the
    mollifier's rule."""
    x, w = quad.gauss_legendre(deg)
    ref_x, ref_w = np.polynomial.legendre.leggauss(deg)
    assert x.tobytes() == ref_x.tobytes() and w.tobytes() == ref_w.tobytes()


@pytest.mark.parametrize("seed", [0, 7, 2**32, 2**64 + 1])
def test_ambient_quadratic_is_numpys_two_draws(seed):
    from ryslab.cli import _ambient_quadratic

    rng = np.random.default_rng(seed)
    c, lin = rng.uniform(-1.0, 1.0, size=(4, 4)), rng.uniform(-1.0, 1.0, size=4)
    field = _ambient_quadratic(seed)
    assert field.c.tobytes() == c.tobytes() and field.lin.tobytes() == lin.tobytes()
