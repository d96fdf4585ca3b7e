"""Catalog ground truth: closed forms must agree with the pipeline."""

import numpy as np
import pytest

from ryslab import ad, catalog
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


def ambient_jet_ulps(got, want):
    """The largest gap between two lists of (value, gradient, Hessian)
    jets' first and second partials, every (j, k) entry of each Hessian,
    in units of eps times the reference coordinate's largest partial of
    that order."""
    worst = 0.0
    for (_, grad, hess), (_, ref_grad, ref_hess) in zip(got, want):
        for part, ref in ((grad, ref_grad), (hess, ref_hess)):
            part, ref = np.asarray(part, dtype=float), np.asarray(ref, dtype=float)
            gap = np.max(np.abs(part - ref)) / (np.finfo(float).eps * np.max(np.abs(ref)))
            worst = max(worst, float(gap))
    return worst


def ambient_derive(atlas, x):
    """Chart 0's ambient jets at a float point by ``ad.derive``, one fresh
    lift per partial."""
    n, jets = len(x), []
    for i in range(n + 1):
        f = lambda y, i=i: atlas.ambient(0, y)[i]
        grad = [ad.derive(f, x, (j,)) for j in range(n)]
        hess = [[ad.derive(f, x, (j, k)) for k in range(n)] for j in range(n)]
        jets.append((f(x), grad, hess))
    return jets


def delta_mutated(atlas, jets):
    """``jets`` with each a_i's (i < n) Hessian built from 2 delta_ij d_k u
    in place of delta_ij d_k u + delta_ik d_j u: only its symmetric part's
    trace is unchanged.  d_k u is read off the last coordinate's gradient,
    -2 r^3 d_k u."""
    n = len(jets) - 1
    du = [g / (-2.0 * atlas.radius**3) for g in jets[n][1]]
    s = 2.0 * atlas.radius**2
    out = []
    for i, (v, grad, hess) in enumerate(jets[:n]):
        shift = lambda j, k: s * ((du[k] if j == i else 0.0) - (du[j] if k == i else 0.0))
        out.append((v, grad, [[hess[j][k] + shift(j, k) for k in range(n)] for j in range(n)]))
    return out + jets[n:]


AMBIENT_JET_ULPS = 8.0


@pytest.mark.parametrize("radius", [0.5, 1.0, 2.0])
def test_ambient_jets_match_the_taylor_jets_of_ambient(radius):
    """``SphereAtlas.ambient_jets`` keeps ``ambient(0, .)``'s values bit
    for bit, and its first and second partials lie within a few ulps of
    scale of ``ad.jet2`` (an order-2 Taylor lift of ``ambient``) on the
    resolution-10 grid columns, and of ``ad.derive`` at float points.
    Each Hessian is exactly symmetric.  Negative control: the Hessian
    with 2 delta_ij d_k u in place of delta_ij d_k u + delta_ik d_j u,
    which the divergence records cannot see (they read only the trace on
    this conformally flat chart), is off by far more than the bound."""
    from ryslab import quadrature

    atlas = catalog.sphere_entry(radius).atlas
    columns = list(quadrature.build_grid(catalog.sphere_entry(radius), 10).columns)
    points = np.random.default_rng(23).uniform(-2.0 * radius, 2.0 * radius, size=(12, 3)).tolist()
    cases = [(columns, [ad.jet2(lambda y, i=i: atlas.ambient(0, y)[i], columns) for i in range(4)])]
    cases += [(x, ambient_derive(atlas, x)) for x in points]
    for x, reference in cases:
        jets = atlas.ambient_jets(x)
        assert [np.asarray(v).tobytes() for v, _, _ in jets] == [np.asarray(a).tobytes() for a in atlas.ambient(0, x)]
        assert all(hess[j][k] is hess[k][j] for _, _, hess in jets for j in range(3) for k in range(3))
        assert ambient_jet_ulps(jets, reference) <= AMBIENT_JET_ULPS
        assert ambient_jet_ulps(delta_mutated(atlas, jets), reference) > 1e6 * AMBIENT_JET_ULPS


def jet_arrays(jets):
    """Values, gradients and Hessians of ``ambient_jets`` as float arrays
    (a structural 0.0 as 0.0), indexed [i], [i][j] and [i][j][k]."""
    values = [np.asarray(v, dtype=float) for v, _, _ in jets]
    grads = [[np.asarray(g, dtype=float) for g in grad] for _, grad, _ in jets]
    hessians = [[[np.asarray(h, dtype=float) for h in row] for row in hess] for _, _, hess in jets]
    return values, grads, hessians


def identity_ulps(terms):
    """The largest |sum of terms| in units of eps times sum |terms|: how far
    an identity that sums to zero misses, against its own rounding."""
    total = sum(terms)
    scale = sum(np.abs(t) for t in terms)
    return float(np.max(np.abs(total) / (np.finfo(float).eps * scale)))


def cubic_scaled(atlas, x, jets, factor):
    """``jets`` with the 8 x_j x_k u^3 term of d_j d_k u times ``factor``
    in every coordinate's Hessian (2 r^2 x_i times it for a_i, -2 r^3
    times it for the last coordinate)."""
    r, n = atlas.radius, len(x)
    u = 1.0 / (r * r + sum(c * c for c in x))
    weights = [2.0 * r * r * c for c in x] + [-2.0 * r**3]
    extra = lambda j, k: (factor - 1.0) * 8.0 * x[j] * x[k] * u**3
    return [
        (v, grad, [[hess[j][k] + w * extra(j, k) for k in range(n)] for j in range(n)])
        for w, (v, grad, hess) in zip(weights, jets)
    ]


IDENTITY_ULPS = 32.0


def ambient_jet_sites(radius, where):
    """The resolution-10 grid columns, or 12 float points in [-2r, 2r]^3."""
    from ryslab import quadrature

    if where == "columns":
        return [list(quadrature.build_grid(catalog.sphere_entry(radius), 10).columns)]
    return np.random.default_rng(24).uniform(-2.0 * radius, 2.0 * radius, size=(12, 3)).tolist()


@pytest.mark.parametrize("where", ["columns", "point"])
@pytest.mark.parametrize("radius", [0.5, 1.0, 2.0])
def test_ambient_jets_stay_on_the_sphere(radius, where):
    """The jets differentiate |a|^2 = r^2 once and twice to zero:
    sum_i a_i d_j a_i = 0 and sum_i (d_j a_i d_k a_i + a_i d_j d_k a_i) = 0,
    each within a few ulps of its terms.  Negative control: the 8 in d^2 u
    scaled by 1 + 1e-3 leaves 2 r^4 (1e-3) 8 x_j x_k u^3 in the second."""
    atlas = catalog.sphere_entry(radius).atlas

    def worst(jets):
        values, grads, hess = jet_arrays(jets)
        first = max(identity_ulps([values[i] * grads[i][j] for i in range(4)]) for j in range(3))
        second = max(
            identity_ulps([grads[i][j] * grads[i][k] for i in range(4)] + [values[i] * hess[i][j][k] for i in range(4)])
            for j in range(3) for k in range(3)
        )
        return first, second

    for x in ambient_jet_sites(radius, where):
        jets = atlas.ambient_jets(x)
        values = jet_arrays(jets)[0]
        assert np.max(np.abs(np.sqrt(sum(v * v for v in values)) - radius)) <= 4 * np.finfo(float).eps * radius
        first, second = worst(jets)
        assert first <= IDENTITY_ULPS and second <= IDENTITY_ULPS
        assert worst(cubic_scaled(atlas, x, jets, 1.0 + 1e-3))[1] > 1e6 * IDENTITY_ULPS


@pytest.mark.parametrize("where", ["columns", "point"])
@pytest.mark.parametrize("radius", [0.5, 1.0, 2.0])
def test_ambient_jets_pull_back_the_round_metric(radius, where):
    """The embedding's first partials pull the Euclidean metric of R^4
    back to the catalog's own sphere metric: sum_i d_j a_i d_k a_i =
    g_jk = (2 r^2 / (r^2 + q))^2 delta_jk, within a few ulps of the sum's
    terms, off the diagonal included."""
    entry = catalog.sphere_entry(radius)
    for x in ambient_jet_sites(radius, where):
        _, grads, _ = jet_arrays(entry.atlas.ambient_jets(x))
        g = entry.metric(x)
        for j in range(3):
            for k in range(3):
                terms = [grads[i][j] * grads[i][k] for i in range(4)]
                assert identity_ulps(terms + [-np.asarray(g[j][k], dtype=float)]) <= IDENTITY_ULPS, (j, k)


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

    def test_group_rejects_points_it_cannot_assign(self):
        """A group metric or field takes columns of its members' point total
        only: one chunk of a batch that curvature splits, that chunk lifted
        to order 4 and a single point raise ValueError, and so does the
        curvature of a group that would be lifted in chunks.  A lone member
        takes any points."""
        sizes = [600, 500]
        metric = catalog.perturbed_flat_group(1e-2, [20, 21], sizes)
        field = catalog.random_polynomial_group(metric.domain, [30, 31], sizes)
        x = [np.linspace(-0.5, 0.5, sum(sizes))] * 3
        assert len(metric.fn(x)[0][0]) == len(field.fn(x)) == sum(sizes)
        chunk = [c[: ad.CHUNK] for c in x]
        for fn in (metric.fn, field.fn):
            for bad in (chunk, ad.lift(chunk, 4), [0.1, 0.2, 0.3]):
                with pytest.raises(ValueError):
                    fn(bad)
        with pytest.raises(ValueError):
            cv.CurvatureData(metric, x).metric
        lone = catalog.perturbed_flat_group(1e-2, [20], None)
        assert np.array_equal(lone.matrix_np(chunk), catalog.make_perturbed_flat(1e-2, 20).metric.matrix_np(chunk))


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


@pytest.mark.parametrize("mu", [0.0, 0.5])
def test_each_row_builds_its_instance_on_its_entry(mu):
    """Every soliton row builds on its own entry: the entry's metric and
    compactness, GRYS at mu = 0 and GEN_GRYS otherwise, and for the
    concircular row RYS with the position field and phi = 1."""
    compact = []
    for name, spec in catalog.verify_cases().items():
        if spec.universal_only:
            assert spec.build is None
            continue
        params = SolitonParams(spec.defaults.alpha, spec.defaults.beta, spec.defaults.lam, mu)
        inst = spec.build(params)
        assert inst.params == params
        assert inst.entry is spec.entry(), name
        assert inst.metric is inst.entry.metric, name
        assert inst.compact == inst.entry.compact, name
        if inst.compact:
            compact.append(name)
        if name == "concircular-flat":
            assert inst.kind is SolitonKind.RYS and inst.phi == 1.0 and inst.potential is None
            assert inst.vector_field([0.1, -0.2, 0.3]) == [0.1, -0.2, 0.3]
        else:
            assert inst.kind is (SolitonKind.GRYS if mu == 0.0 else SolitonKind.GEN_GRYS), name
            assert inst.vector_field is None and inst.phi is None
    assert compact == ["einstein-s3"]


def test_instance_names_build_their_rows():
    """Each ``*_instance`` name builds what its row builds: the same kind
    and entry, and a field with the same value at a sampled point."""
    cases = catalog.verify_cases()
    named = {
        "gaussian": catalog.gaussian_instance,
        "einstein-s3": catalog.einstein_sphere_instance,
        "einstein-h3": catalog.einstein_hyperbolic_instance,
        "s2xr": catalog.cylinder_instance,
        "flat-product": catalog.flat_product_instance,
        "concircular-flat": catalog.concircular_flat_instance,
    }
    assert set(named) == {name for name, spec in cases.items() if not spec.universal_only}
    for name, build in named.items():
        spec = cases[name]
        params = SolitonParams(0.5, 0.25, -1.5, 0.5)
        ours, theirs = build(params), spec.build(params)
        assert (ours.kind, ours.entry, ours.params) == (theirs.kind, theirs.entry, params)
        x = list(sample_points(ours.metric.domain, 1, seed=11)[0].coords)
        field = "vector_field" if ours.kind is SolitonKind.RYS else "potential"
        assert getattr(ours, field)(x) == getattr(theirs, field)(x), name


def test_metrics_round_alike_at_a_point_and_over_a_batch():
    """Every catalog metric gives bit-identical components at a point and
    over a batch of coordinate columns, so batched checks reproduce the
    per-point ones exactly.  (libm pow(x, 2) on a float and numpy's
    square on an array disagree in the last bit for about 1 argument in
    1,100; 2,000 points per chart would catch a metric that used it.)"""
    for entry in catalog.catalog_entries():
        for i, chart in enumerate(entry.charts):
            batch = sample_points(chart, 2000, seed=3 + i)
            whole = batch.matrix(entry.metric.matrix(batch.columns))
            for k, p in enumerate(batch):
                single = entry.metric.matrix_np(p.coords)
                assert np.array_equal(whole[:, :, k], single), (entry.name, k)


@pytest.mark.parametrize("seed", [0, 20, 2**64 + 1])
def test_seeded_coefficients_are_numpys_draws(seed):
    """At the origin every monomial but 1 vanishes, so a perturbed-flat
    component reads its first coefficient and a random polynomial its
    constant: numpy's draws, one ``uniform`` call of 10 per component."""
    eps = 1e-2
    rng = np.random.default_rng(seed)
    rows = [rng.uniform(-1, 1, size=10) for _ in range(6)]
    metric = catalog.perturbed_flat_group(eps, [seed], None)
    g = metric.matrix((0.0, 0.0, 0.0))
    pairs = [(a, b) for a in range(3) for b in range(a, 3)]
    for (i, j), row in zip(pairs, rows):
        assert g[i][j] == g[j][i] == (i == j) + eps * float(row[0])
    f = catalog.random_polynomial_field(metric.domain, seed)
    assert f((0.0, 0.0, 0.0)) == np.random.default_rng(seed).uniform(-1.0, 1.0)
