"""Closed-form example geometries and soliton instances.

Every positive test in the package is anchored here: flat space, round
spheres on two antipodal stereographic charts, hyperbolic upper
half-space, a product cylinder and seeded perturbed-flat random
metrics.  Entries are immutable after construction and their
``closed_forms`` must agree with the curvature pipeline; that agreement
is the module's defining contract.  Soliton instances come from one
registry, ``verify_cases``: each row names its entry, default parameters
and soliton field, and ``CaseSpec.build`` turns a row and a parameter set
into an instance on the entry's metric.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from . import ad
from .geometry import (
    ChartDomain,
    MetricField,
    ScalarField,
    VectorField,
    constant_scalar,
    sample_points,
    seeded_uniform,
)
from .records import Record
from .soliton import SolitonInstance, SolitonKind, SolitonParams
from .tensors import Symmetric

# Stereographic charts keep all sampled coordinates within radius ~2 of
# the origin (the projection point sits at infinity); the quadrature
# bump lives inside radius 1.5r.
SPHERE_BOX_HALF = 1.15
BUMP_INNER = 2.0 / 3.0
BUMP_OUTER = 1.5


class ClosedForms(Record):
    """Known exact curvature data for an entry, when available."""

    einstein_factor: Optional[float] = None   # Ric = factor * g
    scalar: Optional[float] = None
    volume: Optional[float] = None
    ricci_fn: Optional[Callable] = None       # point -> n x n matrix


class SphereAtlas(Record):
    """Two antipodal stereographic charts joined by coordinate inversion.

    Chart 1 is chart 0 reflected through the equator: its embedding is
    chart 0's with each ambient coordinate multiplied by that chart's
    ``signs``.  ``ambient`` applies them, and the quadrature reflects chart
    0's Laplacian basis, built from ``ambient_jets``, by the same signs, so
    the two cannot disagree.
    """

    radius: float

    def transition(self, coords):
        """Map chart-0 coordinates to chart-1 coordinates (an involution)."""
        r2 = sum(c * c for c in coords)
        s = self.radius * self.radius / r2
        return [s * c for c in coords]

    def signs(self, chart: int, n: int) -> tuple[float, ...]:
        """The sign of each of the n + 1 ambient coordinates of ``chart``
        relative to chart 0: chart 1 negates the last one."""
        return (1.0,) * n + ((1.0, -1.0)[chart],)

    def ambient(self, chart: int, coords):
        """Embedding coordinates in R^{n+1}; both charts agree on overlap.

        Negation is exact, so chart 1's last coordinate is that of the same
        formula with r^2 - q in place of q - r^2 (as -0.0 where it is 0)."""
        q = sum(c * c for c in coords)
        point = self._embedding(coords, q, self.radius * self.radius + q)
        return [a if s > 0.0 else -a for s, a in zip(self.signs(chart, len(coords)), point)]

    def _embedding(self, coords, q, d):
        """Chart 0's ambient coordinates from q = |x|^2 and d = r^2 + q."""
        r = self.radius
        return [2.0 * r * r * c / d for c in coords] + [r * (q - r * r) / d]

    def ambient_jets(self, coords):
        """Chart 0's ambient coordinates with their first and second
        partials in closed form, at a point or on node columns: one
        (value, gradient, Hessian) per coordinate, as ``ad.jet2`` reads
        them.  The values are ``ambient(0, coords)``'s, bit for bit, from
        the same q and d.  Each Hessian is a ``tensors.Symmetric``: an
        entry is formed on its first read, its (j, k) and (k, j) one
        object, so a trace that skips an entry never forms it.

        With d = r^2 + q and u = 1/d: d_j u = -2 x_j u^2 and
        d_j d_k u = 8 x_j x_k u^3 - 2 delta_jk u^2.  a_i = 2 r^2 x_i u, so
        d_j a_i = 2 r^2 (delta_ij u + x_i d_j u) and d_j d_k a_i =
        2 r^2 (delta_ij d_k u + delta_ik d_j u + x_i d_j d_k u); the last
        coordinate r (q - r^2) / d = r - 2 r^3 u has -2 r^3 times the
        partials of u.  A Kronecker delta's zero is a structural zero."""
        r, n = self.radius, len(coords)
        q = sum(c * c for c in coords)
        d = r * r + q
        values = self._embedding(coords, q, d)
        u = 1.0 / d
        u2 = u * u
        du = [-2.0 * u2 * x for x in coords]
        eight_u3 = 8.0 * u2 * u
        cubic = [eight_u3 * x for x in coords]
        ddu = Symmetric(n, lambda j, k: ad.minus(cubic[j] * coords[k], 2.0 * u2 if j == k else 0.0))
        s, t = 2.0 * r * r, -2.0 * r**3

        def hessian(i, x):
            return Symmetric(n, lambda j, k: s * ad.plus(
                ad.plus(du[k] if j == i else 0.0, du[j] if k == i else 0.0), x * ddu[j][k]))

        jets = [
            (values[i], [s * ad.plus(u if j == i else 0.0, x * du[j]) for j in range(n)], hessian(i, x))
            for i, x in enumerate(coords)
        ]
        return jets + [(values[n], [t * d for d in du], Symmetric(n, lambda j, k: t * ddu[j][k]))]


class CatalogEntry(Record):
    name: str
    metric: MetricField
    charts: tuple[ChartDomain, ...]
    compact: bool = False
    closed_forms: Optional[ClosedForms] = None
    atlas: Optional[SphereAtlas] = None
    notes: str = ""

    @property
    def dim(self) -> int:
        return self.metric.domain.dim


# -- metric constructors -----------------------------------------------------

def _flat_metric(dim: int, label: str) -> MetricField:
    dom = ChartDomain(dim, ((-1.0, 1.0),) * dim, label)
    eye = [[1.0 if i == j else 0.0 for j in range(dim)] for i in range(dim)]
    return MetricField(lambda x, eye=eye: eye, dom, name=label)


def _sphere_metric(radius: float, label: str, dim: int = 3) -> MetricField:
    half = SPHERE_BOX_HALF * radius
    dom = ChartDomain(dim, ((-half, half),) * dim, label)
    r2 = radius * radius

    def g(x):
        q = sum(c * c for c in x)
        root = 2.0 * r2 / (r2 + q)
        conf = root * root
        return [[conf if i == j else 0.0 for j in range(dim)] for i in range(dim)]

    return MetricField(g, dom, name=label)


def _hyperbolic_metric(label: str) -> MetricField:
    dom = ChartDomain(3, ((-1.0, 1.0), (-1.0, 1.0), (0.5, 2.0)), label)

    def g(x):
        z2 = x[2] * x[2]
        inv = 1.0 / z2
        return [[inv if i == j else 0.0 for j in range(3)] for i in range(3)]

    return MetricField(g, dom, name=label)


def _cylinder_metric(label: str) -> MetricField:
    """Unit round 2-sphere (stereographic chart) times a line coordinate."""
    half = SPHERE_BOX_HALF
    dom = ChartDomain(3, ((-half, half), (-half, half), (-1.0, 1.0)), label)

    def g(x):
        q = x[0] * x[0] + x[1] * x[1]
        root = 2.0 / (1.0 + q)
        conf = root * root
        return [[conf, 0.0, 0.0], [0.0, conf, 0.0], [0.0, 0.0, 1.0]]

    return MetricField(g, dom, name=label)


def _cylinder_ricci(x):
    q = x[0] * x[0] + x[1] * x[1]
    conf = (2.0 / (1.0 + q)) ** 2
    return [[conf, 0.0, 0.0], [0.0, conf, 0.0], [0.0, 0.0, 0.0]]


# -- fields used by instances -------------------------------------------------

def gaussian_potential(domain: ChartDomain, lam: float) -> ScalarField:
    return ScalarField(
        lambda x, lam=lam: -0.5 * lam * sum(c * c for c in x),
        domain,
        name=f"gaussian(lam={lam:g})",
    )


def position_field(domain: ChartDomain) -> VectorField:
    return VectorField(lambda x: list(x), domain, name="position")


def coordinate_potential(domain: ChartDomain, axis: int) -> ScalarField:
    return ScalarField(lambda x, a=axis: x[a], domain, name=f"coord-{axis}")


def random_polynomial_field(domain: ChartDomain, seed: int) -> ScalarField:
    """Seeded random cubic polynomial, smooth everywhere, for property tests."""
    return random_polynomial_group(domain, [seed], None)


def random_polynomial_group(domain: ChartDomain, seeds, sizes) -> ScalarField:
    """Seeded random cubic polynomials, one per seed, as one field on their
    points laid end to end (see ``_grouped``)."""
    n = domain.dim
    monos = [()]
    for a in range(n):
        monos.append((a,))
        for b in range(a, n):
            monos.append((a, b))
            for c in range(b, n):
                monos.append((a, b, c))
    tables = [seeded_uniform(seed, [(-1.0, 1.0)] * len(monos), 1)[0].tolist() for seed in seeds]

    def polynomial(coefs):
        def f(x):
            total = 0.0
            for coef, mono in zip(coefs, monos):
                term = coef
                for a in mono:
                    term = term * x[a]
                total = total + term
            return total

        return f

    label = ",".join(str(seed) for seed in seeds)
    return ScalarField(_grouped(polynomial, tables, sizes), domain, name=f"poly(seed={label})")


def _grouped(build: Callable, tables, sizes) -> Callable:
    """``build(coefficients)`` for members laid end to end over their points:
    member k with coefficient table ``tables[k]`` on ``sizes[k]`` points.  A
    lone member's coefficients stay floats and its function takes any
    points (``sizes`` is not read).  For several, each coefficient is a
    per-point column, member k's value repeated over its points, so one
    evaluation gives every member's values.  Coordinates whose length is not
    the points' total then raise ValueError: numpy alone would broadcast a
    1-point chunk over the columns."""
    if len(tables) == 1:
        return build(tables[0])
    fn = build(np.repeat(np.stack(tables, axis=-1), sizes, axis=-1))
    total = sum(sizes)

    def on_group(x):
        x = list(x)
        lengths = {np.shape(ad.value_of(c)) for c in x} - {()}
        if lengths != {(total,)}:
            raise ValueError(f"a group takes columns of {total} points, got shapes {sorted(lengths)}")
        return fn(x)

    return on_group


# -- entry builders ------------------------------------------------------------

@lru_cache(maxsize=None)
def flat_entry(dim: int = 3) -> CatalogEntry:
    name = f"flat-r{dim}"
    metric = _flat_metric(dim, name)
    return CatalogEntry(
        name=name,
        metric=metric,
        charts=(metric.domain,),
        closed_forms=ClosedForms(einstein_factor=0.0, scalar=0.0),
        notes="Euclidean space, single Cartesian chart",
    )


@lru_cache(maxsize=None)
def gaussian_entry() -> CatalogEntry:
    metric = _flat_metric(3, "gaussian")
    return CatalogEntry(
        name="gaussian",
        metric=metric,
        charts=(metric.domain,),
        closed_forms=ClosedForms(einstein_factor=0.0, scalar=0.0),
        notes="flat space with quadratic potential; a soliton for every lam",
    )


@lru_cache(maxsize=None)
def sphere_entry(radius: float = 1.0, name: Optional[str] = None) -> CatalogEntry:
    name = name or (f"sphere-{radius:g}" if radius != 1.0 else "unit-s3")
    north = _sphere_metric(radius, f"{name}/north")
    south = _sphere_metric(radius, f"{name}/south")
    factor = 2.0 / (radius * radius)
    return CatalogEntry(
        name=name,
        metric=north,
        charts=(north.domain, south.domain),
        compact=True,
        closed_forms=ClosedForms(
            einstein_factor=factor,
            scalar=6.0 / (radius * radius),
            volume=2.0 * math.pi**2 * radius**3,
        ),
        atlas=SphereAtlas(radius),
        notes="round 3-sphere on two antipodal stereographic charts",
    )


@lru_cache(maxsize=None)
def hyperbolic_entry() -> CatalogEntry:
    metric = _hyperbolic_metric("h3")
    return CatalogEntry(
        name="h3",
        metric=metric,
        charts=(metric.domain,),
        closed_forms=ClosedForms(einstein_factor=-2.0, scalar=-6.0),
        notes="hyperbolic space, upper half-space model",
    )


@lru_cache(maxsize=None)
def cylinder_entry() -> CatalogEntry:
    metric = _cylinder_metric("s2xr")
    return CatalogEntry(
        name="s2xr",
        metric=metric,
        charts=(metric.domain,),
        closed_forms=ClosedForms(scalar=2.0, ricci_fn=_cylinder_ricci),
        notes="unit 2-sphere times a line; potential is the line coordinate",
    )


def make_perturbed_flat(epsilon: float, seed: int, dim: int = 3) -> CatalogEntry:
    """g = delta + epsilon * h with h a seeded symmetric polynomial field,
    as a catalog entry.

    Positive definiteness is verified on 200 points sampled from seed + 1;
    failure is a hard NotSPD error (regenerate with smaller epsilon).
    `verify` builds its metrics with ``perturbed_flat_group`` instead and
    checks each on the points it is verified on.
    """
    metric = perturbed_flat_group(epsilon, [seed], None, dim)
    entry = CatalogEntry(
        name="perturbed-flat",
        metric=metric,
        charts=(metric.domain,),
        notes=metric.name,
    )
    metric.require_spd(sample_points(metric.domain, 200, seed=seed + 1))
    return entry


def perturbed_flat_group(epsilon: float, seeds, sizes, dim: int = 3) -> MetricField:
    """The metrics of ``make_perturbed_flat(epsilon, seed, dim)``, one per
    seed, as one metric on their points laid end to end (see ``_grouped``).
    Positive definiteness is left to the caller (``MetricField.require_spd``
    on each member's points)."""
    if epsilon < 0.0:
        raise ValueError("epsilon must be nonnegative")
    label = ",".join(str(seed) for seed in seeds)
    name = f"perturbed-flat(eps={epsilon:g},seed={label})"
    dom = ChartDomain(dim, ((-1.0, 1.0),) * dim, name)
    # Monomial basis 1, x_a, x_a x_b (a <= b), shared by all components;
    # a table holds one row per component i <= j, in the same order.
    quad_pairs = [(a, b) for a in range(dim) for b in range(a, dim)]
    n_mono = 1 + dim + len(quad_pairs)
    tables = [(epsilon * seeded_uniform(seed, [(-1.0, 1.0)] * n_mono, len(quad_pairs))).tolist() for seed in seeds]

    def metric(coefs):
        def g(x):
            monos = [1.0]
            monos.extend(x)
            for a, b in quad_pairs:
                monos.append(x[a] * x[b])
            base = [[0.0] * dim for _ in range(dim)]
            for (i, j), c in zip(quad_pairs, coefs):
                v = sum(c[m] * monos[m] for m in range(n_mono))
                base[i][j] = v
                base[j][i] = v
            for i in range(dim):
                base[i][i] = base[i][i] + 1.0
            return base

        return g

    return MetricField(_grouped(metric, tables, sizes), dom, name=name)


# -- verify cases -----------------------------------------------------------------

class CaseSpec(Record):
    """A named verification case: one row builds its soliton instance.

    ``field(domain, params)`` gives the potential of a gradient case, or
    the vector field and its concircular factor ``phi`` of a concircular
    one.  The universal case has no field, and so no instance builder.
    """

    name: str
    entry: Callable[[], CatalogEntry]
    defaults: SolitonParams
    field: Optional[Callable] = None
    # Names of the case-specific rows of the `verify` check table it reports.
    checks: tuple[str, ...] = ()

    @property
    def universal_only(self) -> bool:
        return self.field is None

    @property
    def build(self) -> Optional[Callable[[SolitonParams], SolitonInstance]]:
        return None if self.universal_only else self._instance

    def _instance(self, params: SolitonParams) -> SolitonInstance:
        """The instance on the entry's metric: a gradient case is GRYS, or
        GEN_GRYS when mu != 0, and a concircular case is RYS."""
        entry = self.entry()
        field = self.field(entry.metric.domain, params)
        if isinstance(field, ScalarField):
            kind = SolitonKind.GEN_GRYS if params.mu != 0.0 else SolitonKind.GRYS
            data = {"potential": field}
        else:
            kind = SolitonKind.RYS
            data = {"vector_field": field[0], "phi": field[1]}
        return SolitonInstance(params, entry.metric, kind, compact=entry.compact, entry=entry, **data)


def _constant_potential(domain: ChartDomain, params: SolitonParams) -> ScalarField:
    return constant_scalar(domain, 0.0)


def _line_potential(domain: ChartDomain, params: SolitonParams) -> ScalarField:
    return coordinate_potential(domain, 2)


_PRODUCT_CHECKS = ("product-affine-hessian", "product-grad-constancy")

_CASES = {
    spec.name: spec
    for spec in (
        # Hess f = -lam g on flat space: a soliton for every lam.
        CaseSpec("gaussian", gaussian_entry, SolitonParams(1.0, 0.0, 2.0, 0.0),
                 lambda domain, params: gaussian_potential(domain, params.lam)),
        # Unit round 3-sphere: balanced at lam = 3 beta - 2 alpha.
        CaseSpec("einstein-s3", lambda: sphere_entry(1.0), SolitonParams(1.0, 0.0, -2.0, 0.0),
                 _constant_potential),
        # Hyperbolic upper half-space: balanced at lam = 2 alpha - 3 beta.
        CaseSpec("einstein-h3", hyperbolic_entry, SolitonParams(1.0, 0.0, 2.0, 0.0),
                 _constant_potential),
        # Sphere-line product with the line coordinate: needs alpha = 0, lam = beta.
        CaseSpec("s2xr", cylinder_entry, SolitonParams(0.0, 1.0, 1.0, 0.0),
                 _line_potential, checks=_PRODUCT_CHECKS),
        # Flat space as plane times line: steady and Ricci-flat at lam = 0.
        CaseSpec("flat-product", lambda: flat_entry(3), SolitonParams(1.0, 0.0, 0.0, 0.0),
                 _line_potential, checks=_PRODUCT_CHECKS + ("steady-ricci-flat", "steady-lambda")),
        # The position field is concircular with factor 1: a soliton at lam = -1.
        CaseSpec("concircular-flat", lambda: flat_entry(3), SolitonParams(1.0, 0.0, -1.0, 0.0),
                 lambda domain, params: (position_field(domain), 1.0)),
        # Seeded random near-flat metrics for the universal identity suite.
        CaseSpec("perturbed-flat", lambda: make_perturbed_flat(1e-2, 42),
                 SolitonParams(1.0, 0.0, 0.0, 0.0)),
    )
}

gaussian_instance = _CASES["gaussian"].build
einstein_sphere_instance = _CASES["einstein-s3"].build
einstein_hyperbolic_instance = _CASES["einstein-h3"].build
cylinder_instance = _CASES["s2xr"].build
flat_product_instance = _CASES["flat-product"].build
concircular_flat_instance = _CASES["concircular-flat"].build


def verify_cases() -> dict[str, CaseSpec]:
    """The verify cases by name, in report order."""
    return dict(_CASES)


@lru_cache(maxsize=1)
def _entries() -> tuple[CatalogEntry, ...]:
    return (
        flat_entry(3),
        flat_entry(4),
        gaussian_entry(),
        sphere_entry(1.0),
        sphere_entry(0.5),
        sphere_entry(2.0),
        hyperbolic_entry(),
        cylinder_entry(),
        make_perturbed_flat(1e-2, 42),
    )


def catalog_entries() -> list[CatalogEntry]:
    """The stable entry list; names double as CLI identifiers."""
    return list(_entries())


def get_entry(name: str) -> CatalogEntry:
    for entry in _entries():
        if entry.name == name:
            return entry
    raise KeyError(f"unknown catalog entry '{name}'")
