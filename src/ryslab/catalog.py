"""Closed-form example geometries and soliton instances.

Every positive test in the package is anchored here: flat space, round
spheres on two antipodal stereographic charts, hyperbolic upper
half-space, a product cylinder and seeded perturbed-flat random
metrics.  Entries are immutable after construction and their
``closed_forms`` must agree with the curvature pipeline; that agreement
is the module's defining contract.  Soliton instances come from one
registry, ``verify_cases``: each case builds its instance on its entry's
metric from a parameter set (``*_instance(params)``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .geometry import (
    ChartDomain,
    MetricField,
    ScalarField,
    VectorField,
    constant_scalar,
    sample_points,
)
from .soliton import SolitonInstance, SolitonKind, SolitonParams

# Stereographic charts keep all sampled coordinates within radius ~2 of
# the origin (the projection point sits at infinity); the quadrature
# bump lives inside radius 1.5r.
SPHERE_BOX_HALF = 1.15
BUMP_INNER = 2.0 / 3.0
BUMP_OUTER = 1.5


@dataclass(frozen=True)
class ClosedForms:
    """Known exact curvature data for an entry, when available."""

    einstein_factor: Optional[float] = None   # Ric = factor * g
    scalar: Optional[float] = None
    volume: Optional[float] = None
    ricci_fn: Optional[Callable] = None       # point -> n x n matrix


@dataclass(frozen=True)
class SphereAtlas:
    """Two antipodal stereographic charts joined by coordinate inversion."""

    radius: float

    def transition(self, coords):
        """Map chart-0 coordinates to chart-1 coordinates (an involution)."""
        r2 = sum(c * c for c in coords)
        s = self.radius * self.radius / r2
        return [s * c for c in coords]

    def ambient(self, chart: int, coords):
        """Embedding coordinates in R^{n+1}; both charts agree on overlap."""
        r = self.radius
        q = sum(c * c for c in coords)
        denom = r * r + q
        head = [2.0 * r * r * c / denom for c in coords]
        last = r * (q - r * r) / denom if chart == 0 else r * (r * r - q) / denom
        return head + [last]


@dataclass(frozen=True)
class CatalogEntry:
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


def random_polynomial_field(
    domain: ChartDomain, seed: int, degree: int = 3, scale: float = 1.0
) -> ScalarField:
    """Seeded random polynomial, smooth everywhere, for property tests."""
    rng = np.random.default_rng(seed)
    n = domain.dim
    monos = [()]
    for a in range(n):
        monos.append((a,))
        for b in range(a, n):
            monos.append((a, b))
            if degree >= 3:
                for c in range(b, n):
                    monos.append((a, b, c))
    coefs = [float(v) for v in rng.uniform(-scale, scale, size=len(monos))]

    def f(x):
        total = 0.0
        for coef, mono in zip(coefs, monos):
            term = coef
            for a in mono:
                term = term * x[a]
            total = total + term
        return total

    return ScalarField(f, domain, name=f"poly(seed={seed})")


# -- entry builders ------------------------------------------------------------

@lru_cache(maxsize=None)
def flat_entry(dim: int = 3) -> CatalogEntry:
    name = f"flat-r{dim}"
    metric = _flat_metric(dim, name)
    return CatalogEntry(
        name=name,
        metric=metric,
        charts=(metric.domain,),
        compact=False,
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
        compact=False,
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
        compact=False,
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
        compact=False,
        closed_forms=ClosedForms(scalar=2.0, ricci_fn=_cylinder_ricci),
        notes="unit 2-sphere times a line; potential is the line coordinate",
    )


def make_perturbed_flat(epsilon: float, seed: int, dim: int = 3) -> CatalogEntry:
    """g = delta + epsilon * h with h a seeded symmetric polynomial field.

    Positive definiteness is verified on the full sample set; failure is
    a hard NotSPD error (regenerate with smaller epsilon).
    """
    if epsilon < 0.0:
        raise ValueError("epsilon must be nonnegative")
    name = f"perturbed-flat(eps={epsilon:g},seed={seed})"
    dom = ChartDomain(dim, ((-1.0, 1.0),) * dim, name)
    rng = np.random.default_rng(seed)
    # Monomial basis 1, x_a, x_a x_b (a <= b), shared by all components.
    quad_pairs = [(a, b) for a in range(dim) for b in range(a, dim)]
    n_mono = 1 + dim + len(quad_pairs)
    coefs = {}
    for i in range(dim):
        for j in range(i, dim):
            coefs[(i, j)] = [
                epsilon * float(v) for v in rng.uniform(-1, 1, size=n_mono)
            ]

    def g(x):
        monos = [1.0]
        monos.extend(x)
        for a, b in quad_pairs:
            monos.append(x[a] * x[b])
        base = [[0.0] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                c = coefs[(i, j)]
                v = sum(c[m] * monos[m] for m in range(n_mono))
                base[i][j] = v
                base[j][i] = v
            base[i][i] = base[i][i] + 1.0
        return base

    metric = MetricField(g, dom, name=name)
    entry = CatalogEntry(
        name="perturbed-flat",
        metric=metric,
        charts=(dom,),
        compact=False,
        notes=name,
    )
    metric.require_spd(sample_points(dom, 200, seed=seed + 1))
    return entry


# -- soliton instance builders --------------------------------------------------

def _gradient_kind(params: SolitonParams) -> SolitonKind:
    return SolitonKind.GEN_GRYS if params.mu != 0.0 else SolitonKind.GRYS


def gaussian_instance(params: SolitonParams) -> SolitonInstance:
    entry = gaussian_entry()
    return SolitonInstance(
        params=params,
        metric=entry.metric,
        kind=_gradient_kind(params),
        potential=gaussian_potential(entry.metric.domain, params.lam),
        compact=False,
        note="flat Gaussian family: Hess f = -lam g, soliton for every lam",
        entry=entry,
    )


def einstein_sphere_instance(params: SolitonParams) -> SolitonInstance:
    entry = sphere_entry(1.0)
    return SolitonInstance(
        params=params,
        metric=entry.metric,
        kind=_gradient_kind(params),
        potential=constant_scalar(entry.metric.domain, 0.0),
        compact=True,
        note="unit round 3-sphere, constant potential; balanced at lam = 3*beta - 2*alpha",
        entry=entry,
    )


def einstein_hyperbolic_instance(params: SolitonParams) -> SolitonInstance:
    entry = hyperbolic_entry()
    return SolitonInstance(
        params=params,
        metric=entry.metric,
        kind=_gradient_kind(params),
        potential=constant_scalar(entry.metric.domain, 0.0),
        compact=False,
        note="hyperbolic space, constant potential; balanced at lam = 2*alpha - 3*beta",
        entry=entry,
    )


def cylinder_instance(params: SolitonParams) -> SolitonInstance:
    entry = cylinder_entry()
    return SolitonInstance(
        params=params,
        metric=entry.metric,
        kind=_gradient_kind(params),
        potential=coordinate_potential(entry.metric.domain, 2),
        compact=False,
        note="product cylinder with line-coordinate potential; needs alpha = 0, lam = beta",
        entry=entry,
    )


def flat_product_instance(params: SolitonParams) -> SolitonInstance:
    entry = flat_entry(3)
    return SolitonInstance(
        params=params,
        metric=entry.metric,
        kind=_gradient_kind(params),
        potential=coordinate_potential(entry.metric.domain, 2),
        compact=False,
        note="flat space split as plane times line; steady Ricci-flat at lam = 0",
        entry=entry,
    )


def concircular_flat_instance(params: SolitonParams) -> SolitonInstance:
    entry = flat_entry(3)
    return SolitonInstance(
        params=params,
        metric=entry.metric,
        kind=SolitonKind.RYS,
        vector_field=position_field(entry.metric.domain),
        phi=1.0,
        compact=False,
        note="position vector field is concircular with factor 1; soliton at lam = -1",
        entry=entry,
    )


# -- registries -------------------------------------------------------------------

@dataclass(frozen=True)
class CaseSpec:
    """A named verification case: an entry plus an instance constructor."""

    name: str
    entry: Callable[[], CatalogEntry]
    build: Optional[Callable[[SolitonParams], SolitonInstance]]
    defaults: SolitonParams
    description: str
    universal_only: bool = False
    # Names of the case-specific rows of the `verify` check table it reports.
    checks: tuple[str, ...] = ()


_PRODUCT_CHECKS = ("product-affine-hessian", "product-grad-constancy")


def verify_cases() -> dict[str, CaseSpec]:
    return {
        "gaussian": CaseSpec(
            "gaussian",
            gaussian_entry,
            gaussian_instance,
            SolitonParams(1.0, 0.0, 2.0, 0.0),
            "Gaussian potential on flat space",
        ),
        "einstein-s3": CaseSpec(
            "einstein-s3",
            lambda: sphere_entry(1.0),
            einstein_sphere_instance,
            SolitonParams(1.0, 0.0, -2.0, 0.0),
            "constant potential on the unit round 3-sphere",
        ),
        "einstein-h3": CaseSpec(
            "einstein-h3",
            hyperbolic_entry,
            einstein_hyperbolic_instance,
            SolitonParams(1.0, 0.0, 2.0, 0.0),
            "constant potential on hyperbolic upper half-space",
        ),
        "s2xr": CaseSpec(
            "s2xr",
            cylinder_entry,
            cylinder_instance,
            SolitonParams(0.0, 1.0, 1.0, 0.0),
            "sphere-line product with affine potential",
            checks=_PRODUCT_CHECKS,
        ),
        "flat-product": CaseSpec(
            "flat-product",
            lambda: flat_entry(3),
            flat_product_instance,
            SolitonParams(1.0, 0.0, 0.0, 0.0),
            "flat plane-times-line split, steady Ricci-flat",
            checks=_PRODUCT_CHECKS + ("steady-ricci-flat", "steady-lambda"),
        ),
        "concircular-flat": CaseSpec(
            "concircular-flat",
            lambda: flat_entry(3),
            concircular_flat_instance,
            SolitonParams(1.0, 0.0, -1.0, 0.0),
            "position field on flat space, concircular factor 1",
        ),
        "perturbed-flat": CaseSpec(
            "perturbed-flat",
            lambda: make_perturbed_flat(1e-2, 42),
            None,
            SolitonParams(1.0, 0.0, 0.0, 0.0),
            "seeded random near-flat metrics for the universal identity suite",
            universal_only=True,
        ),
    }


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
