"""Charts, points, and smooth fields on open boxes in R^n.

Every geometric object in the package is evaluated on a ``ChartDomain``,
an open coordinate box.  Fields are closed-form component functions
written against the polymorphic math wrappers in :mod:`ryslab.ad`, so a
single definition serves plain evaluation and Taylor-mode
differentiation.  All evaluations are pure; the module is safe for
concurrent read-only use.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from . import ad
from .errors import NotSPD, OrderTooHigh, StencilOutOfDomain
from .records import Record

# Finite-difference base step is this fraction of the coordinate width;
# the stencil margin keeps 5 such steps clear of every boundary so both
# differentiation backends stay inside the chart.
FD_STEP_FRACTION = 1e-2
STENCIL_STEPS = 5

# Marks a key not yet in a memo (a stored value may be None).
_MISSING = object()


class ChartDomain(Record):
    """Open box in R^n with per-coordinate bounds."""

    dim: int
    bounds: tuple[tuple[float, float], ...]
    label: str = "chart"

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"chart dimension must be >= 2, got {self.dim}")
        if len(self.bounds) != self.dim:
            raise ValueError("bounds length must equal dim")
        for lo, hi in self.bounds:
            if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
                raise ValueError(f"invalid interval ({lo}, {hi})")

    def width(self, i: int) -> float:
        lo, hi = self.bounds[i]
        return hi - lo

    def fd_step(self, i: int) -> float:
        return FD_STEP_FRACTION * self.width(i)

    def fd_steps(self) -> list[float]:
        return [self.fd_step(i) for i in range(self.dim)]

    def margin(self, i: int) -> float:
        return STENCIL_STEPS * self.fd_step(i)

    def contains_with_margin(self, coords: Sequence[float]) -> bool:
        if len(coords) != self.dim:
            return False
        for i, x in enumerate(coords):
            lo, hi = self.bounds[i]
            m = self.margin(i)
            if not (lo + m < x < hi - m):
                return False
        return True

    def require_interior(self, coords: Sequence[float]) -> None:
        if not self.contains_with_margin(coords):
            raise StencilOutOfDomain(
                f"point {tuple(coords)} is not interior to chart "
                f"'{self.label}' with stencil margin"
            )


class ChartPoint(Record):
    """Coordinates of a point in some chart."""

    coords: tuple[float, ...]

    def __post_init__(self):
        if not all(math.isfinite(c) for c in self.coords):
            raise ValueError(f"non-finite coordinates {self.coords}")

    def __len__(self):
        return len(self.coords)


class PointBatch:
    """Points of one chart evaluated together, as coordinate columns.

    ``columns[i]`` holds coordinate i of every point, a float array of
    shape (m,): the generic curvature core takes such columns in place of
    floats.  Every check that takes a point also takes a batch; it then
    runs once over all points and returns arrays of shape (m,).
    Quantities that several checks need (the metric inverse, Ricci, the
    defining residual, the curvature data) are kept in ``memo``, so each is
    computed once per batch.  ``batch[k]`` builds point k as a ChartPoint
    when something reads it.

    Built from plain floats, the batch is a single point: its quantities
    then stay floats, which is how the per-point functions run the same
    code as the batch.  ``PointBatch.of(p)`` wraps one point so, and
    ``PointBatch.of_points(points)`` a list of them.
    """

    def __init__(self, columns):
        """``columns``: float arrays of one shape (m,) with m >= 1, or the
        plain floats of a single point; every coordinate finite."""
        columns = list(columns)
        if columns and all(isinstance(c, float) for c in columns):
            self.shape = ()
        elif columns and all(isinstance(c, np.ndarray) and c.dtype.kind == "f" for c in columns):
            self.shape = columns[0].shape
        else:
            raise ValueError("a point batch takes (m,) float columns or the floats of one point")
        if len(self.shape) > 1 or 0 in self.shape or any(np.shape(c) != self.shape for c in columns):
            raise ValueError(f"a point batch takes columns of one shape (m,), m >= 1, got {[np.shape(c) for c in columns]}")
        if not np.isfinite(columns).all():
            raise ValueError("non-finite coordinates in a point batch")
        self.columns = columns
        self._memo = {}

    @classmethod
    def of(cls, p) -> "PointBatch":
        """``p`` itself if it is a batch, else the one point ``p`` (a
        ChartPoint or a coordinate sequence) as a batch."""
        return p if isinstance(p, PointBatch) else cls([float(c) for c in getattr(p, "coords", p)])

    @classmethod
    def of_points(cls, points) -> "PointBatch":
        """``points`` itself if it is a batch, else a batch of the listed
        points (ChartPoints or coordinate sequences)."""
        if isinstance(points, PointBatch):
            return points
        return cls(np.array([getattr(p, "coords", p) for p in points], dtype=float).T.copy())

    def __len__(self):
        return self.shape[0] if self.shape else 1

    def __getitem__(self, k) -> ChartPoint:
        """Point k of the batch (IndexError past the last)."""
        if self.shape:
            return ChartPoint(tuple([float(c[k]) for c in self.columns]))
        range(1)[k]  # the one point, or IndexError
        return ChartPoint(tuple(self.columns))

    def memo(self, key, build):
        """The value stored under ``key``, computed by ``build()`` on first use.
        One lookup on a hit, a lookup and a store on a miss."""
        value = self._memo.get(key, _MISSING)
        if value is _MISSING:
            value = self._memo[key] = build()
        return value

    def values(self, v):
        """``v`` as a float for a single point, else as an array of shape
        (m,); a constant (plain float) is broadcast to every point."""
        v = ad.value_of(v)
        if not self.shape:
            return float(v)
        return np.array(np.broadcast_to(np.asarray(v, dtype=float), self.shape))

    def matrix(self, m) -> np.ndarray:
        """Float values of a nested-list matrix: shape (n, n) for a single
        point, (n, n, m) for a batch, constant entries broadcast."""
        return stack(m, self.shape)


def stack(m, shape=None) -> np.ndarray:
    """Float values of a nested-list matrix whose entries are floats, lifted
    numbers or (m,) columns, as an array of shape (n, n) + ``shape``.  By
    default ``shape`` is that of the entries, so a matrix with one column
    entry gives (n, n, m) with its constant entries broadcast."""
    vals = [[np.asarray(ad.value_of(v), dtype=float) for v in row] for row in m]
    if shape is None:
        shape = np.broadcast_shapes(*(v.shape for row in vals for v in row))
    return np.array([[np.broadcast_to(v, shape) for v in row] for row in vals])


class ScalarField(Record):
    """Smooth real function on a chart, differentiable to order 4."""

    fn: Callable
    domain: ChartDomain
    name: str = "scalar"

    def __call__(self, coords):
        return self.fn(list(coords))


class VectorField(Record):
    """Contravariant components X^i on a chart."""

    fn: Callable
    domain: ChartDomain
    name: str = "vector"

    def __call__(self, coords):
        v = self.fn(list(coords))
        if len(v) != self.domain.dim:
            raise ValueError(
                f"vector field '{self.name}' returned {len(v)} components "
                f"on a dim-{self.domain.dim} chart"
            )
        return list(v)


class OneFormField(Record):
    """Covariant components eta_i on a chart."""

    fn: Callable
    domain: ChartDomain
    name: str = "one-form"

    def __call__(self, coords):
        v = self.fn(list(coords))
        if len(v) != self.domain.dim:
            raise ValueError(
                f"one-form '{self.name}' returned {len(v)} components "
                f"on a dim-{self.domain.dim} chart"
            )
        return list(v)


class MetricField(Record):
    """Symmetric positive-definite metric components g_ij on a chart.

    Evaluation symmetrizes the raw component matrix, so g_ij == g_ji
    holds by construction.  Positive definiteness is a sampled-point
    contract checked by :meth:`require_spd`.
    """

    fn: Callable
    domain: ChartDomain
    name: str = "metric"

    def matrix(self, coords):
        m = self.fn(list(coords))
        n = self.domain.dim
        return [
            [(m[i][j] + m[j][i]) * 0.5 for j in range(n)] for i in range(n)
        ]

    __call__ = matrix

    def matrix_np(self, coords) -> np.ndarray:
        return np.array(self.matrix(coords), dtype=float)

    def require_spd(self, points) -> None:
        """Hard error unless g is positive definite at every given point
        (a list of points or a PointBatch, evaluated in one pass)."""
        batch = PointBatch.of_points(points)
        w = np.linalg.eigvalsh(np.moveaxis(batch.matrix(self.matrix(batch.columns)), -1, 0))
        bad = np.flatnonzero(w.min(axis=1) <= 0.0)
        if bad.size:
            k = int(bad[0])
            raise NotSPD(
                f"metric '{self.name}' is not positive definite at "
                f"{batch[k].coords}: eigenvalues {w[k]}"
            )


def partial_derivative(field: ScalarField, p, multi_index, backend: str = "dual") -> float:
    """Mixed partial of a scalar field at an interior point.

    ``multi_index`` lists coordinate indices, one per differentiation,
    total order at most 4; the empty index returns the plain value.  The
    primary backend is the hyper-dual lift of ``ad.derive``; ``backend='fd'``
    selects the Richardson central-difference cross-check.
    """
    index = tuple(multi_index)
    if len(index) > ad.MAX_ORDER:
        raise OrderTooHigh(
            f"derivative order {len(index)} exceeds supported maximum {ad.MAX_ORDER}"
        )
    x = PointBatch.of(p).columns
    field.domain.require_interior(x)
    for i in index:
        if not 0 <= i < field.domain.dim:
            raise ValueError(f"coordinate index {i} out of range")
    if backend == "dual":
        return float(ad.value_of(ad.derive(field.fn, x, index)))
    if backend == "fd":
        return float(ad.fd_derive(field.fn, x, index, field.domain.fd_steps()))
    raise ValueError(f"unknown backend '{backend}'")


def sample_points(domain: ChartDomain, count: int, seed: int) -> PointBatch:
    """Seeded uniform interior samples respecting the stencil margin, as
    one batch whose columns are one contiguous (dim, count) array.

    Deterministic for a fixed (domain, count, seed) triple.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    lows = np.array([lo + domain.margin(i) for i, (lo, _) in enumerate(domain.bounds)])
    highs = np.array([hi - domain.margin(i) for i, (_, hi) in enumerate(domain.bounds)])
    raw = rng.uniform(lows, highs, size=(count, domain.dim))
    return PointBatch(raw.T.copy())


def constant_scalar(domain: ChartDomain, value: float, name: str = "const") -> ScalarField:
    return ScalarField(lambda x, v=value: v, domain, name)
