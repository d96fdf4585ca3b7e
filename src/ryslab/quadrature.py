"""Integration over compact catalog entries with the Riemannian volume form.

Compact entries carry a two-chart stereographic atlas joined by
coordinate inversion.  A smooth partition of unity built from the
standard exp(-1/(1-t^2)) mollifier splits the integral between the
charts; each chart contributes a tensor-product Gauss-Legendre sum over
the box enclosing its bump support; the charts share one weight array.
Every integral is taken in one pass over the grid's node blocks
(``_integrals``).  A block's g^{ij} and Gamma come from
``curvature.connection`` and its Laplacians from ``laplacian_from``; the
integral theorem checks read R, Ric, g^{-1}, grad f and Hess f off one
order-2 ``CurvatureData`` per block.  Every sum is correctly rounded
(``ExactSum``), so results do not depend on the order of the terms, nor
on how they are split, and are bit-reproducible.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np

from .ad import jet2, value_of
from .catalog import BUMP_INNER, BUMP_OUTER, CatalogEntry
from .curvature import CurvatureData, connection, curvature_data, laplacian_from
from .errors import DegenerateDenominator, NotCompact, NotSteady
from .geometry import MetricField, ScalarField, sample_points
from .identities import IdentityResidual, require_soliton
from .records import Record
from .soliton import SolitonInstance, SolitonKind
from .tensors import dot, mat_det, mat_vec, quadratic_form, sym2_norm_sq

MIN_RESOLUTION = 8

# ExactSum bins each term by its frexp exponent, from -1073 (the smallest
# subnormal, 2**-1074 = 0.5 * 2**-1073) to 1024.
_FREXP_MIN = -1073
# Adding and subtracting 1.5 * 2**79 rounds an integer below 2**53 in
# magnitude to the nearest multiple of 2**27, the float spacing near 2**79.
_SPLIT = 1.5 * 2.0**79
# Terms per float accumulation: a bin of either mantissa part sums exactly
# while it holds fewer than 2**27 terms.
_EXACT_SLICE = 2**25
# Terms per frexp pass: 64 KB arrays stay in cache and below malloc's mmap
# threshold, where whole-array temporaries cost a page fault per 4 KB.
_CHUNK = 8192


class ExactSum:
    """A correctly rounded running sum: ``add`` takes arrays of terms one
    after another, ``value`` is ``math.fsum`` of all of them.

    A long accumulator (Kulisch): each double is M * 2**(e - 53) with
    ``np.frexp``'s exponent e and an integer mantissa |M| < 2**53, split
    exactly into a high part, a multiple of 2**27 up to 2**53, and a low
    part of at most 2**26.  ``add`` sums each part per exponent with
    ``np.bincount``, ``_CHUNK`` terms at a time, into float bins that stay
    exact while they hold at most ``_EXACT_SLICE`` terms; then the bins are
    folded into one Python int N.  The bins span only the exponents the
    terms have reached, so that many sums held at once stay small.
    ``value`` rounds N / 2**(53 - _FREXP_MIN) once, half to even, by
    CPython's int division, as ``math.fsum`` rounds.  Nothing is rounded
    before the end, so how the terms are split between ``add`` calls
    changes no bit.

    Non-finite terms give ``math.fsum``'s result on them alone: nan, +-inf,
    or ValueError for inf - inf.  An exact zero is -0.0 only where
    ``math.fsum`` of the terms is (the sign differs between Python
    versions).  Unlike ``math.fsum``, an overflowing partial sum is no
    error, since the accumulator rounds nothing before the end:
    ``[1e308, 1e308, -1e308]`` sums to 1e308.  A sum beyond the largest
    double raises OverflowError.
    """

    def __init__(self):
        self._high, self._low = np.zeros(0), np.zeros(0)
        self._base = 0         # the frexp exponent of bin 0
        self._binned = 0       # terms in the float bins since the last fold
        self._total = 0        # the folded bins: N
        self._specials = set()  # the non-finite terms, one of each kind
        self._negative_zeros = None  # whether every finite term is -0.0 (None: no term yet)

    def add(self, values) -> None:
        x = np.ravel(np.asarray(values, dtype=float))
        start = 0
        while start < len(x):
            if self._binned == _EXACT_SLICE:
                self._fold()
            stop = min(start + _CHUNK, start + _EXACT_SLICE - self._binned, len(x))
            self._bin(x[start:stop])
            self._binned += stop - start
            start = stop

    def _bin(self, x: np.ndarray) -> None:
        finite = np.isfinite(x)
        if not finite.all():
            self._specials.update(v if math.isinf(v) else math.nan for v in x[~finite].tolist())
            x = x[finite]
        if not len(x):
            return
        if self._negative_zeros is not False:
            self._negative_zeros = not x.any() and bool(np.signbit(x).all())
        mantissa, exponent = np.frexp(x)
        mantissa *= 2.0**53
        high = mantissa + _SPLIT
        high -= _SPLIT
        mantissa -= high
        self._cover(int(exponent.min()), int(exponent.max()))
        exponent -= self._base
        self._high += np.bincount(exponent, weights=high, minlength=len(self._high))
        self._low += np.bincount(exponent, weights=mantissa, minlength=len(self._low))

    def _cover(self, lo: int, hi: int) -> None:
        """Widen the bins to hold the exponents lo..hi."""
        size = len(self._high)
        if size:
            if self._base <= lo and hi < self._base + size:
                return
            lo, hi = min(lo, self._base), max(hi, self._base + size - 1)
        high, low = np.zeros(hi - lo + 1), np.zeros(hi - lo + 1)
        start = self._base - lo
        high[start:start + size], low[start:start + size] = self._high, self._low
        self._base, self._high, self._low = lo, high, low

    def _fold(self) -> None:
        shift = self._base - _FREXP_MIN
        for b in np.flatnonzero((self._high != 0.0) | (self._low != 0.0)).tolist():
            self._total += (int(self._high[b]) + int(self._low[b])) << (b + shift)
        self._high[:] = 0.0
        self._low[:] = 0.0
        self._binned = 0

    def value(self) -> float:
        if self._specials:
            return math.fsum(self._specials)
        self._fold()
        if self._total == 0:
            return math.fsum([-0.0] if self._negative_zeros else [])
        return self._total / (1 << (53 - _FREXP_MIN))


def exact_sum(values) -> float:
    """The correctly rounded sum of ``values``, equal to ``math.fsum``
    (``ExactSum`` of one array)."""
    total = ExactSum()
    total.add(values)
    return total.value()


def _legval(x: np.ndarray, c: list) -> np.ndarray:
    """The Legendre series with coefficients ``c`` (at least 2) at x, by
    Clenshaw's recursion in the operation order of numpy's ``legval``."""
    c0, c1 = c[-2], c[-1]
    for nd in range(len(c) - 1, 1, -1):
        c0, c1 = c[nd - 2] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


def gauss_legendre(deg: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the deg-point Gauss-Legendre rule on [-1, 1]
    (deg >= 2): numpy 2.4.6's ``polynomial.legendre.leggauss(deg)``, bit
    for bit.  ``_legval`` follows that release's Clenshaw operation order;
    a numpy whose ``legval`` rounds in another order may differ from this
    rule in the last bit.

    The nodes are the eigenvalues of the symmetric Jacobi matrix of P_deg
    (Golub & Welsch 1969), polished by one Newton step; the weights come
    from P_deg' and P_{deg-1} at the nodes, scaled against overflow,
    symmetrised and normalised to sum 2."""
    scl = 1.0 / np.sqrt(2 * np.arange(deg) + 1)
    off = np.arange(1, deg) * scl[:-1] * scl[1:]
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    c = [0.0] * deg + [1.0]
    # P_deg' = sum of (2k + 1) P_k over k = deg - 1, deg - 3, ...
    dc = [float(2 * k + 1) if (deg - 1 - k) % 2 == 0 else 0.0 for k in range(deg)]
    df = _legval(x, dc)  # at the unpolished nodes, as numpy keeps it
    x = x - _legval(x, c) / df
    fm = _legval(x, c[1:])
    w = 1 / (fm / np.abs(fm).max() * (df / np.abs(df).max()))
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    return x, w * (2.0 / w.sum())


# 64-point Gauss-Legendre rule for the mollifier cumulative; the profile
# is smooth with flat endpoints, so this is accurate to rounding.
_MOLL_X, _MOLL_W = gauss_legendre(64)


def _mollifier(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ti * ti))
    return out


def _mollifier_cumulative(s: np.ndarray) -> np.ndarray:
    """integral of the mollifier over [-1, s], vectorized in s."""
    s = np.asarray(s, dtype=float)
    half = (s + 1.0) / 2.0
    # nodes[k, j] maps the 64-point rule onto [-1, s_k]
    nodes = -1.0 + np.outer(half, _MOLL_X + 1.0)
    vals = _mollifier(nodes)
    return vals @ _MOLL_W * half


_MOLL_TOTAL = float(_mollifier_cumulative(np.array([1.0]))[0])


def bump_profile(r: np.ndarray, inner: float, outer: float) -> np.ndarray:
    """Smooth step: 1 for r <= inner, 0 for r >= outer, mollifier ramp
    in between."""
    r = np.asarray(r, dtype=float)
    out = np.ones_like(r)
    out[r >= outer] = 0.0
    ramp = (r > inner) & (r < outer)
    if np.any(ramp):
        s = 2.0 * (r[ramp] - inner) / (outer - inner) - 1.0
        out[ramp] = 1.0 - _mollifier_cumulative(s) / _MOLL_TOTAL
    return out


class QuadratureGrid(Record):
    """Every chart's nodes and weights.

    Both stereographic charts share the metric's coordinate form and the
    symmetric partition, so the node coordinates, weights, g^{ij} and
    Gamma are held once for all charts.
    """

    chart_count: int
    weight: np.ndarray                # (m,) GL x jacobian x partition x sqrt(det g)
    partition: np.ndarray             # (m,) partition-of-unity weight alone
    columns: tuple[np.ndarray, ...]   # node coordinate i of every node, shape (m,)
    metric: MetricField

    @cached_property
    def volume(self) -> float:
        """The integral of 1: every chart's weights, summed once per grid
        (the chart count times one chart's sum, exact for two charts)."""
        return self.chart_count * exact_sum(self.weight)

    @cached_property
    def _geometry(self):
        """g^{ij} and Gamma^k_ij at every node (``curvature.connection``)."""
        return connection(self.metric, self.columns)

    @property
    def inverse(self):
        """g^{ij} at every node."""
        return self._geometry[0]

    @property
    def christoffel(self):
        """Gamma^k_ij at every node."""
        return self._geometry[1]

    def blocks(self):
        """The grid in runs of ``_CHUNK`` nodes, as (node slice, grid of
        those nodes' columns and weights).  A block builds its own g^{ij}
        and Gamma on first use, on arrays that stay in cache."""
        m = len(self.weight)
        for start in range(0, m, _CHUNK):
            s = slice(start, min(start + _CHUNK, m))
            columns = tuple(x[s] for x in self.columns)
            yield s, self.replace(weight=self.weight[s], partition=self.partition[s], columns=columns)


# Grids by everything one is built from: (metric, atlas, chart count,
# resolution).  The entry's name is not enough: a replaced metric keeps it.
_GRID_CACHE: dict = {}


def _partition_weight(r: np.ndarray, radius: float) -> np.ndarray:
    """Shepard-normalized bump partition between the two inversion charts.

    The companion chart sees a point at chart radius radius^2 / r, so the
    weights sum to exactly 1 on the overlap by construction; the bump
    support confines each chart's share to r <= BUMP_OUTER * radius.
    """
    inner = BUMP_INNER * radius
    outer = BUMP_OUTER * radius
    here = bump_profile(r, inner, outer)
    with np.errstate(divide="ignore"):
        r_other = np.where(r > 0.0, radius * radius / r, np.inf)
    there = bump_profile(r_other, inner, outer)
    return np.where(here > 0.0, here / (here + there), 0.0)


def build_grid(entry: CatalogEntry, resolution: int) -> QuadratureGrid:
    """Tensor-product Gauss-Legendre grid per chart.

    The tensor factors are spherical chart coordinates (rho, theta, phi)
    with the radial axis split at the bump boundaries, so every factor
    integrand is smooth on its segment and the rule keeps its spectral
    rate; ``resolution`` is the node count per axis (the radial axis
    carries one segment of that size inside the bump plateau and one
    across the ramp).
    """
    if not entry.compact or entry.atlas is None:
        raise NotCompact(f"entry '{entry.name}' has no quadrature atlas")
    if resolution < MIN_RESOLUTION:
        raise ValueError(f"resolution must be >= {MIN_RESOLUTION}")
    if entry.dim != 3:
        raise NotCompact("quadrature atlas is implemented for 3-sphere entries")
    key = (entry.metric, entry.atlas, len(entry.charts), resolution)
    cached = _GRID_CACHE.get(key)
    if cached is not None:
        return cached

    radius = entry.atlas.radius
    inner = BUMP_INNER * radius
    outer = BUMP_OUTER * radius
    x, w = gauss_legendre(resolution)
    rho = np.concatenate(
        [
            (x + 1.0) / 2.0 * inner,
            inner + (x + 1.0) / 2.0 * (outer - inner),
        ]
    )
    w_rho = np.concatenate([w * inner / 2.0, w * (outer - inner) / 2.0])
    theta = (x + 1.0) / 2.0 * math.pi
    w_theta = w * math.pi / 2.0
    phi = (x + 1.0) * math.pi
    w_phi = w * math.pi

    R, T, P = np.meshgrid(rho, theta, phi, indexing="ij")
    WR, WT, WP = np.meshgrid(w_rho, w_theta, w_phi, indexing="ij")
    sin_t = np.sin(T)
    coords = np.stack(
        [
            (R * sin_t * np.cos(P)).ravel(),
            (R * sin_t * np.sin(P)).ravel(),
            (R * np.cos(T)).ravel(),
        ]
    )
    glw = (WR * WT * WP * R * R * sin_t).ravel()
    # The partition depends on rho alone: evaluate it on the 2 * resolution
    # radii and repeat it over each radius's (theta, phi) block.
    partition = np.repeat(_partition_weight(rho, radius), resolution * resolution)

    live = partition > 0.0
    columns, glw, partition = tuple(coords[:, live]), glw[live], partition[live]
    dets = np.asarray(
        value_of(mat_det(entry.metric.matrix(list(columns)))), dtype=float
    )
    sqrt_det = np.sqrt(np.maximum(np.broadcast_to(dets, glw.shape), 0.0))
    grid = QuadratureGrid(len(entry.charts), glw * partition * sqrt_det, partition, columns, entry.metric)
    _GRID_CACHE[key] = grid
    return grid


class AmbientQuadratic(Record, eq=False):
    """u(a) = sum_ij c_ij a_i a_j + sum_i lin_i a_i on ambient coordinates a.

    Calling it evaluates the factored form sum_i a_i (sum_j c_ij a_j + lin_i),
    n products of two jets instead of n^2.  ``basis_coefficients`` are its
    coordinates on the monomials a_i a_j (i <= j, row by row) and then a_i,
    the rows of ``_chart_basis``.
    """

    c: np.ndarray    # (n, n)
    lin: np.ndarray  # (n,)

    def __call__(self, ambient):
        c, lin = self.c, self.lin
        total = 0.0
        for i in range(len(lin)):
            row = c[i][0] * ambient[0]
            for j in range(1, len(lin)):
                row = row + c[i][j] * ambient[j]
            total = total + ambient[i] * (row + lin[i])
        return total

    @cached_property
    def basis_coefficients(self) -> np.ndarray:
        i, j = np.triu_indices(len(self.lin))
        pairs = np.where(i == j, self.c[i, j], self.c[i, j] + self.c[j, i])
        out = np.concatenate([pairs, self.lin])
        out.flags.writeable = False
        return out


class ManifoldScalarField(Record):
    """A global scalar field given by one coordinate expression per chart.

    A field built ``from_ambient`` also keeps its ambient expression; when
    that is an ``AmbientQuadratic``, its Laplacian is read off the chart's
    basis instead of its own jet.
    """

    per_chart: tuple[Callable, ...]
    name: str = "field"
    ambient: Optional[Callable] = None

    @classmethod
    def constant(cls, value: float) -> "ManifoldScalarField":
        """``value`` on both charts of a sphere."""
        return cls((lambda x, v=value: v,) * 2, name=f"const({value:g})")

    @classmethod
    def from_ambient(cls, entry: CatalogEntry, fn: Callable, name: str = "ambient") -> "ManifoldScalarField":
        if entry.atlas is None:
            raise NotCompact(f"entry '{entry.name}' has no ambient atlas")
        charts = tuple(
            (lambda x, c=c: fn(entry.atlas.ambient(c, x)))
            for c in range(len(entry.charts))
        )
        return cls(charts, name=name, ambient=fn)


def _integrals(grid: QuadratureGrid, count: int, integrands) -> list[tuple[float, float]]:
    """(integral, peak |value|) of each of ``count`` integrals over the
    grid, in one pass over its node blocks (``QuadratureGrid.blocks``).

    ``integrands(block)`` gives each integral's values on the block, in
    order, chart by chart (a float or node column each).  Each is weighted
    into its integral's ``ExactSum``, and its peak taken, before the next
    is asked for, so lazy iterables stream every integral through the
    block while it is in cache.  The sums are correctly rounded: neither
    the block size nor the order of the terms changes a bit.
    """
    sums = [ExactSum() for _ in range(count)]
    peaks = [0.0] * count
    for _, block in grid.blocks():
        for k, charts in enumerate(integrands(block)):
            for values in charts:
                values = _nodes(block, values)
                sums[k].add(block.weight * values)
                peaks[k] = np.maximum(peaks[k], np.max(np.abs(values)))  # a NaN stays
    return [(total.value(), float(peak)) for total, peak in zip(sums, peaks)]


def integrate(entry: CatalogEntry, field: ManifoldScalarField, resolution: int) -> float:
    """Integral of a scalar field against the Riemannian volume form.

    Each chart's expression of ``field`` is evaluated on each node block's
    columns.  The terms are summed by ``ExactSum``, which is correctly
    rounded, so the result does not depend on their order.
    """
    grid = build_grid(entry, resolution)
    return _integrals(grid, 1, lambda block: [(fn(list(block.columns)) for fn in field.per_chart)])[0][0]


def volume(entry: CatalogEntry, resolution: int) -> float:
    return build_grid(entry, resolution).volume


def _nodes(grid: QuadratureGrid, value) -> np.ndarray:
    """A float or node column as an array over the grid's nodes."""
    return np.broadcast_to(np.asarray(value_of(value), dtype=float), grid.weight.shape)


def _gradient_pairings(grid: QuadratureGrid, grads):
    """<grad a_i, grad a_j> = g^{pq} d_p a_i d_q a_j for i <= j, row by row,
    from each function's coordinate partials ``grads[i]``, without the pairs
    that ``tensors.dot`` skips; each formed as it is read, so that a caller
    can drop one before the next is built."""
    k = len(grads)
    raised = [mat_vec(grid.inverse, du) for du in grads]
    return (dot(grads[a], raised[b]) for a in range(k) for b in range(a, k))


def _chart_basis(entry: CatalogEntry, grid: QuadratureGrid, out=None) -> np.ndarray:
    """Delta of each ambient monomial on chart 0, in the order of
    ``AmbientQuadratic.basis_coefficients``: a_i a_j (i <= j), then a_i.

    Only the ambient coordinates' own Laplacians come from partials (their
    closed-form ``SphereAtlas.ambient_jets`` on the node columns, with the
    grid's g^{ij} and Gamma); the products follow by the product rule
    Delta(a_i a_j) = a_i Delta a_j + a_j Delta a_i + 2 <grad a_i, grad a_j>.
    A Laplacian reads only the g-trace of each Hessian (``laplacian_from``),
    so the second partials off that trace, all off-diagonal ones on this
    conformally flat chart, are never formed, and no divergence record can
    see them: ``ambient_jets``' own tests guard them.
    Shape (k (k + 3) / 2, m) for k ambient coordinates, written into
    ``out`` if given; the embedding's second partials are dropped on
    return.  Every value is per node, so a call on each node block of the
    grid (``QuadratureGrid.blocks``) fills the same bits as one call on the
    whole grid.  Every other chart's basis is this one with each row times
    its monomial's sign (see ``_monomial_signs``).
    """
    # g^{ij} and Gamma are built first, so that their temporaries and the
    # embedding's partials are not held at once.
    ginv, gamma = grid._geometry
    jets = entry.atlas.ambient_jets(list(grid.columns))
    values, grads, laps = [], [], []
    for c, (v, da, dda) in enumerate(jets):
        values.append(v)
        grads.append(da)
        laps.append(_nodes(grid, laplacian_from(ginv, gamma, da, dda)))
        jets[c] = None  # its value and gradient are kept, its second partials dropped
    i, j = np.triu_indices(len(values))
    basis = np.empty((len(i) + len(values), len(grid.weight))) if out is None else out
    for row, (a, b, pairing) in enumerate(zip(i, j, _gradient_pairings(grid, grads))):
        basis[row] = values[a] * laps[b] + values[b] * laps[a] + 2.0 * pairing
    basis[len(i):] = laps
    return basis


@lru_cache(maxsize=None)
def _monomial_signs(signs) -> np.ndarray:
    """The sign of each basis row when ambient coordinate a_i is multiplied
    by ``signs[i]``: s_i s_j for a_i a_j (i <= j), then s_i (read-only).

    A chart whose embedding is chart 0's times ``SphereAtlas.signs`` shares
    chart 0's nodes, g^{ij} and Gamma, and IEEE rounding is symmetric in
    sign, so every jet, Laplacian and product-rule term of a_i a_j flips
    with s_i s_j exactly: its basis is chart 0's times these signs, bit for
    bit.
    """
    s = np.asarray(signs, dtype=float)
    i, j = np.triu_indices(len(s))
    out = np.concatenate([s[i] * s[j], s])
    out.flags.writeable = False
    return out


def _chart_laplacian(entry, grid: QuadratureGrid, field, chart: int, basis) -> np.ndarray:
    """Delta u on one chart over the nodes of ``grid`` (a node block): an
    ``AmbientQuadratic`` field combines ``basis``, chart 0's basis columns
    of those nodes, with its coefficients times the chart's row signs (the
    same products as the reflected basis, as the signs are +-1); any other
    field goes through its own jet, ``jet2`` of its chart expression on the
    node columns."""
    if isinstance(field.ambient, AmbientQuadratic):
        signs = _monomial_signs(entry.atlas.signs(chart, len(grid.columns)))
        return (field.ambient.basis_coefficients * signs) @ basis
    _, du, ddu = jet2(field.per_chart[chart], grid.columns)
    return laplacian_from(grid.inverse, grid.christoffel, du, ddu)


def integrate_laplacian(
    entry: CatalogEntry, field: ManifoldScalarField, resolution: int
) -> dict:
    """Integral of Delta u over a compact entry, with the scale used to
    judge the divergence-theorem residual (the integral should vanish)."""
    return integrate_laplacians(entry, [field], resolution)[0]


def integrate_laplacians(
    entry: CatalogEntry, fields, resolution: int
) -> list[dict]:
    """``integrate_laplacian`` of each field, in order, in one pass over the
    grid's node blocks of ``_CHUNK`` nodes (``_integrals``), so that no
    step holds a whole-grid temporary.

    Each block builds its g^{ij} and Gamma once (off one order-1 lift of
    its columns), on first use.  If any field is an ``AmbientQuadratic``,
    the block's embedding partials give its Laplacian basis, chart 0's
    only, written into one (14, block) buffer that every block reuses: the
    other chart reads it through its reflection signs (``_monomial_signs``).
    Every field then takes the block while it is in cache: each chart's
    Laplacian (a basis combination, or the field's own jet on the block's
    g^{ij} and Gamma) is formed as ``_integrals`` asks for it.  Every term
    is computed per node, so the block size changes no result.
    """
    grid = build_grid(entry, resolution)
    buffer = None
    if any(isinstance(field.ambient, AmbientQuadratic) for field in fields):
        k = len(grid.columns) + 1
        buffer = np.empty((k * (k + 3) // 2, min(len(grid.weight), _CHUNK)))

    def laplacians(block):
        basis = None
        if buffer is not None:
            basis = _chart_basis(entry, block, out=buffer[:, : len(block.weight)])
        for field in fields:
            # read before the next field is: ``_integrals`` takes one at a time
            yield (_chart_laplacian(entry, block, field, c, basis) for c in range(block.chart_count))

    results = []
    for integral, peak in _integrals(grid, len(fields), laplacians):
        # One volume() call per field, as integrate_laplacian always made
        # (bench/selftest.py counts divergence + 1 calls per integrate run).
        vol = volume(entry, resolution)
        results.append({"integral": integral, "scale": vol * peak, "volume": vol})
    return results


def _require_compact_instance(inst: SolitonInstance) -> CatalogEntry:
    entry = inst.entry
    if entry is None or not getattr(entry, "compact", False) or entry.atlas is None:
        raise NotCompact("instance is not attached to a compact catalog entry")
    return entry


def _spot_check_soliton(inst: SolitonInstance, entry: CatalogEntry):
    """NotASoliton unless the defining residual vanishes at 12 sampled points.
    The batch's curvature data is built first, lifted to order 2: all that
    the residual reads (``require_soliton`` alone would lift to order 4)."""
    batch = sample_points(entry.metric.domain, 12, seed=20)
    curvature_data(inst.metric, batch, 2)
    require_soliton(inst, batch)


# The compact checks' integrands, read off a node block's ``CurvatureData``.
_CURVATURE_READS = {
    "R^2": lambda d, f: d.scalar * d.scalar,
    "Ric(grad f, grad f)": lambda d, f: quadratic_form(d.ricci, d.gradient_up(f)),
    "|Hess f|^2": lambda d, f: sym2_norm_sq(d.inverse, d.hessian(f)),
}


def _curvature_integrals(entry: CatalogEntry, f: ScalarField, resolution: int, *reads: str) -> list[float]:
    """The integral of each of ``reads`` (keys of ``_CURVATURE_READS``).
    Each node block lifts g once, to order 2 (all that R, Ric and Hess f
    read), for every read.  f is one expression read in every chart alike,
    one function on the sphere only if inversion-symmetric (as the compact
    catalog potential, a constant, is) until these checks take a
    ``ManifoldScalarField`` as ``integrate`` does."""

    def integrands(block):
        d = CurvatureData(block.metric, block.columns, 2)
        for read in reads:
            yield (_CURVATURE_READS[read](d, f),) * block.chart_count

    return [integral for integral, _ in _integrals(build_grid(entry, resolution), len(reads), integrands)]


def check_steady_integral_inequality(inst: SolitonInstance, resolution: int) -> dict:
    """Steady-case integral inequality k * int R^2 >= int Ric(grad f, grad f)
    with k = (n-1)/n (beta n / 2 - alpha)^2."""
    entry = _require_compact_instance(inst)
    pr = inst.params
    if abs(pr.lam) > 1e-12:
        raise NotSteady(f"lambda = {pr.lam:g} is not steady")
    _spot_check_soliton(inst, entry)
    n = inst.n
    k = (n - 1) / n * (0.5 * pr.beta * n - pr.alpha) ** 2
    r_sq, rhs = _curvature_integrals(entry, inst.potential, resolution, "R^2", "Ric(grad f, grad f)")
    lhs = k * r_sq
    scale = 1.0 + abs(lhs) + abs(rhs)
    return {
        "lhs": lhs,
        "rhs": rhs,
        "k": k,
        "holds": lhs >= rhs - 1e-6 * scale,
    }


def check_hessian_energy(inst: SolitonInstance, resolution: int) -> IdentityResidual:
    """int |Hess f|^2 + {(beta - alpha)/(alpha - beta(n-1))} int Ric(grad f, grad f) = 0
    on compact gradient instances (integration by parts closes directly)."""
    entry = _require_compact_instance(inst)
    pr = inst.params
    if pr.mu != 0.0:
        raise ValueError("hessian-energy balance applies to mu = 0 instances")
    if inst.kind not in (SolitonKind.GRYS, SolitonKind.GEN_GRYS):
        raise ValueError("hessian-energy balance needs a gradient instance")
    n = inst.n
    denom = pr.alpha - pr.beta * (n - 1)
    if abs(denom) <= 1e-12:
        raise DegenerateDenominator("alpha - beta(n-1) vanishes")
    _spot_check_soliton(inst, entry)
    lhs, ric_term = _curvature_integrals(entry, inst.potential, resolution, "|Hess f|^2", "Ric(grad f, grad f)")
    rhs = -((pr.beta - pr.alpha) / denom) * ric_term
    mid = sample_points(entry.metric.domain, 1, seed=3)[0]
    return IdentityResidual.build("hessian-energy", lhs, rhs, mid)
