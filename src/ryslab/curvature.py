"""Curvature on coordinate charts: Christoffel symbols, Ricci tensor, scalar
curvature, covariant Hessian, Laplacian, Lie derivative, Ricci operator and
derivatives of R (round unit sphere: Ric = (n-1) g, R = n(n-1)).

The formulas take floats, coordinate columns (shape (m,): a batch in one
pass) and ``ad.Taylor`` entries alike.  ``curvature_data(g, p)`` is the one
way in: its ``CurvatureData`` evaluates the metric once per batch, lifted
only to the order its reads need (``ad.MAX_ORDER`` unless the caller asks
for less; 4 only for Delta R), builds g^{-1}, Gamma, Ric and R from it by
the same formulas (each one order below its input) and reads every level a
check needs off their coefficients.  ``*_generic`` read one at given
coordinates; they and ``quadrature``'s grids share ``connection`` (g^{-1}
and Gamma off one order-1 lift, one metric evaluation) and
``laplacian_from`` (the trace of the Hessian, forming only the entries it
reads, on floats or columns).
"""

from __future__ import annotations

from functools import cached_property, wraps

import numpy as np

from .ad import CHUNK, MAX_ORDER, jet2, lift, minus, partial, plus, split, truncate, vlift
from .geometry import MetricField, PointBatch, ScalarField, VectorField, stack
from .records import Record
from .tensors import Symmetric, dot, mat_inverse, mat_vec, sym2_norm_sq, trace_pair, trace_read

SYMMETRY_TOL = 1e-12
# A scalar field's own lift, whatever g's: the commutation rule reads
# d Hess f, a third derivative of f.
FIELD_ORDER = 3


class Sym2Tensor(Record):
    """Covariant symmetric 2-tensor value at a point, or at each point of
    a batch (``components`` of shape (n, n, m))."""

    components: np.ndarray

    @classmethod
    def from_matrix(cls, m) -> "Sym2Tensor":
        arr = stack(m)
        swapped = arr.swapaxes(0, 1)
        with np.errstate(invalid="ignore"):  # inf - inf is a NaN gap
            gap = np.max(np.abs(arr - swapped), axis=(0, 1))
        # not <=: a non-finite entry makes a NaN gap or bound, and fails
        bad = ~(gap <= SYMMETRY_TOL * (1.0 + np.max(np.abs(arr), axis=(0, 1))))
        if np.any(bad):
            raise ValueError(f"matrix is not finite and symmetric, antisymmetry {float(np.max(gap[bad])):.3e}")
        return cls(0.5 * (arr + swapped))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.components)))


# -- formulas (floats, columns or Taylor entries) ----------------------------

def christoffel_from(ginv, dg):
    """Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij), from g^{-1}
    and dg[l][i][j] = d_l g_ij, skipping structural zeros (``ad.times``,
    ``plus`` and ``minus``)."""
    n = len(ginv)
    gamma = [[[0.0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            bracket = [minus(plus(dg[i][j][l], dg[j][i][l]), dg[l][i][j]) for l in range(n)]
            for k in range(n):
                v = 0.5 * dot(ginv[k], bracket)
                gamma[k][i][j] = v
                gamma[k][j][i] = v
    return gamma


def ricci_from(gamma, dgamma):
    """R_ij from Gamma and dGamma[m][k][i][j] = d_m Gamma^k_ij by the Riemann
    contraction; round spheres come out positive."""
    n = len(gamma)
    ric = [[0.0] * n for _ in range(n)]
    # Precontract Gamma^k_kl for the trace term.
    gtrace = [sum(gamma[k][k][l] for k in range(n)) for l in range(n)]
    for i in range(n):
        for j in range(i, n):
            term = 0.0
            for k in range(n):
                term = term + dgamma[k][k][i][j] - dgamma[i][k][k][j]
            for l in range(n):
                term = term + gtrace[l] * gamma[l][i][j]
                for k in range(n):
                    term = term - gamma[k][i][l] * gamma[l][k][j]
            ric[i][j] = term
            ric[j][i] = term
    return ric


def _hessian(gamma, df, ddf):
    """Hess f as a ``Symmetric``, each entry formed on first read: (Hess f)_ij
    = d_i d_j f - Gamma^k_ij d_k f (d_i d_j f itself where no Gamma term is left)."""
    n = len(df)
    return Symmetric(n, lambda i, j: minus(ddf[i][j], dot([gamma[k][i][j] for k in range(n)], df)))


def covariant_hessian(gamma, df, ddf):
    """Hess f with every entry formed, as nested lists (``ad.partial`` and
    ``split`` descend into lists only)."""
    return [list(row) for row in _hessian(gamma, df, ddf)]


def laplacian_from(ginv, gamma, df, ddf):
    """Delta f = g^{ij} (Hess f)_ij from g^{-1}, Gamma and the partials of f,
    none a Taylor.  Only the Hessian entries whose g^{ij} is no structural
    zero are formed (``trace_read``), so an on-demand ``ddf`` builds no other."""
    return trace_read(ginv, _hessian(gamma, df, ddf))


# -- the same at float or column coordinates ---------------------------------

def connection(g: MetricField, x):
    """(g^{-1}, Gamma) from g and dg off one order-1 lift of g, whose value
    slots round as the float evaluation does; the lift is then dropped."""
    gm, dg = split(g.matrix(vlift(list(x))), g.domain.dim)
    inverse = mat_inverse(gm)
    return inverse, christoffel_from(inverse, dg)


def christoffel_generic(g: MetricField, x):
    """Gamma alone, off ``connection``'s order-1 lift (cheap on large grids)."""
    return connection(g, x)[1]


def christoffel_with_partials(g: MetricField, x):
    """(Gamma, dGamma[m][k][i][j] = d_m Gamma^k_ij)."""
    return CurvatureData(g, x).connection


def ricci_generic(g: MetricField, x):
    return CurvatureData(g, x).ricci


def ricci_with_partials(g: MetricField, x):
    """(Ric, dric[k][i][j] = d_k R_ij)."""
    d = CurvatureData(g, x)
    return d.ricci, d.ricci_partials


def scalar_curvature_generic(g: MetricField, x):
    return CurvatureData(g, x).scalar


def scalar_curvature_field(g: MetricField) -> ScalarField:
    """R as a field of float or column coordinates (``CurvatureData`` reads
    its derivatives off the metric's lift)."""
    return ScalarField(lambda x: scalar_curvature_generic(g, x), g.domain, name="scalar-curvature")


def hessian_generic(g: MetricField, f: ScalarField, x):
    """Hess f from ``jet2`` (one order-2 Taylor lift of f) and
    ``connection``'s Gamma."""
    _, df, ddf = jet2(f.fn, x)
    return covariant_hessian(connection(g, x)[1], df, ddf)


def laplacian_generic(g: MetricField, f: ScalarField, x):
    """Delta f by ``laplacian_from``: the arithmetic ``quadrature`` applies
    on its grids to a field without an ambient quadratic."""
    return laplacian_from(*connection(g, x), *jet2(f.fn, x)[1:])


def gradient_generic(g: MetricField, f: ScalarField, x):
    """(grad f)^i, d_i f and g^{ij}."""
    d = CurvatureData(g, x)
    return d.gradient_up(f), d.jet(f)[1], d.inverse


def grad_norm_sq_generic(g: MetricField, f: ScalarField, x):
    return dot(*gradient_generic(g, f, x)[:2])


def lie_metric_generic(g: MetricField, X: VectorField, x):
    return CurvatureData(g, x).lie(X)


# -- shared quantities of one batch ------------------------------------------

def _value(t):
    """A lifted result read at its value, entry by entry."""
    return split(t, 0)[0]


def _stitch(parts, sizes):
    """Per-chunk reads joined entry by entry, columns end to end, a float
    spread over its chunk's ``sizes`` points; a constant (the same float in
    every chunk) stays a float."""
    first = parts[0]
    if isinstance(first, (list, tuple)):
        return type(first)(_stitch(list(p), sizes) for p in zip(*parts))
    if all(isinstance(p, float) and p == first for p in parts):
        return first
    return np.concatenate([np.broadcast_to(p, (k,)) for p, k in zip(parts, sizes)])


# Marks a key not yet in a batch's memo.
_MISSING = object()


def _shared(build):
    """A read of the batch (of a field, if ``build`` takes one), built once:
    on each chunk, then stitched."""

    @wraps(build)
    def read(self, *field):
        key = (build.__name__,) + field
        value = self._memo.get(key, _MISSING)
        if value is _MISSING:
            chunks = self._chunks or ()
            parts = [read(c, *field) for c in chunks]
            value = self._memo[key] = _stitch(parts, [len(c.x[0]) for c in chunks]) if parts else build(self, *field)
        return value

    return read


def _partials(t, n):
    """First partials of a lifted result, entry by entry."""
    return split(t, n)[1]


def _level(name, poly, read=lambda t, n: _value(t)):
    """A metric level of the batch: ``read`` of the polynomial that
    ``_lifted`` keeps under ``poly`` (its value by default)."""

    def level(self):
        return read(self._lifted[poly], self.n)

    level.__name__ = name
    return property(_shared(level))


class CurvatureData:
    """Curvature of one metric on one batch of points, each quantity built
    on first use and shared by every check.

    g is evaluated once, lifted to ``order`` (``MAX_ORDER`` unless the
    caller asks for less); g^{-1} and Gamma (order - 1), Ric and R
    (order - 2) follow, and each field is evaluated once on its own lift
    (to order 3: Hess f and its partials read third derivatives of f).
    Gamma, dGamma, Ric, dRic, R, grad R, Delta R, Hess f and its partials,
    grad Delta f and Delta |grad f|^2 are coefficient reads; g, g^{-1} and
    Gamma equal the float pass bit for bit.  A read needs the lift to reach
    its order: 2 for Ric, R and Hess f, 3 for dRic, grad R and
    Delta |grad f|^2 (g^{-1} is carried one order below g), 4 for Delta R.
    A read above it raises ``OrderTooHigh``; no read is truncated.  Batches
    of more than ``CHUNK`` points are lifted chunk by chunk, at the same
    order, and the reads joined.  Entries are floats at a single point, and
    (m,) columns (plain floats where constant) over a batch.
    """

    def __init__(self, g: MetricField, x, order: int = MAX_ORDER):
        if not 2 <= order <= MAX_ORDER:
            raise ValueError(f"curvature lifts g to an order from 2 (Ric) to {MAX_ORDER}, not {order}")
        self.g = g
        self.x = list(x)
        self.n = g.domain.dim
        self.order = order
        self.scalar_field = scalar_curvature_field(g)
        self._memo = {}
        m = np.shape(self.x[0])[0] if np.ndim(self.x[0]) else 0
        self._chunks = None
        if m > CHUNK:
            self._chunks = [
                CurvatureData(g, [c[s : s + CHUNK] for c in self.x], order) for s in range(0, m, CHUNK)
            ]
            for chunk in self._chunks:
                chunk.scalar_field = self.scalar_field  # R is read off, not evaluated

    @cached_property
    def _lifted(self):
        """The metric's evaluation and, of the polynomials that follow, what
        the reads need: g to order 1, g^{-1} and Gamma to order 2, Ric and R."""
        k = self.order
        gm = self.g.matrix(lift(self.x, k))
        ginv = mat_inverse(truncate(gm, k - 1))
        gamma = christoffel_from(ginv, [partial(gm, l) for l in range(self.n)])
        dgamma = [partial(gamma, m) for m in range(self.n)]
        ric = ricci_from(truncate(gamma, k - 2), dgamma)
        return dict(
            metric=truncate(gm, 1), inverse=truncate(ginv, 2), christoffel=truncate(gamma, 2),
            ricci=ric, scalar=trace_pair(ginv, ric),
        )

    metric = _level("metric", "metric")
    inverse = _level("inverse", "inverse")
    connection = _level("connection", "christoffel", split)  # (Gamma, dGamma[m][k][i][j] = d_m Gamma^k_ij)
    christoffel = _level("christoffel", "christoffel")
    ricci = _level("ricci", "ricci")
    ricci_partials = _level("ricci_partials", "ricci", _partials)  # dric[k][i][j] = d_k R_ij
    scalar = _level("scalar", "scalar")
    scalar_partials = _level("scalar_partials", "scalar", _partials)  # d_i R, i.e. grad R lowered

    @cached_property
    def ricci_norm_sq(self):
        return sym2_norm_sq(self.inverse, self.ricci)

    def _second(self, t):
        """Partials, second partials and covariant Hessian of a lifted scalar."""
        dt = [partial(t, i) for i in range(self.n)]
        ddt = [partial(dt, j) for j in range(self.n)]
        return dt, ddt, covariant_hessian(self._lifted["christoffel"], dt, ddt)

    def _field(self, f: ScalarField):
        """f on its lift (R read off g's) and ``_second`` of it, per chunk."""
        key = ("lifted", f)
        value = self._memo.get(key, _MISSING)
        if value is _MISSING:
            t = self._lifted["scalar"] if f is self.scalar_field else f.fn(lift(self.x, FIELD_ORDER))
            value = self._memo[key] = (t,) + self._second(t)
        return value

    @_shared
    def jet(self, f: ScalarField):
        """Value, partials and second partials of ``f``."""
        return tuple(_value(t) for t in self._field(f)[:3])

    @_shared
    def hessian(self, f: ScalarField):
        return _value(self._field(f)[3])

    @_shared
    def hessian_partials(self, f: ScalarField):
        """dh[j][k][i] = d_j (Hess f)_{ki}."""
        return _partials(self._field(f)[3], self.n)

    @_shared
    def laplacian_partials(self, f: ScalarField):
        """d_i Delta f."""
        return _partials(trace_pair(self._lifted["inverse"], self._field(f)[3]), self.n)

    @_shared
    def grad_norm_sq_laplacian(self, f: ScalarField):
        """Delta |grad f|^2, with |grad f|^2 = g^{ij} d_i f d_j f on the lift."""
        df = self._field(f)[1]
        energy = dot(mat_vec(self._lifted["inverse"], df), df)
        return trace_pair(self.inverse, _value(self._second(energy)[2]))

    @_shared
    def lie(self, X: VectorField):
        """(L_X g)_ij = d_i X_j + d_j X_i - 2 Gamma^k_ij X_k, X on the order-1
        lift lowered by the lifted g."""
        gm, xv, gamma, n = self._lifted["metric"], X(lift(self.x, 1)), self.christoffel, self.n
        low, dlow = split([sum(gm[j][k] * xv[k] for k in range(n)) for j in range(n)], n)
        return [
            [dlow[i][j] + dlow[j][i] - 2.0 * sum(gamma[k][i][j] * low[k] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]

    def laplacian(self, f: ScalarField):
        return trace_pair(self.inverse, self.hessian(f))

    def gradient_up(self, f: ScalarField):
        """(grad f)^i = g^{ij} d_j f."""
        return mat_vec(self.inverse, self.jet(f)[1])


def curvature_data(g: MetricField, p, order=None) -> CurvatureData:
    """The shared curvature data of ``g`` on a batch (one per batch and
    metric), or fresh data for a single point.  The call that builds it
    sets its lift, ``order`` or else ``MAX_ORDER``; a later call may not ask
    for another."""
    batch = PointBatch.of(p)
    lift_order = MAX_ORDER if order is None else order
    data = batch.memo(("curvature", g), lambda: CurvatureData(g, batch.columns, lift_order))
    if order not in (None, data.order):
        raise ValueError(f"the curvature data of this batch is lifted to order {data.order}, not {order}")
    return data


# -- public API -------------------------------------------------------------

def ricci(g: MetricField, p) -> Sym2Tensor:
    """Ric at a point, or at each point of a batch."""
    return Sym2Tensor.from_matrix(curvature_data(g, p).ricci)


def scalar_curvature(g: MetricField, p):
    """R as a float, or as an (m,) array over a batch."""
    batch = PointBatch.of(p)
    return batch.values(curvature_data(g, batch).scalar)


def ricci_operator(g: MetricField, p) -> np.ndarray:
    """(1,1) Ricci operator Q^i_j = g^{ik} R_kj; g-self-adjoint.  Shape
    (n, n), or (n, n, m) over a batch."""
    batch = PointBatch.of(p)
    data = curvature_data(g, batch)
    ginv = np.atleast_3d(batch.matrix(data.inverse))
    ric = np.atleast_3d(batch.matrix(Sym2Tensor.from_matrix(data.ricci).components))
    q = np.moveaxis(ginv, -1, 0) @ np.moveaxis(ric, -1, 0)  # one product per point
    return np.moveaxis(q, 0, -1).reshape((g.domain.dim,) * 2 + batch.shape)
