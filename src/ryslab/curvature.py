"""Curvature pipeline on coordinate charts.

Christoffel symbols, Ricci tensor, scalar curvature, covariant Hessian,
Laplacian, gradient, Lie derivative of the metric, Ricci operator, and
derivatives of the scalar-curvature field.

Sign convention: the Riemann contraction is chosen so the round unit
sphere has Ric = (n-1) g and positive scalar curvature n(n-1).

Every ``_generic`` helper accepts coordinates whose entries are floats or
dual towers, which is how third and fourth derivatives of curvature
quantities are produced: the scalar-curvature map itself is fed back
through the forward-mode differentiator rather than expanding
fourth-order tensor formulas; coordinate partials come from one
evaluation on ``vlift`` coordinates, read by ``ad.split``.  The same
helpers accept coordinate columns (float arrays of shape (m,)), which
evaluates a whole batch of points in one pass.  ``curvature_data(g, p)``
is the one way in: its ``CurvatureData`` holds every quantity of one
metric on one ``PointBatch`` (or on a single point), so that every check
shares them.  ``ricci``, ``scalar_curvature`` and ``ricci_operator``
read it and return numpy values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, wraps

import numpy as np

from .ad import jet2, lift2, read2, split, value_and_gradient, vlift
from .geometry import MetricField, PointBatch, ScalarField, VectorField, stack
from .tensors import mat_inverse, mat_vec, sym2_norm_sq, trace_pair, vec_dot

SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class Sym2Tensor:
    """Covariant symmetric 2-tensor value at a point, or at each point of
    a batch (``components`` of shape (n, n, m))."""

    components: np.ndarray

    @classmethod
    def from_matrix(cls, m) -> "Sym2Tensor":
        arr = stack(m)
        swapped = arr.swapaxes(0, 1)
        gap = np.max(np.abs(arr - swapped), axis=(0, 1))
        bad = gap > SYMMETRY_TOL * (1.0 + np.max(np.abs(arr), axis=(0, 1)))
        if np.any(bad):
            worst = float(np.max(gap[bad]))
            raise ValueError(f"matrix is not symmetric, antisymmetry {worst:.3e}")
        return cls(0.5 * (arr + swapped))

    @property
    def n(self) -> int:
        return self.components.shape[0]

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.components)))

    def __getitem__(self, ij):
        return float(self.components[ij])


# -- generic core (float or dual coordinates) ------------------------------

def metric_partials(g: MetricField, x):
    """dg[l][i][j] = d g_ij / dx_l from one vector-lifted metric evaluation."""
    return split(g.matrix(vlift(x)), g.domain.dim)[1]


def christoffel_generic(g: MetricField, x):
    """Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)."""
    n = g.domain.dim
    gm = g.matrix(x)
    ginv = mat_inverse(gm)
    dg = metric_partials(g, x)
    gamma = [[[0.0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            # bracket_l = d_i g_jl + d_j g_il - d_l g_ij
            bracket = [dg[i][j][l] + dg[j][i][l] - dg[l][i][j] for l in range(n)]
            for k in range(n):
                v = 0.5 * sum(ginv[k][l] * bracket[l] for l in range(n))
                gamma[k][i][j] = v
                gamma[k][j][i] = v
    return gamma


def christoffel_with_partials(g: MetricField, x):
    """Gamma and dGamma[m][k][i][j] = d_m Gamma^k_ij from one lifted pass."""
    return split(christoffel_generic(g, vlift(x)), g.domain.dim)


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


def ricci_generic(g: MetricField, x):
    """R_ij from the Riemann contraction; round spheres come out positive."""
    return ricci_from(*christoffel_with_partials(g, x))


def scalar_curvature_generic(g: MetricField, x):
    gm = g.matrix(x)
    ginv = mat_inverse(gm)
    return trace_pair(ginv, ricci_generic(g, x))


def scalar_curvature_field(g: MetricField) -> ScalarField:
    """The scalar-curvature map as a differentiable scalar field."""
    return ScalarField(
        lambda x: scalar_curvature_generic(g, x), g.domain, name="scalar-curvature"
    )


def covariant_hessian(gamma, df, ddf):
    """(Hess f)_ij = d_i d_j f - Gamma^k_ij d_k f from the partials of f."""
    n = len(df)
    h = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = ddf[i][j] - sum(gamma[k][i][j] * df[k] for k in range(n))
            h[i][j] = v
            h[j][i] = v
    return h


def hessian_generic(g: MetricField, f: ScalarField, x):
    """(Hess f)_ij = d_i d_j f - Gamma^k_ij d_k f."""
    _, df, ddf = jet2(f.fn, x)
    return covariant_hessian(christoffel_generic(g, x), df, ddf)


def laplacian_generic(g: MetricField, f: ScalarField, x):
    ginv = mat_inverse(g.matrix(x))
    return trace_pair(ginv, hessian_generic(g, f, x))


def gradient_generic(g: MetricField, f: ScalarField, x):
    ginv = mat_inverse(g.matrix(x))
    _, df = value_and_gradient(f.fn, x)
    return mat_vec(ginv, df), df, ginv


def grad_norm_sq_generic(g: MetricField, f: ScalarField, x):
    up, df, _ = gradient_generic(g, f, x)
    return vec_dot(up, df)


def lie_metric_generic(g: MetricField, X: VectorField, x):
    """(L_X g)_ij = d_i X_j + d_j X_i - 2 Gamma^k_ij X_k, X lowered by g."""
    n = g.domain.dim

    def lowered(q):
        m = g.matrix(q)
        xv = X(q)
        return [sum(m[j][k] * xv[k] for k in range(n)) for j in range(n)]

    low, dlow = split(lowered(vlift(x)), n)
    gamma = christoffel_generic(g, x)
    out = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = dlow[i][j] + dlow[j][i] - 2.0 * sum(
                gamma[k][i][j] * low[k] for k in range(n)
            )
            out[i][j] = v
            out[j][i] = v
    return out


def ricci_with_partials(g: MetricField, x):
    """Ric together with dric[k][i][j] = d_k R_ij from one lifted pass."""
    return split(ricci_generic(g, vlift(x)), g.domain.dim)


def divergence_ricci_from(ginv, gamma, ric, dric):
    """(div Ric)_i = g^{jk} nabla_k R_ij from Ric and its coordinate partials."""
    n = len(ginv)
    out = []
    for i in range(n):
        total = 0.0
        for j in range(n):
            for k in range(n):
                cov = dric[k][i][j] - sum(
                    gamma[l][k][i] * ric[l][j] + gamma[l][k][j] * ric[i][l]
                    for l in range(n)
                )
                total = total + ginv[j][k] * cov
        out.append(total)
    return out


# -- shared quantities of one batch ------------------------------------------

def _per_field(build):
    """A quantity of a scalar field, built once per batch, metric and field."""

    @wraps(build)
    def quantity(self, f: ScalarField):
        return self.batch.memo((build.__name__, self.g, f), lambda: build(self, f))

    return quantity


class CurvatureData:
    """Curvature of one metric on one batch of points, each quantity
    computed on first use and then shared by every check that needs it.

    Each derivative level is one lifted evaluation: the connection
    (Gamma, dGamma), Ricci's partials, the inverse metric's partials and,
    per scalar field, its jet and the partials of its Hessian.  Gamma is
    the value part of the connection's pass, which equals the float pass
    bit for bit, and Ric is contracted from the connection.  Entries are
    floats for a single point (``PointBatch.of``) and (m,) columns, or
    plain floats where constant, for a batch.
    """

    def __init__(self, g: MetricField, batch: PointBatch):
        self.g = g
        self.batch = batch
        self.x = list(batch.columns)

    @cached_property
    def metric(self):
        return self.g.matrix(self.x)

    @cached_property
    def inverse(self):
        return mat_inverse(self.metric)

    @cached_property
    def inverse_partials(self):
        """dginv[l][j][k] = d_l g^{jk} = -(g^{-1} (d_l g) g^{-1})^{jk}."""
        ginv = self.inverse
        n = len(ginv)
        out = []
        for dgl in metric_partials(self.g, self.x):
            left = [
                [sum(ginv[j][a] * dgl[a][b] for a in range(n)) for b in range(n)]
                for j in range(n)
            ]
            out.append(
                [
                    [-sum(left[j][b] * ginv[b][k] for b in range(n)) for k in range(n)]
                    for j in range(n)
                ]
            )
        return out

    @cached_property
    def connection(self):
        """(Gamma, dGamma), dGamma[m][k][i][j] = d_m Gamma^k_ij."""
        return christoffel_with_partials(self.g, self.x)

    @cached_property
    def christoffel(self):
        return self.connection[0]

    @cached_property
    def ricci(self):
        return ricci_from(*self.connection)

    @cached_property
    def ricci_partials(self):
        """dric[k][i][j] = d_k R_ij."""
        return ricci_with_partials(self.g, self.x)[1]

    @cached_property
    def scalar(self):
        return trace_pair(self.inverse, self.ricci)

    @cached_property
    def ricci_norm_sq(self):
        return sym2_norm_sq(self.inverse, self.ricci)

    @_per_field
    def jet(self, f: ScalarField):
        """Value, partials and second partials of ``f``, from one jet2 pass."""
        return jet2(f.fn, self.x)

    @_per_field
    def hessian(self, f: ScalarField):
        _, df, ddf = self.jet(f)
        return covariant_hessian(self.christoffel, df, ddf)

    @_per_field
    def hessian_partials(self, f: ScalarField):
        """dh[j][k][i] = d_j (Hess f)_{ki}
        = d_j d_k d_i f - d_j Gamma^m_ki d_m f - Gamma^m_ki d_j d_m f,
        the third partials of f from one vector lift over ``lift2``."""
        n = self.g.domain.dim
        gamma, dgamma = self.connection
        r, dr = split(f.fn(vlift(lift2(self.x))), n)
        _, df, ddf = read2(r, n)
        third = [read2(d, n)[2] for d in dr]
        dh = [[[0.0] * n for _ in range(n)] for _ in range(n)]
        for j in range(n):
            for k in range(n):
                for i in range(k, n):
                    v = third[j][k][i] - sum(
                        gamma[m][k][i] * ddf[j][m] + dgamma[j][m][k][i] * df[m]
                        for m in range(n)
                    )
                    dh[j][k][i] = v
                    dh[j][i][k] = v
        return dh

    @_per_field
    def laplacian_partials(self, f: ScalarField):
        """d_i Delta f, by the product rule on g^{jk} (Hess f)_jk."""
        ginv, dginv = self.inverse, self.inverse_partials
        hess, dh = self.hessian(f), self.hessian_partials(f)
        n = len(ginv)
        return [
            sum(
                dginv[i][j][k] * hess[j][k] + ginv[j][k] * dh[i][j][k]
                for j in range(n)
                for k in range(n)
            )
            for i in range(n)
        ]

    def laplacian(self, f: ScalarField):
        return trace_pair(self.inverse, self.hessian(f))

    def gradient_up(self, f: ScalarField):
        """(grad f)^i = g^{ij} d_j f."""
        return mat_vec(self.inverse, self.jet(f)[1])

    @cached_property
    def scalar_field(self) -> ScalarField:
        """R as a field; its jet gives R, grad R and Hess R (hence Delta R)."""
        return scalar_curvature_field(self.g)


def curvature_data(g: MetricField, p) -> CurvatureData:
    """The shared curvature data of ``g`` on a batch (one per batch and
    metric), or fresh data for a single point."""
    batch = PointBatch.of(p)
    return batch.memo(("curvature", g), lambda: CurvatureData(g, batch))


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
