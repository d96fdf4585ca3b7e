"""Verification of the soliton identities and their universal building
blocks, at a point or over a whole ``PointBatch`` at once.

Derived identities (trace, gradient, Laplacian, splitting) are only
asserted on instances whose defining residual vanishes first; they are
consequences of the defining equation and are meaningless otherwise.
``NotASoliton`` reports a failed precondition, never a failed check.

The universal checks (contracted second Bianchi identity, the
covariant-derivative commutation rule, the Bochner formula) need no
soliton structure and anchor the whole differentiation pipeline.

Over a batch every check runs once on coordinate columns and shares the
batch's curvature data (``curvature_data``) and defining residual
(``residual_on``) with the other checks; at a single point the same code
runs on floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Any

import numpy as np

from .ad import jet2, value_of  # noqa: F401 (bench/selftest.py looks up jet2 here)
from .curvature import (  # noqa: F401 (bench/selftest.py looks up ricci_generic here)
    curvature_data,
    divergence_ricci_from,
    grad_norm_sq_generic,
    ricci_generic,
)
from .errors import DegenerateDenominator, NotASoliton, NotCompact
from .geometry import ChartPoint, MetricField, PointBatch, ScalarField
from .soliton import (
    SolitonClass,
    SolitonInstance,
    SolitonKind,
    classify,
    residual_on,
)
from .tensors import sym2_norm_sq, vec_dot

SOLITON_TOL = 1e-8


@dataclass(frozen=True)
class IdentityResidual:
    """Two-sided residual of one identity at one point, or at every point
    of a batch.

    For vector-valued identities ``lhs``/``rhs`` are sup norms of the two
    sides and ``abs_gap`` is the sup norm of their difference.  At one
    point the four numbers are floats and ``point`` is its ChartPoint;
    over a PointBatch of m points they are arrays of shape (m,) and
    ``point`` is the batch.
    """

    name: str
    lhs: Any
    rhs: Any
    abs_gap: Any
    rel_gap: Any
    point: Any

    @classmethod
    def build(cls, name, lhs, rhs, point, gap=None) -> "IdentityResidual":
        batch = PointBatch.of(point)
        lhs = batch.values(lhs)
        rhs = batch.values(rhs)
        abs_gap = abs(lhs - rhs) if gap is None else batch.values(gap)
        rel = batch.values(abs_gap / (1.0 + np.maximum(abs(lhs), abs(rhs))))
        point = batch if batch.shape else batch.points[0]
        return cls(name, lhs, rhs, abs_gap, rel, point)

    def worst(self) -> "IdentityResidual":
        """The residual at the point of largest ``rel_gap`` (the first one
        on ties); a single-point residual is its own worst."""
        if isinstance(self.point, ChartPoint):
            return self
        k = int(np.argmax(self.rel_gap))
        return IdentityResidual(
            self.name,
            float(self.lhs[k]),
            float(self.rhs[k]),
            float(self.abs_gap[k]),
            float(self.rel_gap[k]),
            self.point.points[k],
        )


def _sup(values):
    """Pointwise max of |v| over the components of a covector."""
    return reduce(np.maximum, [abs(v) for v in values])


def require_soliton(inst: SolitonInstance, p, tol: float = SOLITON_TOL) -> None:
    batch = PointBatch.of(p)
    res = np.max(np.abs(residual_on(inst, batch).components), axis=(0, 1))
    res = np.atleast_1d(batch.values(res))
    k = int(np.argmax(res))
    if res[k] > tol:
        raise NotASoliton(
            f"defining residual {res[k]:.3e} exceeds {tol:.1e} at "
            f"{batch.points[k].coords}"
        )


def _gradient_potential(inst: SolitonInstance):
    if inst.kind not in (SolitonKind.GRYS, SolitonKind.GEN_GRYS):
        raise ValueError(
            f"identity checks need a gradient instance, got {inst.kind.value}"
        )
    return inst.potential


def _soliton_data(inst: SolitonInstance, p, tol: float):
    """The batch of ``p`` and its curvature data, once the defining
    residual is known to vanish there."""
    batch = PointBatch.of(p)
    require_soliton(inst, batch, tol)
    return batch, curvature_data(inst.metric, batch)


def check_trace_identity(
    inst: SolitonInstance, p, tol: float = SOLITON_TOL
) -> IdentityResidual:
    """alpha R + Delta f + (lam - beta/2 R) n + mu |grad f|^2 = 0."""
    f = _gradient_potential(inst)
    batch, d = _soliton_data(inst, p, tol)
    n = inst.n
    pr = inst.params
    scal = d.scalar
    lap = d.laplacian(f)
    gn = vec_dot(d.gradient_up(f), d.jet(f)[1])
    lhs = pr.alpha * scal + lap + (pr.lam - 0.5 * pr.beta * scal) * n + pr.mu * gn
    return IdentityResidual.build("trace-identity", lhs, 0.0, batch)


def check_gradient_identity(
    inst: SolitonInstance, p, tol: float = SOLITON_TOL
) -> IdentityResidual:
    """{alpha - beta(n-1)} grad R + 2 mu {alpha R + (lam - beta/2 R)(n-1)} grad f
    = 2 (mu alpha + 1) Ric(grad f, .), componentwise as covectors."""
    f = _gradient_potential(inst)
    batch, d = _soliton_data(inst, p, tol)
    n = inst.n
    pr = inst.params
    ric, scal = d.ricci, d.scalar
    dR = d.jet(d.scalar_field)[1]
    df = d.jet(f)[1]
    grad_up = d.gradient_up(f)
    coef = 2.0 * pr.mu * (pr.alpha * scal + (pr.lam - 0.5 * pr.beta * scal) * (n - 1))
    lhs = [(pr.alpha - pr.beta * (n - 1)) * dR[i] + coef * df[i] for i in range(n)]
    rhs = [
        2.0 * (pr.mu * pr.alpha + 1.0)
        * sum(ric[i][j] * grad_up[j] for j in range(n))
        for i in range(n)
    ]
    return IdentityResidual.build(
        "gradient-identity",
        _sup(lhs),
        _sup(rhs),
        batch,
        gap=_sup([a - b for a, b in zip(lhs, rhs)]),
    )


def check_laplacian_identity(
    inst: SolitonInstance, p, tol: float = SOLITON_TOL
) -> IdentityResidual:
    """{alpha - beta(n-1)} Delta R + {2 mu alpha - 2 mu beta(n-1) - 1} <grad R, grad f>
    = 2 mu {alpha R + (n-1)(lam - beta/2 R)} {alpha R + n(lam - beta/2 R)}
      - 2 (mu alpha + 1) {alpha |Ric|^2 + R (lam - beta/2 R)}."""
    f = _gradient_potential(inst)
    batch, d = _soliton_data(inst, p, tol)
    n = inst.n
    pr = inst.params
    ginv, scal = d.inverse, d.scalar
    lap_R = d.laplacian(d.scalar_field)
    dR = d.jet(d.scalar_field)[1]
    df = d.jet(f)[1]
    dR_df = sum(ginv[i][j] * dR[i] * df[j] for i in range(n) for j in range(n))
    cap = pr.lam - 0.5 * pr.beta * scal
    lhs = (pr.alpha - pr.beta * (n - 1)) * lap_R + (
        2.0 * pr.mu * pr.alpha - 2.0 * pr.mu * pr.beta * (n - 1) - 1.0
    ) * dR_df
    rhs = 2.0 * pr.mu * (pr.alpha * scal + (n - 1) * cap) * (
        pr.alpha * scal + n * cap
    ) - 2.0 * (pr.mu * pr.alpha + 1.0) * (pr.alpha * d.ricci_norm_sq + scal * cap)
    return IdentityResidual.build("laplacian-identity", lhs, rhs, batch)


def check_scalar_constancy(
    inst: SolitonInstance, points, tol: float = 1e-7
) -> dict:
    """Scalar-curvature constancy on compact instances.

    Predicted value 2 n lam / (n beta - 2 alpha); ``gap`` is the max
    deviation of measured R from the prediction across the samples (a
    list of points or a PointBatch).  The sign verdict compares sign(R)
    with the lam classification, which is asserted only when
    n beta > 2 alpha.
    """
    if not inst.compact:
        raise NotCompact("scalar-constancy check needs a compact instance")
    g = inst.metric
    n = g.domain.dim
    pr = inst.params
    denom = n * pr.beta - 2.0 * pr.alpha
    if abs(denom) <= 1e-12:
        raise DegenerateDenominator("n*beta - 2*alpha vanishes")
    predicted = 2.0 * n * pr.lam / denom
    batch = PointBatch.of_points(points)
    values = batch.values(curvature_data(g, batch).scalar)
    r_value = float(np.mean(values))
    gap = float(np.max(np.abs(values - predicted)))
    cls = classify(pr)
    sign_applies = denom > 0.0
    scale = 1.0 + abs(predicted)
    if cls is SolitonClass.EXPANDING:
        sign_ok = r_value > 0.0
    elif cls is SolitonClass.SHRINKING:
        sign_ok = r_value < 0.0
    else:
        sign_ok = abs(r_value) <= tol * scale
    return {
        "r_value": r_value,
        "predicted": predicted,
        "gap": gap,
        "soliton_class": cls,
        "sign_law_applies": sign_applies,
        "sign_consistent": bool(sign_ok) if sign_applies else None,
        "passed": gap <= tol * scale,
    }


def _energy(g: MetricField, f: ScalarField) -> ScalarField:
    return ScalarField(
        lambda q: grad_norm_sq_generic(g, f, q), g.domain, name="|grad f|^2"
    )


def _ric_ff(ric, grad_up):
    """Ric(grad f, grad f)."""
    n = len(grad_up)
    return sum(ric[i][j] * grad_up[i] * grad_up[j] for i in range(n) for j in range(n))


def check_splitting_identity(
    inst: SolitonInstance, p, tol: float = SOLITON_TOL
) -> IdentityResidual:
    """1/2 Delta |grad f|^2 = |Hess f|^2
    + {(beta - alpha)/(alpha - beta(n-1))} Ric(grad f, grad f)."""
    f = _gradient_potential(inst)
    pr = inst.params
    if pr.mu != 0.0:
        raise ValueError("splitting identity applies to mu = 0 instances")
    g = inst.metric
    n = g.domain.dim
    denom = pr.alpha - pr.beta * (n - 1)
    if abs(denom) <= 1e-12:
        raise DegenerateDenominator("alpha - beta(n-1) vanishes")
    batch, d = _soliton_data(inst, p, tol)
    lhs = 0.5 * d.laplacian(_energy(g, f))
    hess_sq = sym2_norm_sq(d.inverse, d.hessian(f))
    rhs = hess_sq + ((pr.beta - pr.alpha) / denom) * _ric_ff(d.ricci, d.gradient_up(f))
    return IdentityResidual.build("splitting-identity", lhs, rhs, batch)


def check_affine_splitting_flags(inst: SolitonInstance, points) -> dict:
    """Affine-potential flags on a product geometry.

    Returns the max Hessian component and the variation of |grad f|
    across the samples (a list of points or a PointBatch); both vanish
    when the potential is the flat factor coordinate.
    """
    f = _gradient_potential(inst)
    batch = PointBatch.of_points(points)
    d = curvature_data(inst.metric, batch)
    hess = np.abs(batch.matrix(d.hessian(f)))
    norm_sq = batch.values(vec_dot(d.gradient_up(f), d.jet(f)[1]))
    norms = np.sqrt(np.maximum(norm_sq, 0.0))
    return {
        "hessian_norm": float(np.max(hess)),
        "grad_norm_variation": float(np.max(norms) - np.min(norms)),
    }


# -- universal identities ----------------------------------------------------
#
# These read the curvature levels of one batch from ``curvature_data``:
# derivatives of traced quantities (grad R, grad Delta f) come from the
# product rule on the already-built component partials.

def check_contracted_bianchi(g: MetricField, p) -> IdentityResidual:
    """div Ric = 1/2 grad R, the contracted second Bianchi identity."""
    d = curvature_data(g, p)
    n = g.domain.dim
    ginv, dginv, ric, dric = d.inverse, d.inverse_partials, d.ricci, d.ricci_partials
    div = [value_of(v) for v in divergence_ricci_from(ginv, d.christoffel, ric, dric)]
    half_dR = [
        0.5 * value_of(
            sum(
                dginv[i][j][k] * ric[j][k] + ginv[j][k] * dric[i][j][k]
                for j in range(n)
                for k in range(n)
            )
        )
        for i in range(n)
    ]
    return IdentityResidual.build(
        "contracted-bianchi",
        _sup(div),
        _sup(half_dR),
        d.batch,
        gap=_sup([a - b for a, b in zip(div, half_dR)]),
    )


def _rough_laplacian_df(ginv, gamma, hess, dh):
    """(Delta df)_i = g^{jk} nabla_j (Hess f)_{ki}."""
    n = len(ginv)
    out = []
    for i in range(n):
        total = 0.0
        for j in range(n):
            for k in range(n):
                cov = dh[j][k][i] - sum(
                    gamma[m][j][k] * hess[m][i] + gamma[m][j][i] * hess[k][m]
                    for m in range(n)
                )
                total = total + ginv[j][k] * cov
        out.append(value_of(total))
    return out


def check_commutation(g: MetricField, f: ScalarField, p) -> IdentityResidual:
    """Delta grad_i f - grad_i Delta f = R_ij g^{jk} d_k f."""
    d = curvature_data(g, p)
    n = g.domain.dim
    hess, dh = d.hessian(f), d.hessian_partials(f)
    lap_df = _rough_laplacian_df(d.inverse, d.christoffel, hess, dh)
    d_lap = d.laplacian_partials(f)
    lhs = [lap_df[i] - value_of(d_lap[i]) for i in range(n)]
    ric, grad_up = d.ricci, d.gradient_up(f)
    rhs = [value_of(sum(ric[i][j] * grad_up[j] for j in range(n))) for i in range(n)]
    return IdentityResidual.build(
        "commutation",
        _sup(lhs),
        _sup(rhs),
        d.batch,
        gap=_sup([a - b for a, b in zip(lhs, rhs)]),
    )


def check_bochner(g: MetricField, f: ScalarField, p) -> IdentityResidual:
    """1/2 Delta |grad f|^2 = |Hess f|^2 + Ric(grad f, grad f)
    + <grad f, grad Delta f>."""
    d = curvature_data(g, p)
    n = g.domain.dim
    lhs = 0.5 * value_of(d.laplacian(_energy(g, f)))
    hess_sq = value_of(sym2_norm_sq(d.inverse, d.hessian(f)))
    grad_up, d_lap = d.gradient_up(f), d.laplacian_partials(f)
    ric_ff = value_of(_ric_ff(d.ricci, grad_up))
    cross = value_of(sum(grad_up[i] * d_lap[i] for i in range(n)))
    return IdentityResidual.build("bochner", lhs, hess_sq + ric_ff + cross, d.batch)


def universal_residuals(g: MetricField, f: ScalarField, p) -> list[IdentityResidual]:
    """Contracted Bianchi, commutation, and Bochner residuals at one point,
    or over a batch, on the batch's shared curvature data."""
    batch = PointBatch.of(p)
    return [
        check_contracted_bianchi(g, batch),
        check_commutation(g, f, batch),
        check_bochner(g, f, batch),
    ]
