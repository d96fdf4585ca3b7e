"""Soliton parameter sets, defining residual tensors, and classification.

The defining equation in coordinate form is

    alpha R_ij + D_ij + (lambda - beta/2 R) g_ij + mu T_ij = 0

where D_ij is 1/2 (L_X g)_ij for a vector-field instance or the Hessian
of the potential for a gradient instance, and the mu-term T is eta (x) eta
or df (x) df depending on the flavor.  A true soliton has vanishing
residual; the residual tensor itself is the unit of verification.

Every function that takes a point ``p`` also takes a ``PointBatch`` and
then evaluates once over all of its points (arrays of shape (m,)).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from .ad import split, vlift
from .curvature import Sym2Tensor, curvature_data, lie_metric_generic
from .geometry import MetricField, OneFormField, PointBatch, ScalarField, VectorField
from .errors import AlphaZero, DegenerateBeta

STEADY_TOL = 1e-12


class SolitonClass(str, enum.Enum):
    EXPANDING = "expanding"
    STEADY = "steady"
    SHRINKING = "shrinking"


@dataclass(frozen=True)
class SolitonParams:
    """The four real constants of the soliton equations."""

    alpha: float
    beta: float
    lam: float
    mu: float = 0.0

    def __post_init__(self):
        for name in ("alpha", "beta", "lam", "mu"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"parameter {name} must be finite")


def classify(params: SolitonParams, tol: float = STEADY_TOL) -> SolitonClass:
    """Expanding for lam > 0, steady for |lam| <= tol, else shrinking."""
    if params.lam > tol:
        return SolitonClass.EXPANDING
    if params.lam < -tol:
        return SolitonClass.SHRINKING
    return SolitonClass.STEADY


class SolitonKind(str, enum.Enum):
    RYS = "rys"                # vector field X
    GRYS = "grys"              # gradient potential f
    ETA_RYS = "eta-rys"        # vector field X plus mu eta(x)eta
    GEN_GRYS = "gen-grys"      # potential f plus mu df(x)df


@dataclass(frozen=True)
class SolitonInstance:
    """A metric with soliton data of one of the four flavors.

    ``entry`` is an optional back-reference to the catalog entry that
    built the instance (charts, compactness flag, quadrature atlas).
    """

    params: SolitonParams
    metric: MetricField
    kind: SolitonKind
    potential: Optional[ScalarField] = None
    vector_field: Optional[VectorField] = None
    eta: Optional[OneFormField] = None
    phi: Optional[float] = None      # concircular factor, when known
    compact: bool = False
    note: str = ""
    entry: Any = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        needs_potential = self.kind in (SolitonKind.GRYS, SolitonKind.GEN_GRYS)
        if needs_potential and self.potential is None:
            raise ValueError(f"{self.kind.value} instance needs a potential")
        if not needs_potential and self.vector_field is None:
            raise ValueError(f"{self.kind.value} instance needs a vector field")
        if self.kind is SolitonKind.ETA_RYS and self.eta is None:
            raise ValueError("eta-rys instance needs a one-form")

    @property
    def n(self) -> int:
        return self.metric.domain.dim


def defining_residual(inst: SolitonInstance, p) -> Sym2Tensor:
    """alpha Ric + D + (lam - beta/2 R) g + mu T at a point, or over a batch,
    from the shared curvature data.  D is Hess f for a gradient instance
    and 1/2 L_X g for a vector-field one; the mu-term T is df (x) df
    (gen-grys) or eta (x) eta (eta-rys), and the other kinds carry none."""
    data = curvature_data(inst.metric, p)
    n = inst.n
    pr = inst.params
    gm, ric = data.metric, data.ricci
    if inst.kind in (SolitonKind.GRYS, SolitonKind.GEN_GRYS):
        second = data.hessian(inst.potential)
    else:
        lie = lie_metric_generic(inst.metric, inst.vector_field, data.x)
        second = [[0.5 * lie[i][j] for j in range(n)] for i in range(n)]

    coef = pr.lam - 0.5 * pr.beta * data.scalar
    out = [
        [
            pr.alpha * ric[i][j] + second[i][j] + coef * gm[i][j]
            for j in range(n)
        ]
        for i in range(n)
    ]
    if inst.kind in (SolitonKind.ETA_RYS, SolitonKind.GEN_GRYS) and pr.mu != 0.0:
        if inst.kind is SolitonKind.GEN_GRYS:
            w = data.jet(inst.potential)[1]
        else:
            w = inst.eta(data.x)
        for i in range(n):
            for j in range(n):
                out[i][j] = out[i][j] + pr.mu * w[i] * w[j]
    return Sym2Tensor.from_matrix(out)


def residual_on(inst: SolitonInstance, batch: PointBatch) -> Sym2Tensor:
    """The defining residual on ``batch``, computed once per batch."""
    return batch.memo(("residual", inst), lambda: defining_residual(inst, batch))


def residual_report(inst: SolitonInstance, p) -> dict:
    """Max-abs component and g-norm of the defining residual at a point,
    or arrays of both over a batch."""
    batch = PointBatch.of(p)
    res = residual_on(inst, batch).components
    ginv = batch.matrix(curvature_data(inst.metric, batch).inverse)
    gnorm_sq = np.einsum("ij...,kl...,ik...,jl...->...", res, res, ginv, ginv)
    return {
        "max_abs": batch.values(np.max(np.abs(res), axis=(0, 1))),
        "g_norm": batch.values(np.sqrt(np.maximum(gnorm_sq, 0.0))),
    }


def concircular_defect(
    g: MetricField, X: VectorField, phi, p
) -> np.ndarray:
    """nabla X - phi * identity as a (1,1) matrix; zero iff X is
    concircular with factor phi at the point.  Shape (n, n, m) over a
    batch."""
    batch = PointBatch.of(p)
    x = batch.columns
    n = g.domain.dim
    gamma = curvature_data(g, batch).christoffel
    xv, dX = split(X(vlift(x)), n)
    phi_val = phi(x) if callable(phi) else float(phi)
    out = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            v = dX[j][i] + sum(gamma[i][j][k] * xv[k] for k in range(n))
            if i == j:
                v = v - phi_val
            out[i][j] = v
    return batch.matrix(out)


_CLASS_ORDER = np.array(
    [SolitonClass.EXPANDING, SolitonClass.STEADY, SolitonClass.SHRINKING], dtype=object
)


def require_concircular_params(params: SolitonParams) -> None:
    """Raise when the concircular conclusions are undefined: they divide
    by alpha and by beta - 2 alpha."""
    if params.alpha == 0.0:
        raise AlphaZero("concircular conclusions need alpha != 0")
    if params.beta == 2.0 * params.alpha:
        raise DegenerateBeta(
            "beta = 2*alpha degenerates the scalar-curvature prediction"
        )


def concircular_conclusions(
    g: MetricField, params: SolitonParams, phi_value: float, p
) -> dict:
    """Einstein defect and the predictions forced by a concircular field.

    For a soliton whose vector field satisfies nabla_Y X = phi Y the
    metric is Einstein, the scalar curvature equals
    2 n (lam + phi) / (beta - 2 alpha), and every vector is a Ricci
    eigenvector with eigenvalue (beta R - 2 phi - 2 lam) / (2 alpha).
    Classification threshold: expanding, steady or shrinking according
    as phi is below, at, or above (beta - 2 alpha) R / (2 n).  Over a
    batch the defect, eigenvalue and class are arrays of shape (m,).
    """
    require_concircular_params(params)
    batch = PointBatch.of(p)
    data = curvature_data(g, batch)
    n = g.domain.dim
    scal = batch.values(data.scalar)
    gap = np.abs(batch.matrix(data.ricci) - (scal / n) * batch.matrix(data.metric))
    defect = batch.values(np.max(gap, axis=(0, 1)))
    scalar_pred = 2.0 * n * (params.lam + phi_value) / (params.beta - 2.0 * params.alpha)
    eigen_pred = (params.beta * scal - 2.0 * phi_value - 2.0 * params.lam) / (
        2.0 * params.alpha
    )
    threshold = (params.beta - 2.0 * params.alpha) * scal / (2.0 * n)
    # expanding below the threshold band, shrinking above it, steady inside
    order = (
        1
        - np.asarray(phi_value < threshold - STEADY_TOL, dtype=int)
        + np.asarray(phi_value > threshold + STEADY_TOL, dtype=int)
    )
    return {
        "einstein_defect": defect,
        "scalar_pred": scalar_pred,
        "eigenvalue_pred": eigen_pred,
        "class": _CLASS_ORDER[order],
    }
