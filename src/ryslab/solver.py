"""Least-squares recovery of rotationally symmetric gradient potentials.

On a rotationally symmetric Einstein background written as
dr^2 + w(r)^2 dOmega^2, the gradient soliton equation for a radial
potential f(r) reduces to two scalar blocks per radius:

    radial:      alpha*c + f''(r)            + (lam - beta/2 R) = 0
    tangential:  alpha*c + f'(r) * w'(r)/w(r) + (lam - beta/2 R) = 0

with c the Einstein factor (Ric = c g) and R the scalar curvature of the
background.  ``radial_residual`` stacks the two blocks over a uniform
grid using 4th-order finite differences.  The blocks are affine in the
grid values, so ``solve_radial`` builds their Jacobian once and solves
the linear least-squares problem directly: one normal-equations solve,
then a few steps of iterative refinement (Bjorck, BIT 7, 1967), each an
undamped Gauss-Newton step on the recomputed residual.

The potential is defined up to an additive constant, so the gauge
f(r_0) = 0 is fixed by construction.  Smoothness at the origin requires
f'(0) = 0; the grid starts at a small margin delta and a regularity row
delta * f'(r_0) joins the objective as a weak tie-breaker (weighted by
delta so an exact solution, whose f'(r_0) = O(delta), stays below the
convergence tolerance).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import GridTooCoarse, NoConvergence
from .soliton import SolitonParams

MIN_INTERVALS = 16
RESIDUAL_TOL = 1e-8
# Normal-equations steps per solve: the first solves, the rest refine.
MAX_STEPS = 4
ORIGIN_MARGIN = 1e-3


@dataclass(frozen=True)
class Background:
    """Closed-form curvature data of a rotationally symmetric space."""

    name: str
    ric_factor: float      # Ric = ric_factor * g
    scalar: float
    radius: float = 1.0
    dim: int = 3

    @classmethod
    def flat(cls, dim: int = 3) -> "Background":
        return cls("flat", 0.0, 0.0, dim=dim)

    @classmethod
    def sphere(cls, radius: float = 1.0, dim: int = 3) -> "Background":
        n = dim
        return cls(
            "sphere",
            (n - 1) / (radius * radius),
            n * (n - 1) / (radius * radius),
            radius=radius,
            dim=dim,
        )

    @classmethod
    def hyperbolic(cls, dim: int = 3) -> "Background":
        n = dim
        return cls("hyperbolic", -(n - 1.0), -n * (n - 1.0), dim=dim)

    def log_warp_deriv(self, r: np.ndarray) -> np.ndarray:
        """w'(r)/w(r) for the warp w: r, a sin(r/a), or sinh(r)."""
        if self.name == "flat":
            return 1.0 / r
        if self.name == "sphere":
            return np.cos(r / self.radius) / (self.radius * np.sin(r / self.radius))
        return np.cosh(r) / np.sinh(r)


def named_background(name: str, radius: float = 1.0) -> Background:
    table = {
        "flat": Background.flat,
        "sphere": lambda: Background.sphere(radius),
        "hyperbolic": Background.hyperbolic,
    }
    if name not in table:
        raise ValueError(f"unknown background '{name}'")
    return table[name]()


@dataclass(frozen=True)
class RadialProfile:
    grid: np.ndarray
    values: np.ndarray
    params: SolitonParams
    background: Background

    def __post_init__(self):
        if np.any(np.diff(self.grid) <= 0.0):
            raise ValueError("grid must be strictly increasing")
        if len(self.grid) != len(self.values):
            raise ValueError("grid and values length mismatch")


def make_grid(intervals: int, r_max: float = 1.0, margin: float = ORIGIN_MARGIN) -> np.ndarray:
    return np.linspace(margin, r_max, intervals + 1)


def _require_grid(grid: np.ndarray) -> None:
    if len(grid) - 1 < MIN_INTERVALS:
        raise GridTooCoarse(
            f"need at least {MIN_INTERVALS} intervals, got {len(grid) - 1}"
        )


def derivative_matrices(grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense 4th-order first/second derivative matrices on a uniform grid."""
    m = len(grid)
    h = grid[1] - grid[0]
    d1 = np.zeros((m, m))
    d2 = np.zeros((m, m))
    # interior 5-point stencils, one band (offset -2..2) at a time
    rows = np.arange(2, m - 2)
    s1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12 * h)
    s2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12 * h * h)
    for j, offset in enumerate(range(-2, 3)):
        d1[rows, rows + offset] = s1[j]
        d2[rows, rows + offset] = s2[j]
    # one-sided 4th-order stencils at the ends
    e1_0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / (12 * h)
    e1_1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / (12 * h)
    e2_0 = np.array([45.0, -154.0, 214.0, -156.0, 61.0, -10.0]) / (12 * h * h)
    e2_1 = np.array([10.0, -15.0, -4.0, 14.0, -6.0, 1.0]) / (12 * h * h)
    d1[0, :5] = e1_0
    d1[1, :5] = e1_1
    d1[m - 1, -5:] = -e1_0[::-1]
    d1[m - 2, -5:] = -e1_1[::-1]
    d2[0, :6] = e2_0
    d2[1, :6] = e2_1
    d2[m - 1, -6:] = e2_0[::-1]
    d2[m - 2, -6:] = e2_1[::-1]
    return d1, d2


def soliton_coefficient(params: SolitonParams, background: Background) -> float:
    """alpha c + lam - beta/2 R, the constant term of both soliton blocks."""
    return params.alpha * background.ric_factor + params.lam - 0.5 * params.beta * background.scalar


def radial_residual(profile: RadialProfile) -> np.ndarray:
    """Stacked radial and tangential soliton blocks over the grid.

    Layout: the first len(grid) entries are the radial block, the rest
    the tangential block.
    """
    _require_grid(profile.grid)
    d1, d2 = derivative_matrices(profile.grid)
    coef = soliton_coefficient(profile.params, profile.background)
    fp = d1 @ profile.values
    fpp = d2 @ profile.values
    radial = coef + fpp
    tangential = coef + profile.background.log_warp_deriv(profile.grid) * fp
    return np.concatenate([radial, tangential])


def residual_jacobian(profile: RadialProfile) -> np.ndarray:
    """Jacobian of radial_residual with respect to the grid values."""
    _require_grid(profile.grid)
    d1, d2 = derivative_matrices(profile.grid)
    warp = profile.background.log_warp_deriv(profile.grid)
    return np.vstack([d2, warp[:, None] * d1])


def solve_radial(
    params: SolitonParams,
    background: Background,
    grid: np.ndarray,
    init: Optional[RadialProfile] = None,
    cost_trace: Optional[list] = None,
) -> RadialProfile:
    """Least-squares fit of the radial potential on the gauged grid.

    The stacked residual is affine in the free values x = f(r_1), ...:
    r(x) = J x + r0, with J = [d2; (w'/w) d1; delta d1[0]] (column of
    the gauged value f(r_0) dropped) and r0 the constant soliton
    coefficient on both blocks.  J is built once.  Unless the initial
    residual already meets RESIDUAL_TOL, the normal equations are solved
    and the answer refined: each step is x <- x - solve(J^T J, J^T r(x)),
    an undamped Gauss-Newton step, at most MAX_STEPS in all; a step that
    raises the cost ends the loop.

    Terminates successfully when the sup norm of the soliton blocks is
    at most RESIDUAL_TOL; raises NoConvergence with the final iterate
    attached otherwise, also when the normal matrix is singular.  The
    output obeys the gauge f(r_0) = 0, so it is invariant under additive
    shifts of the initial guess.  When ``cost_trace`` is a list it
    receives the initial objective value and then the value after every
    accepted step (nonincreasing by construction).
    """
    grid = np.asarray(grid, dtype=float)
    _require_grid(grid)
    if init is None:
        values = np.zeros_like(grid)
    else:
        if len(init.values) != len(grid):
            raise ValueError("init profile does not match the grid")
        values = np.asarray(init.values, dtype=float).copy()
    if not np.all(np.isfinite(values)):
        raise ValueError("init profile must be finite")
    x = values[1:] - values[0]  # gauge f(r_0) = 0

    m = len(grid)
    d1, d2 = derivative_matrices(grid)
    jac = np.empty((2 * m + 1, m - 1))
    jac[:m] = d2[:, 1:]
    np.multiply(background.log_warp_deriv(grid)[:, None], d1[:, 1:], out=jac[m : 2 * m])
    jac[2 * m] = grid[0] * d1[0, 1:]  # regularity row delta * f'(r_0)
    del d1, d2  # free both m x m matrices before J^T J is formed
    offset = np.zeros(2 * m + 1)
    offset[: 2 * m] = soliton_coefficient(params, background)

    def pde_inf(res: np.ndarray) -> float:
        return float(np.max(np.abs(res[:-1])))

    res = jac @ x + offset
    cost = 0.5 * float(res @ res)
    if cost_trace is not None:
        cost_trace.append(cost)
    if pde_inf(res) > RESIDUAL_TOL:
        normal = jac.T @ jac
        for _ in range(MAX_STEPS):
            try:
                step = np.linalg.solve(normal, jac.T @ res)
            except np.linalg.LinAlgError:
                break  # singular normal matrix
            trial = x - step
            trial_res = jac @ trial + offset
            trial_cost = 0.5 * float(trial_res @ trial_res)
            if not trial_cost <= cost:
                break  # the step raised the cost (or is not finite)
            x, res, cost = trial, trial_res, trial_cost
            if cost_trace is not None:
                cost_trace.append(cost)
            if pde_inf(res) <= RESIDUAL_TOL:
                break

    profile = RadialProfile(grid, np.concatenate([[0.0], x]), params, background)
    residual_inf = pde_inf(res)
    if residual_inf <= RESIDUAL_TOL:
        return profile
    raise NoConvergence(
        f"residual sup norm {residual_inf:.3e} after least-squares refinement",
        profile=profile,
        residual_inf=residual_inf,
    )
