"""Least-squares recovery of rotationally symmetric gradient potentials.

On a rotationally symmetric Einstein background written as
dr^2 + w(r)^2 dOmega^2, the gradient soliton equation for a radial
potential f(r) reduces to two scalar blocks per radius:

    radial:      alpha*c + f''(r)            + (lam - beta/2 R) = 0
    tangential:  alpha*c + f'(r) * w'(r)/w(r) + (lam - beta/2 R) = 0

with c the Einstein factor (Ric = c g) and R the scalar curvature of the
background.  ``radial_residual`` stacks the two blocks over a uniform
grid using 4th-order finite differences, held as 6-wide row stencils
(``derivative_stencils``): every row touches at most 6 grid values, so
the residual is a gather and no grid x grid matrix is built.  The blocks
are affine in the grid values, so ``solve_radial`` solves the linear
least-squares problem directly.  The normal matrix J^T J is banded
(half-bandwidth 5); it is factored once by a banded Cholesky (Golub &
Van Loan, Matrix Computations, 4.3), and every step, the first solve
and each round of iterative refinement (Bjorck, BIT 7, 1967), is one
forward and one back substitution on that factor.  At 2048 intervals a
solve takes about 12 ms on a 2-core Xeon host and allocates at most about
2.0 MiB at once (tracemalloc peak).

The potential is defined up to an additive constant, so the gauge
f(r_0) = 0 is fixed by construction.  Smoothness at the origin requires
f'(0) = 0; the grid starts at a small margin delta and a regularity row
delta * f'(r_0) joins the objective as a weak tie-breaker (weighted by
delta so an exact solution, whose f'(r_0) = O(delta), stays below the
convergence tolerance).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import BeyondAntipode, GridTooCoarse, NoConvergence
from .records import Record
from .soliton import SolitonParams

MIN_INTERVALS = 16
RESIDUAL_TOL = 1e-8
# Normal-equations steps per solve: the first solves, the rest refine.
MAX_STEPS = 4
ORIGIN_MARGIN = 1e-3
# Every stencil row covers this many consecutive grid values; J^T J then has
# half-bandwidth STENCIL_WIDTH - 1.
STENCIL_WIDTH = 6


class Background(Record):
    """Closed-form curvature data of a rotationally symmetric 3-space."""

    name: str
    ric_factor: float      # Ric = ric_factor * g
    scalar: float
    radius: float = 1.0

    @classmethod
    def flat(cls) -> "Background":
        return cls("flat", 0.0, 0.0)

    @classmethod
    def sphere(cls, radius: float = 1.0) -> "Background":
        return cls("sphere", 2.0 / (radius * radius), 6.0 / (radius * radius), radius=radius)

    @classmethod
    def hyperbolic(cls) -> "Background":
        return cls("hyperbolic", -2.0, -6.0)

    def log_warp_deriv(self, r: np.ndarray) -> np.ndarray:
        """w'(r)/w(r) for the warp w: r, a sin(r/a), or sinh(r)."""
        if self.name == "flat":
            return 1.0 / r
        if self.name == "sphere":
            return np.cos(r / self.radius) / (self.radius * np.sin(r / self.radius))
        # coth(r) as 1 / tanh(r): cosh and sinh overflow past r = 710.
        return 1.0 / np.tanh(r)


def named_background(name: str, radius: float = 1.0) -> Background:
    table = {
        "flat": Background.flat,
        "sphere": lambda: Background.sphere(radius),
        "hyperbolic": Background.hyperbolic,
    }
    if name not in table:
        raise ValueError(f"unknown background '{name}'")
    return table[name]()


class RadialProfile(Record):
    grid: np.ndarray
    values: np.ndarray
    params: SolitonParams
    background: Background

    def __post_init__(self):
        if np.any(np.diff(self.grid) <= 0.0):
            raise ValueError("grid must be strictly increasing")
        if len(self.grid) != len(self.values):
            raise ValueError("grid and values length mismatch")


def make_grid(intervals: int, r_max: float = 1.0) -> np.ndarray:
    return np.linspace(ORIGIN_MARGIN, r_max, intervals + 1)


def _require_grid(grid: np.ndarray) -> None:
    if len(grid) - 1 < MIN_INTERVALS:
        raise GridTooCoarse(
            f"need at least {MIN_INTERVALS} intervals, got {len(grid) - 1}"
        )


def require_before_antipode(background: Background, grid: np.ndarray) -> None:
    """A sphere's warp radius * sin(r / radius) vanishes at r = pi * radius,
    so a sphere grid must end before it."""
    antipode = math.pi * background.radius
    if background.name == "sphere" and grid[-1] >= antipode:
        raise BeyondAntipode(
            f"grid end r = {float(grid[-1])!r} reaches the antipode pi * radius = "
            f"{antipode!r} of the sphere (radius {background.radius!r})"
        )


def derivative_stencils(grid: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """4th-order first/second derivative operators on a uniform grid, as
    row stencils on one column table.

    Returns ``(start, c1, c2)``: row i of d1 (of d2) is ``c1[i]``
    (``c2[i]``) on the grid values ``start[i] ... start[i] + 5``.  Interior
    rows use the centred 5-point stencils; the two rows at each end use
    one-sided ones.
    """
    m = len(grid)
    h = grid[1] - grid[0]
    rows = np.arange(m)
    start = np.clip(rows - 2, 0, m - STENCIL_WIDTH)
    c1 = np.zeros((m, STENCIL_WIDTH))
    c2 = np.zeros((m, STENCIL_WIDTH))
    # interior 5-point stencils, centred on the row (shifted by one slot in
    # row m - 3, whose window is clipped to the grid)
    inner = rows[2 : m - 2]
    slots = (inner - 2 - start[inner])[:, None] + np.arange(5)
    c1[inner[:, None], slots] = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12 * h)
    c2[inner[:, None], slots] = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12 * h * h)
    # one-sided 4th-order stencils at the ends
    e1_0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / (12 * h)
    e1_1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / (12 * h)
    e2_0 = np.array([45.0, -154.0, 214.0, -156.0, 61.0, -10.0]) / (12 * h * h)
    e2_1 = np.array([10.0, -15.0, -4.0, 14.0, -6.0, 1.0]) / (12 * h * h)
    c1[0, :5] = e1_0
    c1[1, :5] = e1_1
    c1[m - 1, 1:] = -e1_0[::-1]
    c1[m - 2, 1:] = -e1_1[::-1]
    c2[0] = e2_0
    c2[1] = e2_1
    c2[m - 1] = e2_0[::-1]
    c2[m - 2] = e2_1[::-1]
    return start, c1, c2


def _columns(start: np.ndarray) -> np.ndarray:
    """The (rows, STENCIL_WIDTH) grid indices a stencil table covers."""
    return start[:, None] + np.arange(STENCIL_WIDTH)


def _apply(coefs: np.ndarray, columns: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Row stencils ``coefs`` on ``columns`` applied to ``values``."""
    return (coefs * values[columns]).sum(axis=1)


def derivative_matrices(grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense view of ``derivative_stencils``: the grid x grid matrices d1, d2."""
    start, c1, c2 = derivative_stencils(grid)
    m = len(grid)
    rows, columns = np.arange(m)[:, None], _columns(start)
    d1 = np.zeros((m, m))
    d2 = np.zeros((m, m))
    d1[rows, columns] = c1
    d2[rows, columns] = c2
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
    start, c1, c2 = derivative_stencils(profile.grid)
    columns = _columns(start)
    coef = soliton_coefficient(profile.params, profile.background)
    fp = _apply(c1, columns, profile.values)
    fpp = _apply(c2, columns, profile.values)
    radial = coef + fpp
    tangential = coef + profile.background.log_warp_deriv(profile.grid) * fp
    return np.concatenate([radial, tangential])


def residual_jacobian(profile: RadialProfile) -> np.ndarray:
    """Jacobian of radial_residual with respect to the grid values (dense)."""
    _require_grid(profile.grid)
    d1, d2 = derivative_matrices(profile.grid)
    warp = profile.background.log_warp_deriv(profile.grid)
    return np.vstack([d2, warp[:, None] * d1])


def band_cholesky(band: list) -> Optional[list]:
    """Cholesky factor L (N = L L^T) of a symmetric band matrix N of
    half-bandwidth 5 (= STENCIL_WIDTH - 1), the only one the solver uses.

    ``band[d][j]`` is N[j, j + d] for d = 0 .. 5, every diagonal of the
    same length n; entries past the end of the matrix are ignored.
    Returns the rows of L, row i as (L[i, i - 5], ..., L[i, i]) (zero
    before column 0), or None when a pivot is not positive and finite:
    N is singular, not positive definite, or not finite.  Raises
    ValueError for another band width or diagonals of unequal length.

    One pass over the rows keeps the last five rows of L in locals.  The
    diagonals get leading zeros and the pass starts from five unit rows,
    so the first rows take the same path as the rest.  Each sum runs left
    to right from 0, the order of a dot product ``sum(map(mul, ...))``.
    """
    if len(band) != STENCIL_WIDTH or len({len(diagonal) for diagonal in band}) > 1:
        raise ValueError(
            f"band_cholesky takes a band of width {STENCIL_WIDTH} (half-bandwidth "
            f"{STENCIL_WIDTH - 1}), diagonals of one length; got width {len(band)}, "
            f"lengths {sorted({len(diagonal) for diagonal in band})}"
        )
    sqrt, inf = math.sqrt, math.inf
    # e{k}{j} is slot j of row i - k of L, kept from slot k on: the slots
    # row i reads
    e11 = e12 = e13 = e14 = e22 = e23 = e24 = e33 = e34 = e44 = 0.0
    e15 = e25 = e35 = e45 = e55 = 1.0
    factor = []
    # N[i, i], N[i - 1, i], ..., N[i - 5, i]
    for b0, b1, b2, b3, b4, b5 in zip(*([0.0] * d + list(diagonal) for d, diagonal in enumerate(band))):
        l0 = b5 / e55
        l1 = (b4 - (0.0 + l0 * e44)) / e45  # from 0: a sum of -0.0 products is +0.0
        l2 = (b3 - (0.0 + l0 * e33 + l1 * e34)) / e35
        l3 = (b2 - (0.0 + l0 * e22 + l1 * e23 + l2 * e24)) / e25
        l4 = (b1 - (0.0 + l0 * e11 + l1 * e12 + l2 * e13 + l3 * e14)) / e15
        s = b0 - (l0 * l0 + l1 * l1 + l2 * l2 + l3 * l3 + l4 * l4)
        if not 0.0 < s < inf:  # also false for nan
            return None
        l5 = sqrt(s)
        factor.append((l0, l1, l2, l3, l4, l5))
        e55, e44, e45, e33, e34, e35 = e45, e34, e35, e23, e24, e25
        e22, e23, e24, e25 = e12, e13, e14, e15
        e11, e12, e13, e14, e15 = l1, l2, l3, l4, l5
    return factor


def band_solve(factor: list, rhs: list) -> list:
    """Solve L L^T x = rhs on the rows of ``band_cholesky``: one forward
    and one back substitution.

    Both keep five values in locals.  The back substitution is column
    oriented: once x[i] is known, L[i, i - k] x[i] is taken off each of
    x[i - 1] .. x[i - 5], so each x[j] loses its terms from the last
    column first.
    """
    y1 = y2 = y3 = y4 = y5 = 0.0  # y[i - 1] .. y[i - 5]
    y = []
    for (c0, c1, c2, c3, c4, c5), b in zip(factor, rhs):  # L y = rhs
        yi = (b - (0.0 + c0 * y5 + c1 * y4 + c2 * y3 + c3 * y2 + c4 * y1)) / c5
        y1, y2, y3, y4, y5 = yi, y1, y2, y3, y4
        y.append(yi)
    n = len(y)
    y[:0] = [0.0] * 5  # y[i + 5] is y_i; the pad stands for unknowns before 0
    # a1 .. a5: x[i] .. x[i - 4] less the terms of the columns after i
    a5, a4, a3, a2, a1 = y[n : n + 5]
    x = []
    for (c0, c1, c2, c3, c4, c5), y_i5 in zip(reversed(factor), reversed(y[:n])):  # L^T x = y
        xi = a1 / c5
        a1, a2, a3, a4, a5 = a2 - c4 * xi, a3 - c3 * xi, a4 - c2 * xi, a5 - c1 * xi, y_i5 - c0 * xi
        x.append(xi)
    x.reverse()
    return x


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
    coefficient on both blocks.  J is held as its 2m + 1 row stencils
    (m grid values), J x is a gather and J^T r a bincount, and the band
    of J^T J (half-bandwidth 5) is summed the same way.  Unless the
    initial residual already meets RESIDUAL_TOL, J^T J is factored once
    (``band_cholesky``) and each step x <- x - (J^T J)^{-1} J^T r(x), an
    undamped Gauss-Newton step, is two triangular solves on that factor.
    Steps repeat while the cost does not rise, at most MAX_STEPS in all:
    refinement runs to the rounding floor, not just below the tolerance.

    A sphere grid that reaches the antipode raises BeyondAntipode.
    Terminates successfully when the sup norm of the soliton blocks is
    at most RESIDUAL_TOL; raises NoConvergence with the final iterate
    attached otherwise, and with the initial iterate when the normal
    matrix is singular.  The output obeys the gauge f(r_0) = 0, so it is
    invariant under additive shifts of the initial guess.  When
    ``cost_trace`` is a list it receives the initial objective value and
    then the value after every accepted step (nonincreasing by
    construction).
    """
    grid = np.asarray(grid, dtype=float)
    _require_grid(grid)
    require_before_antipode(background, grid)
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
    start, c1, c2 = derivative_stencils(grid)
    warp = background.log_warp_deriv(grid)
    # J's rows: radial block, tangential block, regularity row delta * f'(r_0)
    coefs = np.concatenate([c2, warp[:, None] * c1, grid[0] * c1[:1]])
    grid_columns = _columns(np.concatenate([start, start, start[:1]]))
    # x holds f(r_1), ...: grid column k is unknown k - 1.  The gauged
    # column 0 gets a zero coefficient, parked on unknown 0.
    coefs[grid_columns == 0] = 0.0
    columns = np.maximum(grid_columns - 1, 0)
    offset = np.zeros(2 * m + 1)
    offset[: 2 * m] = soliton_coefficient(params, background)

    def residual(x: np.ndarray) -> np.ndarray:
        return _apply(coefs, columns, x) + offset

    def pde_inf(res: np.ndarray) -> float:
        return float(np.max(np.abs(res[:-1])))

    res = residual(x)
    cost = 0.5 * float(res @ res)
    if cost_trace is not None:
        cost_trace.append(cost)
    if pde_inf(res) > RESIDUAL_TOL:
        # Within a row the unknowns are consecutive (a parked slot has a
        # zero coefficient), so slots a and a + d meet on diagonal d of J^T J.
        band = [
            np.bincount(
                columns[:, : STENCIL_WIDTH - d].ravel(),
                weights=(coefs[:, : STENCIL_WIDTH - d] * coefs[:, d:]).ravel(),
                minlength=m - 1,
            ).tolist()
            for d in range(STENCIL_WIDTH)
        ]
        factor = band_cholesky(band)  # None: J^T J is singular, no step is taken
        for _ in range(MAX_STEPS if factor is not None else 0):
            gradient = np.bincount(columns.ravel(), weights=(coefs * res[:, None]).ravel(), minlength=m - 1)
            trial = x - np.array(band_solve(factor, gradient.tolist()))
            trial_res = residual(trial)
            trial_cost = 0.5 * float(trial_res @ trial_res)
            if not trial_cost <= cost:
                break  # the step raised the cost (or is not finite)
            x, res, cost = trial, trial_res, trial_cost
            if cost_trace is not None:
                cost_trace.append(cost)

    profile = RadialProfile(grid, np.concatenate([[0.0], x]), params, background)
    residual_inf = pde_inf(res)
    if residual_inf <= RESIDUAL_TOL:
        return profile
    raise NoConvergence(
        f"residual sup norm {residual_inf:.3e} after least-squares refinement",
        profile=profile,
        residual_inf=residual_inf,
    )
