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
import operator
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


_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
# PCG64's 128-bit LCG multiplier, and SeedSequence's hash constants: the
# entropy mixing hashes with the powers of 0x931E8875 from 0x43B0D7E5, the
# state output with the powers of 0x58F38DED from 0x8B51F9DD.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_LOW32, _11, _32, _58, _63 = (np.uint64(v) for v in (_MASK32, 11, 32, 58, 63))


def _powers(init: int, mult: int, count: int) -> tuple:
    keys = [init]
    for _ in range(count):
        keys.append(keys[-1] * mult & _MASK32)
    return tuple(keys)


_MIX_KEYS = _powers(0x43B0D7E5, 0x931E8875, 16)
_STATE_KEYS = _powers(0x8B51F9DD, 0x58F38DED, 8)


def _hash(value: int, keys: tuple, k: int) -> int:
    """SeedSequence's k-th hash of a 32-bit word: XOR with keys[k], times
    keys[k + 1], then XOR with its own top half."""
    value = (value ^ keys[k]) * keys[k + 1] & _MASK32
    return value ^ value >> 16


def _mix(x: int, y: int) -> int:
    value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
    return value ^ value >> 16


def _pcg64_seeded(seed: int) -> tuple[int, int]:
    """(state, increment) of ``numpy.random.PCG64(seed)``: SeedSequence
    mixes the seed's 32-bit words (low first) into a pool of 4, the pool
    hashes out 4 64-bit words, and they seed the generator."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    words = []
    while True:
        words.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    keys = _MIX_KEYS if len(words) <= 4 else _powers(_MIX_KEYS[0], 0x931E8875, 4 * len(words))
    pool = [_hash(words[i] if i < len(words) else 0, keys, i) for i in range(4)]
    k = 4
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], keys, k))
                k += 1
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hash(word, keys, k))
            k += 1
    out = [_hash(pool[i % 4], _STATE_KEYS, i) for i in range(8)]
    # 32-bit words read little-endian as 64-bit words a, b, c, d.
    a, b, c, d = (out[i] | out[i + 1] << 32 for i in range(0, 8, 2))
    increment = ((c << 64 | d) << 1 | 1) & _MASK128
    state = (increment + (a << 64 | b)) & _MASK128  # one step from state 0, plus the seed
    return (state * _PCG_MULT + increment) & _MASK128, increment


def _times_plus(hi: np.ndarray, lo: np.ndarray, a: int, c: int) -> tuple[np.ndarray, np.ndarray]:
    """(a * s + c) mod 2**128 for each 128-bit s held as uint64 halves
    ``hi``, ``lo``, and 128-bit Python ints a, c.  numpy's uint64 products
    wrap mod 2**64, so only lo * a's carry into the top half needs the
    32-bit halves, whose products fit 64 bits."""
    a_hi, a_lo = np.uint64(a >> 64), np.uint64(a & _MASK64)
    x0, x1 = lo & _LOW32, lo >> _32
    y0, y1 = a_lo & _LOW32, a_lo >> _32
    p00, p01, p10 = x0 * y0, x0 * y1, x1 * y0
    mid = (p00 >> _32) + (p01 & _LOW32) + (p10 & _LOW32)
    top = x1 * y1 + (p01 >> _32) + (p10 >> _32) + (mid >> _32) + hi * a_lo + lo * a_hi
    c_lo = np.uint64(c & _MASK64)
    new_lo = lo * a_lo + c_lo
    return top + np.uint64(c >> 64) + (new_lo < c_lo), new_lo


def seeded_uniform(seed: int, bounds: Sequence[tuple[float, float]], rows: int) -> np.ndarray:
    """numpy's ``default_rng(seed).uniform(lows, highs, size=(rows, len(bounds)))``,
    bit for bit: a (rows, len(bounds)) float array whose column j lies in
    ``bounds[j]``.  One call of ``rows`` rows gives what consecutive numpy
    calls on one generator give.

    The generator is PCG64 (O'Neill 2014) seeded through SeedSequence; draw
    k steps the 128-bit LCG to state s_k, takes its XSL-RR output and maps
    the top 53 bits to ``low + (high - low) * u`` with u in [0, 1).  The
    states come by doubling, m at a time: s_{k+m} = A_m s_k + c_m with
    (A_1, c_1) = (multiplier, increment), A_2m = A_m**2 and
    c_2m = (A_m + 1) c_m, all mod 2**128: the first 64 in Python ints,
    which step a short draw faster than numpy's per-call cost, and the
    rest as uint64 halves in numpy.
    """
    state, increment = _pcg64_seeded(seed)
    count = rows * len(bounds)
    states = [(state * _PCG_MULT + increment) & _MASK128]
    a, c = _PCG_MULT, increment
    while len(states) < min(count, 64):
        states += [(a * s + c) & _MASK128 for s in states[: count - len(states)]]
        a, c = a * a & _MASK128, (a + 1) * c & _MASK128
    hi = np.array([s >> 64 for s in states], dtype=np.uint64)
    lo = np.array([s & _MASK64 for s in states], dtype=np.uint64)
    while len(lo) < count:
        more = count - len(lo)
        top, bottom = _times_plus(hi[:more], lo[:more], a, c)
        hi, lo = np.concatenate((hi, top)), np.concatenate((lo, bottom))
        a, c = a * a & _MASK128, (a + 1) * c & _MASK128
    hi, lo = hi[:count], lo[:count]
    rot = hi >> _58
    word = hi ^ lo
    word = word >> rot | word << (-rot & _63)
    u = (word >> _11).astype(np.float64) * 2.0**-53
    lows = np.array([low for low, _ in bounds], dtype=np.float64)
    spans = np.array([high - low for low, high in bounds], dtype=np.float64)
    return lows + spans * u.reshape(rows, len(bounds))


def sample_points(domain: ChartDomain, count: int, seed: int) -> PointBatch:
    """Seeded uniform interior samples respecting the stencil margin, as
    one batch whose columns are one contiguous (dim, count) array.

    Deterministic for a fixed (domain, count, seed) triple.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    bounds = [(lo + domain.margin(i), hi - domain.margin(i)) for i, (lo, hi) in enumerate(domain.bounds)]
    return PointBatch(seeded_uniform(seed, bounds, count).T.copy())


def constant_scalar(domain: ChartDomain, value: float, name: str = "const") -> ScalarField:
    return ScalarField(lambda x, v=value: v, domain, name)
