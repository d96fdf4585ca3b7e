"""Small dense linear algebra generic over floats and lifted numbers.

The curvature pipeline runs on Taylor-lifted coordinates (that is how
derivatives of curvature are taken), so inversion and contractions are
written for nested lists of floats, (m,) columns or :mod:`ryslab.ad`
lifts.  Conditioning checks use the float value part only.

A structural zero, the float 0.0, costs no product here either: products
and sums go through ``ad.times``, ``plus`` and ``minus``, which skip one
(beside a Taylor, whose own product decides, so a NaN or inf propagates).
A cofactor both of whose products are skipped is 0.0, so a conformally
flat metric's g^{ij} holds 0.0 off the diagonal.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import reduce

import numpy as np

from .ad import _zero, minus, plus, times, value_of
from .errors import MetricSingular

CONDITION_LIMIT = 1e10


def dot(us, vs):
    """The sum of u * v over paired entries, in order, by the zero rule of
    ``ad.times`` and ``ad.plus`` (0.0 if every product is skipped)."""
    return reduce(plus, map(times, us, vs), 0.0)


def _minor(a, b, c, d):
    """a * b - c * d by the zero rule."""
    return minus(times(a, b), times(c, d))


def mat_inverse(m):
    """Inverse of a small dense matrix with generic entries.

    Dimensions 2 and 3 (the hot path) use the closed-form adjugate;
    larger matrices fall back to Gauss-Jordan without row exchanges.
    Raises MetricSingular when the matrix is not invertible to the
    conditioning threshold.
    """
    n = len(m)
    if n == 2:
        a, b = m[0]
        c, d = m[1]
        det = a * d - b * c
        _guard_det(det, m, n)
        inv = 1.0 / det
        return [[times(d, inv), times(-b, inv)], [times(-c, inv), times(a, inv)]]
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = m
        co = [
            [_minor(e, i, f, h), _minor(c, h, b, i), _minor(b, f, c, e)],
            [_minor(f, g, d, i), _minor(a, i, c, g), _minor(c, d, a, f)],
            [_minor(d, h, e, g), _minor(b, g, a, h), _minor(a, e, b, d)],
        ]
        det = dot((a, b, c), (co[0][0], co[1][0], co[2][0]))
        _guard_det(det, m, n)
        inv = 1.0 / det
        return [[times(x, inv) for x in row] for row in co]
    return _gauss_jordan_inverse(m)


def _guard_det(det, m, n):
    dv = np.abs(value_of(det))
    scale = value_of(m[0][0])
    scale = np.abs(scale)
    for i in range(n):
        for j in range(n):
            scale = np.maximum(scale, np.abs(value_of(m[i][j])))
    if np.any(dv * CONDITION_LIMIT <= scale**n):
        bad = float(np.min(dv)) if np.ndim(dv) else float(dv)
        raise MetricSingular(
            f"determinant {bad:.3e} below conditioning floor (threshold {CONDITION_LIMIT:.1e})"
        )


def _gauss_jordan_inverse(m):
    """Gauss-Jordan without row exchanges: a metric is positive definite, so
    every diagonal pivot is positive, and the same steps serve floats and
    columns."""
    n = len(m)
    a = [row[:] for row in m]
    inv = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    scale = reduce(np.maximum, [np.abs(value_of(v)) for row in m for v in row])
    floor = scale / CONDITION_LIMIT
    for col in range(n):
        d = a[col][col]
        dv = np.abs(value_of(d))
        if np.any(dv <= floor):
            raise MetricSingular(
                f"pivot {float(np.min(dv)):.3e} below conditioning floor "
                f"{float(np.max(floor)):.3e}"
            )
        arow, irow = a[col], inv[col]
        for j in range(n):
            arow[j] = arow[j] / d
            irow[j] = irow[j] / d
        for r in range(n):
            if r == col:
                continue
            f = a[r][col]
            ar, ir = a[r], inv[r]
            for j in range(n):
                ar[j] = ar[j] - f * arow[j]
                ir[j] = ir[j] - f * irow[j]
    return inv


def mat_det(m):
    """Determinant with generic entries; closed form for n <= 3, else the
    product of the pivots of elimination without row exchanges (valid
    for a metric, whose leading minors are positive)."""
    n = len(m)
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = m
        return (
            a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        )
    a = [row[:] for row in m]
    det = 1.0
    for col in range(n):
        d = a[col][col]
        if np.any(value_of(d) == 0.0):
            raise MetricSingular("a leading minor vanishes: not a metric")
        det = det * d
        for r in range(col + 1, n):
            f = a[r][col] / d
            for j in range(col, n):
                a[r][j] = a[r][j] - f * a[col][j]
    return det


def mat_vec(m, v):
    return [dot(row, v) for row in m]


def trace_pair(ginv, t):
    """g^{ij} T_ij for matching square matrices."""
    return dot([x for row in ginv for x in row], [x for row in t for x in row])


def trace_read(ginv, t):
    """``trace_pair`` for a ``t`` with no Taylor entry, reading T_ij only
    where g^{ij} is no structural zero (elsewhere ``ad.times`` skips the
    product): a ``Symmetric`` ``t`` never forms the other entries."""
    n = len(ginv)
    pairs = [(i, j) for i in range(n) for j in range(n) if not _zero(ginv[i][j])]
    return dot([ginv[i][j] for i, j in pairs], [t[i][j] for i, j in pairs])


class Symmetric(Sequence):
    """An n x n symmetric matrix whose entries are formed on first read:
    ``m[j][k]`` calls ``entry(j, k)`` once for j <= k and keeps the result
    as both (j, k) and (k, j), so the two are one object."""

    def __init__(self, n, entry):
        self._n, self._entry, self._formed = n, entry, {}

    def __len__(self):
        return self._n

    def __getitem__(self, j):
        return _SymmetricRow(self, range(self._n)[j])

    def read(self, j, k):
        key = (j, k) if j <= k else (k, j)
        if key not in self._formed:
            self._formed[key] = self._entry(*key)
        return self._formed[key]


class _SymmetricRow(Sequence):
    """Row j of a ``Symmetric``: ``row[k]`` reads entry (j, k)."""

    def __init__(self, matrix, j):
        self._matrix, self._j = matrix, j

    def __len__(self):
        return len(self._matrix)

    def __getitem__(self, k):
        return self._matrix.read(self._j, range(len(self._matrix))[k])


def quadratic_form(t, v):
    """T(v, v) = T_ij v^i v^j, e.g. Ric(grad f, grad f)."""
    n = len(v)
    return sum(t[i][j] * v[i] * v[j] for i in range(n) for j in range(n))


def sym2_norm_sq(ginv, t):
    """|T|^2 = T_ij T_kl g^{ik} g^{jl} with both indices raised."""
    n = len(ginv)
    total = 0.0
    for i in range(n):
        for j in range(n):
            raised = sum(
                ginv[i][k] * ginv[j][l] * t[k][l] for k in range(n) for l in range(n)
            )
            total = total + t[i][j] * raised
    return total
