"""Chart domains, sampling, and the public derivative operation."""

import math

import numpy as np
import pytest

from ryslab import ad
from ryslab.errors import NotSPD, OrderTooHigh, StencilOutOfDomain
from ryslab.geometry import (
    ChartDomain,
    ChartPoint,
    MetricField,
    PointBatch,
    ScalarField,
    partial_derivative,
    sample_points,
    seeded_uniform,
)

UNIT_BOX3 = ChartDomain(3, ((0.0, 1.0),) * 3, "unit-box")


def test_domain_validation():
    with pytest.raises(ValueError):
        ChartDomain(1, ((0.0, 1.0),))
    with pytest.raises(ValueError):
        ChartDomain(2, ((0.0, 1.0), (1.0, 1.0)))
    with pytest.raises(ValueError):
        ChartDomain(2, ((0.0, 1.0),))


def test_chart_point_requires_finite():
    with pytest.raises(ValueError):
        ChartPoint((0.0, math.inf))


def test_sample_points_deterministic():
    a = sample_points(UNIT_BOX3, 10, seed=7)
    b = sample_points(UNIT_BOX3, 10, seed=7)
    assert np.array_equal(a.columns, b.columns)
    c = sample_points(UNIT_BOX3, 10, seed=8)
    assert not np.array_equal(a.columns, c.columns)


def _drawn_rows(domain, count, seed):
    """The seeded uniform draw of ``sample_points``, one tuple of Python
    floats per point, as the points of a draw were once built row by row."""
    rng = np.random.default_rng(seed)
    lows = [lo + domain.margin(i) for i, (lo, _) in enumerate(domain.bounds)]
    highs = [hi - domain.margin(i) for i, (_, hi) in enumerate(domain.bounds)]
    return [tuple(float(c) for c in row) for row in rng.uniform(lows, highs, size=(count, domain.dim))]


# Seeds of one word, the largest 31- and the smallest 33-bit, and seeds of
# 3 and 7 words, which SeedSequence mixes by its multi-word path.
SEEDS = [0, 7, 2**31 - 1, 2**32, 2**64 + 1, 2**200 + 12345]


def _bits(values):
    return np.array(values, dtype=float).tobytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_seeded_uniform_is_numpys_stream(seed):
    """Bit for bit ``np.random.default_rng(seed).uniform``: with scalar
    bounds, with per-column bounds over rows, and as one stream that
    consecutive calls on one generator split (16 + 4 draws)."""
    expected = np.random.default_rng(seed).uniform(-1.0, 1.0, size=300)
    assert _bits(seeded_uniform(seed, [(-1.0, 1.0)], 300)) == expected.tobytes()
    bounds = [(0.05, 0.95), (-3.0, 2.5), (1e-3, 7.0)]
    lows, highs = zip(*bounds)
    expected = np.random.default_rng(seed).uniform(lows, highs, size=(70, 3))
    assert _bits(seeded_uniform(seed, bounds, 70)) == expected.tobytes()
    rng = np.random.default_rng(seed)
    expected = [*rng.uniform(-1.0, 1.0, size=(4, 4)).ravel(), *rng.uniform(-1.0, 1.0, size=4)]
    assert _bits(seeded_uniform(seed, [(-1.0, 1.0)] * 4, 5)) == _bits(expected)


def test_seeded_uniform_is_one_row_per_draw_and_takes_integer_seeds():
    draws = seeded_uniform(np.int64(3), [(0.0, 1.0), (2.0, 4.0)], 2)
    assert draws.shape == (2, 2) and draws.dtype == np.float64
    assert np.array_equal(draws, seeded_uniform(3, [(0.0, 1.0), (2.0, 4.0)], 2))
    assert seeded_uniform(3, [(0.0, 1.0)], 0).shape == (0, 1)
    with pytest.raises(ValueError):
        seeded_uniform(-1, [(0.0, 1.0)], 1)
    with pytest.raises(TypeError):
        seeded_uniform(1.5, [(0.0, 1.0)], 1)


@pytest.mark.parametrize("rows", [1, 63, 64, 65, 129, 5000])
def test_seeded_uniform_matches_numpy_across_the_doubling_rounds(rows):
    """The first 64 states are stepped in Python ints and the rest doubled
    in uint64 halves; the stream is numpy's on both sides of each seam."""
    bounds = [(-2.0, 3.0), (0.25, 0.5)]
    lows, highs = zip(*bounds)
    for seed in (11, 2**64 + 1):
        expected = np.random.default_rng(seed).uniform(lows, highs, size=(rows, 2))
        assert seeded_uniform(seed, bounds, rows).tobytes() == expected.tobytes()


@pytest.mark.parametrize("count, seed", [(1, 7), (5, 3), (200, 7), (1030, 2007), (3, 2**64 + 1), (4, 2**200 + 12345)])
def test_sample_points_are_the_drawn_floats_as_one_column_array(count, seed):
    """On every catalog chart the batch's columns hold, bit for bit, the
    floats of the draw's rows, in one contiguous (dim, count) array."""
    from ryslab import catalog

    for entry in catalog.catalog_entries():
        for chart in entry.charts:
            batch = sample_points(chart, count, seed)
            rows = _drawn_rows(chart, count, seed)
            base = batch.columns[0].base
            assert base.shape == (chart.dim, count) and base.flags.c_contiguous
            assert all(column.base is base and column.dtype == np.float64 for column in batch.columns)
            assert base.tobytes() == np.array(rows).T.tobytes(), (entry.name, chart.label)


def test_batch_points_are_built_when_read():
    dom = ChartDomain(2, ((-1.0, 1.0), (0.0, 3.0)), "box")
    batch = sample_points(dom, 4, seed=5)
    rows = _drawn_rows(dom, 4, seed=5)
    assert len(batch) == 4
    for k, row in enumerate(rows):
        assert batch[k] == ChartPoint(tuple(float(c) for c in row))
        assert all(type(c) is float for c in batch[k].coords)
    assert batch[-1] == batch[3] and list(batch) == [ChartPoint(row) for row in rows]
    with pytest.raises(IndexError):
        batch[4]
    one = PointBatch.of((0.5, 1))
    assert len(one) == 1 and one.shape == () and one.columns == [0.5, 1.0]
    assert one[0] == ChartPoint((0.5, 1.0)) and list(one) == [one[0]]
    assert PointBatch.of(one) is one and PointBatch.of_points(batch) is batch
    listed = PointBatch.of_points([ChartPoint(row) for row in rows])
    assert listed.shape == (4,) and np.array_equal(listed.columns, batch.columns)


def test_point_batch_rejects_anything_but_columns_or_one_point():
    point = ChartPoint((0.25, 0.5))
    column = np.array([0.25, 0.5])
    for bad in (
        [point, point],                      # a list of points
        [(0.25, 0.5), (0.5, 0.75)],          # coordinate rows
        [column, np.array([0.25])],          # columns of different lengths
        [np.array([]), np.array([])],        # columns of no point
        [],                                  # no column
        [column, 0.5],                       # a column and a float
        [np.array([1, 2]), np.array([3, 4])],  # integer columns
        [np.ones((2, 2))],                   # a column of more than one axis
        [0.25, math.nan],                    # a non-finite point
        [column, np.array([0.5, math.inf])],  # a non-finite column
    ):
        with pytest.raises(ValueError):
            PointBatch(bad)
    with pytest.raises(ValueError):
        PointBatch.of_points([])


def test_sample_points_interior_margin():
    dom = ChartDomain(3, ((-2.0, 2.0), (0.0, 1.0), (5.0, 9.0)), "box")
    for p in sample_points(dom, 100, seed=3):
        assert dom.contains_with_margin(p.coords)


def test_sample_mean_near_center():
    pts = sample_points(UNIT_BOX3, 1000, seed=1)
    arr = np.array([p.coords for p in pts])
    assert np.all(np.abs(arr.mean(axis=0) - 0.5) < 0.05)


def test_sample_points_count_guard():
    with pytest.raises(ValueError):
        sample_points(UNIT_BOX3, 0, seed=1)


def test_partial_derivative_trivial_cases():
    dom = ChartDomain(3, ((-3.0, 3.0),) * 3, "box")
    f = ScalarField(lambda x: x[0] ** 2 * x[1], dom, "poly")
    assert partial_derivative(f, (1.0, 2.0, 0.0), (0, 0)) == 4.0
    p = (0.3, 0.5, -0.2)
    assert partial_derivative(f, p, ()) == f(p)


def test_partial_derivative_fd_backend_matches():
    dom = ChartDomain(2, ((-1.0, 1.0),) * 2, "box")
    f = ScalarField(lambda x: ad.sin(x[0]) * ad.exp(x[1]), dom, "trig")
    p = (0.2, -0.3)
    for index in [(0,), (0, 1), (1, 1, 0)]:
        dual = partial_derivative(f, p, index, backend="dual")
        fd = partial_derivative(f, p, index, backend="fd")
        assert abs(dual - fd) <= 1e-7 * (1 + abs(dual))
    with pytest.raises(ValueError):
        partial_derivative(f, p, (0,), backend="nope")


def test_partial_derivative_guards():
    dom = ChartDomain(2, ((0.0, 1.0),) * 2, "box")
    f = ScalarField(lambda x: x[0], dom, "coord")
    with pytest.raises(StencilOutOfDomain):
        partial_derivative(f, (0.01, 0.5), (0,))
    with pytest.raises(OrderTooHigh):
        partial_derivative(f, (0.5, 0.5), (0,) * 5)
    with pytest.raises(ValueError):
        partial_derivative(f, (0.5, 0.5), (3,))


def test_metric_symmetrized_by_construction():
    dom = ChartDomain(2, ((-1.0, 1.0),) * 2, "box")
    g = MetricField(lambda x: [[1.0, 0.25], [0.0, 2.0]], dom, "asym-input")
    m = g.matrix_np((0.0, 0.0))
    assert m[0, 1] == m[1, 0] == 0.125


def test_require_spd_raises_on_indefinite():
    dom = ChartDomain(2, ((-1.0, 1.0),) * 2, "box")
    g = MetricField(lambda x: [[1.0, 0.0], [0.0, -1.0]], dom, "indef")
    with pytest.raises(NotSPD):
        g.require_spd(sample_points(dom, 5, seed=2))
