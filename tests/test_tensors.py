"""Generic small linear algebra used under the curvature pipeline."""

import numpy as np
import pytest

from ryslab.ad import lift, value_of
from ryslab.errors import MetricSingular
from ryslab.tensors import mat_det, mat_inverse, sym2_norm_sq, trace_pair


def random_spd(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, size=(n, n))
    return (a @ a.T + n * np.eye(n)).tolist()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_inverse_matches_numpy(n):
    m = random_spd(n, n)
    inv = np.array(mat_inverse(m))
    assert np.max(np.abs(inv @ np.array(m) - np.eye(n))) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_det_matches_numpy(n):
    m = random_spd(n, 10 + n)
    assert mat_det(m) == pytest.approx(np.linalg.det(np.array(m)), rel=1e-12)


def test_inverse_propagates_duals():
    """The Taylor series of the inverse of [[1+t, 0], [0, 2]] at t=0 is
    [[1 - t + t^2 - ..., 0], [0, 1/2]]: to first order (a dual number) and
    to third."""
    t = lift([0.0], 1)[0]
    inv = mat_inverse([[1.0 + t, 0.0], [0.0, 2.0]])
    assert inv[0][0].c.tolist() == [1.0, -1.0]
    t = lift([0.0], 3)[0]
    m = [[1.0 + t, 0.0], [0.0, 2.0]]
    inv = mat_inverse(m)
    assert value_of(inv[0][0]) == 1.0
    assert inv[0][0].c.tolist() == [1.0, -1.0, 1.0, -1.0]
    assert value_of(inv[1][1]) == 0.5


def test_singular_guard_all_sizes():
    for n in (2, 3, 4):
        for one in (1.0, np.ones(3)):
            m = [[one] * n for _ in range(n)]
            with pytest.raises(MetricSingular):
                mat_inverse(m)


def test_trace_and_norm_contractions():
    g = [[2.0, 0.0], [0.0, 0.5]]
    ginv = mat_inverse(g)
    t = [[4.0, 1.0], [1.0, 3.0]]
    assert trace_pair(ginv, t) == pytest.approx(4.0 / 2.0 + 3.0 / 0.5)
    # |t|^2 = t_ij t_kl g^ik g^jl
    tn = np.array(t)
    gi = np.array([[0.5, 0.0], [0.0, 2.0]])
    expected = float(np.einsum("ij,kl,ik,jl->", tn, tn, gi, gi))
    assert sym2_norm_sq(ginv, t) == pytest.approx(expected)


@pytest.mark.parametrize("n", [4, 5])
def test_elimination_on_columns_equals_each_point(n):
    """n >= 4 eliminates without row exchanges, so a batch of matrices as
    (m,) columns takes exactly the steps of each matrix alone."""
    mats = [random_spd(n, 20 + k) for k in range(3)]
    cols = [[np.array([mat[i][j] for mat in mats]) for j in range(n)] for i in range(n)]
    inv, det = mat_inverse(cols), mat_det(cols)
    for k, mat in enumerate(mats):
        one = mat_inverse(mat)
        assert all(inv[i][j][k] == one[i][j] for i in range(n) for j in range(n))
        assert det[k] == mat_det(mat)
        assert det[k] == pytest.approx(np.linalg.det(np.array(mat)), rel=1e-12)


def test_det_of_a_singular_metric_is_rejected():
    with pytest.raises(MetricSingular):
        mat_det([[1.0] * 4 for _ in range(4)])
