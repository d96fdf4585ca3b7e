"""Generic small linear algebra used under the curvature pipeline."""

import numpy as np
import pytest

from ryslab.ad import lift, value_of
from ryslab.errors import MetricSingular
from ryslab.tensors import dot, mat_det, mat_inverse, sym2_norm_sq, trace_pair


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


# -- structural zeros: the float 0.0 costs no product --------------------------

def test_dot_skips_structural_zeros():
    """A pair with a float 0.0 factor is skipped; the sum of the rest has
    the bits of the full sum; nothing left is the float 0.0."""
    u = np.array([0.5, -1.5, 2.0])
    assert dot([0.0, u, 2.0], [u, u, 0.0]).tobytes() == (u * u).tobytes()
    assert dot([0.0, 3.0], [u, 0.0]) == 0.0 and isinstance(dot([0.0], [u]), float)
    assert dot([1.0, u], [u, 2.0 * u]).tobytes() == (1.0 * u + u * (2.0 * u)).tobytes()


def test_conformal_inverse_keeps_structural_zeros():
    """The inverse of a conformally flat matrix of columns holds the float
    0.0 off the diagonal, and its diagonal has the bits of the dense
    inverse (zero columns in place of the float zeros)."""
    conf = np.random.default_rng(3).uniform(0.5, 2.0, size=7)
    sparse = [[conf if i == j else 0.0 for j in range(3)] for i in range(3)]
    dense = [[conf if i == j else np.zeros(7) for j in range(3)] for i in range(3)]
    fast, full = mat_inverse(sparse), mat_inverse(dense)
    for i in range(3):
        for j in range(3):
            if i == j:
                assert fast[i][j].tobytes() == full[i][j].tobytes()
            else:
                assert isinstance(fast[i][j], float) and fast[i][j] == 0.0
                assert not full[i][j].any()
    t = np.random.default_rng(4).uniform(-1.0, 1.0, size=(3, 3, 7))
    assert trace_pair(fast, t).tobytes() == trace_pair(full, t).tobytes()


def test_a_taylor_factor_decides_its_own_zero_product():
    """Beside a Taylor, the float 0.0 is left to the Taylor's product: a
    finite Taylor gives 0.0, a NaN coefficient still propagates into the
    off-diagonal entries of the inverse."""
    t = lift([1.5, 0.5, 2.0], 2)
    diag = [[t[i] if i == j else 0.0 for j in range(3)] for i in range(3)]
    assert mat_inverse(diag)[0][1] == 0.0
    t[0].c[4] = np.nan
    inv = mat_inverse(diag)
    assert np.isnan(inv[0][1].c).any() and np.isnan(inv[2][1].c).any()
