"""Property tests of ``quadrature.ExactSum``: terms added in pieces sum
to ``exact_sum`` of all of them and to ``math.fsum``, bit for bit."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from ryslab import quadrature as quad  # noqa: E402

TINY = 2.0**-1074
BIG = sys.float_info.max

FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-(2.0**-1022), max_value=2.0**-1022),  # subnormals and their neighbours
    st.floats(min_value=1e307, max_value=BIG).flatmap(lambda v: st.sampled_from([v, -v])),
    st.sampled_from([0.0, -0.0, TINY, -TINY, 1.0, -1.0, 2.0**-53]),
)


@st.composite
def term_arrays(draw, elements=FINITE):
    """Finite terms, or the same joined with their negations (an exact
    zero), or all -0.0."""
    x = draw(st.lists(elements, max_size=40))
    kind = draw(st.sampled_from(["plain", "cancelling", "negative-zeros"]))
    if kind == "cancelling":
        x = draw(st.permutations(x + [-v for v in x]))
    elif kind == "negative-zeros":
        x = [-0.0] * len(x)
    return np.array(x, dtype=float)


@st.composite
def pieces(draw, x):
    """``x`` cut at random split points (empty pieces included)."""
    cuts = sorted(draw(st.lists(st.integers(0, len(x)), max_size=6)))
    return [x[a:b] for a, b in zip([0] + cuts, cuts + [len(x)])]


def outcome(summer):
    """The bytes of a sum, or the type of the error it raised."""
    try:
        return np.float64(summer()).tobytes()
    except (OverflowError, ValueError) as exc:
        return type(exc)


def summed_in_pieces(parts):
    total = quad.ExactSum()
    for part in parts:
        total.add(part)
    return total.value()


@st.composite
def split_sums(draw, elements=FINITE):
    """(terms, pieces, exact slice, chunk): small slices and chunks, so
    that the terms span several of each."""
    x = draw(term_arrays(elements))
    return x, draw(pieces(x)), draw(st.integers(1, 9)), draw(st.integers(1, 9))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(split_sums())
def test_pieces_sum_to_exact_sum_and_fsum_bit_for_bit(case):
    """Finite terms in pieces, with bins folded every few terms: the same
    bits as ``exact_sum`` of the whole array and as ``math.fsum`` (sign of
    zero included), or the same OverflowError for a sum beyond the largest
    double.  Where ``math.fsum`` raises on an overflowing partial sum, the
    reference is the exact rational sum, rounded once."""
    x, parts, exact_slice, chunk = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quad, "_EXACT_SLICE", exact_slice)
        mp.setattr(quad, "_CHUNK", chunk)
        got = outcome(lambda: summed_in_pieces(parts))
        assert got == outcome(lambda: quad.exact_sum(x))
    reference = outcome(lambda: math.fsum(x.tolist()))
    if reference is OverflowError:
        reference = outcome(lambda: float(sum(map(Fraction, x.tolist()), Fraction(0))))
    assert got == reference


def fsum_of_specials(x):
    """``exact_sum``'s documented result on terms with a non-finite one:
    ValueError for inf - inf, else nan if there is one, else the inf."""
    specials = x[~np.isfinite(x)]
    if np.isposinf(specials).any() and np.isneginf(specials).any():
        return ValueError
    return np.float64(math.nan if np.isnan(specials).any() else specials[0]).tobytes()


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(split_sums(st.one_of(FINITE, st.sampled_from([math.nan, math.inf, -math.inf]))))
def test_pieces_with_non_finite_terms_give_the_documented_result(case):
    """Any piece holding nan or +-inf gives ``exact_sum``'s documented
    result, whatever the finite terms (even ones whose partial sums
    overflow) and wherever the pieces are cut."""
    x, parts, exact_slice, chunk = case
    assume(not np.isfinite(x).all())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quad, "_EXACT_SLICE", exact_slice)
        mp.setattr(quad, "_CHUNK", chunk)
        got = outcome(lambda: summed_in_pieces(parts))
        assert got == outcome(lambda: quad.exact_sum(x)) == fsum_of_specials(x)


def test_many_sums_held_at_once_stay_small():
    """A sum's bins span only the exponents its terms have reached, so
    the 1,000 sums of ``integrate --divergence 1000`` cost little memory:
    here 200 sums of terms between 2**-70 and 1 hold under 1 MB together
    (2 x 2,098 bins each would be 6.7 MB), and each is still ``math.fsum``
    of its terms."""
    import tracemalloc

    rng = np.random.default_rng(5)
    terms = rng.standard_normal((200, 1000)) * 2.0 ** rng.uniform(-70.0, 0.0, size=(200, 1000))
    tracemalloc.start()
    try:
        sums = [quad.ExactSum() for _ in terms]
        for total, x in zip(sums, terms):
            total.add(x[:500])
            total.add(x[500:])
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 1_000_000, held
    assert [total.value() for total in sums] == [math.fsum(x.tolist()) for x in terms]
