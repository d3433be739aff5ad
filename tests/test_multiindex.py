import math
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.polynomial import hermite_e

from chaosfilter.multiindex import (MultiIndex, characteristic_set, empty_index,
                                    enumerate_truncated, factorial, hermite_table,
                                    lower, to_line)
from chaosfilter.runtime import _hermite_table

from oracles import hermite_poly, slot_counts, xi_eval

# The r=2 worked reference index: nonzero entries
# a_2^1 = 1, a_4^1 = 2, a_5^1 = 3, a_1^2 = 1, a_2^2 = 2, a_6^2 = 1.
REF_COUNTS = {(2, 1): 1, (4, 1): 2, (5, 1): 3, (1, 2): 1, (2, 2): 2, (6, 2): 1}
REF_PAIRS = ((1, 2), (2, 1), (2, 2), (2, 2), (4, 1), (4, 1),
             (5, 1), (5, 1), (5, 1), (6, 2))


def ref_index():
    return MultiIndex.from_dict(REF_COUNTS, r=2)


def test_empty_index_basics():
    e = empty_index(3)
    assert e.length == 0 and e.order == 0 and e.is_empty()
    assert factorial(e) == 1


def test_length_and_order():
    a = ref_index()
    assert a.length == 10
    assert a.order == 6
    assert a.count(5, 1) == 3 and a.count(3, 1) == 0


def test_enumerate_trivial_and_counts():
    assert enumerate_truncated(0, 4, 2) == [empty_index(2)]
    assert len(enumerate_truncated(2, 2, 1)) == 6
    seven = enumerate_truncated(1, 3, 2)
    assert len(seven) == 7
    assert seven[0].is_empty() and all(a.length == 1 for a in seven[1:])


@pytest.mark.parametrize("N", range(6))
@pytest.mark.parametrize("n", range(1, 5))
@pytest.mark.parametrize("r", range(1, 4))
def test_enumerate_cardinality(N, n, r):
    out = enumerate_truncated(N, n, r)
    assert len(out) == math.comb(n * r + N, N)
    assert len(set(out)) == len(out)
    assert all(a.length <= N and a.order <= n for a in out)


def test_enumerate_order_is_graded_then_lex():
    out = enumerate_truncated(3, 2, 2)

    def slot_vector(a):
        return tuple(a.count(k, l) for k in (1, 2) for l in (1, 2))

    lengths = [a.length for a in out]
    assert lengths == sorted(lengths)
    for prev, cur in zip(out, out[1:]):
        if prev.length == cur.length:
            # descending lexicographic on the flattened count vector
            assert slot_vector(prev) > slot_vector(cur)
    # mass on the first slot leads each grade
    assert slot_vector(out[1]) == (1, 0, 0, 0)


def test_slot_counts_follow_the_enumeration_slots():
    out = enumerate_truncated(3, 2, 2)
    counts = slot_counts(out, 2, 2)
    assert counts.shape == (len(out), 4)
    for a, row in zip(out, counts):
        assert tuple(row) == tuple(a.count(k, l) for k in (1, 2) for l in (1, 2))
    assert counts.sum(axis=1).tolist() == [a.length for a in out]


def test_enumerate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        enumerate_truncated(-1, 2, 1)
    with pytest.raises(ValueError):
        enumerate_truncated(2, 0, 1)
    with pytest.raises(ValueError):
        enumerate_truncated(2, 2, 0)


def test_characteristic_set_reference_example():
    ks = characteristic_set(ref_index())
    assert ks.pairs == REF_PAIRS
    assert len(ks) == 10


def test_characteristic_set_trivial():
    assert characteristic_set(empty_index(2)).pairs == ()
    a = MultiIndex.from_dict({(3, 1): 2}, r=1)
    assert characteristic_set(a).pairs == ((3, 1), (3, 1))


def test_characteristic_set_round_trip_on_enumeration():
    for r in (1, 2, 3):
        for a in enumerate_truncated(4, 3, r):
            assert characteristic_set(a).to_multiindex(r) == a


def test_lower():
    assert lower(empty_index(1), 1, 1) == empty_index(1)
    a = MultiIndex.from_dict({(2, 1): 2}, r=1)
    assert lower(a, 2, 1) == MultiIndex.from_dict({(2, 1): 1}, r=1)
    lowered = lower(ref_index(), 5, 1)
    assert lowered.count(5, 1) == 2
    assert lowered.length == 9
    back = dict(REF_COUNTS)
    back[(5, 1)] = 2
    assert lowered == MultiIndex.from_dict(back, r=2)


def test_lowering_last_characteristic_pair_drops_length_by_one():
    for a in enumerate_truncated(4, 3, 2):
        if a.is_empty():
            continue
        i_k, q_k = characteristic_set(a).pairs[-1]
        assert lower(a, i_k, q_k).length == a.length - 1


def test_factorial():
    assert factorial(MultiIndex.from_dict({(1, 1): 3}, r=1)) == 6
    assert factorial(ref_index()) == 24
    with pytest.raises(ValueError):
        factorial(MultiIndex.from_dict({(1, 1): 25}, r=1))


def test_hermite_poly_examples():
    assert hermite_poly(0, 3.7) == 1.0
    assert hermite_poly(1, 2.0) == 2.0
    assert hermite_poly(2, 2.0) == 3.0


def test_hermite_poly_matches_hermite_e_basis():
    # independent oracle: numpy's probabilists' Hermite series
    xs = np.linspace(-4.0, 4.0, 81)
    for nu in range(13):
        ref = hermite_e.hermeval(xs, [0.0] * nu + [1.0])
        got = hermite_poly(nu, xs)
        scale = np.maximum(np.abs(ref), 1.0)
        assert np.max(np.abs(got - ref) / scale) < 1e-12


def test_hermite_three_term_recurrence():
    xs = np.linspace(-4.0, 4.0, 161)
    for nu in range(1, 12):
        lhs = hermite_poly(nu + 1, xs)
        rhs = xs * hermite_poly(nu, xs) - nu * hermite_poly(nu - 1, xs)
        scale = np.maximum(np.abs(lhs), 1.0)
        assert np.max(np.abs(lhs - rhs) / scale) < 1e-12


def test_xi_eval_examples():
    assert xi_eval(empty_index(1), {}) == 1.0
    a1 = MultiIndex.from_dict({(1, 1): 1}, r=1)
    assert xi_eval(a1, {(1, 1): 0.5}) == pytest.approx(0.5)
    a2 = MultiIndex.from_dict({(1, 1): 2}, r=1)
    assert xi_eval(a2, {(1, 1): 2.0}) == pytest.approx(3.0 / math.sqrt(2.0))


def test_xi_eval_missing_slot():
    a = MultiIndex.from_dict({(2, 1): 1}, r=1)
    with pytest.raises(KeyError):
        xi_eval(a, {(1, 1): 0.3})


def test_xi_statistical_orthonormality():
    # Cameron-Martin orthonormality on J_2^2 with r = 1, by Monte Carlo.
    rng = np.random.default_rng(7)
    indices = enumerate_truncated(2, 2, 1)
    ndraws = 200_000
    draws = rng.standard_normal((ndraws, 2))
    vals = np.empty((len(indices), ndraws))
    for i, a in enumerate(indices):
        prod = np.ones(ndraws)
        for (k, _), c in a.entries:
            prod *= hermite_poly(c, draws[:, k - 1])
        vals[i] = prod / math.sqrt(factorial(a))
    for i in range(len(indices)):
        for j in range(i, len(indices)):
            prod = vals[i] * vals[j]
            mean = prod.mean()
            se = prod.std(ddof=1) / math.sqrt(ndraws)
            target = 1.0 if i == j else 0.0
            assert abs(mean - target) <= 5 * se + 1e-12


def test_serialization_round_trip():
    assert to_line(empty_index(2)) == "-"
    assert to_line(ref_index()) == "1:2:1 2:1:1 2:2:2 4:1:2 5:1:3 6:2:1" == str(ref_index())


def test_multiindex_validation():
    with pytest.raises(ValueError):
        MultiIndex.from_dict({(0, 1): 1}, r=1)
    with pytest.raises(ValueError):
        MultiIndex.from_dict({(1, 2): 1}, r=1)
    with pytest.raises(ValueError):
        MultiIndex((((1, 1), 0),), r=1)


def per_degree_hermite(nu, x):
    # hermite_poly before it read one row of hermite_table: the recurrence
    # rerun from degree 0 for every degree.
    x = np.asarray(x, dtype=float)
    h_prev = np.ones_like(x)
    if nu == 0:
        return h_prev
    h = x.copy()
    for m in range(1, nu):
        h, h_prev = x * h - m * h_prev, h
    return h


@pytest.mark.parametrize("shape", [(), (8, 1), (3, 5, 4, 2)])
def test_hermite_table_equals_per_degree_stack(shape):
    x = 2.5 * np.random.default_rng(3).normal(size=shape)
    for N in (0, 1, 2, 6):
        stack = np.array([per_degree_hermite(c, x) for c in range(N + 1)])
        assert np.array_equal(hermite_table(N, x), stack)
        assert all(np.array_equal(hermite_poly(c, x), stack[c]) for c in range(N + 1))
    assert isinstance(hermite_poly(3, 0.5), float)
    with pytest.raises(ValueError):
        hermite_table(-1, x)


def test_runtime_hermite_table_layout():
    # H_c(xi_slot) / c! at position c n r + slot, as the per-degree concatenation laid it out
    table = SimpleNamespace(n=3, r=2, N=4)
    xi = np.random.default_rng(5).normal(size=(2, 7, 4, 2))
    x = xi[..., :3, :].reshape(2, 7, 6)
    expect = np.concatenate([per_degree_hermite(c, x) / math.factorial(c) for c in range(5)],
                            axis=-1)
    assert np.array_equal(_hermite_table(table, xi), expect)
