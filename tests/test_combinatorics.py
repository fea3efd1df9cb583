from __future__ import annotations

import copy
import math
import pickle
from fractions import Fraction as F

import pytest

import _oracles as oracle
from conftest import CENSUS, SMALL_FAMILY
from orbimirror import (
    Weights,
    age,
    fixed_indices,
    inverse_sector,
    k_min,
    s_sequence,
    sector_dim,
    sector_table,
    sectors,
    spectrum,
)


def test_weights_validation():
    with pytest.raises(ValueError):
        Weights()
    with pytest.raises(ValueError):
        Weights(0, 2)
    with pytest.raises(ValueError):
        Weights(1, -1)
    with pytest.raises(ValueError):
        Weights("1")
    # A lone argument that is neither an int nor iterable is refused as a
    # weight, like the same value inside a longer vector or a list.
    for args in [(2.0,), (2.0, 1), ([2.0],)]:
        with pytest.raises(ValueError, match=r"^weights must be integers >= 1, got 2\.0$"):
            Weights(*args)
    with pytest.raises(ValueError, match="^weights must be integers >= 1, got None$"):
        Weights(None)
    assert Weights([1, 2]) == Weights(1, 2)
    assert Weights(2, 4).mu == 6
    assert Weights(2, 4).n == 1
    assert Weights(4, 6, 9).lcm == math.lcm(4, 6, 9) == 36


def test_weights_are_immutable():
    w = Weights(2, 4)
    with pytest.raises(AttributeError):
        w.mu = 7
    with pytest.raises(AttributeError):
        del w.mu
    with pytest.raises(AttributeError):
        w.w = (1, 5)
    with pytest.raises(AttributeError):
        w.lcm = 8
    assert w.mu == 6 and w.w == (2, 4) and w.lcm == 4
    # Equality and hashing read the weights alone.
    assert w == Weights([2, 4]) and hash(w) == hash((2, 4))
    assert w != Weights(4, 2) and w != Weights(1, 5)


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda w: pickle.loads(pickle.dumps(w))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_weights_copy_and_pickle(clone):
    w = Weights(1, 2)
    other = clone(w)
    assert other == w and hash(other) == hash(w)
    assert other.w == (1, 2) and other.mu == 3 and other.lcm == 2
    wide = clone(Weights(4, 6, 9))
    assert wide.lcm == math.lcm(*wide.w) == 36
    with pytest.raises(AttributeError):
        other.mu = 7
    with pytest.raises(AttributeError):
        del other.w
    assert other.mu == 3


def test_sectors_examples():
    assert sectors(Weights(1, 1, 1)) == (F(0),)
    assert sectors(Weights(1, 2, 2, 3, 3, 3)) == (F(0), F(1, 3), F(1, 2), F(2, 3))
    assert sectors(Weights(1, 2)) == (F(0), F(1, 2))


def test_is_sector_matches_enumeration():
    # g in [0, 1) is a sector exactly when the denominator of the reduced g
    # divides some w_i.
    for wt in SMALL_FAMILY:
        w = Weights(wt)
        listed = set(sectors(w))
        for den in range(1, max(wt) + 1):
            for num in range(den):
                g = F(num, den)
                divides = any(wi % g.denominator == 0 for wi in wt)
                assert divides == (g in listed), (wt, g)
        assert all(0 <= g < 1 for g in listed)


def test_fixed_indices_examples():
    w = Weights(1, 2, 2, 3, 3, 3)
    assert fixed_indices(w, F(1, 2)) == {1, 2}
    assert fixed_indices(w, F(1, 3)) == {3, 4, 5}
    assert fixed_indices(w, F(0)) == {0, 1, 2, 3, 4, 5}
    assert fixed_indices(Weights(1, 2), F(0)) == {0, 1}


def test_age_examples():
    w = Weights(1, 2, 2, 3, 3, 3)
    assert age(w, F(0)) == 0
    assert age(w, F(1, 3)) == F(5, 3)
    assert age(w, F(1, 2)) == 2


def test_s_sequence_examples():
    assert s_sequence(Weights(1, 2)) == (F(0), F(0), F(1, 2))
    assert s_sequence(Weights(1, 1, 1)) == (F(0), F(0), F(0))
    w = Weights(1, 2, 2, 3, 3, 3)
    assert s_sequence(w) == (
        (F(0),) * 6 + (F(1, 3),) * 3 + (F(1, 2),) * 2 + (F(2, 3),) * 3
    )


def test_spectrum_examples():
    assert spectrum(Weights(1, 1, 1)) == (F(0), F(1), F(2))
    assert spectrum(Weights(1, 2)) == (F(0), F(1), F(1, 2))
    assert spectrum(Weights(1, 2, 2, 3, 3, 3)) == (
        F(0), F(1), F(2), F(3), F(4), F(5),
        F(4, 3), F(7, 3), F(10, 3),
        F(2), F(3),
        F(5, 3), F(8, 3), F(11, 3),
    )


def test_k_min_examples():
    assert k_min(Weights(1, 2), F(0)) == 0
    assert k_min(Weights(1, 2), F(1, 2)) == 2
    assert k_min(Weights(1, 2, 2, 3, 3, 3), F(2, 3)) == 11


def test_sector_table_fields_match_definitions():
    # The table against the Fraction definitions in the oracles.
    assert len(CENSUS) == 128
    for wt in SMALL_FAMILY + CENSUS:
        w = Weights(wt)
        table = sector_table(w)
        assert tuple(table) == sectors(w), wt
        values = s_sequence(w)
        lcm = math.lcm(*wt)
        for g, s in table.items():
            fixed = oracle.fixed_indices(w, g)
            weight_product = 1
            for i in fixed:
                weight_product *= wt[i]
            assert s.gamma == g
            assert s.inverse == inverse_sector(g)
            assert s.parts == tuple(lcm * oracle.frac(g * wi) for wi in wt)
            assert all(type(p) is int for p in s.parts)
            assert s.fixed == fixed
            assert s.age == oracle.age(w, g)
            assert s.dim == oracle.sector_dim(w, g)
            assert s.inv_weight_product == F(1, weight_product)
            assert s.k_min == oracle.k_min(w, g) == values.index(g), (wt, g)


@pytest.mark.parametrize("g", [F(1, 3), F(1), F(-1, 2)], ids=["1_3", "1", "-1_2"])
@pytest.mark.parametrize(
    "function",
    [age, fixed_indices, sector_dim, k_min],
    ids=["age", "fixed_indices", "sector_dim", "k_min"],
)
def test_per_sector_functions_refuse_a_non_sector(function, g):
    # P(1, 2) has the sectors 0 and 1/2 only.
    with pytest.raises(ValueError, match="not a sector"):
        function(Weights(1, 2), g)


def test_sector_table_is_read_only():
    w = Weights(1, 2, 2, 3, 3, 3)
    before = dict(sector_table(w))
    with pytest.raises(TypeError):
        sector_table(w)[F(1, 5)] = before[F(0)]
    with pytest.raises(TypeError):
        del sector_table(w)[F(0)]
    with pytest.raises(AttributeError):
        sector_table(w)[F(0)].age = F(1)
    assert dict(sector_table(w)) == before
    assert sector_table(w)[F(0)].age == 0


# Larger vectors pushing the total weight to the mu <= 40 regime.
LARGE_FAMILY = [
    (40,),
    (1, 39),
    (7, 11, 13),
    (10, 12, 18),
    (6, 6, 6, 6, 6, 6),
    (2, 4, 6, 8, 9, 11),
    (5, 7, 9, 8, 11),
    (1, 1, 1, 1, 1, 35),
]


def test_k_min_closed_form_matches_s_sequence():
    for wt in SMALL_FAMILY + LARGE_FAMILY:
        w = Weights(wt)
        values = s_sequence(w)
        for g in sectors(w):
            assert k_min(w, g) == values.index(g), (wt, g)


def test_age_inverse_identity():
    for wt in SMALL_FAMILY + LARGE_FAMILY:
        w = Weights(wt)
        for g in sectors(w):
            ginv = inverse_sector(g)
            assert age(w, g) + age(w, ginv) == w.n + 1 - len(fixed_indices(w, g))


def test_fixed_index_counts_sum_to_mu():
    for wt in SMALL_FAMILY:
        w = Weights(wt)
        assert sum(len(fixed_indices(w, g)) for g in sectors(w)) == w.mu


def test_spectrum_matches_shifted_ages():
    for wt in SMALL_FAMILY:
        w = Weights(wt)
        sig = spectrum(w)
        for g in sectors(w):
            base = k_min(w, inverse_sector(g))
            for d in range(sector_dim(w, g) + 1):
                assert sig[base + d] == d + age(w, g), (wt, g, d)


def test_dual_index_congruence():
    for wt in SMALL_FAMILY:
        w = Weights(wt)
        mu = w.mu
        for g in sectors(w):
            for d in range(sector_dim(w, g) + 1):
                for g2 in sectors(w):
                    for d2 in range(sector_dim(w, g2) + 1):
                        lhs = (
                            k_min(w, inverse_sector(g))
                            + d
                            + k_min(w, inverse_sector(g2))
                            + d2
                        ) % mu == w.n % mu
                        rhs = g2 == inverse_sector(g) and d + d2 == sector_dim(w, g)
                        assert lhs == rhs, (wt, g, d, g2, d2)


def test_tie_order_does_not_change_values():
    # Reversing the weights reverses the order of equal values by source.
    for wt in SMALL_FAMILY:
        assert s_sequence(Weights(wt[::-1])) == s_sequence(Weights(wt)), wt


def test_spectrum_zero_start_and_nonnegative():
    for wt in SMALL_FAMILY:
        sig = spectrum(Weights(wt))
        assert sig[0] == 0
        assert all(v >= 0 for v in sig)
