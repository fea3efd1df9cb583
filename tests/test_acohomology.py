from __future__ import annotations

import math
from fractions import Fraction as F

import pytest

from _oracles import cup_basis_reference, obstruction_set
from conftest import SUITE
from orbimirror import (
    BasisClass,
    Weights,
    cup_basis,
    degree,
    gram_matrix,
    ordered_basis,
    pairing,
    unit,
)
from orbimirror.linalg import det


def bc(gamma, d=0):
    g = F(*gamma) if isinstance(gamma, tuple) else F(gamma)
    return BasisClass(g, d)


def test_ordered_basis_examples():
    assert ordered_basis(Weights(1, 1, 1)) == (bc(0, 0), bc(0, 1), bc(0, 2))
    assert ordered_basis(Weights(1, 2)) == (bc(0, 0), bc(0, 1), bc((1, 2), 0))
    basis = ordered_basis(Weights(1, 2, 2, 3, 3, 3))
    assert len(basis) == 14
    by_sector = {}
    for c in basis:
        by_sector.setdefault(c.gamma, []).append(c.d)
    assert by_sector == {
        F(0): [0, 1, 2, 3, 4, 5],
        F(1, 3): [0, 1, 2],
        F(1, 2): [0, 1],
        F(2, 3): [0, 1, 2],
    }


def test_degree_examples():
    w = Weights(1, 2, 2, 3, 3, 3)
    assert degree(w, bc(0, 3)) == 6
    assert degree(w, bc((1, 3), 0)) == F(10, 3)
    assert degree(Weights(1, 2), bc((1, 2), 0)) == 1


def test_integral_top():
    # The integral of the top untwisted power is prod(1 / w_i): it is the
    # pairing of the unit with eta_0^n.
    for wt, value in (((1, 1, 1), 1), ((1, 2, 2, 3, 3, 3), F(1, 108)), ((1, 2), F(1, 2))):
        w = Weights(wt)
        assert pairing(w, bc(0, 0), bc(0, w.n)) == value == F(1, math.prod(wt))


def test_pairing_examples():
    w = Weights(1, 2, 2, 3, 3, 3)
    assert pairing(w, bc((1, 3), 0), bc((2, 3), 2)) == F(1, 27)
    assert pairing(Weights(1, 2), bc((1, 2), 0), bc((1, 2), 0)) == F(1, 2)
    # degree mismatch and sector mismatch both vanish
    assert pairing(w, bc((1, 3), 0), bc((2, 3), 1)) == 0
    assert pairing(w, bc((1, 3), 0), bc((1, 3), 2)) == 0


def test_gram_matrix_examples():
    assert gram_matrix(Weights(1, 1)) == ((F(0), F(1)), (F(1), F(0)))
    assert gram_matrix(Weights(1, 2)) == (
        (F(0), F(1, 2), F(0)),
        (F(1, 2), F(0), F(0)),
        (F(0), F(0), F(1, 2)),
    )


def test_gram_nondegenerate(suite_weights):
    g = [list(row) for row in gram_matrix(suite_weights)]
    assert det(g) != 0


def test_obstruction_set_examples():
    w = Weights(1, 2, 2, 3, 3, 3)
    assert obstruction_set(w, F(1, 3), F(1, 3), F(1, 3)) == {1, 2}
    assert obstruction_set(w, F(2, 3), F(2, 3), F(2, 3)) == {0}
    for g in (F(1, 3), F(1, 2)):
        inv = 1 - g
        assert obstruction_set(w, F(0), g, inv) == frozenset()
    with pytest.raises(ValueError):
        obstruction_set(w, F(1, 3), F(1, 3), F(1, 2))


@pytest.mark.parametrize(
    "wt",
    SUITE + [(3, 5, 6, 8, 10), (5, 8, 9, 11, 15, 16)],
    ids=lambda t: "w" + "_".join(map(str, t)),
)
def test_cup_matches_obstruction_set_formula(wt):
    # The carry rule against the obstruction set plus the excess fixed
    # locus, on every ordered pair of basis classes.
    w = Weights(wt)
    basis = ordered_basis(w)
    for a in basis:
        for b in basis:
            assert cup_basis(w, a, b) == cup_basis_reference(w, a, b), (a, b)


def test_cup_examples():
    w = Weights(1, 2, 2, 3, 3, 3)
    assert cup_basis(w, bc((1, 3), 0), bc((1, 3), 0)) == (F(4), bc((2, 3), 2))
    assert cup_basis(w, bc((1, 2), 0), bc((1, 2), 0)) == (F(27), bc(0, 4))
    assert cup_basis(w, bc((2, 3), 0), bc((2, 3), 0)) == (F(1), bc((1, 3), 1))
    # exponent overflow kills the product
    assert cup_basis(Weights(1, 2), bc((1, 2), 0), bc(0, 1)) == (F(0), None)
    # empty product sector
    assert cup_basis(w, bc((1, 3), 0), bc((1, 2), 0)) == (F(0), None)


def test_untwisted_block_is_truncated_polynomial_ring(suite_weights):
    w = suite_weights
    for a in range(w.n + 1):
        for b in range(w.n + 1):
            coeff, target = cup_basis(w, bc(0, a), bc(0, b))
            if a + b <= w.n:
                assert (coeff, target) == (F(1), bc(0, a + b))
            else:
                assert (coeff, target) == (F(0), None)


def test_cup_unit_and_commutative(suite_weights):
    w = suite_weights
    one = unit(w).bc
    for a in ordered_basis(w):
        assert cup_basis(w, one, a) == cup_basis(w, a, one) == (1, a)
        for b in ordered_basis(w):
            assert cup_basis(w, a, b) == cup_basis(w, b, a)


def test_cup_degree_additive(suite_weights):
    w = suite_weights
    for a in ordered_basis(w):
        for b in ordered_basis(w):
            coeff, target = cup_basis(w, a, b)
            if target is not None:
                assert degree(w, target) == degree(w, a) + degree(w, b)


def test_cup_associative_and_frobenius(suite_weights):
    w = suite_weights
    basis = ordered_basis(w)
    table = {(a, b): cup_basis(w, a, b) for a in basis for b in basis}

    def times(coeff, a, b):
        """``coeff * (a cup b)`` as a pair, ``(0, None)`` for zero."""
        if a is None or b is None:
            return 0, None
        k, target = table[a, b]
        return coeff * k, target

    def pair(x, c):
        coeff, target = x
        return 0 if target is None else coeff * pairing(w, target, c)

    for a in basis:
        for b in basis:
            ab = table[a, b]
            for c in basis:
                bc_ = table[b, c]
                assert times(ab[0], ab[1], c) == times(bc_[0], a, bc_[1])
                assert pair(ab, c) == pair(bc_, a)


def test_a_infinity_examples():
    # The grading diag(deg / 2) over the ordered basis.
    def half_degrees(*wt):
        w = Weights(*wt)
        return [degree(w, bc) / 2 for bc in ordered_basis(w)]

    assert half_degrees(1, 1, 1) == [F(0), F(1), F(2)]
    assert half_degrees(1, 2) == [F(0), F(1), F(1, 2)]
    assert half_degrees(1, 2, 2, 3, 3, 3) == [
        F(0), F(1), F(2), F(3), F(4), F(5),
        F(5, 3), F(8, 3), F(11, 3),
        F(2), F(3),
        F(4, 3), F(7, 3), F(10, 3),
    ]


TABLE_GAMMAS = {"1": F(0), "j": F(1, 3), "m": F(1, 2), "q": F(2, 3)}
TABLE_BASIS = (
    [("1", d) for d in range(6)]
    + [("j", d) for d in range(3)]
    + [("m", d) for d in range(2)]
    + [("q", d) for d in range(3)]
)
# Upper triangle of the 14 x 14 product table, row by row starting at the
# diagonal; entries are 0 or (coefficient, target label).
TABLE_UPPER = {
    ("1", 0): [
        (1, ("1", 0)), (1, ("1", 1)), (1, ("1", 2)), (1, ("1", 3)), (1, ("1", 4)),
        (1, ("1", 5)), (1, ("j", 0)), (1, ("j", 1)), (1, ("j", 2)), (1, ("m", 0)),
        (1, ("m", 1)), (1, ("q", 0)), (1, ("q", 1)), (1, ("q", 2)),
    ],
    ("1", 1): [
        (1, ("1", 2)), (1, ("1", 3)), (1, ("1", 4)), (1, ("1", 5)), 0,
        (1, ("j", 1)), (1, ("j", 2)), 0, (1, ("m", 1)), 0,
        (1, ("q", 1)), (1, ("q", 2)), 0,
    ],
    ("1", 2): [
        (1, ("1", 4)), (1, ("1", 5)), 0, 0, (1, ("j", 2)), 0, 0, 0, 0,
        (1, ("q", 2)), 0, 0,
    ],
    ("1", 3): [0] * 11,
    ("1", 4): [0] * 10,
    ("1", 5): [0] * 9,
    ("j", 0): [(4, ("q", 2)), 0, 0, 0, 0, (4, ("1", 3)), (4, ("1", 4)), (4, ("1", 5))],
    ("j", 1): [0, 0, 0, 0, (4, ("1", 4)), (4, ("1", 5)), 0],
    ("j", 2): [0, 0, 0, (4, ("1", 5)), 0, 0],
    ("m", 0): [(27, ("1", 4)), (27, ("1", 5)), 0, 0, 0],
    ("m", 1): [0] * 4,
    ("q", 0): [(1, ("j", 1)), (1, ("j", 2)), 0],
    ("q", 1): [0] * 2,
    ("q", 2): [0],
}


def full_table_expectations():
    """Symmetrized full table as {(row_label, col_label): entry}."""
    table = {}
    for r, (label_r) in enumerate(TABLE_BASIS):
        row = TABLE_UPPER[label_r]
        assert len(row) == 14 - r
        for offset, entry in enumerate(row):
            label_c = TABLE_BASIS[r + offset]
            table[(label_r, label_c)] = entry
            table[(label_c, label_r)] = entry
    return table


def test_full_product_table_w122333():
    w = Weights(1, 2, 2, 3, 3, 3)
    expected = full_table_expectations()
    assert len(expected) == 14 * 14
    for (label_a, label_b), entry in expected.items():
        a = BasisClass(TABLE_GAMMAS[label_a[0]], label_a[1])
        b = BasisClass(TABLE_GAMMAS[label_b[0]], label_b[1])
        coeff, target = cup_basis(w, a, b)
        if entry == 0:
            assert (coeff, target) == (F(0), None), (label_a, label_b)
        else:
            c, (sector, d) = entry
            assert coeff == c, (label_a, label_b)
            assert target == BasisClass(TABLE_GAMMAS[sector], d), (label_a, label_b)
