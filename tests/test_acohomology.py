from __future__ import annotations

from fractions import Fraction as F

import pytest

from orbimirror import (
    BasisClass,
    CohClass,
    Weights,
    a_infinity_matrix,
    chern_total,
    cup,
    cup_basis,
    degree,
    gram_matrix,
    integral_top,
    obstruction_set,
    ordered_basis,
    pairing,
    unit,
)
from orbimirror.acohomology import basis_index
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


def test_basis_index_is_read_only():
    w = Weights(1, 2)
    before = dict(basis_index(w))
    with pytest.raises(TypeError):
        basis_index(w)[bc(0, 0)] = 5
    with pytest.raises(TypeError):
        del basis_index(w)[bc(0, 0)]
    assert dict(basis_index(w)) == before == {bc(0, 0): 0, bc(0, 1): 1, bc((1, 2), 0): 2}


def test_degree_examples():
    w = Weights(1, 2, 2, 3, 3, 3)
    assert degree(w, bc(0, 3)) == 6
    assert degree(w, bc((1, 3), 0)) == F(10, 3)
    assert degree(Weights(1, 2), bc((1, 2), 0)) == 1


def test_integral_top():
    assert integral_top(Weights(1, 1, 1)) == 1
    assert integral_top(Weights(1, 2, 2, 3, 3, 3)) == F(1, 108)
    assert integral_top(Weights(1, 2)) == F(1, 2)


def test_pairing_examples():
    w = Weights(1, 2, 2, 3, 3, 3)
    assert pairing(w, bc((1, 3), 0), bc((2, 3), 2)) == F(1, 27)
    assert pairing(w, bc(0, 0), bc(0, 5)) == integral_top(w)
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


def test_cup_examples():
    w = Weights(1, 2, 2, 3, 3, 3)
    assert cup_basis(w, bc((1, 3), 0), bc((1, 3), 0)) == (F(4), bc((2, 3), 2))
    assert cup_basis(w, bc((1, 2), 0), bc((1, 2), 0)) == (F(27), bc(0, 4))
    assert cup_basis(w, bc((2, 3), 0), bc((2, 3), 0)) == (F(1), bc((1, 3), 1))
    # exponent overflow kills the product
    assert cup_basis(Weights(1, 2), bc((1, 2), 0), bc(0, 1)) == (F(0), None)
    # empty product sector
    assert cup_basis(w, bc((1, 3), 0), bc((1, 2), 0)) == (F(0), None)


def test_cup_bilinear_with_q_monomials():
    w = Weights(1, 2)
    a = CohClass.line(bc(0, 1), F(2), F(1, 2))
    b = CohClass.line(bc((1, 2), 0), F(3, 4))
    out = cup(w, a, b)
    # eta_1^1 cup eta_{1/2}^0 = 0 (exponent overflow): bilinearity gives zero
    assert not out
    c = cup(w, a, CohClass.line(bc(0, 0), F(1), F(1, 2)))
    assert c == CohClass.line(bc(0, 1), F(2), F(1))


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
    one = unit(w)
    for a in ordered_basis(w):
        ca = CohClass.line(a)
        assert cup(w, one, ca) == ca
        assert cup(w, ca, one) == ca
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
    index = {c: i for i, c in enumerate(basis)}
    gram = gram_matrix(w)

    def pair(x: CohClass, c: BasisClass) -> F:
        return sum(
            (s * gram[index[t]][index[c]] for t, _, s in x.items()), F(0)
        )

    for a in basis:
        ca = CohClass.line(a)
        for b in basis:
            ab = cup(w, ca, CohClass.line(b))
            for c in basis:
                cc = CohClass.line(c)
                assert cup(w, ab, cc) == cup(w, ca, cup(w, CohClass.line(b), cc))
                assert pair(ab, c) == pair(cup(w, CohClass.line(b), cc), a)


def test_chern_total_examples():
    assert chern_total(Weights(1, 1, 1)) == (1, 3, 3)
    assert chern_total(Weights(1, 2)) == (1, 3)
    w = Weights(1, 2, 2, 3, 3, 3)
    assert chern_total(w)[1] == w.mu == 14


def test_a_infinity_examples():
    assert a_infinity_matrix(Weights(1, 1, 1)) == (
        (F(0), F(0), F(0)),
        (F(0), F(1), F(0)),
        (F(0), F(0), F(2)),
    )
    diag = [row[i] for i, row in enumerate(a_infinity_matrix(Weights(1, 2)))]
    assert diag == [F(0), F(1), F(1, 2)]
    diag6 = [row[i] for i, row in enumerate(a_infinity_matrix(Weights(1, 2, 2, 3, 3, 3)))]
    assert diag6 == [
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
