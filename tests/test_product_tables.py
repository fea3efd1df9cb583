"""The position tables of the two sides against their per-pair oracles.

``cup_table`` and ``gram_matrix`` state the cup product and the pairing by
basis position, and ``cup_basis`` and ``pairing`` read them;
``hyperplane_table`` states the hyperplane action, which
``hyperplane_quantum_mult`` and ``a0_matrix`` read; ``bside.product`` reads
per-index integers.  Each must equal the per-pair ``Fraction`` form it
replaced (``tests/_oracles.py``) on every census vector and on the two top
rungs of the benchmark's rank ladder.
"""

from __future__ import annotations

from fractions import Fraction as F

import pytest

from _oracles import (
    b_product_exponents,
    cup_basis_carry,
    hyperplane_reference,
    pairing_reference,
)
from conftest import CENSUS
from orbimirror import (
    BasisClass,
    CohClass,
    Weights,
    bside,
    cup_basis,
    cup_table,
    gram_matrix,
    ordered_basis,
    pairing,
)
from orbimirror.aquantum import a0_matrix, hyperplane_quantum_mult, hyperplane_table
from orbimirror.combinatorics import ZERO

RUNGS = [(3, 5, 6, 8, 10), (5, 8, 9, 11, 15, 16)]
VECTORS = pytest.mark.parametrize(
    "wts",
    [CENSUS] + [[wt] for wt in RUNGS],
    ids=["census", "mu32", "mu64"],
)


@VECTORS
def test_cup_basis_and_table_match_carry_oracle(wts):
    for wt in wts:
        w = Weights(wt)
        basis = ordered_basis(w)
        index = {bc: p for p, bc in enumerate(basis)}
        table = cup_table(w)
        for p, a in enumerate(basis):
            for q, b in enumerate(basis):
                coeff, target = cup_basis_carry(w, a, b)
                assert cup_basis(w, a, b) == (coeff, target), (wt, a, b)
                position = None if target is None else index[target]
                assert table[p][q] == (coeff, position), (wt, a, b)


@VECTORS
def test_gram_matrix_and_pairing_match_pairing_oracle(wts):
    for wt in wts:
        w = Weights(wt)
        basis = ordered_basis(w)
        gram = gram_matrix(w)
        for p, a in enumerate(basis):
            for q, b in enumerate(basis):
                value = pairing_reference(w, a, b)
                assert pairing(w, a, b) == gram[p][q] == value, (wt, a, b)
                # Zero entries are the one shared ZERO.
                assert value or gram[p][q] is ZERO, (wt, a, b)


@VECTORS
def test_hyperplane_table_and_readers_match_hyperplane_oracle(wts):
    for wt in wts:
        w = Weights(wt)
        basis = ordered_basis(w)
        index = {bc: p for p, bc in enumerate(basis)}
        table = hyperplane_table(w)
        dense = [[F(0)] * w.mu for _ in range(w.mu)]
        assert len(table) == w.mu, wt
        for p, bc in enumerate(basis):
            scalar, qexp, target = hyperplane_reference(w, bc)
            assert table[p] == (scalar, qexp, index[target]), (wt, bc)
            image = hyperplane_quantum_mult(w, CohClass.line(bc, 3, F(1, 2)))
            assert image == CohClass(target, 3 * scalar, F(1, 2) + qexp), (wt, bc)
            dense[index[target]][p] = w.mu * scalar
        assert a0_matrix(w) == dense, wt


@VECTORS
def test_b_product_matches_exponent_oracle(wts):
    for wt in wts:
        w = Weights(wt)
        for i in range(w.mu):
            for j in range(w.mu):
                assert bside.product(w, i, j) == b_product_exponents(w, i, j), (wt, i, j)


def test_cup_table_is_read_only():
    table = cup_table(Weights(1, 2, 3))
    assert all(type(row) is tuple for row in table)
    assert all(type(entry) is tuple for row in table for entry in row)
    with pytest.raises(TypeError):
        table[0] = ()
    with pytest.raises(TypeError):
        table[0][0] = (0, None)


def test_hyperplane_table_is_read_only():
    table = hyperplane_table(Weights(1, 2, 3))
    assert type(table) is tuple
    assert all(type(entry) is tuple for entry in table)
    with pytest.raises(TypeError):
        table[0] = ()
    with pytest.raises(TypeError):
        table[0][0] = F(0)


@pytest.mark.parametrize(
    "a, b",
    [
        (BasisClass(F(1, 5), 0), BasisClass(F(0), 0)),
        (BasisClass(F(0), 0), BasisClass(F(1, 5), 0)),
        (BasisClass(F(1, 2), 2), BasisClass(F(0), 0)),
        (BasisClass(F(0), 0), BasisClass(F(0), -1)),
        (BasisClass(F(0), 3), BasisClass(F(1, 7), 0)),
    ],
    ids=["first_non_sector", "second_non_sector", "above_dim", "negative_d", "both"],
)
def test_cup_basis_refuses_like_the_oracle(a, b):
    w = Weights(1, 2, 2, 3, 3, 3)
    with pytest.raises(ValueError) as expected:
        cup_basis_carry(w, a, b)
    with pytest.raises(ValueError) as got:
        cup_basis(w, a, b)
    assert str(got.value) == str(expected.value)
    assert "is not a basis class of P(1, 2, 2, 3, 3, 3)" in str(got.value)
