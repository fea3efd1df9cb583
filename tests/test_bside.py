from __future__ import annotations

from fractions import Fraction as F

import pytest
from _oracles import identity, matmul, omega_frame_reference
from conftest import CENSUS
from orbimirror import Weights, s_sequence, spectrum
from orbimirror.bside import (
    a0_matrix,
    metric_diagonal,
    metric_matrix,
    omega_frame,
    product,
    three_tensor,
)
from orbimirror.linalg import char_poly, mat_inverse


def test_omega_frame_example():
    assert omega_frame(Weights(1, 2)) == ((0, 0), (1, 0), (1, 1), (1, 2), (2, 2))


@pytest.mark.parametrize(
    "wt",
    CENSUS + [(3, 5, 6, 8, 10), (5, 8, 9, 11, 15, 16), (16, 11, 8, 15, 5, 9)],
    ids=lambda t: "w" + "_".join(map(str, t)),
)
def test_omega_frame_matches_fraction_oracle(wt):
    # The integer key nxt[j] * (lcm // w[j]) orders, and breaks ties, as
    # Fraction(nxt[j], w[j]) does.
    assert omega_frame(Weights(wt)) == omega_frame_reference(Weights(wt))


def test_omega_frame_unit_weights_cycles():
    a = omega_frame(Weights(1, 1, 1))
    assert a[3] == (1, 1, 1)
    assert a[4] == (2, 1, 1)


def test_recursion_matches_s_sequence(suite_weights):
    w = suite_weights
    a = omega_frame(w)
    values = s_sequence(w)
    for k in range(w.mu):
        assert sum(a[k]) == k
        running_min = min(F(a[k][j], w[j]) for j in range(len(w)))
        assert running_min == values[k], (w, k)


def test_product_examples():
    w = Weights(1, 2)
    assert product(w, 1, 1) == (F(1, 2), 2)
    assert product(w, 1, 2) == (F(1, 2), 0)
    for wt in [(1, 2), (1, 1, 1), (2, 3, 5)]:
        ww = Weights(wt)
        for j in range(ww.mu):
            assert product(ww, 0, j) == (F(1), j)


def test_metric_examples():
    w = Weights(1, 2)
    assert metric_matrix(w)[0][1] == F(1, 2)
    assert metric_matrix(w)[2][2] == F(1, 2)
    assert metric_matrix(w)[0][0] == 0
    m3 = metric_matrix(Weights(1, 1, 1))
    assert m3 == (
        (F(0), F(0), F(1)),
        (F(0), F(1), F(0)),
        (F(1), F(0), F(0)),
    )


def test_metric_symmetric(suite_weights):
    w = suite_weights
    for j in range(w.mu):
        for k in range(w.mu):
            assert metric_matrix(w)[j][k] == metric_matrix(w)[k][j]


def test_three_tensor_examples():
    assert three_tensor(Weights(1, 1, 1), 2, 2) == 1
    assert three_tensor(Weights(1, 1, 1), 1, 0) == 1
    assert three_tensor(Weights(1, 2), 1, 2) == F(1, 4)


def test_a0_matrix_examples():
    assert a0_matrix(Weights(1, 1, 1)) == [
        [F(0), F(0), F(3)],
        [F(3), F(0), F(0)],
        [F(0), F(3), F(0)],
    ]
    m = a0_matrix(Weights(1, 2))
    nonzero = {
        (r, c): v for r, row in enumerate(m) for c, v in enumerate(row) if v
    }
    assert nonzero == {(1, 0): F(3), (2, 1): F(3, 2), (0, 2): F(3, 2)}
    assert char_poly(m) == [F(-27, 4), F(0), F(0), F(1)]


def test_product_associative_and_frobenius(suite_weights):
    w = suite_weights
    mu = w.mu
    for i in range(mu):
        for j in range(mu):
            cij, tij = product(w, i, j)
            assert (cij, tij) == product(w, j, i)
            for k in range(mu):
                c1, t1 = product(w, tij, k)
                cjk, tjk = product(w, j, k)
                c2, t2 = product(w, i, tjk)
                assert (cij * c1, t1) == (cjk * c2, t2), (w, i, j, k)
    for i in range(mu):
        for j in range(mu):
            cij, tij = product(w, i, j)
            for k in range(mu):
                lhs = cij * metric_matrix(w)[tij][k]
                cjk, tjk = product(w, j, k)
                rhs = cjk * metric_matrix(w)[tjk][i]
                assert lhs == rhs, (w, i, j, k)


def test_three_tensor_matches_product_pairing(suite_weights):
    w = suite_weights
    for j in range(w.mu):
        for k in range(w.mu):
            c, t = product(w, 1, j)
            assert three_tensor(w, j, k) == c * metric_matrix(w)[t][k], (w, j, k)


def test_grading_adjoint_identity(suite_weights):
    w = suite_weights
    mu = w.mu
    sig = spectrum(w)
    a_inf = [[F(0)] * mu for _ in range(mu)]
    for i in range(mu):
        a_inf[i][i] = sig[i]
    g = [list(row) for row in metric_matrix(w)]
    # The dense statement A + G^-1 A^T G == n * Id, the reference for the
    # entrywise form in selftest.
    a_transpose = [list(col) for col in zip(*a_inf)]
    adjoint = matmul(mat_inverse(g), matmul(a_transpose, g))
    total = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a_inf, adjoint)]
    assert total == [[w.n * x for x in row] for row in identity(mu)]


def test_spectrum_filtration(suite_weights):
    w = suite_weights
    sig = spectrum(w)
    for i in range(w.mu):
        for j in range(w.mu):
            assert sig[i] + sig[j] >= sig[(i + j) % w.mu], (w, i, j)


def test_tie_invariance_of_outputs(suite_weights):
    # Reversing the weight vector reverses the order of equal s-values from
    # different weights; no B-side output may see it.
    w = suite_weights
    r = Weights(tuple(reversed(w.w)))
    mu = w.mu
    assert s_sequence(r) == s_sequence(w)
    assert spectrum(r) == spectrum(w)
    assert metric_diagonal(r) == metric_diagonal(w)
    assert a0_matrix(r) == a0_matrix(w)
    for j in range(mu):
        for k in range(mu):
            assert product(r, j, k) == product(w, j, k), (j, k)
            assert three_tensor(r, j, k) == three_tensor(w, j, k), (j, k)
