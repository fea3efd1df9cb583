from __future__ import annotations

import math
from fractions import Fraction as F

import pytest

from _oracles import (
    TripleKind,
    classify_triple,
    sector_constant_ratio,
    three_point_reference,
)
from conftest import SUITE
from orbimirror import (
    BasisClass,
    CohClass,
    Weights,
    degree,
    inverse_sector,
    k_min,
    ordered_basis,
    pairing,
    sectors,
    unit,
)
from orbimirror.acohomology import cup_basis
from orbimirror.aquantum import (
    a0_matrix,
    hyperplane_quantum_mult,
    sector_constant,
    three_point,
)
from orbimirror.linalg import char_poly


def bc(gamma, d=0):
    g = F(*gamma) if isinstance(gamma, tuple) else F(gamma)
    return BasisClass(g, d)


def test_expected_curve_degree_examples():
    # e = 1 + deg/2 + deg'/2 - n is mu times the hyperplane degree of the
    # curve class (1/2 for the P(1, 2) case); classify_triple calls the
    # surviving triples with e = 0 classical and the rest quantum.
    cases = [
        ((1, 1, 1), bc(0, 1), bc(0, 0), 0, TripleKind.CLASSICAL),
        ((1, 2), bc(0, 1), bc((1, 2), 0), F(3, 2), TripleKind.QUANTUM),
        ((1, 1, 1), bc(0, 2), bc(0, 2), 3, TripleKind.QUANTUM),
    ]
    for wt, a, b, e, kind in cases:
        w = Weights(wt)
        assert 1 + (degree(w, a) + degree(w, b)) / 2 - w.n == e, (wt, a, b)
        assert classify_triple(w, a.gamma, a.d, b.gamma, b.d) is kind, (wt, a, b)


def test_classify_triple_examples():
    cases = [
        ((1, 2), bc(0, 0), bc(0, 1), TripleKind.VANISHING),
        ((1, 2), bc(0, 0), bc(0, 0), TripleKind.CLASSICAL),
        ((1, 2), bc(0, 1), bc(0, 1), TripleKind.VANISHING),
        ((1, 2), bc(0, 1), bc((1, 2), 0), TripleKind.QUANTUM),
        ((1, 1, 1), bc(0, 2), bc(0, 2), TripleKind.QUANTUM),
    ]
    for wt, a, b, kind in cases:
        w = Weights(wt)
        assert classify_triple(w, a.gamma, a.d, b.gamma, b.d) is kind, (wt, a, b)


def test_classifier_is_integer(suite_weights):
    # classify_triple raises InternalConsistencyError on a non-integer
    # classifier, so classifying every pair checks integrality.
    w = suite_weights
    for a in ordered_basis(w):
        for b in ordered_basis(w):
            assert isinstance(classify_triple(w, a.gamma, a.d, b.gamma, b.d), TripleKind)


def test_classical_case_is_inverse_pair_with_complementary_degree(suite_weights):
    w = suite_weights
    for a in ordered_basis(w):
        for b in ordered_basis(w):
            kind = classify_triple(w, a.gamma, a.d, b.gamma, b.d)
            explicit = (
                b.gamma == inverse_sector(a.gamma)
                and 2 + degree(w, a) + degree(w, b) == 2 * w.n
            )
            assert (kind is TripleKind.CLASSICAL) == explicit


def test_three_point_examples():
    w = Weights(1, 2)
    assert three_point(w, F(0), 1, F(1, 2), 0) == F(1, 4)
    assert three_point(w, F(0), 0, F(0), 0) == F(1, 2)
    assert three_point(Weights(1, 1, 1), F(0), 2, F(0), 2) == 1


def test_sector_constant_examples():
    assert sector_constant(Weights(1, 2), F(0)) == 1
    assert sector_constant(Weights(1, 2), F(1, 2)) == F(1, 2)
    assert sector_constant(Weights(1, 2, 2, 3, 3, 3), F(1, 3)) == F(1, 108)


def test_sector_constant_matches_ratio_oracle(suite_weights):
    w = suite_weights
    for g in sectors(w):
        if g == 0:
            continue
        assert sector_constant(w, g) == sector_constant_ratio(w, g), (w, g)


def test_quantum_mult_examples():
    w = Weights(1, 2)
    h = CohClass.line(bc(0, 1))
    assert hyperplane_quantum_mult(w, h) == CohClass.line(
        bc((1, 2), 0), F(1, 2), F(1, 2)
    )
    assert hyperplane_quantum_mult(w, CohClass.line(bc((1, 2), 0))) == CohClass.line(
        bc(0, 0), F(1, 2), F(1, 2)
    )
    w3 = Weights(1, 1, 1)
    assert hyperplane_quantum_mult(w3, CohClass.line(bc(0, 2))) == CohClass.line(
        bc(0, 0), F(1), F(1)
    )


def test_hyperplane_power_mu_relation(suite_weights):
    w = suite_weights
    power = unit(w)
    for _ in range(w.mu):
        power = hyperplane_quantum_mult(w, power)
    denominator = 1
    for wi in w:
        denominator *= wi**wi
    assert power == CohClass.line(bc(0, 0), F(1, denominator), 1)


def test_hyperplane_power_kmin_relation(suite_weights):
    w = suite_weights
    for g in sectors(w):
        if g == 0:
            continue
        power = unit(w)
        for _ in range(k_min(w, g)):
            power = hyperplane_quantum_mult(w, power)
        expected = CohClass.line(
            BasisClass(inverse_sector(g), 0), sector_constant(w, g), g
        )
        assert power == expected, (w, g)


def test_q_degree_bookkeeping(suite_weights):
    w = suite_weights
    for a in ordered_basis(w):
        image = hyperplane_quantum_mult(w, CohClass.line(a))
        assert image.scalar != 0
        before = degree(w, a) / 2
        after = degree(w, image.bc) / 2 + w.mu * image.qexp
        assert after - before == 1, (w, a, image)


def test_q_exponent_denominators_divide_weight_lcm(suite_weights):
    w = suite_weights
    lcm = math.lcm(*w.w)
    power = unit(w)
    for _ in range(w.mu):
        power = hyperplane_quantum_mult(w, power)
        assert power.qexp >= 0
        assert lcm % power.qexp.denominator == 0


def test_a0_matrix_examples():
    shift3 = a0_matrix(Weights(1, 1, 1))
    assert shift3 == [
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


@pytest.mark.parametrize(
    "wt",
    SUITE + [(3, 5, 6, 8, 10), (5, 8, 9, 11, 15, 16)],
    ids=lambda t: "w" + "_".join(map(str, t)),
)
def test_three_point_equals_pairing_with_quantum_product(wt):
    # The pairing of the hyperplane action against the case-by-case route,
    # on every ordered pair of basis classes.
    w = Weights(wt)
    basis = ordered_basis(w)
    for a in basis:
        for b in basis:
            assert three_point(w, a.gamma, a.d, b.gamma, b.d) == three_point_reference(
                w, a.gamma, a.d, b.gamma, b.d
            ), (a, b)


# For P(1, 2): one exponent above the identity sector's dimension 1, one
# below 0, one that is not an integer, and a rotation number that is not a
# sector.
_OUTSIDE = [bc(0, 2), bc(0, -1), bc(0, F(1, 2)), bc(0, True), bc((1, 3), 0)]
_INSIDE = bc((1, 2), 0)


@pytest.mark.parametrize(
    "outside",
    _OUTSIDE,
    ids=["d_above_dim", "d_negative", "d_not_integer", "d_bool", "not_a_sector"],
)
@pytest.mark.parametrize(
    "call",
    [
        lambda w, x: hyperplane_quantum_mult(w, CohClass.line(x)),
        lambda w, x: cup_basis(w, x, _INSIDE),
        lambda w, x: cup_basis(w, _INSIDE, x),
        lambda w, x: three_point(w, x.gamma, x.d, _INSIDE.gamma, _INSIDE.d),
        lambda w, x: three_point(w, _INSIDE.gamma, _INSIDE.d, x.gamma, x.d),
        degree,
        lambda w, x: pairing(w, x, _INSIDE),
        lambda w, x: pairing(w, _INSIDE, x),
    ],
    ids=[
        "hyperplane_quantum_mult",
        "cup_first",
        "cup_second",
        "three_point_first",
        "three_point_second",
        "degree",
        "pairing_first",
        "pairing_second",
    ],
)
def test_products_refuse_classes_outside_the_basis(call, outside):
    with pytest.raises(ValueError, match="not a basis class"):
        call(Weights(1, 2), outside)


def test_projective_space_reduction():
    # With unit weights everything is the classical small quantum ring.
    for n in range(1, 5):
        w = Weights([1] * (n + 1))
        mu = n + 1
        m = a0_matrix(w)
        for c in range(mu):
            col = [m[r][c] for r in range(mu)]
            assert col[(c + 1) % mu] == mu
            assert sum(1 for v in col if v) == 1
        top = three_point(w, F(0), n, F(0), n)
        assert (top == 1) == ((1 + 2 * n) % mu == n % mu)

