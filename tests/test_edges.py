"""Degenerate and boundary inputs.

Single-weight vectors describe zero-dimensional quotients.  The classical
ring, the exponent recursion, the spectral identity and the potential
reconstruction all stay coherent there; the quantum comparison is defined
only in positive dimension (the hyperplane class must be a basis element)
and refuses to run.
"""

from __future__ import annotations

import itertools
from fractions import Fraction as F

import pytest

from orbimirror import (
    BasisClass,
    CohClass,
    Weights,
    bside,
    check_classical,
    check_quantum,
    ordered_basis,
    reconstruct,
    run_selftest,
    sectors,
    unit,
    wdvv_residual,
)
from orbimirror.aquantum import a0_matrix, hyperplane_quantum_mult
from orbimirror.linalg import char_poly
from orbimirror.wdvv import scaling_weight

POINTS = [(1,), (2,), (3,), (4,)]


@pytest.mark.parametrize("wt", POINTS, ids=str)
def test_zero_dimensional_classical_structure(wt):
    w = Weights(wt)
    assert w.n == 0
    assert len(ordered_basis(w)) == w.mu == wt[0]
    assert len(sectors(w)) == wt[0]
    assert run_selftest(w).passed
    assert check_classical(w).passed
    # mu = N and mu^mu * N^-N = 1: the spectral identity reads X^N - 1.
    assert char_poly(bside.a0_matrix(w)) == [F(-1)] + [F(0)] * (w.mu - 1) + [F(1)]


@pytest.mark.parametrize("wt", POINTS, ids=str)
def test_zero_dimensional_quantum_comparison_refused(wt):
    with pytest.raises(ValueError):
        check_quantum(Weights(wt))


def test_zero_dimensional_hyperplane_action_is_weighted_cycle():
    # On a single weight N the hyperplane action cycles through the N
    # sectors, and N applications reproduce Q * N^-N.
    w = Weights(3)
    power = unit(w)
    seen = []
    for _ in range(3):
        power = hyperplane_quantum_mult(w, power)
        seen.append(power)
    assert seen[0] == CohClass.line(BasisClass(F(2, 3), 0), F(1, 3), F(1, 3))
    assert seen[2] == CohClass.line(BasisClass(F(0), 0), F(1, 27), F(1))
    m = a0_matrix(w)
    for c in range(3):
        assert sum(1 for r in range(3) if m[r][c]) == 1


def test_zero_dimensional_reconstruction_is_consistent():
    w = Weights(2)
    p = reconstruct(w, 7)
    for alpha in (
        alpha
        for total in range(0, 5)
        for alpha in itertools.product(range(total + 1), repeat=2)
        if sum(alpha) == total
    ):
        for eq in itertools.product(range(2), repeat=4):
            assert wdvv_residual(p, *eq, alpha) == 0, (eq, alpha)


def test_scaling_weight_zero_kills_next_coefficient():
    # d(alpha) = 0 forces A(alpha + e_1) = 0; for two unit weights this is
    # exactly how the unit axiom and the scaling identity stay consistent.
    w = Weights(1, 1)
    p = reconstruct(w, 5)
    assert p.coeff((2, 1)) == 1
    assert scaling_weight(w, (2, 1)) == 0
    assert p.coeff((2, 2)) == 0


def test_generator_input_accepted():
    assert Weights(x for x in (1, 2)) == Weights(1, 2)
