from __future__ import annotations

from fractions import Fraction as F

import pytest

from conftest import CENSUS, weight_vectors
from orbimirror import (
    BasisClass,
    Weights,
    basis_position,
    check_classical,
    check_quantum,
    degree,
    mirror_index_map,
    ordered_basis,
    run_selftest,
    spectrum,
)


def test_index_map_examples():
    w = Weights(1, 1, 1)
    m = mirror_index_map(w)
    assert [m.forward[bc] for bc in ordered_basis(w)] == [0, 1, 2]

    w = Weights(1, 2)
    m = mirror_index_map(w)
    assert [m.forward[bc] for bc in ordered_basis(w)] == [0, 1, 2]

    # order-reversing on the twisted sectors
    w = Weights(1, 3)
    m = mirror_index_map(w)
    assert [m.forward[bc] for bc in ordered_basis(w)] == [0, 1, 3, 2]


def test_index_map_is_bijection(suite_weights):
    w = suite_weights
    m = mirror_index_map(w)
    assert sorted(m.forward.values()) == list(range(w.mu))
    assert all(m.inverse[m.forward[bc]] == bc for bc in ordered_basis(w))
    assert m.forward[BasisClass(F(0), 0)] == 0


def test_index_map_degree_compatibility(suite_weights):
    w = suite_weights
    m = mirror_index_map(w)
    sig = spectrum(w)
    for bc in ordered_basis(w):
        assert degree(w, bc) / 2 == sig[m.forward[bc]]


def test_classical_correspondence(suite_weights):
    report = check_classical(suite_weights)
    assert report.passed, report.failures[:3]
    assert report.checks >= suite_weights.mu**2


def test_quantum_correspondence(suite_weights):
    report = check_quantum(suite_weights)
    assert report.passed, report.failures[:3]


@pytest.mark.parametrize("mu", range(2, 11), ids=lambda mu: f"mu{mu}")
def test_census_checkers_pass(mu):
    # Both mirror checks and the invariant suite on every census vector of
    # total weight mu.
    for wt in CENSUS:
        if sum(wt) == mu:
            w = Weights(wt)
            for report in (check_classical(w), check_quantum(w), run_selftest(w)):
                assert report.passed, (wt, report.name, report.failures[:3])


def test_random_weight_vectors_to_mu_20():
    # Both mirror checks, the invariant suite and the basis positions on
    # random vectors past the census, up to mu = 20.
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(
        max_examples=30, deadline=None, derandomize=True, database=None
    )
    @hypothesis.given(weight_vectors(hypothesis.strategies, 20))
    def check(w):
        reports = [check_classical(w), run_selftest(w)]
        if w.n >= 1:
            reports.append(check_quantum(w))
        for report in reports:
            assert report.passed, (w, report.name, report.failures[:3])
        positions = [basis_position(w, bc) for bc in ordered_basis(w)]
        assert positions == list(range(w.mu)), w

    check()


def test_euler_field_coefficients_transport(suite_weights):
    w = suite_weights
    m = mirror_index_map(w)
    sig = spectrum(w)
    a_side = {m.forward[bc]: 1 - degree(w, bc) / 2 for bc in ordered_basis(w)}
    b_side = {k: 1 - sig[k] for k in range(w.mu)}
    assert a_side == b_side


def test_quantum_check_rejects_zero_dimension():
    with pytest.raises(ValueError):
        check_quantum(Weights(1))
    with pytest.raises(ValueError):
        check_quantum(Weights(5))


def test_report_structure():
    report = check_classical(Weights(1, 2))
    assert report.status == "PASS"
    assert report.name == "classical"
    assert report.failures == []
    assert report.checks > 0
