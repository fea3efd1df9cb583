from __future__ import annotations

import pytest

from _oracles import index_reference
from conftest import CENSUS, weight_vectors
from orbimirror import (
    Weights,
    basis_position,
    check_classical,
    check_quantum,
    cli,
    degree,
    index_table,
    mirror,
    ordered_basis,
    run_selftest,
    spectrum,
)

# Past the census: mu = 32 and mu = 64, the second in two orders.
LARGE = [(3, 5, 6, 8, 10), (5, 8, 9, 11, 15, 16), (16, 11, 8, 15, 5, 9)]


def test_index_map_examples():
    assert index_table(Weights(1, 1, 1)) == (0, 1, 2)
    assert index_table(Weights(1, 2)) == (0, 1, 2)
    # order-reversing on the twisted sectors
    assert index_table(Weights(1, 3)) == (0, 1, 3, 2)


def test_index_map_is_bijection(suite_weights):
    w = suite_weights
    xi = index_table(w)
    assert sorted(xi) == list(range(w.mu))
    # The unit eta_1^0 sits at position 0 and maps to omega_0.
    assert xi[0] == 0


def test_index_map_degree_compatibility(suite_weights):
    w = suite_weights
    sig = spectrum(w)
    for bc, k in zip(ordered_basis(w), index_table(w)):
        assert degree(w, bc) / 2 == sig[k]


@pytest.mark.parametrize("wt", CENSUS + LARGE, ids=lambda t: "w" + "_".join(map(str, t)))
def test_index_table_matches_oracle(wt):
    assert list(index_table(Weights(wt))) == index_reference(Weights(wt))


def test_index_table_is_read_only():
    w = Weights(1, 2, 2, 3, 3, 3)
    xi = index_table(w)
    assert type(xi) is tuple and all(type(k) is int for k in xi)
    with pytest.raises(TypeError):
        xi[0] = 1
    assert index_table(Weights(1, 2, 2, 3, 3, 3)) is xi


def test_pair_rows_are_built_once_for_both_checkers():
    w = Weights(2, 3, 4)
    mirror._basis_pairs.cache_clear()
    check_classical(w)
    check_quantum(w)
    info = mirror._basis_pairs.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    rows = mirror._basis_pairs(w)
    assert type(rows) is tuple and len(rows) == w.mu**2
    assert rows[1] == (0, 1, 0, 1, (("0", 0), ("0", 1)), (0, 1))


def test_index_collision_is_exit_3(monkeypatch, capsys):
    # The last sector's k_min moved down by one: its class lands on the
    # index of the class before it, so the map is not a bijection.
    sector_table = mirror.sector_table

    def collided(w):
        table = dict(sector_table(w))
        last = next(reversed(table))
        table[last] = table[last]._replace(k_min=table[last].k_min - 1)
        return table

    monkeypatch.setattr(mirror, "sector_table", collided)
    monkeypatch.setattr(mirror, "index_table", mirror.index_table.__wrapped__)
    assert cli.main(["mirror", "--weights", "1,2"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "internal consistency error: index map (0, 1, 1) is not a bijection onto 0..2\n"
    )


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
    sig = spectrum(w)
    a_side = {
        k: 1 - degree(w, bc) / 2 for bc, k in zip(ordered_basis(w), index_table(w))
    }
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
