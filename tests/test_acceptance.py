"""Acceptance suite.

Each test exercises one exit criterion end to end at its stated tolerance
(exact equality everywhere; the only tolerances are wall-clock budgets) and
prints one PASS line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction as F

from _oracles import char_poly_reference as char_poly
from _oracles import kontsevich_numbers, sector_constant_ratio
from conftest import SUITE
from orbimirror import (
    BasisClass,
    CohClass,
    Weights,
    check_classical,
    check_quantum,
    cup_basis,
    inverse_sector,
    k_min,
    reconstruct,
    run_selftest,
    sectors,
    unit,
    wdvv_residual,
)
from orbimirror.aquantum import a0_matrix as a0_matrix_A
from orbimirror.aquantum import hyperplane_quantum_mult, sector_constant
from orbimirror.bside import a0_matrix as a0_matrix_B

from test_acohomology import TABLE_GAMMAS, full_table_expectations


def _passed(num, text, elapsed=None):
    suffix = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"[criterion {num}] PASS: {text}{suffix}")


def test_criterion_1_paper_table():
    start = time.perf_counter()
    w = Weights(1, 2, 2, 3, 3, 3)
    expected = full_table_expectations()
    assert len(expected) == 196
    for (label_a, label_b), entry in expected.items():
        a = BasisClass(TABLE_GAMMAS[label_a[0]], label_a[1])
        b = BasisClass(TABLE_GAMMAS[label_b[0]], label_b[1])
        coeff, target = cup_basis(w, a, b)
        if entry == 0:
            assert (coeff, target) == (F(0), None), (label_a, label_b)
        else:
            c, (sector, d) = entry
            assert (coeff, target) == (
                F(c),
                BasisClass(TABLE_GAMMAS[sector], d),
            ), (label_a, label_b)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(1, "14x14 product table for (1,2,2,3,3,3), all 196 entries exact", elapsed)


def test_criterion_2_classical_mirror():
    start = time.perf_counter()
    assert len(SUITE) >= 12
    for wt in SUITE:
        report = check_classical(Weights(wt))
        assert report.passed, (wt, report.failures[:3])
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _passed(2, f"classical correspondence on {len(SUITE)} weight vectors", elapsed)


def test_criterion_3_quantum_mirror():
    start = time.perf_counter()
    for wt in SUITE:
        report = check_quantum(Weights(wt))
        assert report.passed, (wt, report.failures[:3])
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _passed(3, f"quantum correspondence on {len(SUITE)} weight vectors", elapsed)


def test_criterion_4_spectral_identity():
    start = time.perf_counter()
    for wt in SUITE:
        w = Weights(wt)
        mu = w.mu
        denom = 1
        for wi in w:
            denom *= wi**wi
        expected = [F(0)] * (mu + 1)
        expected[mu] = F(1)
        expected[0] = -F(mu**mu, denom)
        assert char_poly(a0_matrix_B(w)) == expected, wt
        assert char_poly(a0_matrix_A(w)) == expected, wt
    elapsed = time.perf_counter() - start
    _passed(4, "char poly X^mu - mu^mu prod w^-w on both sides, all suite members", elapsed)


def test_criterion_5_power_relations():
    start = time.perf_counter()
    for wt in SUITE:
        w = Weights(wt)
        power = unit(w)
        for _ in range(w.mu):
            power = hyperplane_quantum_mult(w, power)
        denom = 1
        for wi in w:
            denom *= wi**wi
        assert power == CohClass.line(BasisClass(F(0), 0), F(1, denom), 1), wt
        for g in sectors(w):
            if g == 0:
                continue
            power = unit(w)
            for _ in range(k_min(w, g)):
                power = hyperplane_quantum_mult(w, power)
            expected = CohClass.line(
                BasisClass(inverse_sector(g), 0), sector_constant(w, g), g
            )
            assert power == expected, (wt, g)
            assert sector_constant(w, g) == sector_constant_ratio(w, g), (wt, g)
    elapsed = time.perf_counter() - start
    _passed(5, "hyperplane power relations and both sector-constant routes", elapsed)


def test_criterion_6_reconstruction():
    start = time.perf_counter()
    counts = kontsevich_numbers(4)
    p = reconstruct(Weights(1, 1, 1), 11)
    assert p.coeff((0, 1, 2)) == counts[1] == 1
    assert p.coeff((0, 0, 5)) == counts[2] == 1
    assert p.coeff((0, 0, 8)) == counts[3] == 12
    assert p.coeff((0, 0, 11)) == counts[4] == 620
    elapsed_p2 = time.perf_counter() - start
    assert elapsed_p2 < 60.0

    start_p1 = time.perf_counter()
    p1 = reconstruct(Weights(1, 1), 8)
    assert all(p1.coeff((0, k)) == 1 for k in range(3, 9))
    elapsed_p1 = time.perf_counter() - start_p1
    assert elapsed_p1 < 1.0
    _passed(6, "reconstruction matches the curve-count oracle", elapsed_p2 + elapsed_p1)


def test_criterion_7_overdetermination():
    start = time.perf_counter()
    members = [wt for wt in SUITE if Weights(wt).mu <= 5]
    assert len(members) >= 6
    total = 0
    for wt in members:
        w = Weights(wt)
        mu = w.mu
        p = reconstruct(w, 7)
        alphas = [
            alpha
            for length in range(0, 5)
            for alpha in itertools.product(range(length + 1), repeat=mu)
            if sum(alpha) == length
        ]
        for alpha in alphas:
            for eq in itertools.product(range(mu), repeat=4):
                assert wdvv_residual(p, *eq, alpha) == 0, (wt, eq, alpha)
                total += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _passed(7, f"{total} WDVV residuals vanish exactly across {len(members)} members", elapsed)


def test_criterion_8_selftest_suite():
    start = time.perf_counter()
    total = 0
    for wt in SUITE:
        report = run_selftest(Weights(wt))
        assert report.passed, (wt, report.failures[:3])
        total += report.checks
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _passed(8, f"selftest invariants, {total} exact checks over the suite", elapsed)
