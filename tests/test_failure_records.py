"""Failure records of the exact checkers under injected faults.

Real inputs never fail, so these tests break one layer on purpose and pin
what the checkers then report: the total count of checks, and for each
failing category its count and its first record, keys in order (the CLI
writes the records as JSON).
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from orbimirror import Weights, acohomology, aquantum, bside, check_classical, check_quantum
from orbimirror import cli, run_selftest, sector_table, selftest


def _by_check(report) -> dict:
    """``{check: (count, first record as a list of items)}``."""
    out = {}
    for record in report.failures:
        count, first = out.get(record["check"], (0, list(record.items())))
        out[record["check"]] = (count + 1, first)
    return out


def test_mirror_failure_records(monkeypatch):
    product, a0_matrix, three_tensor = bside.product, bside.a0_matrix, bside.three_tensor

    def doubled_square(w, i, j):
        coeff, target = product(w, i, j)
        return (2 * coeff if i == j else coeff), target

    def two_wrong_entries(w):
        m = a0_matrix(w)
        m[0][0] += 1
        m[2][1] *= 3
        return m

    def one_wrong_tensor(w, j, k):
        return three_tensor(w, j, k) + (1 if (j, k) == (2, 2) else 0)

    monkeypatch.setattr(bside, "product", doubled_square)
    monkeypatch.setattr(bside, "a0_matrix", two_wrong_entries)
    monkeypatch.setattr(bside, "three_tensor", one_wrong_tensor)
    w = Weights(1, 2, 3)

    classical = check_classical(w)
    assert classical.checks == 78
    assert _by_check(classical) == {
        "graded_product": (
            3,
            [
                ("check", "graded_product"),
                ("pair", (("0", 0), ("0", 0))),
                ("indices", (0, 0)),
                ("a_side", {0: "1"}),
                ("b_side", {0: "2"}),
            ],
        ),
    }

    quantum = check_quantum(w)
    assert quantum.checks == 87
    assert _by_check(quantum) == {
        "a0_transport": (
            1,
            [("check", "a0_transport"), ("detail", "P^T * A0_A * P != A0_B at Q=1")],
        ),
        "a0_entry": (
            2,
            [
                ("check", "a0_entry"),
                ("pair", (("0", 0), ("0", 0))),
                ("indices", (0, 0)),
                ("a_side", "0"),
                ("b_side", "1"),
            ],
        ),
        "three_point_tensor": (
            1,
            [
                ("check", "three_point_tensor"),
                ("pair", (("0", 2), ("0", 2))),
                ("indices", (2, 2)),
                ("a_side", "0"),
                ("b_side", "1"),
            ],
        ),
    }


UNIT = [("check", "cup_unit"), ("cls", ("1/4", 0))]
FROBENIUS = [("check", "cup_frobenius"), ("triple", (("0", 0), ("1/3", 0), ("2/3", 0)))]
POWER_MU = [("check", "hyperplane_power_mu"), ("detail", "(eta_1^1)^mu != Q * prod w^-w")]


@pytest.mark.parametrize(
    "asymmetric, expected",
    [
        (
            False,
            {
                "cup_unit": (9, [("check", "cup_unit"), ("cls", ("0", 0))]),
                "cup_frobenius": (4, FROBENIUS),
                "hyperplane_power_mu": (1, POWER_MU),
                "hyperplane_power_kmin": (
                    5,
                    [("check", "hyperplane_power_kmin"), ("sector", "1/4")],
                ),
            },
        ),
        (
            True,
            {
                "cup_unit": (6, UNIT),
                "cup_commutative": (
                    18,
                    [("check", "cup_commutative"), ("pair", (("0", 0), ("1/4", 0)))],
                ),
                "cup_associative": (
                    29,
                    [
                        ("check", "cup_associative"),
                        ("triple", (("0", 0), ("0", 0), ("1/4", 0))),
                    ],
                ),
                "cup_frobenius": (16, FROBENIUS),
                "hyperplane_power_mu": (1, POWER_MU),
                "hyperplane_power_kmin": (
                    2,
                    [("check", "hyperplane_power_kmin"), ("sector", "2/3")],
                ),
            },
        ),
    ],
    ids=["extra_index", "extra_index_one_order"],
)
def test_selftest_failure_records(monkeypatch, asymmetric, expected):
    # One extra obstruction index on the last coordinate, at both cup product
    # routes selftest reaches (its ring checks and the hyperplane action):
    # each nonzero product where that coordinate does not carry gains a
    # factor w[-1].  With ``asymmetric`` only for ``g0 < g1``, which also
    # breaks commutativity.
    cup_basis = acohomology.cup_basis

    def with_extra_index(w, a, b):
        coeff, target = cup_basis(w, a, b)
        table = sector_table(w)
        last = len(w) - 1
        part = table[a.gamma].parts[last] + table[b.gamma].parts[last]
        carries = part >= math.lcm(*w)
        if target is not None and not carries and (a.gamma < b.gamma or not asymmetric):
            coeff *= w[last]
        return coeff, target

    monkeypatch.setattr(selftest, "cup_basis", with_extra_index)
    monkeypatch.setattr(aquantum, "cup_basis", with_extra_index)
    report = run_selftest(Weights(2, 3, 4))
    assert report.checks == 3395
    assert _by_check(report) == expected


def test_selftest_non_integral_cup_records(monkeypatch):
    # The ring laws read the cup coefficients as ints; one that is not an
    # integer (here + 1/2 for g0 < g1) must fail them, not be truncated.
    cup_basis = acohomology.cup_basis

    def plus_half(w, a, b):
        coeff, target = cup_basis(w, a, b)
        if target is not None and a.gamma < b.gamma:
            coeff += Fraction(1, 2)
        return coeff, target

    monkeypatch.setattr(selftest, "cup_basis", plus_half)
    report = run_selftest(Weights(2, 3, 4))
    assert report.checks == 3395
    assert _by_check(report) == {
        "cup_unit": (6, UNIT),
        "cup_commutative": (
            20,
            [("check", "cup_commutative"), ("pair", (("0", 0), ("1/4", 0)))],
        ),
        "cup_associative": (
            30,
            [
                ("check", "cup_associative"),
                ("triple", (("0", 0), ("0", 0), ("1/4", 0))),
            ],
        ),
        "cup_frobenius": (
            18,
            [("check", "cup_frobenius"), ("triple", (("0", 0), ("1/4", 0), ("3/4", 0)))],
        ),
    }


def test_b_ring_failure_records(monkeypatch):
    # The B product doubled for ``i < j`` only: commutative, associative and
    # Frobenius laws break, and so does the tensor that reads row 1.
    product = bside.product

    def doubled_upper(w, i, j):
        coeff, target = product(w, i, j)
        return (2 * coeff if i < j else coeff), target

    monkeypatch.setattr(bside, "product", doubled_upper)
    report = run_selftest(Weights(2, 3, 4))
    assert report.checks == 3395
    assert _by_check(report) == {
        "b_product_commutative": (
            72,
            [("check", "b_product_commutative"), ("pair", (0, 1))],
        ),
        "b_product_associative": (
            366,
            [("check", "b_product_associative"), ("triple", (0, 0, 1))],
        ),
        "b_frobenius_symmetric": (
            54,
            [("check", "b_frobenius_symmetric"), ("triple", (0, 0, 2))],
        ),
        "three_tensor_matches_product": (
            7,
            [("check", "three_tensor_matches_product"), ("pair", (2, 8))],
        ),
    }


@pytest.mark.parametrize(
    "wt, checks, expected",
    [
        (
            (1, 2),
            179,
            {
                "k_min_closed_form": 1,
                "spectrum_matches_degree": 1,
                "dual_index_congruence": 3,
                "hyperplane_power_kmin": 1,
            },
        ),
        (
            (2, 3, 4),
            3395,
            {
                "k_min_closed_form": 5,
                "spectrum_matches_degree": 6,
                "dual_index_congruence": 12,
                "hyperplane_power_kmin": 5,
            },
        ),
        (
            (1, 2, 3),
            1091,
            {
                "k_min_closed_form": 3,
                "spectrum_matches_degree": 1,
                "dual_index_congruence": 6,
                "hyperplane_power_kmin": 3,
            },
        ),
    ],
    ids=["w1_2", "w2_3_4", "w1_2_3"],
)
def test_selftest_k_min_off_by_one(monkeypatch, capsys, wt, checks, expected):
    # ``k_min`` one too high on every nontrivial sector sends some B indices
    # past the spectrum: those checks fail instead of raising IndexError.
    k_min = selftest.k_min
    monkeypatch.setattr(selftest, "k_min", lambda w, g: k_min(w, g) + (g != 0))
    report = run_selftest(Weights(wt))
    assert report.status == "FAIL"
    assert report.checks == checks
    assert {check: count for check, (count, _) in _by_check(report).items()} == expected
    code = cli.main(["selftest", "--weights", ",".join(map(str, wt))])
    assert code == 1
    assert capsys.readouterr().err == ""
