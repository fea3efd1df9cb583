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

from orbimirror import Weights, acohomology, aquantum, bside
from orbimirror import check_classical, check_quantum
from orbimirror import cli, mirror, ordered_basis, run_selftest, sector_table, selftest


def _cup_table_through(fault):
    """A ``cup_table`` with ``fault(w, a, b, coeff, target)`` applied to the
    real entry of each pair of classes ``a, b`` of the ordered basis."""
    cup_table = acohomology.cup_table

    def faulty(w):
        basis = ordered_basis(w)
        return tuple(
            tuple(fault(w, a, b, *entry) for b, entry in zip(basis, row))
            for a, row in zip(basis, cup_table(w))
        )

    return faulty


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


def test_cup_table_failure_records(monkeypatch):
    # eta_1^1 * eta_1^1 doubled in the cup table the classical checker reads:
    # exactly that pair fails graded_product.
    cup_table = acohomology.cup_table

    def one_doubled(w):
        rows = [list(row) for row in cup_table(w)]
        coeff, target = rows[1][1]
        rows[1][1] = (2 * coeff, target)
        return tuple(map(tuple, rows))

    monkeypatch.setattr(mirror, "cup_table", one_doubled)
    classical = check_classical(Weights(1, 2, 3))
    assert classical.checks == 78
    assert _by_check(classical) == {
        "graded_product": (
            1,
            [
                ("check", "graded_product"),
                ("pair", (("0", 1), ("0", 1))),
                ("indices", (1, 1)),
                ("a_side", {2: "2"}),
                ("b_side", {2: "1"}),
            ],
        ),
    }


def test_a_side_action_failure_records(monkeypatch):
    # eta_1^1 * eta_1^1 doubled in the A-side hyperplane table.  The 3-point
    # tensor is read off the same table as A0, so it fails with it, at the
    # one pair that pairs the doubled image nontrivially.
    hyperplane_table = aquantum.hyperplane_table

    def doubled_square(w):
        rows = list(hyperplane_table(w))
        scalar, qexp, target = rows[1]  # eta_1^1 sits at position 1
        rows[1] = (2 * scalar, qexp, target)
        return tuple(rows)

    monkeypatch.setattr(aquantum, "hyperplane_table", doubled_square)
    quantum = check_quantum(Weights(1, 2, 3))
    assert quantum.checks == 87
    assert _by_check(quantum) == {
        "a0_transport": (
            1,
            [("check", "a0_transport"), ("detail", "P^T * A0_A * P != A0_B at Q=1")],
        ),
        "a0_entry": (
            1,
            [
                ("check", "a0_entry"),
                ("pair", (("0", 2), ("0", 1))),
                ("indices", (2, 1)),
                ("a_side", "12"),
                ("b_side", "6"),
            ],
        ),
        "three_point_tensor": (
            1,
            [
                ("check", "three_point_tensor"),
                ("pair", (("0", 1), ("0", 0))),
                ("indices", (1, 0)),
                ("a_side", "1/3"),
                ("b_side", "1/6"),
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
    # One extra obstruction index on the last coordinate, in the cup table
    # that selftest reads for its ring checks and the hyperplane table reads
    # for its classical shift: each nonzero product where that coordinate
    # does not carry gains a factor w[-1].  With ``asymmetric`` only for
    # ``g0 < g1``, which also breaks commutativity.  The hyperplane table is
    # cached, so it is built afresh from the faulty cup table.
    def with_extra_index(w, a, b, coeff, target):
        table = sector_table(w)
        last = len(w) - 1
        part = table[a.gamma].parts[last] + table[b.gamma].parts[last]
        carries = part >= math.lcm(*w)
        if target is not None and not carries and (a.gamma < b.gamma or not asymmetric):
            coeff *= w[last]
        return coeff, target

    faulty = _cup_table_through(with_extra_index)
    monkeypatch.setattr(selftest, "cup_table", faulty)
    monkeypatch.setattr(aquantum, "cup_table", faulty)
    monkeypatch.setattr(aquantum, "hyperplane_table", aquantum.hyperplane_table.__wrapped__)
    report = run_selftest(Weights(2, 3, 4))
    assert report.checks == 3395
    assert _by_check(report) == expected


def test_selftest_non_integral_cup_records(monkeypatch):
    # The ring laws read the cup coefficients as ints; one that is not an
    # integer (here + 1/2 for g0 < g1) must fail them, not be truncated.
    def plus_half(w, a, b, coeff, target):
        if target is not None and a.gamma < b.gamma:
            coeff += Fraction(1, 2)
        return coeff, target

    monkeypatch.setattr(selftest, "cup_table", _cup_table_through(plus_half))
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


def _selftest_fails_without_raising(capsys, wt) -> None:
    # The CLI reports the failures and exits 1, with no traceback.
    assert cli.main(["selftest", "--weights", ",".join(map(str, wt))]) == 1
    assert capsys.readouterr().err == ""


def test_selftest_singular_pairing_records(monkeypatch, capsys):
    # The pairing loses the unit's partner: the Gram matrix is singular, so
    # both the grading adjoint and nondegeneracy fail, and so does Frobenius
    # symmetry wherever it reads that entry.  On P(2, 3, 4) the unit sits at
    # position 0 and its partner eta_1^2 at position 2.
    gram_matrix = acohomology.gram_matrix

    def without_unit_partner(w):
        rows = [list(row) for row in gram_matrix(w)]
        rows[0][2] = Fraction(0)
        return tuple(map(tuple, rows))

    monkeypatch.setattr(selftest, "gram_matrix", without_unit_partner)
    report = run_selftest(Weights(2, 3, 4))
    assert report.checks == 3395
    assert _by_check(report) == {
        "a_side_grading_adjoint": (
            1,
            [
                ("check", "a_side_grading_adjoint"),
                ("detail", "diag(deg/2) + adjoint != n * Id"),
            ],
        ),
        "pairing_nondegenerate": (1, [("check", "pairing_nondegenerate")]),
        "cup_frobenius": (
            8,
            [("check", "cup_frobenius"), ("triple", (("0", 0), ("0", 1), ("0", 1)))],
        ),
    }
    _selftest_fails_without_raising(capsys, (2, 3, 4))


def test_selftest_singular_b_metric_records(monkeypatch, capsys):
    # The residue metric loses its entry at index 0: the B-side grading
    # adjoint fails, and so do the laws that read that entry.
    metric_diagonal = bside.metric_diagonal

    def zero_at_unit(w):
        dual, entry = metric_diagonal(w)
        return dual, (Fraction(0),) + entry[1:]

    monkeypatch.setattr(bside, "metric_diagonal", zero_at_unit)
    monkeypatch.setattr(bside, "metric_matrix", bside.metric_matrix.__wrapped__)
    report = run_selftest(Weights(2, 3, 4))
    assert report.checks == 3395
    assert _by_check(report) == {
        "b_side_grading_adjoint": (
            1,
            [
                ("check", "b_side_grading_adjoint"),
                ("detail", "diag(sigma) + adjoint != n * Id"),
            ],
        ),
        "b_frobenius_symmetric": (
            16,
            [("check", "b_frobenius_symmetric"), ("triple", (0, 2, 0))],
        ),
        "three_tensor_matches_product": (
            2,
            [("check", "three_tensor_matches_product"), ("pair", (0, 1))],
        ),
    }
    _selftest_fails_without_raising(capsys, (2, 3, 4))
