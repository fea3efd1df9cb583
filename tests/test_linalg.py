"""The characteristic polynomial read off a weighted cycle.

Both ``A0`` matrices are weighted mu-cycles, so ``linalg.char_poly`` reads
``X^mu - p`` off the cycle, where ``p`` is the product of its entries.  The
dense Faddeev-LeVerrier iteration of ``tests/_oracles.py`` is the reference,
and the paper's spectral identity ``p = mu^mu prod w_i^(-w_i)`` the target.
"""

from __future__ import annotations

import math
from fractions import Fraction as F

import pytest

from _oracles import char_poly_reference
from conftest import CENSUS, SUITE
from orbimirror import InternalConsistencyError, Weights, aquantum, bside
from orbimirror.linalg import char_poly

VECTORS = sorted(set(CENSUS) | set(SUITE) | {(3, 5, 6, 8, 10), (5, 8, 9, 11, 15, 16)})


def _spectral(w: Weights) -> list[F]:
    mu = w.mu
    p = F(mu**mu, math.prod(wi**wi for wi in w))
    return [-p] + [F(0)] * (mu - 1) + [F(1)]


@pytest.mark.parametrize("wt", VECTORS, ids=lambda t: "w" + "_".join(map(str, t)))
def test_spectral_identity_on_both_a0(wt):
    w = Weights(wt)
    expected = _spectral(w)
    for a0 in (bside.a0_matrix(w), aquantum.a0_matrix(w)):
        assert char_poly(a0) == char_poly_reference(a0) == expected


def test_cycle_in_any_order_matches_reference():
    # The cycle 0 -> 2 -> 1 -> 3 -> 0 with signed entries.
    a = [[F(0)] * 4 for _ in range(4)]
    a[2][0], a[1][2], a[3][1], a[0][3] = F(2), F(-3, 5), F(7), F(1, 2)
    assert char_poly(a) == char_poly_reference(a) == [F(21, 5), F(0), F(0), F(0), F(1)]


def _matrix(entries: dict[tuple[int, int], int], n: int = 3) -> list[list[F]]:
    return [[F(entries.get((i, j), 0)) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize(
    "entries",
    [
        {(1, 0): 1, (2, 0): 1, (2, 1): 1, (0, 2): 1},
        {(1, 0): 1, (0, 2): 1},
        {(0, 0): 1, (2, 1): 1, (1, 2): 1},
        {(1, 0): 1, (0, 1): 1, (0, 2): 1},
    ],
    ids=[
        "two_entries_in_a_column",
        "zero_column",
        "fixed_point_and_2_cycle",
        "two_columns_one_row",
    ],
)
def test_non_cycle_is_refused(entries):
    with pytest.raises(InternalConsistencyError):
        char_poly(_matrix(entries))
