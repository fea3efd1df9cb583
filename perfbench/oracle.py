"""Independent reference values the benchmark checks outputs against.

Kept free of any import from the package under test, so the parent process
can use it without loading ``orbimirror``.
"""

from __future__ import annotations

import math

# The degree-d rational plane curve count sits at alpha = (0, 0, 3d - 1) of
# the reconstructed potential of P(1,1,1).
KONTSEVICH_WEIGHTS = (1, 1, 1)


def kontsevich_numbers(dmax: int) -> dict[int, int]:
    """N_d for d = 1..dmax by the classical recursion (N_1 = 1)."""
    n = {1: 1}
    for d in range(2, dmax + 1):
        n[d] = sum(
            n[d1] * n[d - d1] * (
                d1**2 * (d - d1) ** 2 * math.comb(3 * d - 4, 3 * d1 - 2)
                - d1**3 * (d - d1) * math.comb(3 * d - 4, 3 * d1 - 1)
            )
            for d1 in range(1, d)
        )
    return n


def kontsevich_mismatches(coeff, max_length: int) -> list[str]:
    """Compare ``coeff((0, 0, 3d - 1))`` with N_d for every d the depth reaches.

    ``coeff`` maps an alpha tuple to the reconstructed value (anything whose
    ``str`` is the reduced rational, such as a ``Fraction`` or ``"p/q"``).
    """
    dmax = (max_length + 1) // 3
    expected = kontsevich_numbers(dmax)
    bad = []
    for d in range(2, dmax + 1):
        got = str(coeff((0, 0, 3 * d - 1)))
        if got != str(expected[d]):
            bad.append(f"N_{d}: got {got}, expected {expected[d]}")
    return bad
