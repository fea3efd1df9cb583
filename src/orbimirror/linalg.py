"""Small exact linear algebra helpers over ``fractions.Fraction``.

Matrices are lists of row lists.  Sizes here are tiny (mu x mu with
mu <= 64).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InternalConsistencyError

Matrix = list[list[Fraction]]


def char_poly(a: Matrix) -> list[Fraction]:
    """Coefficients ``c_0 .. c_n`` of ``det(X I - A)``, low degree first, for
    a weighted n-cycle ``A``: one nonzero entry per column, whose rows run
    through a single cycle.  Both ``A0`` matrices are of this form.

    Expanding along the cycle gives ``X^n - p``, where ``p`` is the product
    of the entries.  Any other matrix raises ``InternalConsistencyError``.
    """
    n = len(a)
    image = []
    for j, column in enumerate(zip(*a)):
        rows = [i for i, x in enumerate(column) if x]
        if len(rows) != 1:
            raise InternalConsistencyError(
                f"column {j} has {len(rows)} nonzero entries, not one of a cycle"
            )
        image.append(rows[0])
    # Walk the cycle from column 0: n distinct columns, then back to 0.
    p, j, seen = Fraction(1), 0, set()
    for _ in range(n):
        seen.add(j)
        p *= a[image[j]][j]
        j = image[j]
    if j != 0 or len(seen) != n:
        raise InternalConsistencyError(f"the {n} x {n} matrix is not one n-cycle")
    return [-p] + [Fraction(0)] * (n - 1) + [Fraction(1)]


def det(a: Matrix) -> Fraction:
    """Exact determinant via fraction Gaussian elimination."""
    n = len(a)
    m = [row[:] for row in a]
    sign = 1
    d = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        p = m[col][col]
        d *= p
        for r in range(col + 1, n):
            f = m[r][col] / p
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return sign * d


def mat_inverse(a: Matrix) -> Matrix:
    """Exact inverse via Gauss-Jordan; raises ``ZeroDivisionError`` if singular."""
    n = len(a)
    m = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            raise ZeroDivisionError("matrix is singular")
        m[col], m[pivot] = m[pivot], m[col]
        p = m[col][col]
        m[col] = [x / p for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]
