"""Small exact linear algebra helpers over ``fractions.Fraction``.

Matrices are lists of row lists.  Sizes here are tiny (mu x mu with
mu <= 64), so simple cubic algorithms are plenty.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list[list[Fraction]]


def zeros(rows: int, cols: int | None = None) -> Matrix:
    cols = rows if cols is None else cols
    return [[Fraction(0)] * cols for _ in range(rows)]


def identity(n: int) -> Matrix:
    m = zeros(n)
    for i in range(n):
        m[i][i] = Fraction(1)
    return m


def matmul(a: Matrix, b: Matrix) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0])
    out = zeros(rows, cols)
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            aik = ai[k]
            if aik:
                bk = b[k]
                for j in range(cols):
                    if bk[j]:
                        oi[j] += aik * bk[j]
    return out


def trace(a: Matrix) -> Fraction:
    return sum((a[i][i] for i in range(len(a))), Fraction(0))


def char_poly(a: Matrix) -> list[Fraction]:
    """Coefficients ``c_0 .. c_n`` of ``det(X I - A)``, low degree first.

    Faddeev-LeVerrier iteration; exact over the rationals.
    """
    n = len(a)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m = identity(n)
    for k in range(1, n + 1):
        m = matmul(a, m)
        c = -trace(m) / k
        coeffs[n - k] = c
        for i in range(n):
            m[i][i] += c
    return coeffs


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
    m = [row[:] + idrow for row, idrow in zip(a, identity(n))]
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

