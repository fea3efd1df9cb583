"""Degree-one quantum data on the A side.

Multiplication by the hyperplane class ``eta_1^1`` in the small quantum
ring is the only product needed to pin down the initial conditions.  It
sends each monomial ``c * Q^e * eta_h^d`` to one monomial: it either shifts
the hyperplane power inside a sector (classically) or, on a sector's top
power, jumps to the next sector in the circle order while picking up a
``Q`` monomial:

    eta_1^1 * eta_{h}^{dim(h)} =
        (prod_{i in I(h)} 1/w_i) * Q^{gamma(next) - gamma(prev)} * eta_{next^{-1}}^0

where ``prev = h^{-1}`` and ``next`` is the sector after ``prev``; past the
last sector the exponent wraps through 1 back to the identity.  Iterating
gives the two power relations tested in the suite:

    (eta_1^1)^{k_min(g)} = Q^{gamma(g)} * s(g) * eta_{g^{-1}}^0,
    (eta_1^1)^{mu}       = Q * prod w_i^{-w_i},

with ``s(g) = prod_i w_i^{-ceil(gamma(g) w_i)}``.

The action is stated once, by basis position, in :func:`hyperplane_table`,
which the other functions read.  The degree-one 3-point numbers are its
pairing, ``((eta_1^1, a, b)) = g(eta_1^1 * a, b)`` at ``Q = 1``:
:func:`three_point` reads the table and the Gram matrix, with no
``CohClass``.  A class outside the basis is a ``ValueError``.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from functools import lru_cache

from .combinatorics import ZERO, Sector, Weights, sector_table, sectors
from .acohomology import (
    BasisClass,
    CohClass,
    basis_position,
    cup_table,
    gram_matrix,
    ordered_basis,
)


@lru_cache(maxsize=None)
def hyperplane_table(w: Weights) -> tuple[tuple[Fraction, Fraction, int], ...]:
    """The hyperplane action by basis position: entry ``p`` is ``(scalar,
    qexp, target position)`` for ``eta_1^1 * b_p = scalar * Q^qexp *
    b_target`` at the origin, where ``b_p`` is ``ordered_basis(w)[p]``.

    Below a sector's top power the entry is row 1 of the cup table (the
    hyperplane class sits at position 1); on the top power it is the jump
    of the module docstring.  It is made of tuples only, so the cache
    cannot change.

    >>> hyperplane_table(Weights(1, 2))
    ((Fraction(1, 1), Fraction(0, 1), 1), (Fraction(1, 2), Fraction(1, 2), 2), (Fraction(1, 2), Fraction(1, 2), 0))
    """
    table = sector_table(w)
    secs = sectors(w)
    # Only for n >= 1 is eta_1^1 a basis class, and only then is there a
    # power below a sector's top one.
    shift = cup_table(w)[1] if w.n else ()
    rows = []
    for s in table.values():
        for _ in range(s.dim):
            coeff, target = shift[len(rows)]
            rows.append((Fraction(coeff), ZERO, target))
        prev = s.inverse
        # The sector after ``prev`` in the circle order; past the last one
        # the rotation number wraps through 1 back to the identity.
        after = bisect.bisect_right(secs, prev)
        nxt = secs[after] if after < len(secs) else Fraction(1)
        target = table[table[nxt % 1].inverse].k_min
        rows.append((s.inv_weight_product, nxt - prev, target))
    return tuple(rows)


def three_point(w: Weights, g: Sector, d: int, g2: Sector, d2: int) -> Fraction:
    """The degree-one 3-point number ``((eta_1^1, eta_g^d, eta_g2^d2))``: the
    pairing of ``eta_1^1 * eta_g^d`` at ``Q = 1`` with ``eta_g2^d2``.

    Raises ``ValueError`` if either class is not a basis class.

    >>> three_point(Weights(1, 2), Fraction(0), 1, Fraction(1, 2), 0)
    Fraction(1, 4)
    """
    scalar, _, target = hyperplane_table(w)[basis_position(w, BasisClass(g, d))]
    entry = gram_matrix(w)[target][basis_position(w, BasisClass(g2, d2))]
    return scalar * entry if entry else ZERO


def sector_constant(w: Weights, g: Sector) -> Fraction:
    """The structure constant ``prod_i w_i^(-ceil(gamma w_i))`` of the power
    relation ``(eta_1^1)^{k_min(g)} = Q^gamma * s * eta_{g^{-1}}^0``.

    >>> sector_constant(Weights(1, 2, 2, 3, 3, 3), Fraction(1, 3))
    Fraction(1, 108)
    """
    p = 1
    for wi in w:
        p *= wi ** math.ceil(g * wi)
    return Fraction(1, p)


def hyperplane_quantum_mult(w: Weights, c: CohClass) -> CohClass:
    """Small quantum multiplication of a monomial by ``eta_1^1`` at the
    origin: one entry of :func:`hyperplane_table`."""
    scalar, qexp, target = hyperplane_table(w)[basis_position(w, c.bc)]
    return CohClass(ordered_basis(w)[target], c.scalar * scalar, c.qexp + qexp)


def a0_matrix(w: Weights) -> list[list[Fraction]]:
    """Matrix of ``mu * (eta_1^1 *)`` over the ordered basis at ``Q = 1``, as
    fresh rows; columns are indexed by the source basis element."""
    mu = w.mu
    m = [[ZERO] * mu for _ in range(mu)]
    for col, (scalar, _, target) in enumerate(hyperplane_table(w)):
        m[target][col] = mu * scalar
    return m
