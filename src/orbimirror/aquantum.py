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

The degree-one 3-point numbers are the pairing of the hyperplane action:
``((eta_1^1, a, b)) = g(eta_1^1 * a, b)`` at ``Q = 1``; :func:`three_point`
reads them off :func:`hyperplane_quantum_mult`.  Both raise ``ValueError``
on a class outside the basis.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction

from .combinatorics import (
    Sector,
    Weights,
    inverse_sector,
    sector_table,
    sectors,
)
from .acohomology import (
    BasisClass,
    CohClass,
    basis_position,
    basis_sector,
    cup_basis,
    ordered_basis,
    pairing,
)
from .linalg import Matrix, zeros


_HYPERPLANE = BasisClass(Fraction(0), 1)


def three_point(w: Weights, g: Sector, d: int, g2: Sector, d2: int) -> Fraction:
    """The degree-one 3-point number ``((eta_1^1, eta_g^d, eta_g2^d2))``: the
    pairing of ``eta_1^1 * eta_g^d`` at ``Q = 1`` with ``eta_g2^d2``.

    Raises ``ValueError`` if either class is not a basis class.

    >>> three_point(Weights(1, 2), Fraction(0), 1, Fraction(1, 2), 0)
    Fraction(1, 4)
    """
    image = hyperplane_quantum_mult(w, CohClass.line(BasisClass(g, d)))
    return image.scalar * pairing(w, image.bc, BasisClass(g2, d2))


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
    """Small quantum multiplication of a monomial by ``eta_1^1`` at the origin.

    Below a sector's top power this is the classical cup shift; on the top
    power it jumps to the next sector with the ``Q`` monomial described in
    the module docstring.  Raises ``ValueError`` if ``c.bc`` is not a basis
    class.
    """
    table = sector_table(w)
    sector = basis_sector(w, c.bc)
    if c.bc.d < sector.dim:
        coeff, target = cup_basis(w, _HYPERPLANE, c.bc)
        return CohClass(target, c.scalar * coeff, c.qexp)
    prev = sector.inverse
    secs = sectors(w)
    # The sector after ``prev`` in the circle order; past the last one the
    # rotation number wraps through 1 back to the identity.
    after = bisect.bisect_right(secs, prev)
    nxt = secs[after] if after < len(secs) else Fraction(1)
    return CohClass(
        BasisClass(inverse_sector(nxt), 0),
        c.scalar * table[prev].inv_weight_product,
        c.qexp + nxt - prev,
    )


def a0_matrix(w: Weights) -> Matrix:
    """Matrix of ``mu * (eta_1^1 *)`` over the ordered basis at ``Q = 1``.

    Columns are indexed by the source basis element.
    """
    m = zeros(w.mu)
    for col, bc in enumerate(ordered_basis(w)):
        image = hyperplane_quantum_mult(w, CohClass.line(bc))
        m[basis_position(w, image.bc)][col] = w.mu * image.scalar
    return m
