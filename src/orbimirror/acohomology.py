"""The classical ring on the A side.

The underlying graded vector space has the mu basis classes ``eta_g^d``,
one for each sector ``g`` and each power ``0 <= d <= sector_dim(g)`` of the
restricted hyperplane class.  Per-sector data is read from the sector
table, its one definition.  This module implements, all in exact arithmetic:

* the ordered basis and the grading ``deg(eta_g^d) = 2 (d + age(g))``,
* the Poincare pairing (perfect, block anti-diagonal in the sectors):
  ``eta_g^d`` pairs with ``eta_{g^-1}^{d'}`` iff ``d + d' = dim(g)``,
* the cup product on basis classes,
* the monomials ``c * Q^e * eta_g^d`` that the quantum action moves.

The cup product is read off the integer parts ``p_i = D * frac(g * w_i)``,
``D = lcm(w)``, of the sector table.  With ``K = {i : p0_i + p1_i >= D}``,
the coordinates that carry, ``eta_{g0}^{d0} * eta_{g1}^{d1}`` is
``prod(w_i for i in K) * eta_{g0 g1}^{d0 + d1 + |K|}``, or zero when
``g0 g1`` is not a sector or the exponent is above its dimension.  This is
the Chen-Ruan formula: with ``s_i = p0_i + p1_i``, the obstruction set is
``{s_i > D}``, the excess fixed locus ``I(g0 g1) - I(g0) & I(g1)`` is
``{s_i = D}``, and ``age(g0) + age(g1) - age(g0 g1) = #{s_i >= D}``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .combinatorics import SectorData, Weights, sector_table
from .errors import InternalConsistencyError


class BasisClass(namedtuple("BasisClass", "gamma d")):
    """The class ``eta_g^d``: d-th hyperplane power on the sector of ``g``."""

    __slots__ = ()


class CohClass(namedtuple("CohClass", "bc scalar qexp")):
    """The monomial ``scalar * Q^qexp * eta_g^d`` with exact rational
    ``scalar`` and ``qexp``.

    ``Q`` is the formal bookkeeping variable of the quantum corrections,
    weighted so that half-degree plus ``mu`` times the ``Q``-exponent is
    preserved; classical classes have ``qexp = 0``.  The hyperplane action
    sends a monomial to a monomial, so no sums are needed.
    """

    __slots__ = ()

    @classmethod
    def line(cls, bc: BasisClass, scalar=1, qexp=0) -> "CohClass":
        return cls(bc, Fraction(scalar), Fraction(qexp))


@lru_cache(maxsize=None)
def ordered_basis(w: Weights) -> tuple[BasisClass, ...]:
    """All ``eta_g^d`` sorted by ``(gamma, d)``; exactly ``mu`` classes.

    >>> ordered_basis(Weights(1, 2))
    (BasisClass(gamma=Fraction(0, 1), d=0), BasisClass(gamma=Fraction(0, 1), d=1), BasisClass(gamma=Fraction(1, 2), d=0))
    """
    basis = tuple(
        BasisClass(g, d) for g, s in sector_table(w).items() for d in range(s.dim + 1)
    )
    if len(basis) != w.mu:
        raise InternalConsistencyError(
            f"basis has {len(basis)} classes, expected mu={w.mu}"
        )
    return basis


@lru_cache(maxsize=None)
def basis_index(w: Weights) -> MappingProxyType:
    """Read-only position of each basis class inside :func:`ordered_basis`."""
    return MappingProxyType({bc: i for i, bc in enumerate(ordered_basis(w))})


def degree(w: Weights, c: BasisClass) -> Fraction:
    """Orbifold degree ``2 (d + age(g))`` of a basis class.  Raises
    ``ValueError`` if ``c`` is not a basis class."""
    return 2 * (c.d + basis_sector(w, c).age)


def pairing(w: Weights, a: BasisClass, b: BasisClass) -> Fraction:
    """Poincare pairing of two basis classes.

    Nonzero only between mutually inverse sectors with ``d + d' = dim(g)``
    (so degrees sum to ``2n``), where it is ``prod(1 / w_i, i in I(g))``.
    Raises ``ValueError`` if ``a`` or ``b`` is not a basis class.
    """
    sector = basis_sector(w, a)
    basis_sector(w, b)
    if b.gamma != sector.inverse or a.d + b.d != sector.dim:
        return Fraction(0)
    return sector.inv_weight_product


@lru_cache(maxsize=None)
def gram_matrix(w: Weights) -> tuple[tuple[Fraction, ...], ...]:
    """Pairing matrix over the ordered basis (symmetric, nondegenerate)."""
    basis = ordered_basis(w)
    return tuple(tuple(pairing(w, a, b) for b in basis) for a in basis)


def basis_sector(w: Weights, c: BasisClass) -> SectorData:
    """The sector record of the basis class ``c = eta_g^d``.

    Raises ``ValueError`` unless ``g`` is a sector and ``0 <= d <= dim(g)``.
    """
    s = sector_table(w).get(c.gamma)
    if s is None or not 0 <= c.d <= s.dim:
        raise ValueError(f"eta_{c.gamma}^{c.d} is not a basis class of P{w.w}")
    return s


def cup_basis(
    w: Weights, a: BasisClass, b: BasisClass
) -> tuple[int, BasisClass | None]:
    """Cup product of two basis classes: ``(coefficient, target)``.

    By the carry rule: ``prod(w_i for i in K) * eta_g^{d0 + d1 + |K|}`` on
    ``g = (g0 + g1) % 1``, ``K = {i : p0_i + p1_i >= D}``.  Returns
    ``(0, None)`` when ``g`` is not a sector or the exponent exceeds its
    dimension.  Raises ``ValueError`` if ``a`` or ``b`` is not a basis class.

    >>> w = Weights(1, 2, 2, 3, 3, 3)
    >>> cup_basis(w, BasisClass(Fraction(1, 3), 0), BasisClass(Fraction(1, 3), 0))
    (4, BasisClass(gamma=Fraction(2, 3), d=2))
    """
    s0, s1 = basis_sector(w, a), basis_sector(w, b)
    g = (s0.gamma + s1.gamma) % 1
    # g is a sector exactly when some coordinate is fixed by it.
    s = sector_table(w).get(g)
    if s is None:
        return 0, None
    carry = [i for i, p in enumerate(s0.parts) if p + s1.parts[i] >= w.lcm]
    d = a.d + b.d + len(carry)
    if d > s.dim:
        return 0, None
    return math.prod(w[i] for i in carry), BasisClass(g, d)


def unit(w: Weights) -> CohClass:
    """The unit class ``eta_1^0``."""
    return CohClass.line(BasisClass(Fraction(0), 0))

