"""The classical ring on the A side.

The underlying graded vector space has the mu basis classes ``eta_g^d``,
one for each sector ``g`` and each power ``0 <= d <= sector_dim(g)`` of the
restricted hyperplane class.  This module implements, all in exact rational
arithmetic:

* the ordered basis and the grading ``deg(eta_g^d) = 2 (d + age(g))``,
* the Poincare pairing (perfect, block anti-diagonal in the sectors),
* the obstruction index set of a triple of sectors multiplying to 1,
* the cup product on basis classes,
* the monomials ``c * Q^e * eta_g^d`` that the quantum action moves,
* the grading matrix ``diag(deg / 2)``.

The cup product of two basis classes is ``prod(w_i for i in K)`` times a
single basis class in the product sector, where ``K`` combines the
obstruction set with the excess fixed locus:
``K = J(g0, g1, (g0 g1)^{-1}) + (I(g0 g1) - I(g0) & I(g1))``.
Products landing in an empty sector, or with target exponent above the
sector dimension, are zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .combinatorics import (
    Sector,
    Weights,
    age,
    frac,
    sector_dim,
    sector_table,
    sectors,
)
from .errors import InternalConsistencyError
from .linalg import Matrix, zeros


@dataclass(frozen=True, order=True)
class BasisClass:
    """The class ``eta_g^d``: d-th hyperplane power on the sector of ``g``."""

    gamma: Sector
    d: int


@dataclass(frozen=True)
class CohClass:
    """The monomial ``scalar * Q^qexp * eta_g^d`` with exact rational
    ``scalar`` and ``qexp``.

    ``Q`` is the formal bookkeeping variable of the quantum corrections,
    weighted so that half-degree plus ``mu`` times the ``Q``-exponent is
    preserved; classical classes have ``qexp = 0``.  The hyperplane action
    sends a monomial to a monomial, so no sums are needed.
    """

    bc: BasisClass
    scalar: Fraction
    qexp: Fraction

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
        BasisClass(g, d) for g in sectors(w) for d in range(sector_dim(w, g) + 1)
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
    """Orbifold degree ``2 (d + age(g))`` of a basis class."""
    return 2 * (c.d + sector_table(w)[c.gamma].age)


def pairing(w: Weights, a: BasisClass, b: BasisClass) -> Fraction:
    """Poincare pairing of two basis classes.

    Nonzero only between mutually inverse sectors with complementary
    degrees, where it equals ``prod(1 / w_i for i in fixed_indices(g))``.
    """
    sector = sector_table(w)[a.gamma]
    if b.gamma != sector.inverse:
        return Fraction(0)
    if degree(w, a) + degree(w, b) != 2 * w.n:
        return Fraction(0)
    return sector.inv_weight_product


@lru_cache(maxsize=None)
def gram_matrix(w: Weights) -> tuple[tuple[Fraction, ...], ...]:
    """Pairing matrix over the ordered basis (symmetric, nondegenerate)."""
    basis = ordered_basis(w)
    return tuple(tuple(pairing(w, a, b) for b in basis) for a in basis)


def obstruction_set(
    w: Weights, g0: Sector, g1: Sector, ginf: Sector
) -> frozenset[int]:
    """Indices where the three fractional rotation parts sum to 2.

    The sectors must multiply to the identity (rotation numbers summing to
    an integer); other triples are rejected.
    """
    if (g0 + g1 + ginf).denominator != 1:
        raise ValueError("sectors do not multiply to the identity")
    return frozenset(
        i
        for i, wi in enumerate(w)
        if frac(g0 * wi) + frac(g1 * wi) + frac(ginf * wi) == 2
    )


def cup_basis(
    w: Weights, a: BasisClass, b: BasisClass
) -> tuple[Fraction, BasisClass | None]:
    """Cup product of two basis classes: ``(coefficient, target)``.

    Returns ``(0, None)`` when the product sector is empty or the target
    exponent exceeds the sector dimension.

    >>> w = Weights(1, 2, 2, 3, 3, 3)
    >>> cup_basis(w, BasisClass(Fraction(1, 3), 0), BasisClass(Fraction(1, 3), 0))
    (Fraction(4, 1), BasisClass(gamma=Fraction(2, 3), d=2))
    """
    table = sector_table(w)
    s0, s1 = table[a.gamma], table[b.gamma]
    g = frac(s0.gamma + s1.gamma)
    # g is a sector exactly when some coordinate is fixed by it.
    s = table.get(g)
    d = a.d + b.d + s0.age + s1.age - (age(w, g) if s is None else s.age)
    if d.denominator != 1 or d < 0:
        raise InternalConsistencyError(
            f"cup exponent {d} is not a nonnegative integer for {a} * {b}"
        )
    if s is None or d > s.dim:
        return Fraction(0), None
    j = obstruction_set(w, s0.gamma, s1.gamma, s.inverse)
    k = j | (s.fixed - (s0.fixed & s1.fixed))
    return Fraction(math.prod(w[i] for i in k)), BasisClass(g, int(d))


def unit(w: Weights) -> CohClass:
    """The unit class ``eta_1^0``."""
    return CohClass.line(BasisClass(Fraction(0), 0))


@lru_cache(maxsize=None)
def a_infinity_matrix(w: Weights) -> tuple[tuple[Fraction, ...], ...]:
    """Grading matrix ``diag(deg(eta) / 2)`` over the ordered basis.

    Together with its pairing adjoint it sums to ``n * Id``.
    """
    basis = ordered_basis(w)
    m: Matrix = zeros(w.mu)
    for i, bc in enumerate(basis):
        m[i][i] = degree(w, bc) / 2
    return tuple(tuple(row) for row in m)
