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

Each bilinear form is stated once, as a table by basis position, where
``eta_g^d`` sits at :func:`basis_position` ``k_min(g) + d``:
:func:`gram_matrix` holds the pairing and :func:`cup_table` the cup
product, which finds the sector ``g0 g1`` by the integer ``D * gamma``.
The per-class :func:`pairing` and :func:`cup_basis` check their classes
and read those tables.  The CLI, the mirror checkers and the self-test read
the tables directly.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .combinatorics import ZERO, SectorData, Weights, sector_table
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


def basis_sector(w: Weights, c: BasisClass) -> SectorData:
    """The sector record of the basis class ``c = eta_g^d``.

    Raises ``ValueError`` unless ``g`` is a sector and ``d`` is a plain
    ``int`` (not a ``bool``) with ``0 <= d <= dim(g)``.
    """
    s = sector_table(w).get(c.gamma)
    if s is None or type(c.d) is not int or not 0 <= c.d <= s.dim:
        raise ValueError(f"eta_{c.gamma}^{c.d} is not a basis class of P{w.w}")
    return s


def basis_position(w: Weights, c: BasisClass) -> int:
    """Position ``k_min(g) + d`` of ``c = eta_g^d`` inside
    :func:`ordered_basis`.  Raises ``ValueError`` if ``c`` is not a basis
    class.

    >>> basis_position(Weights(1, 2), BasisClass(Fraction(1, 2), 0))
    2
    """
    return basis_sector(w, c).k_min + c.d


def degree(w: Weights, c: BasisClass) -> Fraction:
    """Orbifold degree ``2 (d + age(g))`` of a basis class.  Raises
    ``ValueError`` if ``c`` is not a basis class."""
    return 2 * (c.d + basis_sector(w, c).age)


@lru_cache(maxsize=None)
def gram_matrix(w: Weights) -> tuple[tuple[Fraction, ...], ...]:
    """The Poincare pairing by basis position (symmetric, nondegenerate).

    ``eta_g^d``, at ``k_min(g) + d``, pairs with ``eta_{g^-1}^{dim(g) - d}``,
    at ``k_min(g^-1) + dim(g) - d``, to ``prod(1 / w_i, i in I(g))``; every
    other entry is :data:`~orbimirror.combinatorics.ZERO`.
    """
    table = sector_table(w)
    rows = [[ZERO] * w.mu for _ in range(w.mu)]
    for s in table.values():
        top = table[s.inverse].k_min + s.dim
        for d in range(s.dim + 1):
            rows[s.k_min + d][top - d] = s.inv_weight_product
    return tuple(map(tuple, rows))


def pairing(w: Weights, a: BasisClass, b: BasisClass) -> Fraction:
    """Poincare pairing of two basis classes, read off :func:`gram_matrix`.

    Nonzero only between mutually inverse sectors with ``d + d' = dim(g)``
    (so degrees sum to ``2n``), where it is ``prod(1 / w_i, i in I(g))``.
    Raises ``ValueError`` if ``a`` or ``b`` is not a basis class.
    """
    return gram_matrix(w)[basis_position(w, a)][basis_position(w, b)]


@lru_cache(maxsize=None)
def cup_table(w: Weights) -> tuple[tuple[tuple[int, int | None], ...], ...]:
    """The cup product by basis position: ``cup_table(w)[p][q]`` is
    ``(coefficient, target position)`` for the classes at positions ``p``
    and ``q`` of :func:`ordered_basis`, with ``(0, None)`` for zero.

    The carry rule is applied once per pair of sectors.  The sector
    ``g0 g1`` is found by the integer ``D * gamma``, and the position of
    ``eta_g^d`` is ``k_min(g) + d``: the basis and the s-sequence both list
    the sectors in ascending order, each ``|I(g)|`` times.  The table is
    made of tuples only, so the cache cannot change.

    >>> cup_table(Weights(1, 2))
    (((1, 0), (1, 1), (1, 2)), ((1, 1), (0, None), (0, None)), ((1, 2), (0, None), (1, 1)))
    """
    lcm = w.lcm
    at = {(lcm * s.gamma).numerator: s for s in sector_table(w).values()}
    zero = (0, None)
    rows = []
    for step0, s0 in at.items():
        hits = []
        for step1, s1 in at.items():
            # g0 g1 is a sector exactly when some coordinate is fixed by it.
            s = at.get((step0 + step1) % lcm)
            if s is None:
                hits.append((s1.dim + 1, None))
                continue
            coeff, size = 1, 0
            for wi, p0, p1 in zip(w.w, s0.parts, s1.parts):
                if p0 + p1 >= lcm:
                    coeff *= wi
                    size += 1
            hits.append((s1.dim + 1, (coeff, s, size)))
        for d0 in range(s0.dim + 1):
            row = []
            for width, hit in hits:
                if hit is None:
                    row += [zero] * width
                    continue
                coeff, s, size = hit
                for d in range(d0 + size, d0 + size + width):
                    row.append((coeff, s.k_min + d) if d <= s.dim else zero)
            rows.append(tuple(row))
    return tuple(rows)


def cup_basis(
    w: Weights, a: BasisClass, b: BasisClass
) -> tuple[int, BasisClass | None]:
    """Cup product of two basis classes: ``(coefficient, target)``, read off
    :func:`cup_table`.

    By the carry rule: ``prod(w_i for i in K) * eta_g^{d0 + d1 + |K|}`` on
    ``g = (g0 + g1) % 1``, ``K = {i : p0_i + p1_i >= D}``.  Returns
    ``(0, None)`` when ``g`` is not a sector or the exponent exceeds its
    dimension.  Raises ``ValueError`` if ``a`` or ``b`` is not a basis class.

    >>> w = Weights(1, 2, 2, 3, 3, 3)
    >>> cup_basis(w, BasisClass(Fraction(1, 3), 0), BasisClass(Fraction(1, 3), 0))
    (4, BasisClass(gamma=Fraction(2, 3), d=2))
    """
    coeff, target = cup_table(w)[basis_position(w, a)][basis_position(w, b)]
    return coeff, None if target is None else ordered_basis(w)[target]


def unit(w: Weights) -> CohClass:
    """The unit class ``eta_1^0``."""
    return CohClass.line(BasisClass(Fraction(0), 0))

