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

The rule is stated once, in the integer kernel :func:`_carry`, which finds
the sector ``g0 g1`` by the integer ``D * gamma``.  :func:`cup_basis`
applies it to one pair of classes; :func:`cup_table` applies it once per
pair of sectors and holds the whole product by basis position, the form
the CLI and the mirror checker read.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

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
        return ZERO
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


@lru_cache(maxsize=None)
def _sector_at(w: Weights) -> dict[int, SectorData]:
    """Each sector record keyed by the integer ``D * gamma``."""
    lcm = w.lcm
    return {
        s.gamma.numerator * (lcm // s.gamma.denominator): s
        for s in sector_table(w).values()
    }


def _carry(w: Weights, s0: SectorData, s1: SectorData):
    """The carry rule on two sector records: ``(prod(w_i for i in K), record
    of g0 g1, |K|)`` with ``K = {i : p0_i + p1_i >= D}``, or ``None`` when
    ``g0 g1`` is not a sector."""
    lcm = w.lcm
    g0, g1 = s0.gamma, s1.gamma
    step = g0.numerator * (lcm // g0.denominator) + g1.numerator * (lcm // g1.denominator)
    # g0 g1 is a sector exactly when some coordinate is fixed by it.
    s = _sector_at(w).get(step % lcm)
    if s is None:
        return None
    coeff, size = 1, 0
    for wi, p0, p1 in zip(w.w, s0.parts, s1.parts):
        if p0 + p1 >= lcm:
            coeff *= wi
            size += 1
    return coeff, s, size


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
    hit = _carry(w, basis_sector(w, a), basis_sector(w, b))
    if hit is not None:
        coeff, s, size = hit
        d = a.d + b.d + size
        if d <= s.dim:
            return coeff, BasisClass(s.gamma, d)
    return 0, None


@lru_cache(maxsize=None)
def cup_table(w: Weights) -> tuple[tuple[tuple[int, int | None], ...], ...]:
    """The cup product by basis position: ``cup_table(w)[p][q]`` is
    ``(coefficient, target position)`` for the classes at positions ``p``
    and ``q`` of :func:`ordered_basis`, with ``(0, None)`` for zero.

    The position of ``eta_g^d`` is ``k_min(g) + d``: the basis and the
    s-sequence both list the sectors in ascending order, each ``|I(g)|``
    times.  The table is made of tuples only, so the cache cannot change.

    >>> cup_table(Weights(1, 2))
    (((1, 0), (1, 1), (1, 2)), ((1, 1), (0, None), (0, None)), ((1, 2), (0, None), (1, 1)))
    """
    records = tuple(sector_table(w).values())
    zero = (0, None)
    rows = []
    for s0 in records:
        hits = [(s1.dim + 1, _carry(w, s0, s1)) for s1 in records]
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


def unit(w: Weights) -> CohClass:
    """The unit class ``eta_1^0``."""
    return CohClass.line(BasisClass(Fraction(0), 0))

