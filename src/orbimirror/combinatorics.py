"""Weight-vector combinatorics shared by the A side and the B side.

Everything in this package is a function of a vector of positive integer
weights ``w = (w_0, ..., w_n)`` with ``mu = w_0 + ... + w_n``.  This module
holds the combinatorial layer both sides are built on:

* the *sectors*: rotation numbers ``gamma`` in ``[0, 1)`` whose reduced
  denominator divides at least one weight (the union of the groups of
  ``w_i``-th roots of unity, recorded by their argument),
* the nondecreasing *s-sequence*: the sorted multiset of all fractions
  ``l / w_i`` with ``0 <= l < w_i`` (``mu`` values in total), a plain
  tuple of values; sorting a multiset leaves no tie order to choose,
* the rational *spectrum* ``sigma(k) = k - mu * s(k)``,
* the *sector table*: one read-only record per sector holding its inverse,
  its integer parts ``D * frac(g * w_i)`` over ``D = lcm(w)``, and the fixed
  set, age, dimension, inverse-weight product and ``k_min`` (the first
  position of the sector's value in the s-sequence) they give, built once.
  It is the one definition of per-sector data: :func:`fixed_indices`,
  :func:`age`, :func:`sector_dim` and :func:`k_min` read it and raise
  ``ValueError`` on a non-sector.

All functions are pure and exact (integer and ``Fraction`` arithmetic), and
results for a given weight vector are cached.  :data:`ZERO` is the one
``Fraction(0)`` that the pairing, the residue metric, the 3-point tensor
and zero matrices return, so a checker can pass two zeros by identity.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

#: A sector is represented by its rotation number: a reduced rational in [0, 1).
Sector = Fraction

#: The shared exact zero.
ZERO = Fraction(0)


class Weights:
    """Immutable vector of positive integer weights.

    Accepts either separate arguments or a single iterable::

        Weights(1, 2, 2, 3, 3, 3) == Weights([1, 2, 2, 3, 3, 3])

    Weight vectors are kept exactly as given: no gcd reduction and no
    sorting, since every formula downstream is stated for general weights.
    ``mu`` (total weight and rank) and ``lcm`` (the table's ``D``) are stored once.
    """

    __slots__ = ("w", "mu", "lcm")

    def __init__(self, *w):
        if len(w) == 1 and not isinstance(w[0], int):
            try:
                items = iter(w[0])
            except TypeError:
                items = w  # a lone non-integer: refused below
            w = tuple(items)
        if not w:
            raise ValueError("weight vector must be nonempty")
        for x in w:
            if not isinstance(x, int) or isinstance(x, bool) or x < 1:
                raise ValueError(f"weights must be integers >= 1, got {x!r}")
        object.__setattr__(self, "w", tuple(w))
        object.__setattr__(self, "mu", sum(w))
        object.__setattr__(self, "lcm", math.lcm(*w))

    def __setattr__(self, name, value):
        raise AttributeError("Weights is immutable")

    def __delattr__(self, name):
        raise AttributeError("Weights is immutable")

    def __reduce__(self):
        # Through __init__: the default protocol would call __setattr__.
        return Weights, (self.w,)

    @property
    def n(self) -> int:
        """Complex dimension of the underlying space: ``len(w) - 1``."""
        return len(self.w) - 1

    def __iter__(self):
        return iter(self.w)

    def __len__(self):
        return len(self.w)

    def __getitem__(self, i):
        return self.w[i]

    def __eq__(self, other):
        return isinstance(other, Weights) and self.w == other.w

    def __hash__(self):
        return hash(self.w)

    def __repr__(self):
        return f"Weights{self.w}"


def inverse_sector(g: Sector) -> Sector:
    """Rotation number of the inverse group element: 0 maps to 0, else 1 - g."""
    return -g if g == 0 else 1 - g


@lru_cache(maxsize=None)
def sectors(w: Weights) -> tuple[Sector, ...]:
    """All distinct sectors of ``w``, sorted ascending (identity first): the
    distinct values of the s-sequence, in its order.

    >>> sectors(Weights(1, 2, 2, 3, 3, 3))
    (Fraction(0, 1), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))
    """
    return tuple(dict.fromkeys(s_sequence(w)))


def _record(w: Weights, g: Sector) -> SectorData:
    """The sector table's record of ``g``; ``ValueError`` if ``g`` is not a sector."""
    s = sector_table(w).get(g)
    if s is None:
        raise ValueError(f"{g} is not a sector of P{w.w}")
    return s


def fixed_indices(w: Weights, g: Sector) -> frozenset[int]:
    """Indices of the coordinates fixed by the sector: ``{i : g * w_i integer}``."""
    return _record(w, g).fixed


def sector_dim(w: Weights, g: Sector) -> int:
    """Complex dimension of the stratum fixed by ``g``: ``|fixed_indices| - 1``."""
    return _record(w, g).dim


def age(w: Weights, g: Sector) -> Fraction:
    """Age of a sector: the sum of the fractional parts ``{g * w_i}``.

    >>> age(Weights(1, 2, 2, 3, 3, 3), Fraction(1, 3))
    Fraction(5, 3)
    """
    return _record(w, g).age


@lru_cache(maxsize=None)
def s_sequence(w: Weights) -> tuple[Fraction, ...]:
    """Sorted disjoint union of ``{l / w_i : 0 <= l < w_i}`` over all ``i``:
    ``mu`` values, the k-th smallest at position k.

    >>> s_sequence(Weights(1, 2))
    (Fraction(0, 1), Fraction(0, 1), Fraction(1, 2))
    """
    return tuple(sorted(Fraction(l, wi) for wi in w for l in range(wi)))


@lru_cache(maxsize=None)
def spectrum(w: Weights) -> tuple[Fraction, ...]:
    """The spectrum ``sigma(k) = k - mu * s(k)`` for ``k = 0 .. mu - 1``.

    ``sigma(0) = 0``, all entries are >= 0, and ``sigma(j) + sigma(j*) = n``
    for metric-dual indices ``j* = (n - j) mod mu``.

    >>> spectrum(Weights(1, 2))
    (Fraction(0, 1), Fraction(1, 1), Fraction(1, 2))
    """
    mu = w.mu
    vals = s_sequence(w)
    return tuple(Fraction(k) - mu * vals[k] for k in range(mu))


def k_min(w: Weights, g: Sector) -> int:
    """First index at which ``g`` appears in the s-sequence, in closed form:
    ``(n + 1 - |fixed_indices|) + sum_i floor(g * w_i)``.

    >>> k_min(Weights(1, 2, 2, 3, 3, 3), Fraction(2, 3))
    11
    """
    return _record(w, g).k_min


class SectorData(
    namedtuple("SectorData", "gamma inverse parts fixed age dim inv_weight_product k_min")
):
    """Per-sector data shared by the A side, the B side and the mirror map.

    ``parts[i]`` is the integer ``D * frac(gamma * w_i)`` with ``D = lcm(w)``;
    ``fixed`` is where it is 0, ``age`` is its sum over ``D`` and ``k_min``
    is ``n + 1 - |fixed| + sum_i (D gamma w_i) // D``.
    """

    __slots__ = ()


@lru_cache(maxsize=None)
def sector_table(w: Weights) -> MappingProxyType:
    """Read-only map from each sector (in :func:`sectors` order) to its
    :class:`SectorData`; ``inv_weight_product`` is ``prod(1 / w_i, i in I(g))``.

    >>> sector_table(Weights(1, 2))[Fraction(1, 2)].inv_weight_product
    Fraction(1, 2)
    """
    lcm = w.lcm
    table = {}
    for g in sectors(w):
        # D * g is an integer: the denominator of g divides some w_i.
        step = g.numerator * (lcm // g.denominator)
        parts = tuple(step * wi % lcm for wi in w)
        fixed = frozenset(i for i, p in enumerate(parts) if p == 0)
        table[g] = SectorData(
            gamma=g,
            inverse=inverse_sector(g),
            parts=parts,
            fixed=fixed,
            age=Fraction(sum(parts), lcm),
            dim=len(fixed) - 1,
            inv_weight_product=Fraction(1, math.prod(w[i] for i in fixed)),
            k_min=len(w) - len(fixed) + sum(step * wi // lcm for wi in w),
        )
    return MappingProxyType(table)
