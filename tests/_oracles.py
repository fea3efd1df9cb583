"""Independent oracles used by the tests.

Nothing here touches the library's own code paths: the counts of rational
plane curves come from the classical recursion, the falling-factorial
ratio below is an alternative route to the sector structure constants, the
cup product is the Chen-Ruan formula with its obstruction set, stated over
the ``Fraction`` definitions of sectors, fixed sets and ages, and
the WDVV residual is summed term by term over every ``beta <= alpha`` and
every ``a``, with no index of the stored coefficients, and the multi-indices
of one length are walked in full, with no selection rule.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from orbimirror import BasisClass, Weights, age, fixed_indices, sector_dim, sectors
from orbimirror.bside import metric_diagonal
from orbimirror.combinatorics import frac


def kontsevich_numbers(dmax: int) -> dict[int, int]:
    """Counts N_d of degree-d rational plane curves through 3d-1 points.

    N_1 = 1 and

        N_d = sum_{d1+d2=d} N_d1 N_d2 (d1^2 d2^2 C(3d-4, 3d1-2)
                                       - d1^3 d2 C(3d-4, 3d1-1)).
    """
    n = {1: 1}
    for d in range(2, dmax + 1):
        total = 0
        for d1 in range(1, d):
            d2 = d - d1
            total += n[d1] * n[d2] * (
                d1**2 * d2**2 * math.comb(3 * d - 4, 3 * d1 - 2)
                - d1**3 * d2 * math.comb(3 * d - 4, 3 * d1 - 1)
            )
        n[d] = total
    return n


def compositions(total: int, parts: int):
    """All tuples in N^parts with the given sum, lexicographically."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def obstruction_set(w: Weights, g0, g1, ginf) -> frozenset[int]:
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


def cup_basis_reference(w: Weights, a: BasisClass, b: BasisClass):
    """The cup product ``(coefficient, target)`` of two basis classes as
    ``prod(w_i for i in K)`` times ``eta_g^d`` on ``g = g0 g1``, with

        K = J(g0, g1, g^{-1}) + (I(g) - I(g0) & I(g1)),
        d = d0 + d1 + age(g0) + age(g1) - age(g),

    and ``(0, None)`` when ``g`` is not a sector or ``d > dim(g)``.  Raises
    ``ValueError`` if ``d`` is not a nonnegative integer.
    """
    g0, g1 = a.gamma, b.gamma
    g = frac(g0 + g1)
    d = a.d + b.d + age(w, g0) + age(w, g1) - age(w, g)
    if d.denominator != 1 or d < 0:
        raise ValueError(f"cup exponent {d} is not a nonnegative integer")
    fixed = fixed_indices(w, g)
    if g not in sectors(w) or d > len(fixed) - 1:
        return Fraction(0), None
    excess = fixed - (fixed_indices(w, g0) & fixed_indices(w, g1))
    k = obstruction_set(w, g0, g1, frac(-g)) | excess
    return Fraction(math.prod(w[i] for i in k)), BasisClass(g, int(d))


def falling_factorial(x: Fraction, n: int) -> Fraction:
    out = Fraction(1)
    for t in range(n):
        out *= x - t
    return out


def sector_constant_ratio(w: Weights, g: Fraction) -> Fraction:
    """The sector constant as a ratio of products, evaluated directly:

        prod_{g' < g} (g - g')^(dim(g') + 1)
        ------------------------------------
        prod_i  (g w_i) falling ceil(g w_i)
    """
    num = Fraction(1)
    for h in sectors(w):
        if h < g:
            num *= (g - h) ** (sector_dim(w, h) + 1)
    den = Fraction(1)
    for wi in w:
        den *= falling_factorial(g * wi, math.ceil(g * wi))
    return num / den


@lru_cache(maxsize=None)
def _inverse_metric(w: Weights) -> tuple[tuple[int, ...], tuple[Fraction, ...]]:
    """The metric partner ``a*`` of each index ``a`` and ``g^{aa*}``."""
    dual, entry = metric_diagonal(w)
    return dual, tuple(1 / entry[b] for b in dual)


def _bump(base, x: int, y: int, z: int) -> tuple[int, ...]:
    """``base + e_x + e_y + e_z``."""
    out = list(base)
    out[x] += 1
    out[y] += 1
    out[z] += 1
    return tuple(out)


def wdvv_residual_reference(p, i: int, j: int, k: int, l: int, alpha) -> Fraction:
    """Coefficient of ``t^alpha / alpha!`` in WDVV ``(i, j, k, l)``:

        sum_{beta <= alpha} binom(alpha, beta) sum_a g^{aa*}
            (F_ija(beta) F_{a*kl}(alpha - beta) - F_jka(beta) F_{a*il}(alpha - beta))

    with ``F_xyz(beta) = A(beta + e_x + e_y + e_z)`` read from ``p.coeffs``,
    over every ``beta`` and every ``a``.  No argument checks: the caller
    passes a valid equation.
    """
    dual, ginv = _inverse_metric(p.weights)
    get = p.coeffs.get
    total = Fraction(0)
    for beta in itertools.product(*(range(x + 1) for x in alpha)):
        gamma = tuple(x - y for x, y in zip(alpha, beta))
        binom = math.prod(math.comb(x, y) for x, y in zip(alpha, beta))
        for a in range(len(alpha)):
            f1 = get(_bump(beta, i, j, a))
            if f1:
                f2 = get(_bump(gamma, dual[a], k, l))
                if f2:
                    total += binom * ginv[a] * f1 * f2
            h1 = get(_bump(beta, j, k, a))
            if h1:
                h2 = get(_bump(gamma, dual[a], i, l))
                if h2:
                    total -= binom * ginv[a] * h1 * h2
    return total
