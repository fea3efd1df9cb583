"""Independent oracles used by the tests.

Nothing here touches the library's own code paths: the counts of rational
plane curves come from the classical recursion, the falling-factorial
ratio below is an alternative route to the sector structure constants, the
cup product is the Chen-Ruan formula with its obstruction set, stated over
the ``Fraction`` definitions of sectors, fixed sets and ages, and
the WDVV residual is summed term by term over every ``beta <= alpha`` and
every ``a``, with no index of the stored coefficients, the multi-indices
of one length are walked in full, with no selection rule, and the WDVV
solver runs in ``Fraction`` arithmetic over that full walk, with the
selection rule stated from the spectrum.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from orbimirror import (
    BasisClass,
    InternalConsistencyError,
    Potential,
    Weights,
    age,
    fixed_indices,
    initial_coeffs,
    sector_dim,
    sectors,
)
from orbimirror.bside import metric_diagonal
from orbimirror.combinatorics import frac, spectrum


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


class _ReferenceSolver:
    """The WDVV solver in ``Fraction`` arithmetic: the flat unit, the
    scaling step ``A(alpha + e_1) = A(alpha) d(alpha) / mu`` and chains of
    WDVV equations ``(1, j, k, l)``, each isolating one unknown by a
    ``Fraction`` division.  ``d(alpha)`` is read off the spectrum."""

    def __init__(self, w: Weights):
        self.w = w
        self.mu = w.mu
        self.dual, self.ginv = _inverse_metric(w)
        self.steps = [s - 1 for s in spectrum(w)]
        zero = (0,) * w.mu
        self.memo = {_bump(zero, *t): value for t, value in initial_coeffs(w).items()}

    def degree(self, alpha) -> Fraction:
        """``d(alpha) = 3 - n + sum_k alpha_k (sigma(k) - 1)``."""
        return 3 - self.w.n + sum(x * self.steps[k] for k, x in enumerate(alpha) if x)

    def admissible(self, alpha) -> bool:
        charge = sum(k * x for k, x in enumerate(alpha))
        if charge % self.mu != (self.w.n + sum(alpha) - 3) % self.mu:
            return False
        return self.degree(alpha) >= 0

    def coeff(self, key) -> Fraction:
        got = self.memo.get(key)
        if got is not None:
            return got
        if not self.admissible(key):
            return Fraction(0)
        if key[0] >= 1 or sum(key) == 3:
            value = Fraction(0)
        elif key[1] >= 1:
            prev = (key[0], key[1] - 1) + key[2:]
            value = self.coeff(prev) * self.degree(prev) / self.mu
        else:
            value = self._chain(key)
        self.memo[key] = value
        return value

    def _chain(self, key) -> Fraction:
        mu = self.mu
        m = min(i for i, x in enumerate(key) if x)
        rest = list(key)
        rest[m] -= 1
        k_slot = max(i for i, x in enumerate(rest) if x)
        rest[k_slot] -= 1
        l0 = max(i for i, x in enumerate(rest) if x)
        rest[l0] -= 1
        alpha = tuple(rest)

        def state_key(t):
            out = list(alpha)
            out[m - t] += 1
            out[k_slot] += 1
            out[(l0 + t) % mu] += 1
            return tuple(out)

        t_stop = 1
        while True:
            kt = state_key(t_stop)
            if (
                kt in self.memo
                or (m - t_stop) <= 1
                or (l0 + t_stop) % mu <= 1
                or self.degree(kt) < 0
            ):
                break
            t_stop += 1
        for t in range(t_stop - 1, -1, -1):
            value = self._solve_equation(alpha, m - t - 1, k_slot, (l0 + t) % mu)
            self.memo[state_key(t)] = value
        return value

    def _solve_equation(self, alpha, j: int, k: int, l: int) -> Fraction:
        mu, n = self.mu, self.w.n
        dual, ginv = self.dual, self.ginv
        total = Fraction(0)
        pivot = Fraction(0)
        for beta in itertools.product(*(range(x + 1) for x in alpha)):
            gamma = tuple(x - y for x, y in zip(alpha, beta))
            binom = math.prod(math.comb(x, y) for x, y in zip(alpha, beta))
            shift = n + sum(beta) - sum(i * x for i, x in enumerate(beta)) - j
            a = (shift - 1) % mu
            f1 = self.coeff(_bump(beta, 1, j, a))
            if not any(beta):
                pivot = ginv[a] * f1
            elif f1:
                total -= binom * ginv[a] * f1 * self.coeff(_bump(gamma, dual[a], k, l))
            a = (shift - k) % mu
            h1 = self.coeff(_bump(beta, j, k, a))
            if h1:
                total += binom * ginv[a] * h1 * self.coeff(_bump(gamma, dual[a], 1, l))
        if not pivot:
            raise InternalConsistencyError(
                f"zero pivot in WDVV equation (1,{j},{k},{l}) at alpha={alpha}"
            )
        return total / pivot


def reconstruct_reference(w: Weights, max_length: int) -> Potential:
    """The potential to depth ``max_length`` by the ``Fraction`` solver,
    over every ``alpha`` with ``alpha_0 = 0`` that passes the selection rule,
    by length and then lexicographically."""
    solver = _ReferenceSolver(w)
    for length in range(4, max_length + 1):
        for tail in compositions(length, w.mu - 1):
            key = (0,) + tail
            if solver.admissible(key):
                solver.coeff(key)
    coeffs = {key: value for key, value in solver.memo.items() if value}
    return Potential(weights=w, max_length=max_length, coeffs=coeffs)
