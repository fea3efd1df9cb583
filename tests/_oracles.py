"""Independent oracles used by the tests.

Nothing here touches the library's own code paths: the counts of rational
plane curves come from the classical recursion, the per-sector data (fixed
sets, dimensions, ages and ``k_min``) has its ``Fraction`` definitions,
the mirror index of ``eta_g^d`` is the first position of ``g^-1`` in the
s-sequence plus ``d``,
the falling-factorial ratio below is an alternative route to the sector
structure constants, the cup product is the Chen-Ruan formula with its
obstruction set, stated over those ``Fraction`` definitions, and again as
the per-pair carry rule over the sector table's integer parts with the
target found by ``Fraction`` addition, the hyperplane action is that carry
rule below a sector's top power and, on it, the jump to the next value
``l / w_i`` in ``Fraction`` arithmetic, the Poincare pairing is the per-pair
rule over the same ``Fraction`` definitions, the B product is the weight power of
an exponent vector summed from five frame rows, the degree-one
3-point numbers are sorted into vanishing, classical and quantum cases by
an integer congruence mod ``mu``, the WDVV residual is summed term by term
over every ``beta <= alpha`` and every ``a``, with no index of the stored
coefficients, the multi-indices of one length are walked in full, with no
selection rule, the WDVV solver runs in ``Fraction`` arithmetic over
that full walk, with the selection rule stated from the spectrum, and the
characteristic polynomial of any square matrix comes from the
Faddeev-LeVerrier iteration over dense products.
"""

from __future__ import annotations

import enum
import itertools
import math
from fractions import Fraction
from functools import lru_cache

from orbimirror import (
    BasisClass,
    InternalConsistencyError,
    Potential,
    Weights,
    initial_coeffs,
    inverse_sector,
    sectors,
)
from orbimirror.bside import metric_diagonal, omega_frame
from orbimirror.combinatorics import s_sequence, sector_table, spectrum


def frac(q: Fraction) -> Fraction:
    """Fractional part ``q - floor(q)`` of an exact rational."""
    return q - math.floor(q)


def fixed_indices(w: Weights, g) -> frozenset[int]:
    """``I(g) = {i : g * w_i integer}``, for any rational ``g``."""
    return frozenset(i for i, wi in enumerate(w) if (g * wi).denominator == 1)


def sector_dim(w: Weights, g) -> int:
    """``|I(g)| - 1``."""
    return len(fixed_indices(w, g)) - 1


def age(w: Weights, g) -> Fraction:
    """``sum_i frac(g * w_i)``."""
    return sum((frac(g * wi) for wi in w), Fraction(0))


def k_min(w: Weights, g) -> int:
    """``(n + 1 - |I(g)|) + sum_i floor(g * w_i)``: the closed form of the
    first position of ``g`` in the s-sequence."""
    codim = w.n + 1 - len(fixed_indices(w, g))
    return codim + sum(math.floor(g * wi) for wi in w)


def index_reference(w: Weights) -> list[int]:
    """The mirror index of each ``eta_g^d``, sectors ascending and ``d``
    ascending within one: the first position of the value ``frac(-g)`` in
    the s-sequence, plus ``d``."""
    values = s_sequence(w)
    return [
        values.index(frac(-g)) + d
        for g in sectors(w)
        for d in range(sector_dim(w, g) + 1)
    ]


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


def _basis_record(w: Weights, c: BasisClass):
    s = sector_table(w).get(c.gamma)
    if s is None or not 0 <= c.d <= s.dim:
        raise ValueError(f"eta_{c.gamma}^{c.d} is not a basis class of P{w.w}")
    return s


def cup_basis_carry(w: Weights, a: BasisClass, b: BasisClass):
    """The cup product by the carry rule, pair by pair: the target sector
    ``g = (g0 + g1) % 1`` in ``Fraction`` arithmetic, looked up by hash, and
    ``K = {i : p0_i + p1_i >= D}`` over the integer parts.  Raises
    ``ValueError`` if ``a`` or ``b`` is not a basis class."""
    s0, s1 = _basis_record(w, a), _basis_record(w, b)
    g = (s0.gamma + s1.gamma) % 1
    s = sector_table(w).get(g)
    if s is None:
        return 0, None
    carry = [i for i, p in enumerate(s0.parts) if p + s1.parts[i] >= w.lcm]
    d = a.d + b.d + len(carry)
    if d > s.dim:
        return 0, None
    return math.prod(w[i] for i in carry), BasisClass(g, d)


def hyperplane_reference(w: Weights, bc: BasisClass):
    """``eta_1^1 * bc`` at the origin as ``(scalar, qexp, target)``.  Below
    the top power of the sector ``g`` of ``bc`` it is the cup product with
    ``eta_0^1`` by the carry rule.  On the top power it jumps to
    ``eta_{next^-1}^0``, where ``next`` is the least value ``l / w_i`` above
    ``g^-1`` (1 past the last), with the scalar ``prod(1 / w_i, i in I(g))``
    and the exponent ``next - g^-1``.  Raises ``ValueError`` if ``bc`` is not
    a basis class."""
    _basis_record(w, bc)
    g = bc.gamma
    if bc.d < sector_dim(w, g):
        coeff, target = cup_basis_carry(w, BasisClass(Fraction(0), 1), bc)
        return Fraction(coeff), Fraction(0), target
    inverse = frac(-g)
    later = [Fraction(l, wi) for wi in w for l in range(wi) if Fraction(l, wi) > inverse]
    nxt = min(later, default=Fraction(1))
    scalar = Fraction(1, math.prod(w[i] for i in fixed_indices(w, g)))
    return scalar, nxt - inverse, BasisClass(frac(-nxt), 0)


def pairing_reference(w: Weights, a: BasisClass, b: BasisClass) -> Fraction:
    """The Poincare pairing pair by pair: ``prod(1 / w_i, i in I(g))`` when
    ``b`` is on the inverse sector ``frac(-g)`` of ``a = eta_g^d`` and the
    powers sum to ``dim(g)``, else 0.  Raises ``ValueError`` if ``a`` or
    ``b`` is not a basis class."""
    _basis_record(w, a)
    _basis_record(w, b)
    g = a.gamma
    if b.gamma != frac(-g) or a.d + b.d != sector_dim(w, g):
        return Fraction(0)
    return Fraction(1, math.prod(w[i] for i in fixed_indices(w, g)))


def omega_frame_reference(w: Weights) -> tuple[tuple[int, ...], ...]:
    """The exponents ``a(0), ..., a(2 mu - 2)`` of the B-side recursion, with
    each next coordinate the first ``j`` of least ``Fraction(a(k)_j, w_j)``."""
    a = [(0,) * len(w)]
    j = 0
    for _ in range(max(2 * w.mu - 2, 0)):
        nxt = list(a[-1])
        nxt[j] += 1
        a.append(tuple(nxt))
        j = min(range(len(w)), key=lambda i: Fraction(nxt[i], w[i]))
    return tuple(a)


def b_product_exponents(w: Weights, i: int, j: int):
    """``[omega_i] * [omega_j]`` as ``(coefficient, (i + j) mod mu)``: the
    weight power of ``a(k(i)) + a(k(j)) - a(k(t)) + a(t) - a(i + j)``, with
    ``a`` the frame, ``t = (i + j) mod mu`` and ``k(x)`` the first position
    of the value ``s(x)`` in the s-sequence."""
    a = omega_frame(w)
    values = s_sequence(w)
    tgt = (i + j) % w.mu
    first = [values.index(values[x]) for x in (i, j, tgt)]
    exponent = [
        ki + kj - kt + at - aij
        for ki, kj, kt, at, aij in zip(*(a[k] for k in first), a[tgt], a[i + j])
    ]
    num = math.prod(wi**e for wi, e in zip(w, exponent) if e > 0)
    den = math.prod(wi ** (-e) for wi, e in zip(w, exponent) if e < 0)
    return Fraction(num, den), tgt


class TripleKind(enum.Enum):
    VANISHING = "VANISHING"
    CLASSICAL = "CLASSICAL"
    QUANTUM = "QUANTUM"


def classify_triple(w: Weights, g, d: int, g2, d2: int) -> TripleKind:
    """Sort the triple ``(eta_1^1, eta_g^d, eta_g2^d2)`` into its case.

    ``e = 1 + deg/2 + deg'/2 - n``, with ``deg/2 = d + age(g)``, is ``mu``
    times the hyperplane degree of the one curve class that can support the
    invariant.  The classifier ``t = e + mu*(gamma(g^-1) + gamma(g2^-1))``
    is always an exact integer.  The invariant vanishes unless
    ``t = 0 mod mu``; among the survivors the degree-0 (classical) ones are
    exactly those with ``e = 0``.
    """
    e = 1 + d + age(w, g) + d2 + age(w, g2) - w.n
    t = e + w.mu * (inverse_sector(g) + inverse_sector(g2))
    if t.denominator != 1:
        raise InternalConsistencyError(f"classifier {t} is not an integer")
    if int(t) % w.mu != 0:
        return TripleKind.VANISHING
    if e == 0:
        return TripleKind.CLASSICAL
    return TripleKind.QUANTUM


def three_point_reference(w: Weights, g, d: int, g2, d2: int) -> Fraction:
    """The degree-one 3-point number ``((eta_1^1, eta_g^d, eta_g2^d2))`` by
    cases: 0 when vanishing, ``prod(1/w_i, i in I(g))`` when classical, and
    that times ``prod(1/w_i, i in I(g2))`` when quantum."""
    kind = classify_triple(w, g, d, g2, d2)
    if kind is TripleKind.VANISHING:
        return Fraction(0)
    value = Fraction(1, math.prod(w[i] for i in fixed_indices(w, g)))
    if kind is TripleKind.CLASSICAL:
        return value
    return value / math.prod(w[i] for i in fixed_indices(w, g2))


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


def identity(n: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def matmul(a, b) -> list[list[Fraction]]:
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[Fraction(0)] * cols for _ in range(rows)]
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


def trace(a) -> Fraction:
    return sum((a[i][i] for i in range(len(a))), Fraction(0))


def char_poly_reference(a) -> list[Fraction]:
    """Coefficients ``c_0 .. c_n`` of ``det(X I - A)``, low degree first, for
    any square ``A``: the Faddeev-LeVerrier iteration over dense matrices."""
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
