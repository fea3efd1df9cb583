"""Reconstruction of the genus-0 potential from its cubic data.

The potential is the series ``F(t) = sum_alpha A(alpha) t^alpha / alpha!``
over multi-indices ``alpha`` in N^mu, subject to

* the associativity (WDVV) equations
  ``sum_a F_ija g^{aa*} F_{a*kl} = sum_a F_jka g^{aa*} F_{a*il}``,
* the scaling identity ``mu A(alpha + e_1) = A(alpha) d(alpha)`` for
  ``|alpha| >= 3``, where ``d(alpha) = 3 - n + sum_k alpha_k (sigma(k) - 1)``,
* the flat unit: ``A(alpha) = 0`` whenever ``alpha_0 > 0`` and ``|alpha| >= 4``
  (third derivatives in the unit direction are the constant metric),
* the cubic initial data ``A(e_i + e_j + e_k) = g(e_i * e_j, e_k)`` from the
  B-side product and residue metric.

Everything of length >= 4 is forced:  indices touching slot 0 or slot 1 are
settled by the unit and scaling rules, and a multi-index supported on
``{2, ..., mu-1}`` is solved by a chain of WDVV equations ``(1, j, k, l)``.
In that equation the two length-``|alpha|+3`` unknowns are
``A(alpha + e_{1+j} + e_k + e_l)`` and ``A(alpha + e_j + e_k + e_{1+l})``
(all other top terms carry a slot-1 factor and reduce by scaling), and the
coefficient of each is a nonzero cubic number times an inverse metric
entry, so each chain step is an exact division.  Walking ``j`` down and
``l`` up, the chain terminates as soon as a slot reaches 0 or 1.

The decomposition rule used here (peel the smallest support index first)
guarantees the two unknowns of every chain equation are distinct
multi-indices, so no step degenerates.

Selection rule.  ``A(alpha) = 0`` unless ``alpha`` passes both of

* the charge rule ``sum_k k alpha_k = n + |alpha| - 3 (mod mu)``: the B-side
  product is Z/mu-graded (``bside.product(i, j)`` lands on ``(i + j) mod
  mu`` and the metric pairs ``k`` with ``(n - k) mod mu``), so the cubic data
  lives on ``i + j + k = n (mod mu)``, and the unit, scaling and WDVV rules
  keep ``F`` homogeneous of degree ``n - 3`` for the Z/mu grading in which
  ``t_k`` has degree ``k - 1``;
* the degree rule ``d(alpha) >= 0``: by Euler homogeneity (the scaling
  identity; Dubrovin, hep-th/9407018) ``d(alpha) / mu`` is the degree in the
  quantum parameter that ``t^alpha`` carries, and ``F`` has no negative
  powers of it.

The degree rule is integer arithmetic.  Every ``sigma(k)`` has a
denominator dividing ``D = lcm(w)``, so ``D d(alpha)`` is ``D (3 - n)`` plus
the dot product of ``alpha`` with the integers ``D (sigma(k) - 1)``, stored
once per weight vector; ``scaling_weight`` is its ``Fraction`` view.

The solver never visits a key the rule forces to zero.  ``reconstruct``
walks the slots ``1 .. mu-1`` in order and enters a branch only if some
filling of the slots after it passes both rules, read off a table of the
largest degree that ``r`` units on slots ``k .. mu-1`` can add at each
charge mod ``mu``; so it yields exactly the admissible keys with
``alpha_0 = 0``, one at a time.  Inside the solver ``coeff`` returns the zero
of an inadmissible key at once, a chain stops at such a state, and of each
interior sum over ``a`` in an equation it keeps the one charge-compatible
term.  The solver's memo is the potential: it starts as the nonzero cubic
data, every coefficient solved is stored in it, and ``reconstruct`` returns
its nonzero entries.  ``wdvv_residual`` does not use the rule, so a residual
sweep stays an independent check of the solver, and of the rule itself.

Integer layer.  The solver runs on ``int`` numerators.  With
``P = prod(w)`` its memo holds ``N(x) = A(x) P^(|x| + 2)``; the inverse
metric entries ``g^{aa*}`` are integers (products of weights), and the cubic
data enters as ``A P^5``.  In a chain equation every product of two known
terms has its ``P`` powers summing to ``|alpha| + 10``, as does the pivot
times the unknown, so ``N`` of the unknown is the integer sum of
``binom g^{aa*} N N`` over the known terms divided by ``g^{aa*} N`` of the
pivot's cubic datum.  The scaling step reads
``N(x + e_1) = N(x) P D d(x) / (D mu)``.  Each is one ``divmod``; a
remainder raises ``InternalConsistencyError`` (exit 3), and there is no
fallback to ``Fraction``.  ``reconstruct`` makes the one ``Fraction`` view,
``N(x) / P^(|x| + 2)``, when it hands the memo to ``Potential``.  The
bound: the scaling division is always exact, because by the charge rule
``d(x) / mu`` is an integer minus ``sum_k x_k s(k)``, whose denominator
divides ``D``, which divides ``P``.  A pivot is ``g^{aa*}`` times a cubic
datum, a ratio of weight powers, so the recursion alone shows only that
every ``A(x)`` lies in ``Z[1/P]``: each chain step may add the ``P``-adic
valuation of its pivot to the exponent.  That ``|x| + 2`` suffices is not
proved; it holds on every vector the tests reconstruct, and ``(2,3,4,5,7)``
at length 5 needs exactly ``P^(|x| + 2)``.  A vector that needed more would
stop with exit 3, not return a wrong number.

Residuals.  WDVV ``(i, j, k, l)`` at ``alpha`` reads
``S(i, j, k, l) - S(j, k, i, l)``, where

    ``S(x, y, c, d) = sum_{beta <= alpha} binom(alpha, beta)
    sum_a F_xya(beta) g^{aa*} F_{a*cd}(alpha - beta)``

and ``F_xyz(beta) = A(beta + e_x + e_y + e_z)`` is the coefficient of
``t^beta / beta!`` in the third derivative.  On the first residual asked of
it, a ``Potential`` files each stored nonzero coefficient under every third
derivative it belongs to, keyed by base multi-index.  ``S`` at one ``alpha``
is the contraction of that index with itself, a sparse table; each entry
``S(x, y, c, d)`` is added to residual ``(x, y, c, d)`` and subtracted from
residual ``(c, x, y, d)``, and the nonzero residuals are kept until a
residual at another ``alpha`` is asked for.  The index is read off the zeros
in the data, not off the selection rule: a stored coefficient the rule
forbids still enters every residual it touches, so a sweep checks the rule
as well as the solver.

All arithmetic is exact; no floating point appears anywhere.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product as iter_product
from types import MappingProxyType

from . import bside
from .combinatorics import Weights, spectrum
from .errors import InternalConsistencyError

MultiIndex = tuple[int, ...]
Equation = tuple[int, int, int, int]
_ZERO = Fraction(0)


@lru_cache(maxsize=None)
def initial_coeffs(w: Weights) -> MappingProxyType:
    """Read-only nonzero cubic coefficients ``A(e_i+e_j+e_k) = g(e_i * e_j,
    e_k)``, keyed by sorted index triples.

    Nonzero exactly when ``i + j + k = n mod mu``.
    """
    mu = w.mu
    dual, entry = bside.metric_diagonal(w)
    out: dict[tuple[int, int, int], Fraction] = {}
    for i in range(mu):
        for j in range(i, mu):
            coeff, tgt = bside.product(w, i, j)
            # The metric pairs ``tgt`` with ``dual[tgt]`` alone.
            k = dual[tgt]
            if k >= j:
                out[(i, j, k)] = coeff * entry[k]
    return MappingProxyType(out)


@lru_cache(maxsize=None)
def _degree_table(w: Weights) -> tuple[int, int, tuple[int, ...]]:
    """``(D, D (3 - n), (D (sigma(k) - 1))_k)`` with ``D = lcm(w)``.

    ``sigma(k) = k - mu l / w_i`` for some ``l`` and ``i``, so every entry is an
    integer; raises ``InternalConsistencyError`` if one is not.
    """
    den = math.lcm(*w)
    steps = [den * (s - 1) for s in spectrum(w)]
    bad = [k for k, x in enumerate(steps) if x.denominator != 1]
    if bad:
        raise InternalConsistencyError(
            f"D * (sigma(k) - 1) is not an integer at k in {bad} for D = {den}"
        )
    return den, den * (3 - w.n), tuple(x.numerator for x in steps)


def _scaled_weight(
    table: tuple[int, int, tuple[int, ...]], alpha: MultiIndex
) -> int:
    """``D d(alpha)``, read off ``table = _degree_table(w)``."""
    return table[1] + sum(map(operator.mul, alpha, table[2]))


def scaling_weight(w: Weights, alpha: MultiIndex) -> Fraction:
    """``d(alpha) = 3 - n + sum_k alpha_k (sigma(k) - 1)``, as ``D d(alpha)``
    over ``D = lcm(w)``.  Raises ``ValueError`` unless ``alpha`` is in N^mu."""
    table = _degree_table(w)
    return Fraction(_scaled_weight(table, _multi_index(alpha, w.mu)), table[0])


@dataclass(frozen=True)
class Potential:
    """A truncated potential: every coefficient with ``3 <= |alpha| <=
    max_length`` is determined; absent keys in that range are exact zeros.

    ``coeffs`` is a read-only copy of the mapping it is built from, so the
    residual tables cached on the potential cannot go stale; a changed
    potential is a new one (``dataclasses.replace``) with tables of its own.
    Raises ``ValueError`` if a key is not in N^mu.
    """

    weights: Weights
    max_length: int
    coeffs: Mapping[MultiIndex, Fraction]

    def __post_init__(self):
        coeffs = dict(self.coeffs)
        for key in coeffs:
            _multi_index(key, self.weights.mu)
        object.__setattr__(self, "coeffs", MappingProxyType(coeffs))

    def coeff(self, alpha: MultiIndex) -> Fraction:
        alpha = _multi_index(alpha, self.weights.mu)
        total = sum(alpha)
        if total < 3:
            raise ValueError("coefficients of length < 3 are not part of the data")
        if total > self.max_length:
            raise ValueError(
                f"length {total} exceeds reconstruction depth {self.max_length}"
            )
        return self.coeffs.get(alpha, Fraction(0))

    def nonzero_items(self) -> list[tuple[MultiIndex, Fraction]]:
        return sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    @cached_property
    def _residual_tables(self) -> _ResidualTables:
        return _ResidualTables(self)


def _multi_index(alpha, mu: int) -> MultiIndex:
    """``alpha`` as a tuple, or ``ValueError`` unless it lies in N^mu.

    Here and in every index check of this module an index is a plain
    ``int``: a ``bool`` or another subclass of ``int`` is refused.
    """
    alpha = tuple(alpha)
    if len(alpha) != mu or not all(type(x) is int and x >= 0 for x in alpha):
        raise ValueError(f"multi-index {alpha} is not in N^{mu}")
    return alpha


@lru_cache(maxsize=None)
def _metric_diagonal(w: Weights) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The metric partner ``a*`` of each index ``a`` and the inverse metric
    entry ``1 / g(e_a, e_{a*})``, an integer: a product of weights."""
    dual, entry = bside.metric_diagonal(w)
    return dual, tuple(
        _exact(entry[b].denominator, entry[b].numerator, "inverse metric entry", b)
        for b in dual
    )


def _exact(num: int, den: int, *where) -> int:
    """``num / den``; ``InternalConsistencyError`` naming ``where`` if the
    division leaves a remainder."""
    quotient, remainder = divmod(num, den)
    if remainder:
        raise InternalConsistencyError(
            f"{' '.join(map(str, where))}: {num} / {den} is not an integer"
        )
    return quotient


def _bump(base: MultiIndex, x: int, y: int, z: int) -> MultiIndex:
    """``base + e_x + e_y + e_z``."""
    out = list(base)
    out[x] += 1
    out[y] += 1
    out[z] += 1
    return tuple(out)


def _charge(alpha: MultiIndex) -> int:
    """``sum_k k alpha_k``, the charge of ``alpha`` in the selection rule."""
    return sum(k * x for k, x in enumerate(alpha) if x)


def _sub_indices(alpha: MultiIndex):
    """All ``beta <= alpha`` componentwise with the product of binomials."""
    for beta in iter_product(*[range(x + 1) for x in alpha]):
        yield beta, math.prod(map(math.comb, alpha, beta))


class _Reconstructor:
    """Memoized coefficient solver in ``int``; see the module docstring for
    the rules and the integer layer.

    ``memo[x]`` is the numerator ``N(x) = A(x) P^(|x| + 2)``, ``P = prod(w)``.
    """

    def __init__(self, w: Weights):
        if w.mu < 2:
            raise ValueError("reconstruction needs mu >= 2")
        self.w = w
        self.mu = w.mu
        self.dual, self.ginv = _metric_diagonal(w)
        self.degrees = _degree_table(w)
        self.scale = math.prod(w)
        # Every coefficient solved so far, seeded with the nonzero cubic data.
        zero = (0,) * w.mu
        cube = self.scale**5
        self.memo: dict[MultiIndex, int] = {
            _bump(zero, *triple): _exact(
                value.numerator * cube, value.denominator, "cubic datum", triple
            )
            for triple, value in initial_coeffs(w).items()
        }

    # -- basic rules ------------------------------------------------------

    def admissible(self, alpha: MultiIndex) -> bool:
        """The selection rule: ``A(alpha)`` can be nonzero only if ``alpha``
        passes the charge rule and ``d(alpha) >= 0``."""
        if _charge(alpha) % self.mu != (self.w.n + sum(alpha) - 3) % self.mu:
            return False
        return _scaled_weight(self.degrees, alpha) >= 0

    def coeff(self, key: MultiIndex) -> int:
        # The memo holds admissible keys only (the nonzero cubic data passes
        # the rule), so a hit needs no rule check.
        got = self.memo.get(key)
        if got is not None:
            return got
        if not self.admissible(key):
            return 0
        if key[0] >= 1 or sum(key) == 3:
            # The flat unit, or cubic data the seed holds no value for.
            value = 0
        elif key[1] >= 1:
            # N(prev + e_1) = N(prev) P D d(prev) / (D mu).
            prev = (key[0], key[1] - 1) + key[2:]
            value = _exact(
                self.coeff(prev) * self.scale * _scaled_weight(self.degrees, prev),
                self.degrees[0] * self.mu,
                "scaling step to",
                key,
            )
        else:
            value = self._chain(key)
        self.memo[key] = value
        return value

    # -- the WDVV chain ---------------------------------------------------

    def _chain(self, key: MultiIndex) -> int:
        """Solve for ``N(key)`` with ``key`` supported on indices >= 2."""
        mu = self.mu
        support = [i for i, x in enumerate(key) if x]
        m = support[0]
        rest = list(key)
        rest[m] -= 1
        k_slot = max(i for i, x in enumerate(rest) if x)
        rest[k_slot] -= 1
        l0 = max(i for i, x in enumerate(rest) if x)
        rest[l0] -= 1
        alpha = tuple(rest)

        def state_key(t: int) -> MultiIndex:
            out = list(alpha)
            out[m - t] += 1
            out[k_slot] += 1
            out[(l0 + t) % mu] += 1
            return tuple(out)

        # Walk forward until a directly-known state.  Every state has the
        # charge of ``key``; one that fails the degree rule is a known zero.
        t_stop = 1
        while True:
            kt = state_key(t_stop)
            if (
                kt in self.memo
                or (m - t_stop) <= 1
                or (l0 + t_stop) % mu <= 1
                or _scaled_weight(self.degrees, kt) < 0
            ):
                break
            t_stop += 1
        # Every equation of the chain is at ``alpha``: split it once into
        # ``(beta, alpha - beta, binom(alpha, beta), n + |beta| - charge(beta))``,
        # ``beta = 0`` first; ``|beta| - charge(beta)`` is ``-sum_k (k - 1)
        # beta_k``.  The list lives as long as the chain.
        n = self.w.n
        lowered = range(-1, mu - 1)
        terms = [
            (beta, tuple(map(operator.sub, alpha, beta)), binom,
             n - sum(map(operator.mul, lowered, beta)))
            for beta, binom in _sub_indices(alpha)
        ]
        # The equation at ``t`` reads state ``t + 1``: the step before it
        # memoised that state, or ``coeff`` settles it for ``t + 1 = t_stop``.
        for t in range(t_stop - 1, -1, -1):
            value = self._solve_equation(terms, m - t - 1, k_slot, (l0 + t) % mu)
            self.memo[state_key(t)] = value
        return value

    def _solve_equation(self, terms: list, j: int, k: int, l: int) -> int:
        """Isolate the leading unknown of WDVV ``(1, j, k, l)`` at ``alpha``,
        the ``alpha - beta`` of the first of ``terms``.

        The unknown ``A(alpha + e_{1+j} + e_k + e_l)`` is the left-side term
        at ``beta = 0``; every other term is known, including the other
        top-length one ``A(alpha + e_j + e_k + e_{(1+l) mod mu})`` (right side,
        ``beta = alpha``).  On numerators the ``P`` powers cancel: ``N`` of
        the unknown is the sum of ``binom ginv[a] N N`` over the known terms,
        divided by ``ginv[a] N`` of the cubic datum at ``beta = 0``.
        """
        mu = self.mu
        dual = self.dual
        ginv = self.ginv
        coeff = self.coeff
        origin = terms[0][0]
        total = 0
        pivot = 0
        # Of each sum over ``a`` only the one ``a`` that gives the first
        # factor the right charge can be nonzero.
        for beta, gamma, binom, shift in terms:
            a = (shift - j - 1) % mu
            f1 = coeff(_bump(beta, 1, j, a))
            if beta is origin:
                # The unknown's own term: keep its coefficient as the pivot.
                pivot = ginv[a] * f1
            elif f1:
                total -= binom * ginv[a] * f1 * coeff(_bump(gamma, dual[a], k, l))
            a = (shift - j - k) % mu
            h1 = coeff(_bump(beta, j, k, a))
            if h1:
                total += binom * ginv[a] * h1 * coeff(_bump(gamma, dual[a], 1, l))
        alpha = terms[0][1]
        if not pivot:
            raise InternalConsistencyError(
                f"zero pivot in WDVV equation (1,{j},{k},{l}) at alpha={alpha}"
            )
        return _exact(total, pivot, "WDVV equation", (1, j, k, l), "at alpha", alpha)


def _admissible_keys(w: Weights, max_length: int):
    """Every ``alpha`` with ``alpha_0 = 0`` and ``4 <= |alpha| <= max_length``
    that passes the selection rule, by length and then lexicographically.

    ``best[k][r]`` maps each charge mod ``mu`` that ``r`` units on the slots
    ``k .. mu-1`` can carry to the largest ``D d`` they can add.  The walk
    fills the slots in order and enters a branch only if ``best`` says the
    slots after it can still meet both rules, so every branch yields a key.
    """
    mu = w.mu
    _, base, steps = _degree_table(w)
    # ``best[mu]``: no slots left, so only zero units, of charge 0.
    best = [[]] * mu + [[{0: 0}] + [{}] * max_length]
    for k in range(mu - 1, 0, -1):
        best[k] = [{} for _ in range(max_length + 1)]
        for r, row in enumerate(best[k]):
            for x in range(r + 1):
                for c, d in best[k + 1][r - x].items():
                    c, d = (c + k * x) % mu, d + x * steps[k]
                    if row.get(c, d) <= d:
                        row[c] = d
    key = [0] * mu

    def walk(k: int, r: int, charge: int, degree: int):
        # Slots before ``k`` are filled; ``r`` units of charge ``charge`` mod
        # ``mu`` are left for the slots ``k .. mu-1``, and ``best`` says they
        # fit.
        if not r:
            key[k:] = [0] * (mu - k)
            yield tuple(key)
            return
        for x in range(r + 1):
            c, d = (charge - k * x) % mu, degree + x * steps[k]
            top = best[k + 1][r - x].get(c)
            if top is not None and d + top >= 0:
                key[k] = x
                yield from walk(k + 1, r - x, c, d)

    for length in range(4, max_length + 1):
        charge = (w.n + length - 3) % mu
        top = best[1][length].get(charge)
        if top is not None and base + top >= 0:
            yield from walk(1, length, charge, base)


def reconstruct(w: Weights, max_length: int) -> Potential:
    """Determine every coefficient with ``3 <= |alpha| <= max_length``.

    >>> p = reconstruct(Weights(1, 1), 5)
    >>> [p.coeff((0, k)) for k in range(3, 6)]
    [Fraction(1, 1), Fraction(1, 1), Fraction(1, 1)]

    Raises ``ValueError`` unless ``max_length`` is a plain ``int`` (not a
    ``bool``) of at least 3 and ``mu >= 2``; ``max_length`` is checked first.
    """
    if type(max_length) is not int or max_length < 3:
        raise ValueError(f"max_length must be an integer >= 3, got {max_length!r}")
    rec = _Reconstructor(w)
    # Multi-indices with a unit slot, and those the rule forces to zero, are
    # never walked.
    for key in _admissible_keys(w, max_length):
        rec.coeff(key)
    # Drop the memoised zeros and turn the numerators into their one
    # ``Fraction`` view in place: ``Potential`` makes the one copy.
    memo = rec.memo
    for key in [key for key, value in memo.items() if not value]:
        del memo[key]
    den = [rec.scale ** (length + 2) for length in range(max_length + 1)]
    for key, value in memo.items():
        memo[key] = Fraction(value, den[sum(key)])
    return Potential(weights=w, max_length=max_length, coeffs=memo)


def _third_derivatives(key: MultiIndex):
    """Every ordered ``(x, y, z)`` with ``base = key - e_x - e_y - e_z`` in
    N^mu, as ``(base, x, y, z)``: ``A(key)`` is ``F_xyz(base)``."""
    rest = list(key)
    for x, cx in enumerate(key):
        if not cx:
            continue
        rest[x] -= 1
        for y in range(len(rest)):
            if not rest[y]:
                continue
            rest[y] -= 1
            for z in range(len(rest)):
                if rest[z]:
                    rest[z] -= 1
                    yield tuple(rest), x, y, z
                    rest[z] += 1
            rest[y] += 1
        rest[x] += 1


class _ResidualTables:
    """The stored third derivatives of one potential, and the residuals of
    the last ``alpha`` asked for (see the module docstring).

    ``index[beta][x]`` lists ``(y, z, F_xyz(beta))`` for every stored nonzero
    coefficient.  One table is kept at a time, so a sweep in alpha-major
    order builds each table once in flat memory.
    """

    def __init__(self, p: Potential):
        self.dual, self.ginv = _metric_diagonal(p.weights)
        index: dict[MultiIndex, dict[int, list[tuple[int, int, Fraction]]]] = {}
        for key, value in p.coeffs.items():
            if value:
                for base, x, y, z in _third_derivatives(key):
                    index.setdefault(base, {}).setdefault(x, []).append((y, z, value))
        self.index = index
        self.alpha: MultiIndex | None = None
        self.residuals: dict[Equation, Fraction] = {}

    def at(self, alpha: MultiIndex) -> dict[Equation, Fraction]:
        """``{(i, j, k, l): residual}`` at ``alpha``, nonzero entries only."""
        if alpha != self.alpha:
            residuals: dict[Equation, Fraction] = {}
            # ``S(x, y, c, d)`` enters two residuals: ``(x, y, c, d)`` as the
            # left sum and ``(c, x, y, d)`` as the right one.
            for (x, y, c, d), value in self._contract(alpha).items():
                residuals[x, y, c, d] = residuals.get((x, y, c, d), 0) + value
                residuals[c, x, y, d] = residuals.get((c, x, y, d), 0) - value
            self.residuals = {key: value for key, value in residuals.items() if value}
            self.alpha = alpha
        return self.residuals

    def _contract(self, alpha: MultiIndex) -> dict[Equation, Fraction]:
        """``{(x, y, c, d): S(x, y, c, d)}`` at ``alpha``, over the keys some
        pair of stored terms reaches."""
        index, dual, ginv = self.index, self.dual, self.ginv
        table: dict[Equation, Fraction] = {}
        for beta, left in index.items():
            gamma = tuple(x - y for x, y in zip(alpha, beta))
            right = index.get(gamma) if min(gamma) >= 0 else None
            if right is None:
                continue
            binom = 1
            for x, y in zip(alpha, beta):
                if y:
                    binom *= math.comb(x, y)
            for a, firsts in left.items():
                seconds = right.get(dual[a])
                if seconds is None:
                    continue
                weight = binom * ginv[a]
                for x, y, u in firsts:
                    wu = weight * u
                    for c, d, v in seconds:
                        key = (x, y, c, d)
                        table[key] = table.get(key, 0) + wu * v
        return table


def wdvv_residual(
    p: Potential, i: int, j: int, k: int, l: int, alpha: MultiIndex
) -> Fraction:
    """Coefficient of ``t^alpha / alpha!`` in the associativity equation
    ``(i, j, k, l)``; exactly zero on a consistent potential.

    It reads ``S(i, j, k, l) - S(j, k, i, l)`` off the table of residuals at
    ``alpha``, built from the contraction ``S`` of the stored nonzero
    coefficients alone (see the module docstring).  Every ``a`` with a
    stored term enters, where the solver keeps only the charge-compatible
    one: this check does not use the selection rule, so a sweep can still
    catch a wrong coefficient on either side of it.  Asking for the
    residuals in alpha-major order builds each table once.

    Raises ``ValueError`` if an index is not a plain ``int`` (not a
    ``bool``) in ``[0, mu)``, if ``alpha`` is not in N^mu, or if the
    potential is too shallow to evaluate it.
    """
    mu = p.weights.mu
    tables = p._residual_tables
    # The last alpha's own tuple has passed the checks on alpha already.
    checked = alpha is tables.alpha
    if not checked:
        alpha = _multi_index(alpha, mu)
    for x in (i, j, k, l):
        if not (type(x) is int and 0 <= x < mu):
            raise ValueError(
                f"equation ({i},{j},{k},{l}) needs integer indices in [0, {mu})"
            )
    if not checked and sum(alpha) + 3 > p.max_length:
        raise ValueError(
            f"residual at |alpha|={sum(alpha)} needs depth {sum(alpha) + 3}, "
            f"potential has {p.max_length}"
        )
    return tables.at(alpha).get((i, j, k, l), _ZERO)
