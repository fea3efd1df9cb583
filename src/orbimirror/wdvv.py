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
``{2, ..., mu-1}`` is solved by one WDVV equation ``(1, j, k, l)``.
In that equation the two length-``|alpha|+3`` unknowns are
``A(alpha + e_{1+j} + e_k + e_l)`` and ``A(alpha + e_j + e_k + e_{1+l})``
(all other top terms carry a slot-1 factor and reduce by scaling), and the
coefficient of each is a nonzero cubic number times an inverse metric
entry, so once the second is known the first is an exact division.  The
solver walks its unknowns in an order that solves the second first (see
"Store and read").

The decomposition rule used here (peel the smallest support index first)
guarantees the two unknowns of every equation are distinct multi-indices,
so no equation degenerates.

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
walks the slots ``2 .. mu-1`` in order, each from its most units down, and
enters a branch only if some filling of the slots after it passes both
rules, read off a table of the largest degree that ``r`` units on slots
``k .. mu-1`` can add at each charge mod ``mu``; so it yields exactly the
admissible keys with ``alpha_0 = alpha_1 = 0``, one at a time.  The rule is
tested in that walk alone; of each interior sum over ``a`` in an equation
the solver keeps the one term the charge grading allows.

Store and read.  The solver's memo is the potential, keyed by one integer id
per multi-index.  With ``R = max_length + 1``, ``id(x) = |x| + sum_i x_i
R^(i+1)``: in base ``R`` its digit 0 is ``|x|`` and its digit ``i + 1`` is
``x_i``.  Every key the solver reads or writes has ``|x| <= max_length``, so
every digit is below ``R`` and a sum of ids never carries: ``id(x + y) =
id(x) + id(y)``, and ``id(alpha - beta) = id(alpha) - id(beta)`` for ``beta
<= alpha``.  With ``id(e_i) = 1 + R^(i+1)`` stored once, ``id(x + e_p +
e_q + e_r)`` is ``id(x) + id(e_p) + id(e_q) + id(e_r)``, an equation forms
its four offsets once, each of its terms reads the memo with ``int``
additions, and ``|x|`` is ``id(x) mod R``.  Every value enters the memo
through one store, which keeps no zero and, while ``alpha_0 = 0`` and
``|alpha| < max_length``, also writes ``alpha + e_1`` (the id plus
``id(e_1)``) by the scaling identity.  The memo starts as the cubic data,
stored so; then each walked key is solved by its one equation and stored.  A
key with a slot 0 or 1 is never walked: it was written forward, or is zero.
An equation reads a key the memo lacks as zero.  The read is sound by the
order of the walk: by length, and within a length in descending
lexicographic order.  A walked key ``alpha + e_m + e_k + e_l`` of length
``N``, ``m`` its smallest support index, is solved by ``(1, m - 1, k, l)``
at ``alpha``.  The equation's other unknown of length ``N``, ``alpha +
e_{m-1} + e_k + e_{(l+1) mod mu}``, has a unit at slot ``m - 1``, where the
key has none.  So it has a slot 0 or 1 (written forward, or zero), or it
fails the selection rule (zero), or else it differs from the key only from
slot ``m - 1`` on, is lexicographically larger, and was solved earlier at
this length.  Every other term is shorter (solved at an earlier length), or
has ``alpha_1 > 0`` (written forward from length ``N - 1``), or has a slot 0
(zero).  A forward write keeps the charge rule, and the degree rule too: for
``n >= 1``, ``sigma(1) = 1`` and ``d(alpha + e_1) = d(alpha)``, and for
``n = 0`` every cubic datum has ``d = 0``, so nothing is written forward.
``reconstruct`` hands the memo on as it is, each id decoded back into its
multi-index once.  The residuals do not use the rule, so a residual sweep
stays an independent check of the solver, and of the rule itself.

Integer layer.  The solver runs on ``int`` numerators.  With ``P = prod(w)``
and a power ``c >= 1`` its memo holds ``N(x) = A(x) P^(c (|x| + 2))`` under
``id(x)``; the inverse metric entries ``g^{aa*}`` are integers (products of
weights), and the cubic data enters as ``A P^(5c)``.  In an equation every
product of two known terms has its ``P`` powers summing to ``c (|alpha| +
10)``, as does the pivot times the unknown, so ``N`` of the unknown is the
integer sum of ``binom g^{aa*} N N`` over the known terms divided by
``g^{aa*} N`` of the pivot's cubic datum.  The scaling step reads ``N(x +
e_1) = N(x) P^c D d(x) / (D mu)``.  Each is one ``divmod``, and there is no
fallback to ``Fraction``.  ``reconstruct`` makes the one ``Fraction`` view,
``N(x) / P^(c (|x| + 2))`` with ``|x| = id(x) mod R``, under the decoded
``x``, when it hands the memo to ``Potential``.  The scaling division is
always exact, because by the charge rule ``d(x) / mu`` is an integer minus
``sum_k x_k s(k)``, whose denominator divides ``D``, which divides ``P``.  A
pivot is ``g^{aa*}`` times a cubic datum, a ratio of weight powers, so the
recursion alone shows only that every ``A(x)`` lies in ``Z[1/P]``: each
equation may add the ``P``-adic valuation of its pivot to the exponent.  No
fixed ``c`` is proved; ``c = 1`` is false: the cubic datum ``A(3 e_5)`` of
``(1,1,1,1,1,5)`` is ``5^-6``, against ``P^5 = 5^5``.  So ``c`` starts at 1
and rises in place.  A cubic datum or an equation whose remainder has a
reduced denominator sharing a prime with ``P`` multiplies every ``N(x)`` in
the memo by ``P^(|x| + 2)``, which makes it ``N(x)`` at ``c + 1``, and its
own numerator by the ``P^(|y| + 2)`` of the value ``N(y)`` it makes, and
divides again.  The divisor is kept: at ``c + 1`` the known products gain
``P^(|alpha| + 10)`` and the pivot ``P^5``, whose ratio is the unknown's
``P^(|alpha| + 5)``.  Nothing is solved twice.  Any other remainder raises
``InternalConsistencyError`` (exit 3), as does any remainder in a scaling
step.  Measured, not proved: every weight vector with mu <= 10 reconstructs
at length 6 with ``c <= 2``; ``(1,1,6)`` and ``(1,1,1,1,1,5)`` are among the
35 that need ``c = 2``, and ``(2,3,4,5,7)`` at length 5 needs all of
``P^(|x| + 2)``.  ``c <= 2`` does not hold at every depth: ``(1,1,1,1,1,5)``
needs ``c = 3`` at length 10, and ``(1,1,1,1,1,1,7)``, with mu = 13, at
length 6.

Residuals.  WDVV ``(i, j, k, l)`` at ``alpha`` reads
``S(i, j, k, l) - S(j, k, i, l)``, where

    ``S(x, y, c, d) = sum_{beta <= alpha} binom(alpha, beta)
    sum_a F_xya(beta) g^{aa*} F_{a*cd}(alpha - beta)``

and ``F_xyz(beta) = A(beta + e_x + e_y + e_z)`` is the coefficient of
``t^beta / beta!`` in the third derivative.  On the first residual asked of
it, a ``Potential`` files each stored nonzero coefficient ``A`` as the
integer ``A T`` under every third derivative it belongs to, keyed by base
multi-index.  ``T`` is the lcm of the stored denominators themselves, not a
power of ``P``, so a hand-built potential with a stray prime in a
denominator still gives exact residuals.  ``S`` at one ``alpha`` is the
contraction of that index with itself, a sparse table of integers over
``T^2``; each entry ``S(x, y, c, d)`` is added to residual ``(x, y, c, d)``
and subtracted from residual ``(c, x, y, d)``, and only a nonzero residual
becomes a ``Fraction``.  ``residual_table(p, alpha)`` returns them as one
read-only mapping, kept until a residual at another ``alpha`` is asked for;
``wdvv_residual`` looks one equation up in it.  The index is read off the
zeros in the data, not off the selection rule: a stored coefficient the
rule forbids still enters every residual it touches, so a sweep checks the
rule as well as the solver.

All arithmetic is exact; no floating point appears anywhere.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product as iter_product
from types import MappingProxyType

from . import bside
from .combinatorics import ZERO, Weights, spectrum
from .errors import InternalConsistencyError

MultiIndex = tuple[int, ...]
Equation = tuple[int, int, int, int]


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
    den = w.lcm
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


class Potential:
    """A truncated potential: every coefficient with ``3 <= |alpha| <=
    max_length`` is determined; absent keys in that range are exact zeros.

    ``coeffs`` is a read-only copy of the mapping it is built from, and no
    attribute can be set or deleted, so the residual tables cached on the
    potential cannot go stale; a changed potential is a new one, with tables
    of its own.  Two potentials are equal when their weights, depths and
    coefficients are.  Raises ``ValueError`` unless ``max_length`` is a plain
    ``int`` of at least 3 and every key is in N^mu with ``3 <= |alpha| <=
    max_length``: a potential holds no key its own ``coeff`` refuses.
    """

    def __init__(
        self, weights: Weights, max_length: int, coeffs: Mapping[MultiIndex, Fraction]
    ):
        _check_depth(max_length)
        coeffs = dict(coeffs)
        for key in coeffs:
            if not 3 <= sum(_multi_index(key, weights.mu)) <= max_length:
                raise ValueError(
                    f"multi-index {key} has a length outside 3..{max_length}"
                )
        # ``__setattr__`` refuses every write; the fields, like the cached
        # residual tables, go into ``__dict__`` directly.
        self.__dict__.update(
            weights=weights, max_length=max_length, coeffs=MappingProxyType(coeffs)
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r}: a Potential is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: a Potential is read-only")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.weights, self.max_length, self.coeffs) == (
            other.weights, other.max_length, other.coeffs
        )

    def coeff(self, alpha: MultiIndex) -> Fraction:
        alpha = _multi_index(alpha, self.weights.mu)
        total = sum(alpha)
        if total < 3:
            raise ValueError("coefficients of length < 3 are not part of the data")
        if total > self.max_length:
            raise ValueError(
                f"length {total} exceeds reconstruction depth {self.max_length}"
            )
        return self.coeffs.get(alpha, ZERO)

    def nonzero_items(self) -> list[tuple[MultiIndex, Fraction]]:
        return sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    @cached_property
    def _residual_tables(self) -> _ResidualTables:
        return _ResidualTables(self)


def _check_depth(max_length) -> int:
    """``max_length``, or ``ValueError`` unless it is a plain ``int`` (not a
    ``bool``) of at least 3."""
    if type(max_length) is not int or max_length < 3:
        raise ValueError(f"max_length must be an integer >= 3, got {max_length!r}")
    return max_length


def _multi_index(alpha, mu: int) -> MultiIndex:
    """``alpha`` as a tuple, or ``ValueError`` unless it lies in N^mu.

    Here and in every index check of this module an index is a plain
    ``int``: a ``bool`` or another subclass of ``int`` is refused.
    """
    try:
        alpha = tuple(alpha)
    except TypeError:
        raise ValueError(f"multi-index {alpha} is not in N^{mu}") from None
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
    """``num / den``, or ``InternalConsistencyError`` naming ``where`` if it
    leaves a remainder."""
    quotient, remainder = divmod(num, den)
    if remainder:
        raise InternalConsistencyError(
            f"{' '.join(map(str, where))}: {num} / {den} is not an integer"
        )
    return quotient


class _Reconstructor:
    """Coefficient solver in ``int`` that writes its memo forward and reads
    it back; see the module docstring for the rules, the read invariant, the
    key ids and the integer layer.

    ``memo[id(x)]`` is the numerator ``N(x) = A(x) scale^(|x| + 2)``, where
    ``scale = P^c`` and ``P = prod(w)``.  With ``R = max_length + 1``,
    ``id(x) = |x| + sum_i x_i R^(i+1) = sum_i x_i step[i]``, where
    ``step[i] = id(e_i) = 1 + R^(i+1)``.  Every key the solver reads or
    writes has ``|x| <= max_length``, so each base-``R`` digit of an id is
    below ``R`` and a sum of ids never carries; ``decode`` turns ids back
    into multi-indices.  ``c`` starts at 1, and
    ``_rescale`` raises it by one in place when ``_divide`` meets a
    remainder whose reduced denominator shares a prime with ``P``.  Every
    value enters through ``_store``: the nonzero cubic data when the solver
    is built, and each walked key as ``_solve`` solves it from one
    equation; ``_divide`` makes both.  Fed the keys of ``_admissible_keys``
    in their order, the solver finds every key the memo lacks an exact zero
    by the time an equation reads it.
    """

    def __init__(self, w: Weights, max_length: int):
        if w.mu < 2:
            raise ValueError("reconstruction needs mu >= 2")
        self.w = w
        self.mu = w.mu
        self.max_length = max_length
        self.radix = radix = max_length + 1
        self.step = step = [1 + radix ** (i + 1) for i in range(w.mu)]
        dual, ginv = _metric_diagonal(w)
        # Per index ``a`` of an interior sum: ``id(e_a)``, ``g^{aa*}`` and
        # ``id(e_{a*})``.
        self.partner = [(step[a], ginv[a], step[dual[a]]) for a in range(w.mu)]
        self.degrees = _degree_table(w)
        self.weight_product = self.scale = math.prod(w)
        self.memo: dict[int, int] = {}
        self._alpha: int | None = None
        self._alpha_key: MultiIndex = ()
        self._terms: list = []
        _, base, steps = self.degrees
        for triple, value in initial_coeffs(w).items():
            datum = self._divide(
                value.numerator * self.scale**5, value.denominator, 3,
                "cubic datum", triple,
            )
            i, j, k = triple
            self._store(
                step[i] + step[j] + step[k], datum,
                base + steps[i] + steps[j] + steps[k],
            )

    def decode(self, keys) -> list[MultiIndex]:
        """The multi-index ``x`` with ``id(x) = key`` for each of ``keys``, in
        their order."""
        radix = self.radix
        keys = [key // radix for key in keys]
        slots = []
        for _ in range(self.mu):
            slots.append([key % radix for key in keys])
            keys = [key // radix for key in keys]
        return list(zip(*slots))

    def _divide(self, num: int, den: int, length: int, *where) -> int:
        """``num / den`` for a value of length ``length``.

        While a remainder's reduced denominator shares a prime with ``P``,
        the memo is rescaled, ``num`` is multiplied by ``P^(length + 2)``
        (see the integer layer) and the division is tried again.  A
        remainder coprime to ``P`` is ``InternalConsistencyError`` naming
        ``where``.
        """
        p = self.weight_product
        quotient, remainder = divmod(num, den)
        while remainder and math.gcd(den // math.gcd(num, den), p) > 1:
            self._rescale()
            num *= p ** (length + 2)
            quotient, remainder = divmod(num, den)
        return _exact(num, den, *where) if remainder else quotient

    def _rescale(self) -> None:
        """``scale *= P`` in place: every ``N(x)`` gains ``P^(|x| + 2)``."""
        p = self.weight_product
        radix = self.radix
        factor = [p ** (length + 2) for length in range(radix)]
        memo = self.memo
        for key, value in memo.items():
            memo[key] = value * factor[key % radix]
        self.scale *= p

    def _store(self, key: int, value: int, weight: int) -> None:
        """Memoise ``N(key)`` unless it is zero, and while ``key_0 = 0`` and
        ``|key| < max_length``, its scaling image ``N(key + e_1) = N(key)
        scale D d(key) / (D mu)`` too; ``weight`` is ``D d(key)``."""
        memo = self.memo
        radix = self.radix
        # Forward steps left: none from a key with a unit at slot 0.
        left = 0 if key // radix % radix else self.max_length - key % radix
        den = self.degrees[0] * self.mu
        while value:
            memo[key] = value
            if not left:
                return
            left -= 1
            num = value * self.scale * weight
            value, remainder = divmod(num, den)
            key += self.step[1]
            if remainder:
                _exact(num, den, "scaling step to", self.decode([key])[0])
            # ``d(key + e_1) = d(key) + sigma(1) - 1``.
            weight += self.degrees[2][1]

    # -- one WDVV equation per unknown ------------------------------------

    def _solve(self, key: MultiIndex) -> None:
        """Solve and store ``N(key)``, ``key`` supported on indices >= 2, by
        WDVV ``(1, m - 1, k, l)`` at ``alpha = key - e_m - e_k - e_l``."""
        step = self.step
        support = [i for i, x in enumerate(key) if x]
        # ``m`` is the smallest support index, ``k`` the largest, and ``l``
        # the largest left once ``e_m + e_k`` is taken off.
        m = support[0]
        k = support[-1]
        l = k if key[k] > 1 else support[-2]
        key_id = sum(map(operator.mul, key, step))
        alpha = key_id - step[m] - step[k] - step[l]
        # Split the equation once per ``alpha`` into ``(id(beta),
        # binom(alpha, beta), n + |beta| - charge(beta))``, ``beta = 0``
        # first, slot by slot; ``|beta| - charge(beta)`` is ``-sum_i (i - 1)
        # beta_i``.  Keys walked in a row often share ``alpha``, so the last
        # split is kept.
        if alpha != self._alpha:
            rest = list(key)
            rest[m] -= 1
            rest[k] -= 1
            rest[l] -= 1
            terms = [(0, 1, self.w.n)]
            for i, x in enumerate(rest):
                if x:
                    row = [
                        (y * step[i], math.comb(x, y), (1 - i) * y)
                        for y in range(x + 1)
                    ]
                    terms = [
                        (beta + b, binom * c, shift + s)
                        for beta, binom, shift in terms
                        for b, c, s in row
                    ]
            self._terms = terms
            self._alpha = alpha
            self._alpha_key = tuple(rest)
        self._store(
            key_id, self._solve_equation(m - 1, k, l),
            _scaled_weight(self.degrees, key),
        )

    def _solve_equation(self, j: int, k: int, l: int) -> int:
        """Isolate the leading unknown of WDVV ``(1, j, k, l)`` at the
        ``alpha`` of the last split.

        The unknown ``A(alpha + e_{1+j} + e_k + e_l)`` is the left-side term
        at ``beta = 0``.  The other top-length one, ``A(alpha + e_j + e_k +
        e_{(1+l) mod mu})`` (right side, ``beta = alpha``), comes earlier in
        the walk, has a slot 0 or 1, or fails the selection rule; so it and
        every other term are stored or exact zeros (the read invariant of
        the module docstring).  On numerators the ``P`` powers cancel: ``N``
        of the unknown is the sum of ``binom ginv[a] N N`` over the known
        terms, divided by ``ginv[a] N`` of the cubic datum at ``beta = 0``.
        """
        mu = self.mu
        step = self.step
        partner = self.partner
        get = self.memo.get
        alpha = self._alpha
        # The ids of ``e_1 + e_j``, ``e_j + e_k``, ``alpha + e_k + e_l`` and
        # ``alpha + e_1 + e_l``: each read adds ``id(e_a)`` or ``id(e_{a*})``
        # and adds ``id(beta)`` to the first two, subtracts it from the rest.
        left_f = step[1] + step[j]
        left_h = step[j] + step[k]
        right_f = alpha + step[k] + step[l]
        right_h = alpha + step[1] + step[l]
        total = 0
        pivot = 0
        # Of each sum over ``a`` only the one ``a`` that gives the first
        # factor the right charge can be nonzero.
        for beta, binom, shift in self._terms:
            u, g, v = partner[(shift - j - 1) % mu]
            f1 = get(beta + left_f + u, 0)
            if not beta:
                # The unknown's own term: keep its coefficient as the pivot.
                pivot = g * f1
            elif f1:
                total -= binom * g * f1 * get(right_f - beta + v, 0)
            u, g, v = partner[(shift - j - k) % mu]
            h1 = get(beta + left_h + u, 0)
            if h1:
                total += binom * g * h1 * get(right_h - beta + v, 0)
        alpha = self._alpha_key
        if not pivot:
            raise InternalConsistencyError(
                f"zero pivot in WDVV equation (1,{j},{k},{l}) at alpha={alpha}"
            )
        return self._divide(
            total, pivot, sum(alpha) + 3,
            "WDVV equation", (1, j, k, l), "at alpha", alpha,
        )


def _admissible_keys(w: Weights, max_length: int):
    """The unknowns of the solver: every ``alpha`` with ``alpha_0 = alpha_1 =
    0`` and ``4 <= |alpha| <= max_length`` that passes the selection rule, by
    length and, within a length, in descending lexicographic order.  For
    ``mu = 2`` there is none.

    ``best[k][r]`` maps each charge mod ``mu`` that ``r`` units on the slots
    ``k .. mu-1`` can carry to the largest ``D d`` they can add.  The walk
    fills the slots from slot 2 on, each from its most units down, and
    enters a branch only if ``best`` says the slots after it can still meet
    both rules, so every branch yields a key.
    """
    mu = w.mu
    _, base, steps = _degree_table(w)
    # ``best[mu]``: no slots left, so only zero units, of charge 0.
    best = [[]] * mu + [[{0: 0}] + [{}] * max_length]
    for k in range(mu - 1, 1, -1):
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
        for x in range(r, -1, -1):
            c, d = (charge - k * x) % mu, degree + x * steps[k]
            top = best[k + 1][r - x].get(c)
            if top is not None and d + top >= 0:
                key[k] = x
                if k + 2 == mu:
                    # The last slot takes the ``r - x`` units ``best`` admits.
                    key[k + 1] = r - x
                    yield tuple(key)
                else:
                    yield from walk(k + 1, r - x, c, d)

    # Returned, not yielded, so the call builds the table above: a depth it
    # cannot index fails before the solver is seeded.  With ``mu = 2`` there
    # is no slot 2 to start from.
    return (
        alpha
        for length in (range(4, max_length + 1) if mu > 2 else ())
        for alpha in walk(2, length, (w.n + length - 3) % mu, base)
    )


def reconstruct(w: Weights, max_length: int) -> Potential:
    """Determine every coefficient with ``3 <= |alpha| <= max_length``.

    >>> p = reconstruct(Weights(1, 1), 5)
    >>> [p.coeff((0, k)) for k in range(3, 6)]
    [Fraction(1, 1), Fraction(1, 1), Fraction(1, 1)]

    Raises ``ValueError`` unless ``max_length`` is a plain ``int`` (not a
    ``bool``) of at least 3 and ``mu >= 2``; ``max_length`` is checked first.
    """
    _check_depth(max_length)
    # Multi-indices with a slot 0 or 1, and those the rule forces to zero,
    # are never walked; a key with a slot-1 entry was stored by scaling when
    # its source was, or is zero.
    keys = _admissible_keys(w, max_length)
    rec = _Reconstructor(w, max_length)
    for key in keys:
        rec._solve(key)
    # The memo holds no zero.  Its one ``Fraction`` view decodes each id once,
    # in the memo's order.
    memo = rec.memo
    radix = rec.radix
    den = [rec.scale ** (length + 2) for length in range(radix)]
    coeffs = zip(
        rec.decode(memo),
        [Fraction(value, den[key % radix]) for key, value in memo.items()],
    )
    return Potential(weights=w, max_length=max_length, coeffs=dict(coeffs))


def _third_derivatives(key: MultiIndex):
    """Every ordered ``(x, y, z)`` with ``base = key - e_x - e_y - e_z`` in
    N^mu, as ``(base, x, y, z)``: ``A(key)`` is ``F_xyz(base)``."""
    support = [i for i, x in enumerate(key) if x]
    for x, y, z in iter_product(support, repeat=3):
        base = list(key)
        base[x] -= 1
        base[y] -= 1
        base[z] -= 1
        if min(base) >= 0:
            yield tuple(base), x, y, z


class _ResidualTables:
    """The stored third derivatives of one potential, on integer numerators,
    and the residuals of the last ``alpha`` asked for (see the module
    docstring).

    With ``T`` the lcm of the stored denominators, ``index[beta][x]`` lists
    ``(y, z, F_xyz(beta) T)`` for every stored nonzero coefficient, and
    ``den`` is ``T^2``.  One table is kept at a time, so a sweep in
    alpha-major order builds each table once in flat memory.
    """

    def __init__(self, p: Potential):
        self.dual, self.ginv = _metric_diagonal(p.weights)
        scale = math.lcm(*(value.denominator for value in p.coeffs.values()))
        index: dict[MultiIndex, dict[int, list[tuple[int, int, int]]]] = {}
        for key, value in p.coeffs.items():
            if value:
                value = value.numerator * (scale // value.denominator)
                for base, x, y, z in _third_derivatives(key):
                    index.setdefault(base, {}).setdefault(x, []).append((y, z, value))
        self.index = index
        self.den = scale * scale
        self.alpha: MultiIndex | None = None
        self.residuals: Mapping[Equation, Fraction] = MappingProxyType({})

    def at(self, alpha: MultiIndex) -> Mapping[Equation, Fraction]:
        """Read-only ``{(i, j, k, l): residual}`` at ``alpha``, nonzero
        entries only."""
        if alpha == self.alpha:
            return self.residuals
        index, dual, ginv = self.index, self.dual, self.ginv
        # ``S(x, y, c, d) T^2`` over the keys some pair of stored terms reaches.
        table: dict[Equation, int] = {}
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
        # ``S(x, y, c, d)`` enters two residuals: ``(x, y, c, d)`` as the left
        # sum and ``(c, x, y, d)`` as the right one.
        residuals: dict[Equation, int] = {}
        for (x, y, c, d), value in table.items():
            residuals[x, y, c, d] = residuals.get((x, y, c, d), 0) + value
            residuals[c, x, y, d] = residuals.get((c, x, y, d), 0) - value
        den = self.den
        self.residuals = MappingProxyType(
            {key: Fraction(value, den) for key, value in residuals.items() if value}
        )
        self.alpha = alpha
        return self.residuals


def residual_table(p: Potential, alpha: MultiIndex) -> Mapping[Equation, Fraction]:
    """Read-only ``{(i, j, k, l): residual}`` of every associativity equation
    whose coefficient of ``t^alpha / alpha!`` is not zero; empty on a
    consistent potential.

    Each residual is ``S(i, j, k, l) - S(j, k, i, l)``, contracted from the
    stored nonzero coefficients alone, without the selection rule, so a
    sweep can catch a wrong coefficient on either side of it (see the module
    docstring).  A table returned earlier stays as it was.

    Raises ``ValueError`` if ``alpha`` is not in N^mu or the potential is too
    shallow to evaluate it.
    """
    tables = p._residual_tables
    # The last alpha's own tuple has passed the checks below already; a
    # potential with no table yet has no last alpha, only ``None`` in its
    # place.
    if alpha is tables.alpha is not None:
        return tables.residuals
    alpha = _multi_index(alpha, p.weights.mu)
    if sum(alpha) + 3 > p.max_length:
        raise ValueError(
            f"residual at |alpha|={sum(alpha)} needs depth {sum(alpha) + 3}, "
            f"potential has {p.max_length}"
        )
    return tables.at(alpha)


def wdvv_residual(
    p: Potential, i: int, j: int, k: int, l: int, alpha: MultiIndex
) -> Fraction:
    """Coefficient of ``t^alpha / alpha!`` in the associativity equation
    ``(i, j, k, l)``; exactly zero on a consistent potential.

    A lookup in ``residual_table(p, alpha)``; asking for the residuals in
    alpha-major order builds each table once.

    Raises ``ValueError`` if an index is not a plain ``int`` (not a
    ``bool``) in ``[0, mu)``, if ``alpha`` is not in N^mu, or if the
    potential is too shallow to evaluate it.
    """
    mu = p.weights.mu
    if not (
        type(i) is type(j) is type(k) is type(l) is int
        and 0 <= i < mu and 0 <= j < mu and 0 <= k < mu and 0 <= l < mu
    ):
        raise ValueError(
            f"equation ({i},{j},{k},{l}) needs integer indices in [0, {mu})"
        )
    return residual_table(p, alpha).get((i, j, k, l), ZERO)
